"""The benchmark's workloads: inputs from a seed, one op, and its correctness gate.

Each workload is a closed loop with one client: the runner calls `op()`,
times it, then calls `check()` on what it returned before starting the next
op.  `setup()` builds the inputs into a directory; the runner calls it in a
fresh interpreter so that its time includes importing cmclab.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

import cmclab
from cmclab import cli
from cmclab.report import parse_machine, registry_names

# the README's default Delaunay config
GENERATE_CONFIG = {"family": "delaunay", "H": 0.5, "u0": 0.3, "du0": 0.0, "lambda": 0.5}
N = 201  # grid points per side, every workload
SWEEP_POOL = 12
SWEEP_H = 0.5

RUN_FILES = (
    "surface.dat",
    "frame.dat",
    "mesh_primary.obj",
    "mesh_shifted.obj",
    "diagnostics.dat",
    "report.txt",
    "report.kv",
)


@dataclass
class Outcome:
    ok: bool
    why: str  # empty when ok
    points: int  # nx * ny of the op's grid
    output_bytes: int
    checks: int
    checks_failed: int


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _cli(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


def _report_checks(path) -> tuple[int, int]:
    records = parse_machine(Path(path).read_text()).records
    return len(records), sum(not r.passed for r in records)


def write_config(workdir: Path, n: int) -> Path:
    cfg = {**GENERATE_CONFIG, "nx": n, "ny": n, "out_dir": str(workdir / "out")}
    path = workdir / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class Generate:
    """`cmclab generate` on the default config; writes all seven files."""

    name = "generate"

    @staticmethod
    def setup(workdir: Path, seed: int, n: int = N) -> None:
        write_config(workdir, n)

    def __init__(self, workdir: Path, seed: int, n: int = N):
        self.config = workdir / "config.json"
        self.out = workdir / "out"
        self.points = n * n
        self.digests: dict[str, str] | None = None

    def op(self):
        return _cli("generate", "--config", str(self.config))

    def check(self, code) -> Outcome:
        try:
            missing = [f for f in RUN_FILES if not (self.out / f).is_file()]
            nbytes = sum((self.out / f).stat().st_size for f in RUN_FILES if f not in missing)
            checks = _report_checks(self.out / "report.kv") if not missing else (0, 0)
            digests = {f: sha256(self.out / f) for f in ("report.kv", "diagnostics.dat")
                       if f not in missing}
        finally:
            shutil.rmtree(self.out, ignore_errors=True)
        if self.digests is None and not missing:
            self.digests = digests
        why = ""
        if code != 0:
            why = f"exit code {code}"
        elif missing:
            why = f"missing {', '.join(missing)}"
        elif digests != self.digests:
            why = "report.kv or diagnostics.dat differs from the run's first op"
        return Outcome(not why, why, self.points, nbytes, *checks)


class Reload:
    """`cmclab verify --in D` then `cmclab export --in D` on a stored run."""

    name = "reload"
    GATED = ("report.kv", "mesh_primary.obj", "mesh_shifted.obj")
    WRITTEN = ("report.kv", "report.txt", "mesh_primary.obj", "mesh_shifted.obj")

    @staticmethod
    def setup(workdir: Path, seed: int, n: int = N) -> None:
        code = _cli("generate", "--config", str(write_config(workdir, n)))
        if code != 0:
            raise RuntimeError(f"setup run exited with {code}")

    def __init__(self, workdir: Path, seed: int, n: int = N):
        self.run_dir = workdir / "out"
        self.points = n * n
        self.digests = {f: sha256(self.run_dir / f) for f in self.GATED}

    def op(self):
        return (
            _cli("verify", "--in", str(self.run_dir)),
            _cli("export", "--in", str(self.run_dir)),
        )

    def check(self, codes) -> Outcome:
        nbytes = sum(
            (self.run_dir / f).stat().st_size
            for f in self.WRITTEN
            if (self.run_dir / f).is_file()
        )
        checks = (0, 0)
        why = ""
        if codes != (0, 0):
            why = f"exit codes verify={codes[0]} export={codes[1]}"
        else:
            checks = _report_checks(self.run_dir / "report.kv")
            changed = [f for f in self.GATED if sha256(self.run_dir / f) != self.digests[f]]
            if changed:
                why = f"{', '.join(changed)} differ from the stored run"
        return Outcome(not why, why, self.points, nbytes, *checks)


def sweep_configs(seed: int, k: int = SWEEP_POOL) -> list[tuple[str, float, float]]:
    """k configs (family, lambda, u0) drawn from the seed.

    lambda is stratified over [0.05, 0.95] and u0 over [-0.6, 0.6], so every
    seed covers both ranges, the small-lambda corner included; half the
    configs are cylinders, whose u0 is 0.
    """
    rng = random.Random(seed)
    lam_cells = rng.sample(range(k), k)
    u0_cells = rng.sample(range(k), k)
    families = ["cylinder", "delaunay"] * (k // 2) + ["delaunay"] * (k % 2)
    rng.shuffle(families)
    out = []
    for fam, lc, uc in zip(families, lam_cells, u0_cells):
        lam = 0.05 + 0.9 * (lc + rng.random()) / k
        u0 = -0.6 + 1.2 * (uc + rng.random()) / k
        out.append((fam, lam, u0 if fam == "delaunay" else 0.0))
    return out


class VerifySweep:
    """The README library tour on seeded configs: data -> frame -> checks."""

    name = "verify-sweep"

    @staticmethod
    def setup(workdir: Path, seed: int, n: int = N) -> None:
        (workdir / "configs.json").write_text(json.dumps(sweep_configs(seed)))

    def __init__(self, workdir: Path, seed: int, n: int = N):
        self.configs = [tuple(c) for c in json.loads((workdir / "configs.json").read_text())]
        self.grid = cmclab.GridSpec(-1.0, 1.0, -1.0, 1.0, n, n)
        self.done = 0
        self.seen: dict[tuple, str] = {}

    def op(self):
        cfg = fam, lam, u0 = self.configs[self.done % len(self.configs)]
        self.done += 1
        if fam == "cylinder":
            data = cmclab.cylinder_data(self.grid)
        else:
            data = cmclab.delaunay_data(self.grid, SWEEP_H, u0, 0.0)
        frame = cmclab.integrate_frame(data, cmclab.SpectralParam(lam))
        report = cmclab.verify_theorem(data, frame)
        cmclab.render_text(report)
        return cfg, report, cmclab.render_machine(report)

    def check(self, result) -> Outcome:
        cfg, report, machine = result
        first = self.seen.setdefault(cfg, machine)
        checks = len(report.records)
        failed = sum(not r.passed for r in report.records)
        why = ""
        if checks != len(registry_names()):
            why = f"{checks} checks evaluated, expected {len(registry_names())}"
        elif machine != first:
            why = f"report for {cfg} differs from its first evaluation"
        points = self.grid.nx * self.grid.ny
        return Outcome(not why, why, points, 0, checks, failed)


WORKLOADS = {w.name: w for w in (Generate, VerifySweep, Reload)}
