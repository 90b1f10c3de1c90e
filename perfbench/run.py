"""cmclab benchmark runner.

    python3 perfbench/run.py --workload generate --seed 1 --seconds 30 --trace 0

Run from the root of a cmclab checkout.  Builds the workload's inputs from
the seed, runs ops in a closed loop for --seconds, checks each op's outputs,
and prints a human-readable table followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 every
second op runs traced and the metrics are the per-layer ones.  All files go
to a temporary directory under .perfbench-tmp/ in the checkout, removed at
exit.  See README.md beside this file for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from reference import reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench-tmp"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 150
WORKLOAD_NAMES = ("generate", "verify-sweep", "reload")


@dataclass
class Phase:
    times: list[float] = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)  # reference job around each op


def _traced_op(wl, tracer, op_id: int):
    import spans

    patches = spans.install(tracer)
    try:
        tracer.op = op_id
        with tracer.span(spans.OP):
            return wl.op()
    finally:
        tracer.op = -1
        spans.uninstall(patches)


def measure(wl, seconds: float, tracer=None) -> Phase:
    """Closed loop: start ops until `seconds` have passed.

    The reference job runs before the first op and after every op; each op
    is paired with the mean of the two runs around it.  With a tracer,
    every second op runs traced, so traced and untraced ops share the window
    and the overhead is their difference; at least one op of each kind runs.
    """
    from workloads import Outcome

    phase = Phase()
    start = perf_counter()
    ref_before = reference_seconds()
    least = 1 if tracer is None else 2
    while len(phase.outcomes) < least or perf_counter() - start < seconds:
        k = len(phase.outcomes)
        traced = tracer is not None and k % 2 == 1
        error = None
        t0 = perf_counter()
        try:
            result = _traced_op(wl, tracer, k) if traced else wl.op()
        except Exception as exc:  # a raising op is counted as failed
            error = exc
        phase.times.append(perf_counter() - t0)
        phase.traced.append(traced)
        if error is None:
            try:
                outcome = wl.check(result)
            except Exception as exc:
                error = exc
        if error is not None:
            outcome = Outcome(False, f"{type(error).__name__}: {error}", 0, 0, 0, 0)
        phase.outcomes.append(outcome)
        ref_after = reference_seconds()
        phase.refs.append(0.5 * (ref_before + ref_after))
        ref_before = ref_after
    return phase


def fresh_setup(workload: str, seed: int, workdir: Path) -> float:
    """Run the workload's setup in a new interpreter; return its wall time."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-into", str(workdir),
           "--workload", workload, "--seed", str(seed)]
    t0 = perf_counter()
    subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def tail_percentile(times: list[float]):
    """Highest of p99/p90/p75 with at least ten samples beyond it, or None."""
    for p in (99, 90, 75):
        if len(times) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(times, n=100)[p - 1]
    return None


def _git(*args) -> str:
    out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                         text=True, timeout=30, check=True)
    return out.stdout.strip()


def run_record(args) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    git = {"sha": "unavailable", "dirty": None}
    if (ROOT / ".git").exists():
        try:
            git = {"sha": _git("rev-parse", "HEAD"),
                   "dirty": bool(_git("status", "--porcelain"))}
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k, "unset") for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git": git,
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def end_to_end(setups: list[float], phase: Phase) -> tuple[dict, list[str]]:
    """The bounded metrics, and table lines that add the unbounded ones."""
    ok = [o for o in phase.outcomes if o.ok]
    n = len(phase.outcomes)
    checks = sum(o.checks for o in phase.outcomes)
    checks_failed = sum(o.checks_failed for o in phase.outcomes)
    in_ref = [t / r for t, r in zip(phase.times, phase.refs)]
    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} fresh-process setups"),
        "op_p50_ref": (statistics.median(in_ref), "ref",
                       f"median of n={n} ops, each over the reference job around it"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "this process, setup children excluded"),
        "checks_passed_ratio": (1.0 - _ratio(checks_failed, checks), "ratio",
                                f"{checks - checks_failed}/{checks} checks passed"),
    }
    extra = [
        ("op_p50_s", statistics.median(phase.times), "s", f"median of n={n} ops"),
        ("grid_points_per_s", _ratio(sum(o.points for o in ok), sum(phase.times)), "1/s",
         f"{len(ok)} ops in {sum(phase.times):.3f} s of op time"),
        ("ref_p50_s", statistics.median(phase.refs), "s", "reference job"),
        ("output_bytes", statistics.median(o.output_bytes for o in ok) if ok else 0,
         "bytes", "median bytes written per op"),
        ("fail_ratio", _ratio(n - len(ok), n), "ratio", f"{n - len(ok)}/{n} ops failed"),
        ("checks_failed_ratio", _ratio(checks_failed, checks), "ratio",
         f"{checks_failed}/{checks} checks failed"),
    ]
    tail = tail_percentile(phase.times)
    if tail:
        extra.append((f"op_p{tail[0]}_s", tail[1], "s", f"n={n}"))
    lines = [f"{k:<22} {v:<22.10g} {u:<6} {note}" for k, (v, u, note) in metrics.items()]
    lines += [f"{k:<22} {v:<22.10g} {u:<6} {note}  (not bounded)" for k, v, u, note in extra]
    return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}, lines


def per_layer(phase: Phase, tracer) -> tuple[dict, list[str]]:
    import spans

    table = spans.layer_table(tracer.spans)
    plain = [t / r for t, r, tr in zip(phase.times, phase.refs, phase.traced) if not tr]
    traced = [t / r for t, r, tr in zip(phase.times, phase.refs, phase.traced) if tr]
    ok = [o for o, tr in zip(phase.outcomes, phase.traced) if tr and o.ok]
    table["op.traced_p50_s"] = statistics.median(t for t, tr in zip(phase.times, phase.traced) if tr)
    table["trace.overhead_ref"] = statistics.median(traced) - statistics.median(plain)
    table["output_bytes"] = statistics.median(o.output_bytes for o in ok) if ok else 0
    lines = [f"{k:<36} {v:.10g}" for k, v in table.items()]
    lines.append(f"# tracing overhead {table['trace.overhead_ref']:+.4f} ref per op: traced "
                 f"median {statistics.median(traced):.4f} ref (n={len(traced)}), untraced "
                 f"median {statistics.median(plain):.4f} ref (n={len(plain)})")
    residuals = [
        d["op_s"] - sum(v for k, v in d.items() if k.endswith(".self_s"))
        for d in spans.per_op(tracer.spans).values() if "op_s" in d
    ]
    lines.append(f"# layer self times sum to the op span in each of {len(residuals)} traced "
                 f"ops; largest residual {max(map(abs, residuals)):.2e} s")
    return {k: {"value": v, "unit": unit_of(k)} for k, v in table.items()}, lines


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ref"):
        return "ref"
    if metric.endswith("bytes"):
        return "bytes"
    if metric.endswith("ratio"):
        return "ratio"
    return "count"


def _sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="cmclab benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-into", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "cmclab" / "__init__.py").is_file():
        print(f"error: no cmclab sources under {SRC}; run from a cmclab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    if args.setup_into:
        cls.setup(Path(args.setup_into), args.seed)
        return 0

    signal.signal(signal.SIGTERM, _sigterm)
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT))
    try:
        workdir = tmp / "setup"
        repeats = SETUP_REPEATS if args.trace == 0 else 1
        setups = [fresh_setup(args.workload, args.seed, workdir) for _ in range(repeats)]
        wl = cls(workdir, args.seed)
        print(f"record {json.dumps(run_record(args))}")
        if args.trace == 0:
            phase = measure(wl, args.seconds)
            metrics, lines = end_to_end(setups, phase)
        else:
            import spans

            tracer = spans.Tracer()
            phase = measure(wl, args.seconds, tracer)
            metrics, lines = per_layer(phase, tracer)
        for name, digest in (getattr(wl, "digests", None) or {}).items():
            print(f"sha256 {name} {digest}")
        print("\n".join(lines))
        for i, o in enumerate(phase.outcomes):
            if not o.ok:
                print(f"# op {i} failed: {o.why}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still owns a directory there
    failed = sum(not o.ok for o in phase.outcomes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(phase.outcomes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
