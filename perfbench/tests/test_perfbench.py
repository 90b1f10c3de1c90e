"""Tests of the benchmark itself, on grids small enough to run in seconds.

    python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads
from spans import Span

N = 41  # h = 0.05, fine enough for the integrator's determinant monitor
ROOT = Path(__file__).resolve().parents[2]


def test_self_times_subtract_the_union_of_children():
    tree = [
        Span("op", 0.0, 10.0, None, 0),
        Span("a", 1.0, 6.0, 0, 0),
        Span("b", 2.0, 3.0, 1, 0),
        Span("c", 4.0, 5.0, 1, 0),
        Span("d", 7.0, 9.0, 0, 0),
        # overlapping children count once
        Span("e", 20.0, 24.0, None, 1),
        Span("f", 21.0, 23.0, 5, 1),
        Span("g", 22.0, 23.5, 5, 1),
    ]
    assert spans.self_times(tree) == [3.0, 3.0, 1.0, 1.0, 2.0, 1.5, 2.0, 1.5]
    assert sum(spans.self_times(tree)[:5]) == 10.0


def test_per_op_rows_sum_to_the_op_span():
    k = ("primary-surface", "x")
    tree = [
        Span("op", 0.0, 10.0, None, 3),
        Span("cli.main", 0.5, 9.5, 0, 3),
        Span("pipeline.glue", 1.0, 9.0, 1, 3),
        Span("surfaces.surface", 2.0, 4.0, 2, 3, {"key": k}),
        Span("trace", 4.0, 4.5, 2, 3),
        Span("surfaces.surface", 5.0, 6.0, 2, 3, {"key": k}),
        Span("pipeline.save_frame", 6.0, 8.0, 2, 3, {"bytes": 100}),
    ]
    d = spans.per_op(tree)[3]
    assert d["op_s"] == 10.0
    assert sum(v for name, v in d.items() if name.endswith(".self_s")) == 10.0
    assert d["cli.self_s"] == 1.0 and d["pipeline.self_s"] == 2.5
    assert d["surfaces.surface.calls"] == 2
    assert d["surfaces.surface.unique_ratio"] == 0.5
    assert d["pipeline.save_frame.bytes"] == 100


def test_sweep_configs_follow_the_seed():
    a = workloads.sweep_configs(7)
    assert a == workloads.sweep_configs(7)
    assert a != workloads.sweep_configs(8)
    assert len(set(a)) == workloads.SWEEP_POOL
    assert {fam for fam, _, _ in a} == {"cylinder", "delaunay"}
    for fam, lam, u0 in a:
        assert 0.05 <= lam <= 0.95 and -0.6 <= u0 <= 0.6
        assert fam == "delaunay" or u0 == 0.0
    # one lambda in each stratum of the range
    cells = sorted(int((lam - 0.05) / 0.9 * workloads.SWEEP_POOL) for _, lam, _ in a)
    assert cells == list(range(workloads.SWEEP_POOL))


def wrapped_names() -> list[str]:
    """Every cmclab module attribute that is currently a traced wrapper."""
    return [
        f"{modname}.{attr}"
        for modname, mod in list(sys.modules.items())
        if modname == "cmclab" or modname.startswith("cmclab.")
        for attr, val in vars(mod).items()
        if hasattr(val, spans.MARK)
    ]


def _ready(cls, tmp_path, n=N):
    cls.setup(tmp_path, 5, n=n)
    return cls(tmp_path, 5, n=n)


def test_install_wraps_every_lookup_name_and_uninstall_restores():
    import cmclab
    import cmclab.verify

    original = cmclab.verify.measure
    patches = spans.install(spans.Tracer())
    try:
        names = wrapped_names()
        for name in ("cmclab.verify.measure", "cmclab.pipeline.measure",
                     "cmclab.pipeline.surface_primary", "cmclab.integrate_frame",
                     "cmclab.cli.main", "cmclab.surfaces.require_h3"):
            assert name in names
    finally:
        spans.uninstall(patches)
    assert wrapped_names() == []
    assert cmclab.verify.measure is original


def test_untraced_run_imports_no_tracing_and_wraps_nothing(tmp_path):
    script = f"""
import sys
sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]
from pathlib import Path
import run, workloads
w = workloads.VerifySweep
w.setup(Path({str(tmp_path)!r}), 5, n={N})
phase = run.measure(w(Path({str(tmp_path)!r}), 5, n={N}), 0)
assert all(o.ok for o in phase.outcomes)
assert "spans" not in sys.modules
wrapped = [f"{{m}}.{{a}}" for m, mod in list(sys.modules.items())
           if m.startswith("cmclab") for a, v in vars(mod).items()
           if hasattr(v, "__wrapped__") or hasattr(v, "__perfbench_span__")]
assert not wrapped, wrapped
"""
    subprocess.run([sys.executable, "-c", script], check=True, timeout=120)


def test_traced_generate_counts_match_the_code(tmp_path):
    wl = _ready(workloads.Generate, tmp_path)
    tracer = spans.Tracer()
    phase = run.measure(wl, 0, tracer)
    assert phase.traced == [False, True]
    assert all(o.ok for o in phase.outcomes)
    assert wrapped_names() == []
    table = spans.layer_table(tracer.spans)
    assert table["surfaces.surface_calls"] == 6
    assert table["surfaces.unique_ratio"] == pytest.approx(2 / 6)
    assert table["surfaces.normal_calls"] == 3
    assert table["measure.calls"] == 3
    assert table["measure.unique_ratio"] == pytest.approx(2 / 3)
    assert table["frames.integrate.calls"] == 1
    assert table["frames.integrate.cells"] == N * N - 1
    assert table["pipeline.write_mesh.calls"] == 2
    op = spans.per_op(tracer.spans)[1]
    total = sum(v for k, v in op.items() if k.endswith(".self_s"))
    assert total == pytest.approx(op["op_s"], rel=1e-9)


def test_traced_sweep_integrates_once_per_op(tmp_path):
    wl = _ready(workloads.VerifySweep, tmp_path)
    tracer = spans.Tracer()
    phase = run.measure(wl, 0, tracer)
    assert all(o.ok for o in phase.outcomes)
    table = spans.layer_table(tracer.spans)
    assert table["frames.integrate.calls"] == 1
    assert table["pipeline.write_mesh.calls"] == 0


def test_sweep_gate_catches_a_changed_report(tmp_path):
    wl = _ready(workloads.VerifySweep, tmp_path)
    wl.configs = wl.configs[:1]
    cfg, report, machine = wl.op()
    assert wl.check((cfg, report, machine)).ok
    assert not wl.check((cfg, report, machine + "# changed\n")).ok


def _scale_last_entry(factor):
    def corrupt(path):
        lines = path.read_text().splitlines(keepends=True)
        row = lines[-1].split()
        row[0] = repr(float(row[0]) * factor)
        lines[-1] = " ".join(row) + "\n"
        path.write_text("".join(lines))

    return corrupt


def _drop_last_row(path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


@pytest.mark.parametrize(
    "corrupt, why",
    [
        (_scale_last_entry(1.5), "exit codes"),  # off the hyperboloid
        (_drop_last_row, "exit codes"),  # truncated
        (_scale_last_entry(1 + 1e-12), "differ from the stored run"),  # still loads
    ],
)
def test_reload_gate_fails_on_a_corrupted_frame_file(tmp_path, corrupt, why):
    wl = _ready(workloads.Reload, tmp_path)
    assert run.measure(wl, 0).outcomes[0].ok
    corrupt(tmp_path / "out" / "frame.dat")
    outcome = run.measure(wl, 0).outcomes[0]
    assert not outcome.ok and why in outcome.why


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = workloads.Outcome(True, "", 1, 0, 25, 0)
    e2e, _ = run.end_to_end([0.1], run.Phase([1.0], [ok], [False], [0.05]))
    assert [(k, v["unit"]) for k, v in e2e.items()] == [
        (m["name"], m["unit"]) for m in spec["end_to_end"]
    ]
    wl = _ready(workloads.VerifySweep, tmp_path)
    tracer = spans.Tracer()
    layers, _ = run.per_layer(run.measure(wl, 0, tracer), tracer)
    assert [(k, v["unit"]) for k, v in layers.items()] == [
        (m["name"], m["unit"]) for m in spec["per_layer"]
    ]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
