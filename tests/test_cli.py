import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cmclab import config, frames, pipeline, report, verify
from cmclab.cli import main
from cmclab.minkowski import DET_DRIFT_TOL
from cmclab.pipeline import (
    DIAGNOSTICS_FILE,
    FRAME_FILE,
    MESH_FILES,
    REPORT_MACHINE_FILE,
    REPORT_TEXT_FILE,
    SURFACE_FILE,
)
from cmclab.report import resolve_tolerances
from cmclab.surface_data import MIN_NODES, GridSpec, SurfaceData, save_surface_data

SRC = Path(__file__).resolve().parents[1] / "src"


def write_config(path, **overrides):
    # h = 0.05: fine enough for the integrator's determinant monitor
    obj = {
        "family": "cylinder",
        "lambda": 0.5,
        "nx": 41,
        "ny": 41,
    }
    obj.update(overrides)
    path.write_text(json.dumps(obj))
    return path


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    out = base / "run"
    cfg = write_config(base / "cfg.json", out_dir=str(out))
    assert main(["generate", "--config", str(cfg)]) == 0
    return base, out, cfg


def test_generate_writes_and_passes(generated, capsys):
    _, out, _ = generated
    assert (out / DIAGNOSTICS_FILE).exists()
    assert (out / REPORT_MACHINE_FILE).exists()


def test_generate_is_deterministic(generated, tmp_path):
    base, out, _ = generated
    out2 = tmp_path / "run2"
    cfg2 = write_config(tmp_path / "cfg.json", out_dir=str(out2))
    assert main(["generate", "--config", str(cfg2)]) == 0
    assert (out / DIAGNOSTICS_FILE).read_bytes() == (out2 / DIAGNOSTICS_FILE).read_bytes()
    assert (out / REPORT_MACHINE_FILE).read_bytes() == (out2 / REPORT_MACHINE_FILE).read_bytes()


def test_generate_writes_identical_frame_bytes(generated, tmp_path, monkeypatch):
    _, out, _ = generated
    # a day later: no clock reading may reach the binary frame file
    later = time.time() + 86400
    monkeypatch.setattr(time, "time", lambda: later)
    out2 = tmp_path / "run2"
    cfg2 = write_config(tmp_path / "cfg.json", out_dir=str(out2))
    assert main(["generate", "--config", str(cfg2)]) == 0
    assert (out / FRAME_FILE).read_bytes() == (out2 / FRAME_FILE).read_bytes()


def test_verify_subcommand(generated, capsys):
    _, out, _ = generated
    assert main(["verify", "--in", str(out)]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_report_subcommand(generated, capsys):
    _, out, _ = generated
    assert main(["report", "--in", str(out)]) == 0
    text = capsys.readouterr().out
    assert "overall: PASS" in text
    assert "[PASS]" in text


def test_report_machine_format(generated, capsys):
    _, out, _ = generated
    assert main(["report", "--in", str(out), "--machine"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# verification-report"
    checks = [ln for ln in lines if not ln.startswith("#")]
    # one check per line
    assert all(len(ln.split()) == 4 for ln in checks)


def test_export_subcommand(generated, capsys):
    _, out, _ = generated
    assert main(["export", "--in", str(out)]) == 0


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["generate", "--config", str(tmp_path / "nope.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and "nope.json" in err


def test_invalid_lambda_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "o"))
    obj = json.loads(cfg.read_text())
    obj["lambda"] = 1.2
    cfg.write_text(json.dumps(obj))
    assert main(["generate", "--config", str(cfg)]) == 2


def test_report_without_run_exits_2(tmp_path, capsys):
    assert main(["report", "--in", str(tmp_path)]) == 2
    assert "report.kv" in capsys.readouterr().err


def test_verify_without_run_exits_2(tmp_path, capsys):
    assert main(["verify", "--in", str(tmp_path)]) == 2


def _config_not_utf8(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "o"))
    cfg.write_bytes(cfg.read_bytes().replace(b"cylinder", b"cyl\xffinder"))
    return cfg, "cfg.json: config is not valid JSON"


def _config_is_a_directory(tmp_path):
    return tmp_path, str(tmp_path)


def _input_is_a_directory(tmp_path):
    src = tmp_path / "input"
    src.mkdir()
    keys = {"family": "custom-file", "input": str(src), "out_dir": str(tmp_path / "o")}
    return write_config(tmp_path / "cfg.json", **keys), str(src)


def _out_dir_is_a_file(tmp_path):
    out = tmp_path / "o"
    out.write_text("")
    return write_config(tmp_path / "cfg.json", out_dir=str(out)), str(out)


@pytest.mark.parametrize(
    "fault",
    [_config_not_utf8, _config_is_a_directory, _input_is_a_directory, _out_dir_is_a_file],
    ids=["config-not-utf8", "config-directory", "input-directory", "out-dir-file"],
)
def test_unreadable_input_exits_2(tmp_path, capsys, fault):
    # exit 1 means a verification failure; a file that cannot be read is bad input
    cfg, named = fault(tmp_path)
    assert main(["generate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
def test_out_dir_file_is_refused_before_any_work(tmp_path, capsys, monkeypatch, under):
    # the whole run used to be computed first and thrown away at mkdir
    def never(*args, **kwargs):
        raise AssertionError("a refused out_dir must not be integrated")

    monkeypatch.setattr(pipeline, "integrate_frame", never)
    blocker = tmp_path / "o"
    blocker.write_text("")
    out = blocker / "run" if under else blocker
    cfg = write_config(tmp_path / "cfg.json", out_dir=str(out))
    assert main(["generate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1
    assert str(out) in err and "not a directory" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "o"]
    assert blocker.read_text() == ""


@pytest.mark.parametrize("command", ["verify", "report"])
def test_report_kv_not_utf8_names_the_file(generated, tmp_path, capsys, command):
    _, out, _ = generated
    run_dir = tmp_path / "run"
    shutil.copytree(out, run_dir)
    path = run_dir / REPORT_MACHINE_FILE
    path.write_bytes(b"\xff" + path.read_bytes())
    assert main([command, "--in", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1
    assert f"{path}: " in err and "can't decode byte 0xff" in err


@pytest.mark.parametrize(
    "command, name, expected",
    [
        ("verify", "surface.dat", "surface.dat: line 3: non-numeric entry"),
        ("verify", "report.kv", "can't decode byte 0xff"),
        ("report", "report.kv", "can't decode byte 0xff"),
    ],
    ids=["verify-surface", "verify-report", "report-report"],
)
def test_stored_byte_not_utf8_exits_2(generated, tmp_path, capsys, command, name, expected):
    _, out, _ = generated
    run_dir = tmp_path / "run"
    shutil.copytree(out, run_dir)
    path = run_dir / name
    lines = path.read_bytes().splitlines(keepends=True)
    lines[2] = b"\xff" + lines[2]
    path.write_bytes(b"".join(lines))
    assert main([command, "--in", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1
    assert expected in err


def _non_numeric(fields):
    return ["abc"] + fields[1:]


def _short_row(fields):
    return fields[:-1]


def _bad_frame(path, corrupt, edit_frame):
    """The binary frame.dat's counterpart of a bad text row; returns the error."""
    if corrupt is _non_numeric:
        edit_frame(path, F=np.full((2, 2, 41, 41), "abc"))
        return "frame.dat: F is <U3 of shape (2, 2, 41, 41), expected complex128"
    path.write_bytes(path.read_bytes()[:-16])  # cut short by one entry
    return "frame.dat: not a binary frame file"


@pytest.mark.parametrize("name", ["frame.dat", "surface.dat"])
@pytest.mark.parametrize("corrupt", [_non_numeric, _short_row])
def test_bad_stored_row_exits_2(generated, tmp_path, capsys, edit_frame, name, corrupt):
    _, out, _ = generated
    run_dir = tmp_path / "run"
    shutil.copytree(out, run_dir)
    path = run_dir / name
    if name == "frame.dat":
        expected = _bad_frame(path, corrupt, edit_frame)
    else:
        lines = path.read_text().splitlines(keepends=True)
        lines[-1] = " ".join(corrupt(lines[-1].split())) + "\n"
        path.write_text("".join(lines))
        expected = f"{name}: line {len(lines)}:"
    assert main(["verify", "--in", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1
    assert expected in err


@pytest.mark.parametrize("command", ["verify", "export"])
def test_old_text_frame_exits_2(generated, tmp_path, capsys, command):
    _, out, _ = generated
    run_dir = tmp_path / "run"
    shutil.copytree(out, run_dir)
    (run_dir / "frame.dat").write_text(
        "# extended frame: 'lambda r nx ny base_i base_j', "
        "'x_min x_max y_min y_max', rows Re/Im of F00 F01 F10 F11\n"
        "0.5 0.25 41 41 20 20\n-1 1 -1 1\n1 0 0 0 0 0 1 0\n"
    )
    assert main([command, "--in", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1
    assert "frame.dat: not a binary frame file" in err


@pytest.mark.parametrize(
    "command, name", [("verify", "frame.dat"), ("export", "frame.dat"), ("verify", "surface.dat")]
)
def test_non_finite_stored_entry_exits_2(generated, tmp_path, capsys, edit_frame, command, name):
    _, out, _ = generated
    run_dir = tmp_path / "run"
    shutil.copytree(out, run_dir)
    path = run_dir / name
    if name == "frame.dat":
        with np.load(path) as z:
            F = z["F"].copy()
        F[1, 1, 40, 0] = np.nan  # entry (1, 1) at node (40, 0), as in frame.F
        edit_frame(path, F=F)
        expected = "frame.dat: F[1, 1, 40, 0] = (nan+0j) is not finite"
    else:
        lines = path.read_text().splitlines(keepends=True)
        lines[6] = " ".join(lines[6].split()[:2] + ["nan"]) + "\n"
        path.write_text("".join(lines))
        expected = "surface.dat: data row 5 has (x, y, u) = (-0.8, -1.0, nan), not all finite"
    before = {p.name: p.read_bytes() for p in run_dir.glob("mesh_*.obj")}
    assert main([command, "--in", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1
    assert expected in err
    assert {p.name: p.read_bytes() for p in run_dir.glob("mesh_*.obj")} == before


def test_stored_row_off_the_grid_exits_2(generated, tmp_path, capsys):
    _, out, _ = generated
    run_dir = tmp_path / "run"
    shutil.copytree(out, run_dir)
    path = run_dir / "surface.dat"
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[6].split()
    fields[0] = "0.9"
    lines[6] = " ".join(fields) + "\n"
    path.write_text("".join(lines))
    assert main(["verify", "--in", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1
    assert "surface.dat: data row 5 " in err


@pytest.mark.parametrize("name, width", [("frame.dat", 6), ("surface.dat", 4)])
def test_stored_header_with_extra_fields_exits_2(
    generated, tmp_path, capsys, edit_frame, name, width
):
    _, out, _ = generated
    run_dir = tmp_path / "run"
    shutil.copytree(out, run_dir)
    path = run_dir / name
    if name == "frame.dat":
        # the binary frame's header: its four extents and two extra entries
        edit_frame(path, extents=np.array([-1.0, 1.0, -1.0, 1.0, 0.0, 7.0]))
        expected = f"frame.dat: extents is float64 of shape ({width},), expected"
    else:
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1].rstrip("\n") + " junk 7\n"
        path.write_text("".join(lines))
        expected = f"{name}: line 2: expected {width} header fields"
    assert main(["verify", "--in", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1
    assert expected in err


def test_stored_header_whose_square_overflows_exits_2(generated, tmp_path, capsys):
    _, out, _ = generated
    run_dir = tmp_path / "run"
    shutil.copytree(out, run_dir)
    path = run_dir / "surface.dat"
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = "1e200 2e200 41 41\n"
    path.write_text("".join(lines))
    assert main(["verify", "--in", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: config: {path}: H = 2e+200 is too large: its square overflows\n"


def test_delaunay_profile_at_a_huge_h_exits_3(tmp_path, capsys):
    # the profile squares H before SurfaceData sees it: a numerical failure
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "cfg.json", family="delaunay", H=1e200, out_dir=str(out))
    assert main(["generate", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical: profile overflowed") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "export"])
def test_frame_with_stored_base_index_exits_2(
    generated, tmp_path, capsys, edit_frame, command
):
    # earlier binary frames also stored their base, always the grid center,
    # or a radius r that no computation read
    _, out, _ = generated
    for member, value in (("base_index", np.array([20, 20])), ("r", np.array(0.25))):
        run_dir = tmp_path / member
        shutil.copytree(out, run_dir)
        edit_frame(run_dir / "frame.dat", **{member: value})
        assert main([command, "--in", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and err.count("\n") == 1
        stored = sorted(["F", "extents", "lam", member])
        assert f"frame.dat: frame members {stored}, expected ['F', 'extents', 'lam']" in err
        assert "runs stored by earlier versions must be generated again" in err


def test_incompatible_data_exits_3(tmp_path, capsys):
    g = GridSpec(-1, 1, -1, 1, 11, 11)
    X, Y = g.mesh()
    wild = SurfaceData(g, 4.0 * np.cos(3 * np.pi * X) * np.cos(3 * np.pi * Y), Q=0.25, H=0.5)
    src = tmp_path / "wild.dat"
    save_surface_data(src, wild)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "family": "custom-file",
                "input": str(src),
                "lambda": 0.5,
                "out_dir": str(tmp_path / "o"),
            }
        )
    )
    assert main(["generate", "--config", str(cfg)]) == 3
    assert capsys.readouterr().err.startswith("error: numerical:")


def test_nan_frame_exits_3(tmp_path, capsys):
    # at lambda = 1e-20 the cylinder frame overflows to NaN; its drift is
    # NaN, which is a numerical failure, not a verification FAIL
    out = tmp_path / "run"
    keys = {"lambda": 1e-20, "nx": 21, "ny": 21, "out_dir": str(out)}
    cfg = write_config(tmp_path / "cfg.json", **keys)
    # no np.errstate here: under the suite's filterwarnings = error, this
    # also holds that main lets no floating-point warning out
    assert main(["generate", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical: determinant drift nan")
    assert err.count("\n") == 1
    assert not out.exists()


# refused runs whose numbers overflow on the way to the gate that refuses
# them; numpy's floating-point warnings must not print before its one line
OVERFLOWING_RUNS = {
    "cylinder-H-1e150": {"H": 1e150},
    "cylinder-lambda-1e-20": {"lambda": 1e-20},
    "custom-file-u-400": {"family": "custom-file"},  # exp(2u) overflows
}


@pytest.mark.parametrize("name", OVERFLOWING_RUNS)
def test_overflowing_run_prints_one_error_line(tmp_path, name):
    out = tmp_path / "run"
    keys = dict(OVERFLOWING_RUNS[name], nx=21, ny=21, out_dir=str(out))
    if keys.get("family") == "custom-file":
        keys["input"] = str(tmp_path / "u400.dat")
        u = np.full((21, 21), 400.0)
        save_surface_data(keys["input"], SurfaceData(GridSpec(-1, 1, -1, 1, 21, 21), u, 0.25, 0.5))
    cfg = write_config(tmp_path / "cfg.json", **keys)
    # a process of its own, so that its stderr is what a shell would show,
    # warnings included, not what the suite's warning filter makes of them
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "cmclab", "generate", "--config", str(cfg)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: numerical:"), proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert not out.exists()


def test_vanishing_metric_near_lambda_one_exits_3(tmp_path, capsys):
    # at lambda = 1 - 1e-14 the primary surface spans about 2e-14, so its
    # measured metric E is round-off, <= 0 at most nodes, and the ratios over
    # it would pass; the run is refused before out_dir is made
    out = tmp_path / "run"
    keys = {"lambda": 1.0 - 1e-14, "nx": 21, "ny": 21, "out_dir": str(out)}
    cfg = write_config(tmp_path / "cfg.json", **keys)
    assert main(["generate", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical: measured metric E = ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("lam", [1.0 - 1e-13, 1.0 - 1e-12])
def test_unresolved_metric_near_lambda_one_exits_3(tmp_path, capsys, lam):
    # here E is positive, but the smallest sqrt(E) is only 22 and 225 times
    # its round-off floor, and the checks over E would read noise (12 and 6
    # FAILs): the run is refused as numerical before out_dir is made
    out = tmp_path / "run"
    keys = {"lambda": lam, "nx": 21, "ny": 21, "out_dir": str(out)}
    cfg = write_config(tmp_path / "cfg.json", **keys)
    assert main(["generate", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical: measured metric E = ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_non_normalized_custom_file_exits_2(tmp_path, capsys):
    g = GridSpec(-1, 1, -1, 1, 9, 9)
    src = tmp_path / "custom.dat"
    save_surface_data(src, SurfaceData(g, np.zeros((9, 9)), Q=0.25, H=0.9))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "family": "custom-file",
                "input": str(src),
                "lambda": 0.5,
                "out_dir": str(tmp_path / "o"),
            }
        )
    )
    assert main(["generate", "--config", str(cfg)]) == 2
    assert "H = 2Q" in capsys.readouterr().err


def test_custom_file_with_empty_grid_exits_2(tmp_path, capsys):
    src = tmp_path / "empty.dat"
    src.write_text("0.25 0.5 0 0\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "family": "custom-file",
                "input": str(src),
                "lambda": 0.5,
                "out_dir": str(tmp_path / "o"),
            }
        )
    )
    assert main(["generate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1
    assert f"empty.dat: grids need nx, ny >= {MIN_NODES}" in err


def test_grid_below_the_minimum_exits_2(tmp_path, capsys):
    # a 5 x 5 grid cannot carry the six-point edge rows of the derivative
    # kernel; it is refused before out_dir is made
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "cfg.json", nx=5, ny=5, out_dir=str(out))
    assert main(["generate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: config: grids need nx, ny >= {MIN_NODES} for the derivative stencils, got 5 x 5\n"
    assert not out.exists()


def test_custom_file_with_empty_extent_exits_2(tmp_path, capsys):
    src = tmp_path / "flat.dat"
    rows = [f"0 {y} 0\n" for y in np.linspace(-1.0, 1.0, 6) for _ in range(6)]
    src.write_text("0.25 0.5 6 6\n" + "".join(rows))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "family": "custom-file",
                "input": str(src),
                "lambda": 0.5,
                "out_dir": str(tmp_path / "o"),
            }
        )
    )
    assert main(["generate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: config: {src}: grid extents must have positive length\n"


def _non_normalized_input(tmp_path):
    """Config keys that read a custom file with H = 0.9 != 2Q."""
    src = tmp_path / "custom.dat"
    g = GridSpec(-1, 1, -1, 1, 9, 9)
    save_surface_data(src, SurfaceData(g, np.zeros((9, 9)), Q=0.25, H=0.9))
    return {"family": "custom-file", "input": str(src)}


def _keys(**keys):
    """Config keys that replace the delaunay defaults."""
    return lambda tmp_path: keys


def _huge_header_input(tmp_path):
    """Config keys that read an 8 x 8 custom file whose header holds
    Q = 1e200 and H = 2e200, normalized but with squares that overflow."""
    src = tmp_path / "huge.dat"
    axis = np.linspace(-1.0, 1.0, 8).tolist()
    rows = [f"{x!r} {y!r} 0\n" for y in axis for x in axis]
    src.write_text("1e200 2e200 8 8\n" + "".join(rows))
    return {"family": "custom-file", "input": str(src)}


@pytest.mark.parametrize(
    "fault, expected",
    [
        ({"metric_match_primry": 1e-3}, "unknown tolerance names: metric_match_primry"),
        ({"metric_match_primary": -1}, "tolerance metric_match_primary must be positive"),
        ({"metric_match_primary": "1e-3"}, "must be a number, got '1e-3'"),
        (_non_normalized_input, "H = 2Q"),
        (_keys(H=0.0), "mean curvature H must be nonzero"),
        (_keys(r=0.25), "unknown config keys: r"),
        (_keys(step=1e-3), "unknown config keys: step"),
        (_keys(x_min=-1e4, x_max=1e4), "x range too wide"),
        (_keys(u0=float("nan")), "key 'u0' must be a finite number"),
        (_keys(du0=float("nan")), "key 'du0' must be a finite number"),
        (_keys(u0=float("inf")), "key 'u0' must be a finite number"),
        (_keys(H=float("inf")), "key 'H' must be a finite number"),
        (_keys(H=10**400), "key 'H' must be a finite number"),
        ({"metric_match_primary": float("inf")},
         "tolerance metric_match_primary must be a finite number, got inf"),
        ({"metric_match_primary": 10**400},
         "tolerance metric_match_primary must be a finite number, got inf"),
        (_keys(H=True), "key 'H' must be a number, got boolean"),
        ({"metric_match_primary": True},
         "tolerance metric_match_primary must be a number, got boolean"),
        # a finite H whose square overflows a double
        (_keys(family="cylinder", H=1e160), "H = 1e+160 is too large: its square overflows"),
        (_keys(family="cylinder", H=1e200), "H = 1e+200 is too large: its square overflows"),
        (_huge_header_input, "huge.dat: H = 2e+200 is too large: its square overflows"),
        # grids numpy cannot shape, or memory cannot hold
        (_keys(family="cylinder", nx=10**30),
         f"a grid of {10**30} x 41 nodes is too large for numpy to shape its frame"),
        (_keys(family="cylinder", nx=10**8, ny=10**8), "Unable to allocate 71.1 PiB"),
        # JSON null is no map, just as a list or a string is not
        (None, "'tolerances' must be a map of check name to number"),
        ([1e-3], "'tolerances' must be a map of check name to number"),
        ("tight", "'tolerances' must be a map of check name to number"),
    ],
    ids=[
        "unknown-name", "non-positive", "non-number", "H-not-2Q", "H-zero",
        "r-key", "step-key", "x-extent-wide", "u0-nan", "du0-nan", "u0-inf",
        "H-inf", "H-huge-int", "tolerance-inf", "tolerance-huge-int",
        "H-boolean", "tolerance-boolean", "H-square-overflows-1e160",
        "H-square-overflows-1e200", "file-H-square-overflows", "grid-beyond-numpy",
        "grid-beyond-memory", "tolerances-null", "tolerances-list", "tolerances-string",
    ],
)
def test_refused_run_writes_nothing(tmp_path, capsys, fault, expected):
    # each is refused before any work, so out_dir is never made
    out = tmp_path / "run"
    obj = {"family": "delaunay", "H": 0.5, "u0": 0.3, "du0": 0.0, "out_dir": str(out)}
    if callable(fault):
        obj.update(fault(tmp_path))
    else:
        obj["tolerances"] = fault
    cfg = write_config(tmp_path / "cfg.json", **obj)
    assert main(["generate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1
    assert expected in err
    assert not out.exists()


def test_tolerance_override_can_fail_run(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = write_config(
        tmp_path / "cfg.json",
        out_dir=str(out),
        tolerances={"metric_match_primary": 1e-18},
    )
    assert main(["generate", "--config", str(cfg)]) == 1
    assert "FAIL" in capsys.readouterr().out
    # verify judges the stored run by its own tolerances, not the defaults
    before = (out / REPORT_MACHINE_FILE).read_bytes()
    assert main(["verify", "--in", str(out)]) == 1
    assert (out / REPORT_MACHINE_FILE).read_bytes() == before


# (id, tamper, expected); a tamper of None deletes report.kv
_TAMPERED_REPORTS = [
    ("unknown-name", lambda text: text + "metric_match_primry 0.001 0.005 PASS\n",
     "unknown tolerance names: metric_match_primry"),
    ("non-positive", lambda text: "".join(
        "metric_match_primary 1 -1 FAIL\n" if ln.startswith("metric_match_primary ") else ln
        for ln in text.splitlines(keepends=True)
    ), "tolerance metric_match_primary must be positive"),
    ("infinite", lambda text: "".join(
        f"metric_match_primary {ln.split()[1]} inf PASS\n"
        if ln.startswith("metric_match_primary ") else ln
        for ln in text.splitlines(keepends=True)
    ), "tolerance metric_match_primary must be a finite number, got inf"),
    ("dropped-check", lambda text: "".join(
        ln for ln in text.splitlines(keepends=True)
        if not ln.startswith("metric_match_primary ")
    ), "report.kv: no stored tolerance for metric_match_primary"),
    ("missing", None, "report.kv"),
]


@pytest.mark.parametrize(
    "command, tamper, expected",
    [
        pytest.param(command, tamper, expected, id=name + suffix)
        for command, suffix in (("verify", ""), ("report", "-report"))
        for name, tamper, expected in _TAMPERED_REPORTS
    ],
)
def test_verify_refuses_a_tampered_report(generated, tmp_path, capsys, command, tamper, expected):
    _, out, _ = generated
    run_dir = tmp_path / "run"
    shutil.copytree(out, run_dir)
    path = run_dir / REPORT_MACHINE_FILE
    if tamper is None:
        path.unlink()
    else:
        path.write_text(tamper(path.read_text()))
    assert main([command, "--in", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1
    assert expected in err


def test_verify_resolves_the_stored_tolerances_once(generated, tmp_path, monkeypatch):
    # reading report.kv and judging the checks against it once ran the same
    # map through resolve_tolerances twice
    _, out, _ = generated
    run_dir = tmp_path / "run"
    shutil.copytree(out, run_dir)
    calls = []

    def counted(overrides=None):
        calls.append(overrides)
        return resolve_tolerances(overrides)

    for module in (report, pipeline, verify):
        monkeypatch.setattr(module, "resolve_tolerances", counted)
    assert main(["verify", "--in", str(run_dir)]) == 0
    assert len(calls) == 1


def test_generate_resolves_the_configured_tolerances_once(tmp_path, monkeypatch):
    # building the config refused a bad map, then the run resolved the same
    # map again for the report
    calls = []

    def counted(overrides=None):
        calls.append(overrides)
        return resolve_tolerances(overrides)

    for module in (config, report, pipeline, verify):
        monkeypatch.setattr(module, "resolve_tolerances", counted)
    tols = {"metric_match_primary": 1e-3}
    cfg = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "run"), tolerances=tols)
    assert main(["generate", "--config", str(cfg)]) == 0
    assert calls == [tols]
    # the report judges by the one resolved map
    lines = (tmp_path / "run" / REPORT_MACHINE_FILE).read_text().splitlines()
    assert [ln.split()[2] for ln in lines if ln.startswith("metric_match_primary ")] == ["0.001"]


@pytest.mark.parametrize("command", ["verify", "report"])
@pytest.mark.parametrize(
    "keep, missing",
    [
        (lambda ln: ln.startswith(("#", "gauss_residual_max ")), "det_drift_max, "),
        (lambda ln: False, "gauss_residual_max, det_drift_max, "),
    ],
    ids=["one-check-left", "empty"],
)
def test_report_without_every_check_exits_2(generated, tmp_path, capsys, command, keep, missing):
    # `report` once printed "overall: PASS (1/1 checks)" for a report.kv cut
    # to one passing check, and "PASS (0/0 checks)" for an empty one
    _, out, _ = generated
    run_dir = tmp_path / "run"
    shutil.copytree(out, run_dir)
    path = run_dir / REPORT_MACHINE_FILE
    text = path.read_text()
    path.write_text("".join(ln for ln in text.splitlines(keepends=True) if keep(ln)))
    assert main([command, "--in", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: {path}: no stored tolerance for {missing}")
    assert err.endswith(" lawson_match_shifted\n") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "report"])
def test_repeated_check_in_a_stored_report_exits_2(generated, tmp_path, capsys, command):
    # a second line for a check once set the tolerance verify judged it by
    _, out, _ = generated
    run_dir = tmp_path / "run"
    shutil.copytree(out, run_dir)
    path = run_dir / REPORT_MACHINE_FILE
    text = path.read_text()
    value = next(ln.split()[1] for ln in text.splitlines() if ln.startswith("mean_match_primary "))
    path.write_text(text + f"mean_match_primary {value} 0.5 PASS\n")
    assert main([command, "--in", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err == "error: config: check mean_match_primary is reported twice\n"


def test_custom_file_ignores_config_h(tmp_path, capsys):
    # the family takes H from its input file; the config's H goes unread
    src = tmp_path / "custom.dat"
    g = GridSpec(-1, 1, -1, 1, 41, 41)
    save_surface_data(src, SurfaceData(g, np.zeros((41, 41)), Q=0.25, H=0.5))
    cfg = write_config(
        tmp_path / "cfg.json",
        family="custom-file",
        input=str(src),
        H=0.0,
        out_dir=str(tmp_path / "o"),
    )
    assert main(["generate", "--config", str(cfg)]) == 0


def test_delaunay_family_end_to_end(tmp_path):
    out = tmp_path / "run"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "family": "delaunay",
                "lambda": 0.5,
                "H": 0.5,
                "u0": 0.3,
                "du0": 0.0,
                "nx": 41,
                "ny": 41,
                "out_dir": str(out),
            }
        )
    )
    assert main(["generate", "--config", str(cfg)]) == 0


# the README's example config, less its grid size and out_dir
README_DELAUNAY = {
    "family": "delaunay", "H": 0.5, "u0": 0.3, "du0": 0.0, "lambda": 0.5,
    "tolerances": {"metric_match_primary": 1e-3},
}


@pytest.mark.parametrize(
    "keys",
    [dict(README_DELAUNAY, nx=18, ny=18), {"family": "cylinder", "lambda": 0.5, "nx": 17, "ny": 17}],
    ids=["delaunay-18", "cylinder-17"],
)
def test_frame_within_the_drift_bound_is_reported_not_refused(tmp_path, monkeypatch, keys):
    # the integrated frame, scaled by a real root to det 1 + 0.9 DET_DRIFT_TOL
    # and stored so, passes the determinant monitor, so its points, about
    # twice that off the sheet, are within the bound derived from it: the run
    # is written, and every check passes, the drift included; no check
    # restates |det F|^2 - 1 against a tighter bound
    sweep = frames._sweep
    scale = np.sqrt(1.0 + 0.9 * DET_DRIFT_TOL)
    monkeypatch.setattr(frames, "_sweep", lambda *args: scale * sweep(*args))
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "cfg.json", out_dir=str(out), **keys)
    assert main(["generate", "--config", str(cfg)]) == 0
    written = {SURFACE_FILE, FRAME_FILE, *MESH_FILES, DIAGNOSTICS_FILE,
               REPORT_TEXT_FILE, REPORT_MACHINE_FILE}
    assert {p.name for p in out.iterdir()} == written and len(written) == 7
    records = {ln.split()[0]: ln.split() for ln in
               (out / REPORT_MACHINE_FILE).read_text().splitlines() if not ln.startswith("#")}
    assert 5e-9 < float(records["det_drift_max"][1]) <= 1e-8
    assert [name for name, rec in records.items() if rec[3] == "FAIL"] == []
    assert main(["verify", "--in", str(out)]) == 0
    assert main(["export", "--in", str(out)]) == 0
