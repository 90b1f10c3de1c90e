import json
import shutil

import numpy as np
import pytest

from cmclab.cli import main
from cmclab.pipeline import DIAGNOSTICS_FILE, REPORT_MACHINE_FILE
from cmclab.surface_data import GridSpec, SurfaceData, save_surface_data


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
    assert main(["export", "--in", str(out), "--model", "poincare"]) == 0


def test_export_unknown_model_exits_2(generated, capsys):
    _, out, _ = generated
    assert main(["export", "--in", str(out), "--model", "klein"]) == 2
    assert capsys.readouterr().err.startswith("error: config:")


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


def _non_numeric(fields):
    return ["abc"] + fields[1:]


def _short_row(fields):
    return fields[:-1]


@pytest.mark.parametrize("name", ["frame.dat", "surface.dat"])
@pytest.mark.parametrize("corrupt", [_non_numeric, _short_row])
def test_bad_stored_row_exits_2(generated, tmp_path, capsys, name, corrupt):
    _, out, _ = generated
    run_dir = tmp_path / "run"
    shutil.copytree(out, run_dir)
    path = run_dir / name
    lines = path.read_text().splitlines(keepends=True)
    lines[-1] = " ".join(corrupt(lines[-1].split())) + "\n"
    path.write_text("".join(lines))
    assert main(["verify", "--in", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1
    assert f"{name}: line {len(lines)}:" in err


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
def test_stored_header_with_extra_fields_exits_2(generated, tmp_path, capsys, name, width):
    _, out, _ = generated
    run_dir = tmp_path / "run"
    shutil.copytree(out, run_dir)
    path = run_dir / name
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = lines[1].rstrip("\n") + " junk 7\n"
    path.write_text("".join(lines))
    assert main(["verify", "--in", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1
    assert f"{name}: line 2: expected {width} header fields" in err


def test_stored_base_outside_the_grid_exits_2(generated, tmp_path, capsys):
    _, out, _ = generated
    run_dir = tmp_path / "run"
    shutil.copytree(out, run_dir)
    path = run_dir / "frame.dat"
    lines = path.read_text().splitlines(keepends=True)
    assert lines[1].endswith(" 41 41 20 20\n")
    lines[1] = lines[1].replace(" 41 41 20 20\n", " 41 41 41 0\n")
    path.write_text("".join(lines))
    assert main(["verify", "--in", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err == "error: config: base index (41, 0) outside grid\n"


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
    assert "empty.dat: grids need nx, ny >= 5" in err


def test_tolerance_override_can_fail_run(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = write_config(
        tmp_path / "cfg.json",
        out_dir=str(out),
        tolerances={"metric_match_primary": 1e-18},
    )
    assert main(["generate", "--config", str(cfg)]) == 1
    assert "FAIL" in capsys.readouterr().out


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
