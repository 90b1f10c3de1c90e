import hashlib
import math
import sys
import warnings

import numpy as np
import pytest

from cmclab.config import config_from_mapping
from cmclab.errors import ConfigError, InvalidInputError
from cmclab.frames import (
    ExtendedFrame,
    SpectralParam,
    integrate_frame,
    shift_frame,
    spectral_shift_matrix,
)
from cmclab.measure import measure
from cmclab.minkowski import from_hermitian, conj_transpose
from cmclab.pipeline import (
    DIAGNOSTICS_FILE,
    FRAME_FILE,
    MESH_FILES,
    REPORT_MACHINE_FILE,
    REPORT_TEXT_FILE,
    SURFACE_FILE,
    export_meshes,
    generate_data,
    load_frame,
    load_outputs,
    poincare_ball,
    run,
    save_frame,
    verify_outputs,
)
from cmclab.surface_data import (
    GridSpec,
    SurfaceData,
    cylinder_data,
    delaunay_data,
    load_surface_data,
    save_surface_data,
)
from cmclab.surfaces import _surface, normal_field, parallel_identity_residual
from cmclab.verify import verify_theorem

ALL_FILES = (
    SURFACE_FILE,
    FRAME_FILE,
    *MESH_FILES,
    DIAGNOSTICS_FILE,
    REPORT_TEXT_FILE,
    REPORT_MACHINE_FILE,
)


# h must stay near 0.05 or the RK4 determinant monitor (1e-8, scales as h^4)
# rejects the frame; 41 points on [-1,1] keeps runs fast and clean
N = 41


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = config_from_mapping(
        {"family": "cylinder", "lambda": 0.5, "out_dir": str(out), "nx": N, "ny": N}
    )
    report = run(cfg)
    return out, cfg, report


class TestPoincareBall:
    def test_origin(self):
        assert np.allclose(poincare_ball(np.array([0.0, 0.0, 0.0, 1.0])), 0.0)

    def test_axis_point(self):
        q = -0.3
        p = np.array([0.0, 0.0, -math.sinh(q), math.cosh(q)])
        b = poincare_ball(p)
        assert abs(b[2] - math.tanh(0.15)) < 1e-15
        assert abs(b[0]) == 0.0 and abs(b[1]) == 0.0

    def test_random_points_inside_ball(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            F = A / np.sqrt(np.linalg.det(A))
            p = from_hermitian(F @ conj_transpose(F))
            b = poincare_ball(p)
            assert np.linalg.norm(b) < 1.0

    def test_rejects_off_hyperboloid(self):
        with pytest.raises(InvalidInputError):
            poincare_ball(np.array([0.0, 0.0, 0.0, 2.0]))


class TestFramePersistence:
    @pytest.fixture
    def frame_21(self, tmp_path):
        """A stored 21 x 21 cylinder frame, based at its center (10, 10)."""
        path = tmp_path / "frame.dat"
        data = cylinder_data(GridSpec(-1, 1, -1, 1, 21, 21))
        save_frame(path, integrate_frame(data, SpectralParam(0.5)))
        return path

    def test_round_trip_exact(self, tmp_path):
        # small extents keep h fine enough for the determinant monitor
        data = cylinder_data(GridSpec(-0.2, 0.2, -0.2, 0.2, 9, 9))
        frame = integrate_frame(data, SpectralParam(0.5))
        path = tmp_path / "frame.dat"
        save_frame(path, frame)
        back = load_frame(path)
        assert np.array_equal(back.F, frame.F)
        assert back.spectral == frame.spectral
        assert back.grid == frame.grid

    def test_round_trip_keeps_every_bit(self, tmp_path):
        # values whose bits a lossy or text format easily changes
        awkward = [-0.0, 5e-324, 1e300, 1 / 3, 0.1, -1.7976931348623157e308, 2.0**-1022]
        rng = np.random.default_rng(3)
        F = rng.choice(awkward, size=(5, 6, 2, 2)) + 1j * rng.choice(awkward, size=(5, 6, 2, 2))
        grid = GridSpec(-1 / 3, 0.1, -2.0**-1022, 1e300, 5, 6)
        frame = ExtendedFrame(grid, F, SpectralParam(1 / 3, 0.1 / 3))
        path = tmp_path / "frame.dat"
        save_frame(path, frame)
        back = load_frame(path)
        assert np.array_equal(back.F.view(np.int64), frame.F.view(np.int64))
        assert back.grid == frame.grid and back.spectral == frame.spectral

    def test_truncated_file_rejected(self, frame_21):
        whole = frame_21.read_bytes()
        for size in (0, 3, 100, len(whole) // 2, len(whole) - 1):
            frame_21.write_bytes(whole[:size])
            with pytest.raises(InvalidInputError, match="frame.dat: not a binary frame file"):
                load_frame(frame_21)

    def test_empty_grid_header_refused(self, frame_21, edit_frame):
        edit_frame(frame_21, F=np.zeros((0, 0, 2, 2), dtype=complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="frame.dat: grids need nx, ny >= 5"):
                load_frame(frame_21)

    @pytest.mark.parametrize(
        "member, value", [("extents", np.array([-1.0, 1, -1, 1, 0]))], ids=["extents"]
    )
    def test_extra_header_fields_refused(self, frame_21, edit_frame, member, value):
        edit_frame(frame_21, **{member: value})
        expected = rf"frame.dat: {member} is \w+ of shape \({len(value)},\), expected"
        with pytest.raises(InvalidInputError, match=expected):
            load_frame(frame_21)

    @pytest.mark.parametrize(
        "member, value",
        [
            ("F", np.ones((21, 21, 2, 2))),  # real, not complex
            ("F", np.ones((21, 21, 4), dtype=complex)),
            ("lam", np.array([0.5])),
            ("r", np.float32(0.25)),
        ],
        ids=["F-real", "F-shape", "lam-shape", "r-float32"],
    )
    def test_wrong_member_type_refused(self, frame_21, edit_frame, member, value):
        edit_frame(frame_21, **{member: value})
        with pytest.raises(InvalidInputError, match=f"frame.dat: {member} is .* expected"):
            load_frame(frame_21)

    @pytest.mark.parametrize(
        "members", [{"lam": None}, {"note": np.zeros(1)}], ids=["missing", "extra"]
    )
    def test_members_must_match(self, frame_21, edit_frame, members):
        edit_frame(frame_21, **members)
        with pytest.raises(InvalidInputError, match="frame.dat: frame members"):
            load_frame(frame_21)

    @pytest.mark.parametrize(
        "member, entry, value, shown",
        [
            ("F", (20, 3, 1, 0), np.nan, r"F\[20, 3, 1, 0\] = \(nan\+0j\)"),
            ("extents", (1,), np.inf, r"extents\[1\] = inf"),
            ("lam", (), np.nan, "lam = nan"),
        ],
        ids=["F", "extents", "lam"],
    )
    def test_non_finite_entry_refused(self, frame_21, edit_frame, member, entry, value, shown):
        with np.load(frame_21) as z:
            edited = z[member].copy()
        edited[entry] = value
        edit_frame(frame_21, **{member: edited})
        with pytest.raises(InvalidInputError, match=f"frame.dat: {shown} is not finite"):
            load_frame(frame_21)

    @pytest.mark.parametrize(
        "members, message",
        [
            ({"extents": np.array([1.0, -1, -1, 1])}, "grid extents must have positive length"),
            ({"lam": np.array(1.5)}, "need 0 < r < lambda < 1"),
            ({"r": np.array(0.0)}, "need 0 < r < lambda < 1"),
        ],
        ids=["extents", "lam", "r"],
    )
    def test_bad_grid_or_spectral_value_refused(self, frame_21, edit_frame, members, message):
        edit_frame(frame_21, **members)
        with pytest.raises(InvalidInputError, match=f"frame.dat: {message}"):
            load_frame(frame_21)


class TestRun:
    def test_all_files_written(self, run_dir):
        out, _, report = run_dir
        for name in ALL_FILES:
            assert (out / name).exists(), name
        assert report.overall_pass()

    def test_reruns_bitwise_identical(self, run_dir, tmp_path):
        out, cfg, _ = run_dir
        cfg2 = config_from_mapping(
            {
                "family": "cylinder",
                "lambda": 0.5,
                "out_dir": str(tmp_path),
                "nx": N,
                "ny": N,
            }
        )
        run(cfg2)
        for name in ALL_FILES:
            if name == REPORT_TEXT_FILE:
                continue  # carries a timestamp
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name

    def test_diagnostics_interior_rows_finite(self, run_dir):
        out, cfg, _ = run_dir
        lines = [
            ln
            for ln in (out / DIAGNOSTICS_FILE).read_text().splitlines()
            if not ln.startswith("#")
        ]
        assert len(lines) == (cfg.nx - 2) * (cfg.ny - 2)
        table = np.array([[float(v) for v in ln.split()] for ln in lines])
        assert np.all(np.isfinite(table))
        assert table.shape[1] == 11

    def test_diagnostics_distance_column(self, run_dir):
        out, _, _ = run_dir
        lines = [
            ln
            for ln in (out / DIAGNOSTICS_FILE).read_text().splitlines()
            if not ln.startswith("#")
        ]
        dist = np.array([float(ln.split()[9]) for ln in lines])
        assert np.max(np.abs(dist - math.log(2.0))) < 1e-9

    def test_mesh_shape(self, run_dir):
        out, cfg, _ = run_dir
        for name in MESH_FILES:
            verts, faces = [], []
            for ln in (out / name).read_text().splitlines():
                if ln.startswith("v "):
                    verts.append([float(v) for v in ln.split()[1:]])
                elif ln.startswith("f "):
                    faces.append([int(v) for v in ln.split()[1:]])
            v = np.array(verts)
            f = np.array(faces)
            assert v.shape == (cfg.nx * cfg.ny, 3)
            assert f.shape == ((cfg.nx - 1) * (cfg.ny - 1), 4)
            assert f.min() >= 1 and f.max() <= len(verts)
            assert np.linalg.norm(v, axis=1).max() < 1.0

    def test_machine_report_has_no_timestamp(self, run_dir):
        out, _, _ = run_dir
        assert "generated" not in (out / REPORT_MACHINE_FILE).read_text()
        assert "generated" in (out / REPORT_TEXT_FILE).read_text()

    def test_refuses_non_normalized_custom_data(self, tmp_path):
        src = tmp_path / "custom.dat"
        data = SurfaceData(
            GridSpec(-1, 1, -1, 1, 9, 9), np.zeros((9, 9)), Q=0.25, H=0.9
        )
        save_surface_data(src, data)
        cfg = config_from_mapping(
            {
                "family": "custom-file",
                "input": str(src),
                "lambda": 0.5,
                "out_dir": str(tmp_path / "out"),
            }
        )
        with pytest.raises(InvalidInputError, match="H = 2Q"):
            run(cfg)


class TestStoredOutputs:
    def test_verify_reproduces_report(self, run_dir):
        out, _, _ = run_dir
        before = (out / REPORT_MACHINE_FILE).read_text()
        report = verify_outputs(out)
        assert report.overall_pass()
        assert (out / REPORT_MACHINE_FILE).read_text() == before

    def test_load_outputs_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="surface.dat"):
            load_outputs(tmp_path)

    def test_export_rewrites_meshes(self, run_dir):
        out, _, _ = run_dir
        before = (out / MESH_FILES[0]).read_bytes()
        paths = export_meshes(out, model="poincare")
        assert [p.name for p in paths] == list(MESH_FILES)
        assert (out / MESH_FILES[0]).read_bytes() == before

    def test_export_reads_only_the_frame_file(self, run_dir, tmp_path):
        out, _, _ = run_dir
        (tmp_path / FRAME_FILE).write_bytes((out / FRAME_FILE).read_bytes())
        export_meshes(tmp_path)
        for name in MESH_FILES:
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes()
        (tmp_path / FRAME_FILE).unlink()
        with pytest.raises(FileNotFoundError, match="frame.dat"):
            export_meshes(tmp_path)

    def test_export_unknown_model(self, run_dir):
        out, _, _ = run_dir
        with pytest.raises(ConfigError, match="poincare"):
            export_meshes(out, model="klein")


# sha256 of the deterministic outputs of a small Delaunay run; any change
# here is an output format change and must be stated as one
GOLDEN_CONFIG = {
    "family": "delaunay",
    "H": 0.5,
    "u0": 0.3,
    "du0": 0.0,
    "lambda": 0.5,
    "nx": 41,
    "ny": 41,
}
GOLDEN_SHA256 = {
    REPORT_MACHINE_FILE: "61e318185bdb5a56dad974a7c0af6ee295656ef42fc9fb4bfd9105847e210c2a",
    DIAGNOSTICS_FILE: "1086ac08e889d22a983cebfbad5991f91a32ee6194c22567e581b3c9e14a718b",
    MESH_FILES[0]: "c558d789307cf7b3662df1595b57c8dfc87c9557c60293a37d31daf8dfacd560",
    MESH_FILES[1]: "a1477b847605cc89f68df450569046ddd4660f26e96b73e1cf704734b6d0a030",
}


def test_golden_output_hashes(tmp_path):
    run(config_from_mapping({**GOLDEN_CONFIG, "out_dir": str(tmp_path)}))
    for name, digest in GOLDEN_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# more configs whose report and diagnostics bytes are pinned: a small lambda
# with negative u0, and the cylinder
GOLDEN_RUNS = {
    "delaunay-small-lambda": (
        {"family": "delaunay", "H": 0.5, "u0": -0.5, "du0": 0.0, "lambda": 0.1},
        {
            REPORT_MACHINE_FILE: "71f4321a584dbd235bd1b9cec76222234d4e661e327a89b227df83e7c7b5f2d8",
            DIAGNOSTICS_FILE: "1d0e444946f76cba83be46474ad0fdae74a6806da0cc9ae43ed4f6be2a217bd6",
        },
    ),
    "cylinder": (
        {"family": "cylinder", "H": 0.5, "lambda": 0.5},
        {
            REPORT_MACHINE_FILE: "f6bfcf0364b51bd86029d7df75991e2505e89d0da5cc455892aafce14ebd58c8",
            DIAGNOSTICS_FILE: "e9dd39ace0c171e95de4ef4c352ac310ebd5a99b866e54ac93dd2e20fc44f888",
        },
    ),
}


@pytest.mark.parametrize("name", GOLDEN_RUNS)
def test_more_golden_output_hashes(tmp_path, name):
    config, digests = GOLDEN_RUNS[name]
    run(config_from_mapping({**config, "nx": 41, "ny": 41, "out_dir": str(tmp_path)}))
    for file, digest in digests.items():
        assert hashlib.sha256((tmp_path / file).read_bytes()).hexdigest() == digest, file


def count_calls(monkeypatch, *fns):
    """Count calls to each function under every name cmclab looks it up by.

    The modules import these names directly, so each module-level binding
    is replaced, not only the defining one.
    """
    counts = {fn.__name__: 0 for fn in fns}
    for fn in fns:

        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "cmclab":
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return counts


def test_run_builds_each_side_once(tmp_path, monkeypatch):
    # _surface is the one builder behind surface_primary and surface_shifted;
    # spectral_shift_matrix is taken once per F @ D shift
    counts = count_calls(
        monkeypatch, _surface, shift_frame, normal_field, measure, spectral_shift_matrix
    )
    det_drift = ExtendedFrame.det_drift

    def counted_det_drift(frame):
        counts["det_drift"] += 1
        return det_drift(frame)

    counts["det_drift"] = 0
    monkeypatch.setattr(ExtendedFrame, "det_drift", counted_det_drift)
    run(config_from_mapping({**GOLDEN_CONFIG, "out_dir": str(tmp_path)}))
    assert counts["_surface"] == 2
    assert counts["shift_frame"] == 1
    assert counts["normal_field"] == 2
    assert counts["measure"] == 2
    # the parallel identity reuses the sides' points and normal, and each
    # frame's determinant is taken once: the primary's by integrate_frame
    assert counts["spectral_shift_matrix"] == 1
    assert counts["det_drift"] == 2


def test_report_residual_is_the_frame_residual():
    grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 41, 41)
    data = delaunay_data(grid, 0.5, -0.4, 0.1)
    frame = integrate_frame(data, SpectralParam(0.3))
    expected = parallel_identity_residual(frame)
    assert 0.0 < expected < 1e-13
    report = verify_theorem(data, frame)
    value = {r.name: r.value for r in report.records}["parallel_identity_residual"]
    assert np.float64(value).view(np.int64) == np.float64(expected).view(np.int64)


def test_cylinder_family_is_normalized_at_any_H(tmp_path):
    cfg = config_from_mapping(
        {"family": "cylinder", "H": 0.8, "lambda": 0.5, "out_dir": str(tmp_path)}
    )
    data = generate_data(cfg)
    assert (data.H, data.Q) == (0.8, 0.4)
    assert not data.u.any()


def test_verify_theorem_refuses_like_run(tmp_path):
    g = GridSpec(-0.2, 0.2, -0.2, 0.2, 9, 9)
    src = tmp_path / "custom.dat"
    save_surface_data(src, SurfaceData(g, np.zeros((9, 9)), Q=0.25, H=0.9))
    cfg = config_from_mapping(
        {"family": "custom-file", "input": str(src), "lambda": 0.5, "out_dir": str(tmp_path)}
    )
    with pytest.raises(InvalidInputError, match="H = 2Q") as from_run:
        run(cfg)
    frame = integrate_frame(cylinder_data(g), SpectralParam(0.5))
    with pytest.raises(InvalidInputError) as from_verify:
        verify_theorem(load_surface_data(src), frame)
    assert str(from_verify.value) == str(from_run.value)
