import hashlib
import math
import sys
import warnings

import numpy as np
import pytest

from cmclab import surface_data
from cmclab.config import config_from_mapping
from cmclab.errors import InvalidInputError
from cmclab.frames import (
    ExtendedFrame,
    SpectralParam,
    integrate_frame,
    shift_frame,
)
from cmclab.measure import measure
from cmclab.minkowski import require_h3, surface_and_normal
from cmclab.pipeline import (
    DIAGNOSTICS_FILE,
    FRAME_FILE,
    MESH_FILES,
    REPORT_MACHINE_FILE,
    REPORT_TEXT_FILE,
    SURFACE_FILE,
    _mesh_faces,
    export_meshes,
    generate_data,
    load_frame,
    load_outputs,
    poincare_ball,
    run,
    save_frame,
    verify_outputs,
    write_diagnostics,
)
from cmclab.surface_data import (
    MIN_NODES,
    GridSpec,
    SurfaceData,
    cylinder_data,
    delaunay_data,
    gauss_residual,
    load_surface_data,
    save_surface_data,
)
from cmclab.reference import conj_transpose, from_hermitian
from cmclab.surfaces import distance_grid, parallel_identity_defect
from cmclab.verify import evaluate, verify_theorem

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
        F = rng.choice(awkward, size=(2, 2, 6, 7)) + 1j * rng.choice(awkward, size=(2, 2, 6, 7))
        grid = GridSpec(-1 / 3, 0.1, -2.0**-1022, 1e300, 6, 7)
        frame = ExtendedFrame(grid, F, SpectralParam(1 / 3))
        path = tmp_path / "frame.dat"
        save_frame(path, frame)
        back = load_frame(path)
        words = [f.F.view(np.int64) for f in (back, frame)]
        assert np.array_equal(*words)
        assert back.grid == frame.grid and back.spectral == frame.spectral

    def test_truncated_file_rejected(self, frame_21):
        whole = frame_21.read_bytes()
        for size in (0, 3, 100, len(whole) // 2, len(whole) - 1):
            frame_21.write_bytes(whole[:size])
            with pytest.raises(InvalidInputError, match="frame.dat: not a binary frame file"):
                load_frame(frame_21)

    def test_empty_grid_header_refused(self, frame_21, edit_frame):
        edit_frame(frame_21, F=np.zeros((2, 2, 0, 0), dtype=complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=f"frame.dat: grids need nx, ny >= {MIN_NODES}"):
                load_frame(frame_21)

    def test_frame_stored_grid_first_refused(self, frame_21, edit_frame):
        # earlier versions stored F as (nx, ny, 2, 2), not as (2, 2, nx, ny)
        with np.load(frame_21) as z:
            edit_frame(frame_21, F=np.ascontiguousarray(z["F"].transpose(2, 3, 0, 1)))
        expected = (
            r"frame.dat: F is complex128 of shape \(21, 21, 2, 2\), expected complex128 "
            r"of shape \(2, 2, None, None\); runs stored by earlier versions must be "
            "generated again"
        )
        with pytest.raises(InvalidInputError, match=expected):
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
            ("F", np.ones((2, 2, 21, 21))),  # real, not complex
            ("F", np.ones((21, 21, 4), dtype=complex)),
            ("lam", np.array([0.5])),
        ],
        ids=["F-real", "F-shape", "lam-shape"],
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
            # the stored index is frame.F's: entry (1, 0) at node (20, 3)
            ("F", (1, 0, 20, 3), np.nan, r"F\[1, 0, 20, 3\] = \(nan\+0j\)"),
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
            ({"lam": np.array(1.5)}, "need 0 < lambda < 1"),
        ],
        ids=["extents", "lam"],
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
        assert len(lines) == cfg.nx * cfg.ny
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

    def test_face_lines_spell_integers(self):
        # the face table goes through the integer path; 1-based quads, x fastest
        assert _mesh_faces(3, 2) == b"f 1 2 5 4\nf 2 3 6 5\n"
        lines = _mesh_faces(101, 12).splitlines()
        assert len(lines) == 100 * 11
        assert lines[-1] == b"f %d %d %d %d" % (1110, 1111, 1212, 1211)

    def test_diagnostics_spell_each_distinct_number_once(self, tmp_path, monkeypatch):
        # x and y once per distinct value, the measured columns once per node and
        # the integer columns i j never through the double kernel
        seen = []
        digits = surface_data._digits

        def counted(x):
            seen.append(x.size)
            return digits(x)

        data = cylinder_data(GridSpec(-1, 1, -1, 1, N, N))
        sides = evaluate(integrate_frame(data, SpectralParam(0.5)))
        monkeypatch.setattr(surface_data, "_digits", counted)
        write_diagnostics(tmp_path / DIAGNOSTICS_FILE, data, sides)
        assert sum(seen) == 7 * N * N + 2 * N

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
        paths = export_meshes(out)
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
    REPORT_MACHINE_FILE: "5794c7a87520f33391bf72e0d56661ad728263295e41cf507f4a85b09710baf6",
    DIAGNOSTICS_FILE: "9ae8d754b96ddf33e028b8d7e5211477f58325eaab2551e378336c38b355ab0a",
    MESH_FILES[0]: "537013f834bd4ae96913be1898d613d1124d1894e3c6c5e83c2b7d952aa11990",
    MESH_FILES[1]: "1839b3d84713a2e2a85a10575a2f7006c743a9b43e17958b33ca9b76b5fa0bf3",
    SURFACE_FILE: "389c13f04942a7813db022d51c45861545bf87a44ef9d166e80acf0c746a40f4",
    FRAME_FILE: "8f25900c0b4d6cbdac1feaafe06ac3f51c55a5ae358eda8698c65d91d5c5d817",
}


def test_golden_output_hashes(tmp_path):
    run(config_from_mapping({**GOLDEN_CONFIG, "out_dir": str(tmp_path)}))
    for name, digest in GOLDEN_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# the README default at 201 x 201: rows long enough for numpy's vectorised
# loops to take every path the 41 x 41 goldens leave out
GOLDEN_SHA256_201 = {
    REPORT_MACHINE_FILE: "8d8f8206b0c9a0ab0fd7dde3f4c05d6f871c0faa5b9fccbed30e1cd64c9b0f90",
    DIAGNOSTICS_FILE: "ff7e11026f43d41c80841c480e87726824f96b14561a04c185996504ed1a6798",
    MESH_FILES[0]: "b87b09d7a710f35cca231591ddeb11a5b608e07442a4c0003400894044a2c7e7",
    MESH_FILES[1]: "bae137ed73cfe8d7cd52e1d26726baa6ff9b896e155c351e361f1b71be0d8760",
    SURFACE_FILE: "b4a3ece4a97b7d678ed82d14e50d0afb86da171f62c5ff066d248f2e0ba65b79",
    FRAME_FILE: "d969e4eaa1f808f4122b9be50d8247a01c3e47b99ea90257b95cf3b12e99c8e6",
}


def test_golden_output_hashes_at_201(tmp_path):
    config = {**GOLDEN_CONFIG, "nx": 201, "ny": 201, "out_dir": str(tmp_path)}
    run(config_from_mapping(config))
    for name, digest in GOLDEN_SHA256_201.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# more configs whose report and diagnostics bytes are pinned: a small lambda
# with negative u0, and the cylinder
GOLDEN_RUNS = {
    "delaunay-small-lambda": (
        {"family": "delaunay", "H": 0.5, "u0": -0.5, "du0": 0.0, "lambda": 0.1},
        {
            REPORT_MACHINE_FILE: "0d3af8aa76122e7841b014a9bf8fcaf928e013cae24840720c5e16c0b26fd6c1",
            DIAGNOSTICS_FILE: "fd671c00e89a8e70051a5f1aafcec126321a02cc807884c862c033f81756ecfc",
        },
    ),
    "cylinder": (
        {"family": "cylinder", "H": 0.5, "lambda": 0.5},
        {
            REPORT_MACHINE_FILE: "4a79563377d284685065dc0ac6451cb36dfb53436464882ba15ed33d7099c6db",
            DIAGNOSTICS_FILE: "d488b9edb639d69db1eb896e26b47b1424f844b49f96c41ba6540ebe0f68fad5",
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
    # surface_and_normal is the one pass behind each side's surface and
    # normal; one shift F D feeds the shifted side; the Gauss residual and
    # the distance between the sides feed both the report and the
    # diagnostics table
    counts = count_calls(
        monkeypatch,
        surface_and_normal,
        shift_frame,
        measure,
        gauss_residual,
        distance_grid,
    )
    det_drift = ExtendedFrame.det_drift

    def counted_det_drift(frame):
        counts["det_drift"] += 1
        return det_drift(frame)

    counts["det_drift"] = 0
    monkeypatch.setattr(ExtendedFrame, "det_drift", counted_det_drift)
    run(config_from_mapping({**GOLDEN_CONFIG, "out_dir": str(tmp_path)}))
    assert counts["surface_and_normal"] == 2
    assert counts["shift_frame"] == 1
    assert counts["measure"] == 2
    # the parallel identity reuses the sides' points and normal, and each
    # frame's determinant is taken once: the primary's by integrate_frame
    assert counts["det_drift"] == 2
    # the compatibility gate, the report and the diagnostics share one of each
    assert counts["gauss_residual"] == 1
    assert counts["distance_grid"] == 1


def test_each_surface_is_gated_onto_the_hyperboloid_once(tmp_path, monkeypatch):
    # H3SurfaceGrid holds each side's points to the hyperboloid; the mesh
    # writer projects those points without a second gate
    counts = count_calls(monkeypatch, require_h3)
    run(config_from_mapping({**GOLDEN_CONFIG, "out_dir": str(tmp_path)}))
    assert counts["require_h3"] == 2
    counts["require_h3"] = 0
    export_meshes(tmp_path)
    assert counts["require_h3"] == 2


def test_library_tour_takes_each_grid_once(monkeypatch):
    # integrate_frame's compatibility gate and the report share one residual
    counts = count_calls(monkeypatch, gauss_residual, distance_grid, surface_and_normal)
    data = delaunay_data(GridSpec(-1.0, 1.0, -1.0, 1.0, 41, 41), 0.5, 0.3, 0.0)
    verify_theorem(data, integrate_frame(data, SpectralParam(0.5)))
    assert counts == {"gauss_residual": 1, "distance_grid": 1, "surface_and_normal": 2}


def test_report_residual_is_the_frame_residual():
    grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 41, 41)
    data = delaunay_data(grid, 0.5, -0.4, 0.1)
    frame = integrate_frame(data, SpectralParam(0.3))
    primary, shifted = evaluate(frame)
    expected = parallel_identity_defect(primary.surface, shifted.surface)
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
