import hashlib
import io
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
from cmclab.reference import distance_grid
from cmclab.verify import evaluate, verify_theorem

ALL_FILES = (
    SURFACE_FILE,
    FRAME_FILE,
    *MESH_FILES,
    DIAGNOSTICS_FILE,
    REPORT_TEXT_FILE,
    REPORT_MACHINE_FILE,
)


# 41 points on [-1,1], h = 0.05, keeps runs fast and clean
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

    def test_archive_is_the_one_np_savez_writes(self, tmp_path, del_frame_101):
        # save_frame writes each member from the array's own buffer; its bytes
        # are those of np.savez, which hands each zip entry a copy
        g = del_frame_101.grid
        expected = io.BytesIO()
        np.savez(
            expected,
            F=del_frame_101.F,
            lam=del_frame_101.spectral.lam,
            extents=[g.x_min, g.x_max, g.y_min, g.y_max],
        )
        path = tmp_path / "frame.dat"
        save_frame(path, del_frame_101)
        assert path.read_bytes() == expected.getvalue()

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
        assert table.shape[1] == 10

    def test_diagnostics_distance_column(self, run_dir):
        # the distance to the shifted surface is -q by construction, so the
        # table carries no column of it; the last column is the residual
        out, cfg, _ = run_dir
        header, *lines = (out / DIAGNOSTICS_FILE).read_text().splitlines()
        assert header == "# columns: i j x y E Fc G |Qm| Hm gauss-residual"
        residual = np.array([float(ln.split()[-1]) for ln in lines]).reshape(cfg.ny, cfg.nx)
        assert np.array_equal(residual.T, cfg.data().residual)

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
        assert sum(seen) == 6 * N * N + 2 * N

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
    REPORT_MACHINE_FILE: "c46a4d4ef9fb0b29232934e8fcaf329f82b628f6db8a64bd11f80648125b4b85",
    DIAGNOSTICS_FILE: "5dd05f24633b356be859182221b6fe4535398c87ee29059db47c1d4b79b8ce2b",
    MESH_FILES[0]: "0d5343a8331b635855525b5c4255b88b36f71169f9158188ef28471a43df9d2b",
    MESH_FILES[1]: "94fcd85b2b0de945c1efa511e98811d3ad6bf0ea87b4a64dca1301db45bd52c9",
    SURFACE_FILE: "389c13f04942a7813db022d51c45861545bf87a44ef9d166e80acf0c746a40f4",
    FRAME_FILE: "11acb10f2f144a47003514f82ed0d102aa65d18ff86d63f8fd832f0bfd4c60a5",
}


def test_golden_output_hashes(tmp_path):
    run(config_from_mapping({**GOLDEN_CONFIG, "out_dir": str(tmp_path)}))
    for name, digest in GOLDEN_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# the README default at 201 x 201: rows long enough for numpy's vectorised
# loops to take every path the 41 x 41 goldens leave out
GOLDEN_SHA256_201 = {
    REPORT_MACHINE_FILE: "24b395cec8eacae68b468f3af520b2adc929781f869cc72aa1237e65003d35b5",
    DIAGNOSTICS_FILE: "9098a6f18ef3f4e846216834670c6db0335333142ddf771d0af9565ed4bc7662",
    MESH_FILES[0]: "2580345b0e51aa02ddaea1743d93d060d739865617e76eb0eff76b26f0900103",
    MESH_FILES[1]: "f2b163d39639a35d6d317984574f336b44d6daaa41b872b7ff62ec2762716cc7",
    SURFACE_FILE: "b4a3ece4a97b7d678ed82d14e50d0afb86da171f62c5ff066d248f2e0ba65b79",
    FRAME_FILE: "24dac3fa0d06b9d47b62b95d061de4237dd370c57c9e8c64eaa9fc5941ff261d",
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
            REPORT_MACHINE_FILE: "9512259d6e278af42f1796af928d51ddb4622bcbcdd542709974604f56a1ff8e",
            DIAGNOSTICS_FILE: "09a35db980c2c27e578dfdacda272ec870e437bcc5c1f283fce418d7d3e111d7",
        },
    ),
    "cylinder": (
        {"family": "cylinder", "H": 0.5, "lambda": 0.5},
        {
            REPORT_MACHINE_FILE: "180fa2bbc67a751af02212e03d6147680d10b850d66e97de8b1057e3ddf0b203",
            DIAGNOSTICS_FILE: "52572e5598b0420772dbe0e911785297a016281122b302a62cb8e6f21c196bfd",
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
    # surface_and_normal is the one pass behind the primary side's surface
    # and normal, and the shifted side is that side turned through q, so no
    # shift F D is formed; the Gauss residual feeds both the report and the
    # diagnostics table, and no distance grid is taken
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
    assert counts["surface_and_normal"] == 1
    assert counts["shift_frame"] == 0
    assert counts["measure"] == 2
    # the frame's determinant is taken once, by integrate_frame, and the
    # report reuses it
    assert counts["det_drift"] == 1
    # the compatibility gate, the report and the diagnostics share one
    assert counts["gauss_residual"] == 1
    assert counts["distance_grid"] == 0


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
    assert counts == {"gauss_residual": 1, "distance_grid": 0, "surface_and_normal": 1}


def test_report_residual_is_the_frame_residual():
    # the one frame check reads the integrated frame's |det F - 1| maximum,
    # the value integrate_frame held to its bound, bit for bit
    grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 41, 41)
    data = delaunay_data(grid, 0.5, -0.4, 0.1)
    frame = integrate_frame(data, SpectralParam(0.3))
    expected = float(np.max(np.abs(np.linalg.det(np.moveaxis(frame.F, (0, 1), (2, 3))) - 1.0)))
    assert 0.0 < expected <= 1e-8
    report = verify_theorem(data, frame)
    value = {r.name: r.value for r in report.records}["det_drift_max"]
    assert np.float64(value).view(np.int64) == np.float64(frame.max_det_drift).view(np.int64)
    assert value == pytest.approx(expected, rel=1e-3)


def test_cylinder_family_is_normalized_at_any_H(tmp_path):
    cfg = config_from_mapping(
        {"family": "cylinder", "H": 0.8, "lambda": 0.5, "out_dir": str(tmp_path)}
    )
    data = cfg.data()
    assert (data.H, data.Q) == (0.8, 0.4)
    assert not data.u.any()


@pytest.mark.parametrize(
    "family, builder",
    [("cylinder", "cylinder_data"), ("delaunay", "delaunay_data"),
     ("custom-file", "load_surface_data")],
)
def test_run_calls_its_family_builder_once_by_name(tmp_path, monkeypatch, family, builder):
    # a family row calls its builder by the module-level name that tracing
    # and count_calls rebind; a row holding the function itself counts 0
    src = tmp_path / "custom.dat"
    save_surface_data(src, cylinder_data(GridSpec(-1.0, 1.0, -1.0, 1.0, N, N)))
    counts = count_calls(monkeypatch, cylinder_data, delaunay_data, load_surface_data)
    keys = {**GOLDEN_CONFIG, "family": family, "input": str(src), "out_dir": str(tmp_path / "o")}
    run(config_from_mapping(keys))
    assert counts == {name: int(name == builder) for name in counts}


def test_a_family_ignores_keys_it_does_not_read(tmp_path):
    keys = {"family": "cylinder", "lambda": 0.5, "out_dir": str(tmp_path), "nx": 9, "ny": 9}
    plain = config_from_mapping(keys).data()
    carrying = config_from_mapping({**keys, "u0": 0.7}).data()
    assert carrying.grid == plain.grid
    assert (carrying.Q, carrying.H) == (plain.Q, plain.H)
    assert carrying.u.tobytes() == plain.u.tobytes()


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
