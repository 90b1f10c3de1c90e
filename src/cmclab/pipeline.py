"""End-to-end orchestration: data -> frame -> surfaces -> measurement -> report.

The frame goes to `frame.dat` as an exact binary numpy archive (see
`save_frame`); every other output file is plain text with numbers at 17
significant digits.  A repeated run with the same config is bitwise
identical except for the human report, which carries a generation
timestamp.  The machine report and the diagnostics table never do.  Every
text grid table is spelled by `surface_data.table_lines`, and `surface.dat`
comes back through `surface_data.read_table`, which parses the stored text
to the same doubles and refuses the same rows; the formats carry no version
of their own.
"""

from __future__ import annotations

import datetime
import zipfile
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvalidInputError
from .config import RunConfig
from .frames import DET_DRIFT_TOL, ExtendedFrame, SpectralParam, integrate_frame
from .minkowski import require_h3
from .report import (
    SIDES,
    VerificationReport,
    parse_machine,
    registry_names,
    render_machine,
    render_text,
    resolve_tolerances,
)
from .surface_data import (
    GridSpec,
    SurfaceData,
    cylinder_data,
    delaunay_data,
    gauss_residual,
    load_surface_data,
    save_surface_data,
    table_lines,
    write_table,
)
from .surfaces import distance_grid, surface_primary, surface_shifted
from .verify import Side, _report, _require_normalized, evaluate, verify_theorem

SURFACE_FILE = "surface.dat"
FRAME_FILE = "frame.dat"
# one mesh file per side, in side order
MESH_FILES = tuple(f"mesh_{side}.obj" for side in SIDES)
DIAGNOSTICS_FILE = "diagnostics.dat"
REPORT_TEXT_FILE = "report.txt"
REPORT_MACHINE_FILE = "report.kv"

# the members of a frame file: name -> (dtype, shape), None taking any length
FRAME_MEMBERS = {
    "F": (np.complex128, (None, None, 2, 2)),
    "lam": (np.float64, ()),
    "r": (np.float64, ()),
    "extents": (np.float64, (4,)),  # x_min x_max y_min y_max
}


def poincare_ball(p):
    """Project hyperboloid points (x1, x2, x3, x0) into the open unit ball.

    b = (x1, x2, x3)/(1 + x0).  Accepts a single point or an array of them.
    """
    p = np.asarray(p, dtype=float)
    # the points are surface points F F*, held to the same bound as those
    require_h3(p, tol=DET_DRIFT_TOL, what="ball projection input")
    return p[..., :3] / (1.0 + p[..., 3:4])


def generate_data(config: RunConfig) -> SurfaceData:
    """Build the SurfaceData a config describes."""
    if config.family == "cylinder":
        return cylinder_data(config.grid(), config.H)
    if config.family == "delaunay":
        return delaunay_data(
            config.grid(), config.H, config.u0, config.du0, step=config.step
        )
    return load_surface_data(config.input_path)


def _mesh_faces(nx, ny) -> list[str]:
    """The 'f' lines of a grid mesh, one string per grid line: 1-based quads
    over each cell, x fastest."""
    # a[i, j] is the 1-based number of vertex (i, j), first corner of cell (i, j)
    a = np.arange(1, nx * ny + 1).reshape(ny, nx).T[:-1, :-1]
    faces = np.stack([a, a + 1, a + 1 + nx, a + nx], axis=-1)
    return list(table_lines(faces, prefix="f "))


def write_mesh(path, points, faces, what="surface"):
    """Wavefront-style quad mesh of ball-projected grid points.

    points has shape (nx, ny, 4); vertices are emitted x fastest, followed
    by `faces`, the lines `_mesh_faces(nx, ny)` returns.
    """
    with open(path, "w") as fh:
        fh.write(f"# {what}: Poincare ball vertices, quad faces, row-major in y\n")
        write_table(fh, poincare_ball(points), prefix="v ")
        fh.writelines(faces)


def _write_meshes(out: Path, surfaces) -> list[Path]:
    """One mesh file per side, from the (primary, shifted) surfaces.

    Both sides live on one grid, so they share one face table.
    """
    paths = [out / name for name in MESH_FILES]
    surfaces = list(surfaces)
    faces = _mesh_faces(*surfaces[0].points.shape[:2])
    for path, surface in zip(paths, surfaces):
        write_mesh(path, surface.points, faces, f"{surface.kind} surface")
    return paths


def write_diagnostics(path, data, sides: tuple[Side, Side]):
    """Per-point table of measured quantities on the interior grid.

    `sides` is the (primary, shifted) pair `evaluate` built; the measured
    columns are the primary side's.  The measurements and the Gauss residual
    exist on the interior nodes only, so the grid-aligned columns (node
    index, coordinates, distance) are cut to the interior to match them.
    Columns: i j x y E Fc G |Qm| Hm distance-to-shifted gauss-residual.
    """
    primary, shifted = sides
    m = primary.measured
    g = data.grid
    distance = distance_grid(primary.surface, shifted.surface)
    i, j, x, y, distance = (
        a[1:-1, 1:-1] for a in (*np.indices((g.nx, g.ny)), *g.mesh(), distance)
    )
    columns = (
        i, j, x, y, m.E, m.Fc, m.G,
        np.hypot(m.Qm.real, m.Qm.imag),  # bitwise abs() of each entry; np.abs is not
        m.Hm, distance, gauss_residual(data),
    )
    with open(path, "w") as fh:
        fh.write("# columns: i j x y E Fc G |Qm| Hm distance-to-shifted gauss-residual\n")
        write_table(fh, np.stack(columns, axis=-1))


def save_frame(path, frame: ExtendedFrame):
    """Frame file: an uncompressed numpy archive (npz) of FRAME_MEMBERS.

    Doubles are stored as their bits, so `load_frame` returns the very frame
    written, and the archive carries no timestamp, so equal frames give
    equal bytes.
    """
    g = frame.grid
    with open(path, "wb") as fh:  # np.savez appends ".npz" to a path it opens
        np.savez(
            fh,
            F=frame.F,
            lam=float(frame.spectral.lam),
            r=float(frame.spectral.r),
            extents=[float(v) for v in (g.x_min, g.x_max, g.y_min, g.y_max)],
        )


def load_frame(path) -> ExtendedFrame:
    """The frame `save_frame` wrote to `path`.

    Anything but an archive of exactly FRAME_MEMBERS, with their dtypes and
    shapes and finite entries, raises InvalidInputError naming the file; so
    do a grid below MIN_NODES per axis, bad extents and a bad lam or r.
    Frames of earlier versions (text, or with a `base_index` member) are
    refused too, with a hint to generate the run again.
    """
    members = None
    with open(path, "rb") as fh:
        try:
            z = np.load(fh, allow_pickle=False)
            if isinstance(z, np.lib.npyio.NpzFile):  # not a bare .npy array
                with z:
                    members = {name: z[name] for name in z.files}
        except (ValueError, EOFError, zipfile.BadZipFile):
            pass
    if members is None:
        raise InvalidInputError(
            f"{path}: not a binary frame file; runs stored as text by earlier "
            "versions must be generated again"
        )
    if members.keys() != FRAME_MEMBERS.keys():
        raise InvalidInputError(
            f"{path}: frame members {sorted(members)}, expected {sorted(FRAME_MEMBERS)}; "
            "runs stored by earlier versions must be generated again"
        )
    for name, (dtype, shape) in FRAME_MEMBERS.items():
        a = members[name]
        if a.dtype != dtype or len(a.shape) != len(shape) or any(
            n not in (None, m) for n, m in zip(shape, a.shape)
        ):
            raise InvalidInputError(
                f"{path}: {name} is {a.dtype} of shape {a.shape}, expected "
                f"{np.dtype(dtype)} of shape {shape}"
            )
        bad = ~np.isfinite(a)
        if bad.any():
            k = tuple(int(i) for i in np.unravel_index(np.argmax(bad), a.shape))
            where = f"{name}{list(k)}" if k else name
            raise InvalidInputError(f"{path}: {where} = {a[k]} is not finite")
    F = members["F"]
    try:
        grid = GridSpec(*members["extents"].tolist(), *F.shape[:2])
        spectral = SpectralParam(float(members["lam"]), float(members["r"]))
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None
    return ExtendedFrame(grid, F, spectral)


def _write_report_files(out: Path, report: VerificationReport):
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    human = VerificationReport(
        report.records, {**report.metadata, "generated": stamp}
    )
    (out / REPORT_TEXT_FILE).write_text(render_text(human))
    (out / REPORT_MACHINE_FILE).write_text(render_machine(report))


def run(config: RunConfig) -> VerificationReport:
    """Full pipeline; writes every output file and returns the report.
    A run refused before its frame exists leaves no `out_dir` behind."""
    data = generate_data(config)
    _require_normalized(data)
    frame = integrate_frame(data, config.spectral())
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_surface_data(out / SURFACE_FILE, data)
    save_frame(out / FRAME_FILE, frame)
    sides = evaluate(frame)
    _write_meshes(out, (side.surface for side in sides))
    write_diagnostics(out / DIAGNOSTICS_FILE, data, sides)
    report = _report(data, sides, resolve_tolerances(config.tolerances))
    _write_report_files(out, report)
    return report


def require_output(path: Path) -> Path:
    """`path` itself, after checking that the run directory holds it."""
    if not path.exists():
        raise FileNotFoundError(f"expected output file not found: {path}")
    return path


def load_outputs(in_dir):
    """(SurfaceData, ExtendedFrame) from a run directory."""
    in_dir = Path(in_dir)
    paths = [require_output(in_dir / name) for name in (SURFACE_FILE, FRAME_FILE)]
    return load_surface_data(paths[0]), load_frame(paths[1])


def verify_outputs(in_dir) -> VerificationReport:
    """Re-run the theorem checks on stored outputs and refresh the reports.

    Each check is judged against the tolerance the stored `report.kv` gives
    it, so a run generated with overrides keeps them.  A report.kv that is
    missing, malformed or lacks a registered check is refused, and so is one
    whose check names or tolerances `resolve_tolerances` refuses.
    """
    in_dir = Path(in_dir)
    path = require_output(in_dir / REPORT_MACHINE_FILE)
    tols = {r.name: r.tolerance for r in parse_machine(path.read_text()).records}
    missing = [name for name in registry_names() if name not in tols]
    if missing:
        raise InvalidInputError(f"{path}: no stored tolerance for {', '.join(missing)}")
    data, frame = load_outputs(in_dir)
    report = verify_theorem(data, frame, tols)
    _write_report_files(in_dir, report)
    return report


def export_meshes(in_dir, model="poincare"):
    """Re-project stored frames to ball meshes; only one model exists."""
    if model != "poincare":
        raise ConfigError(f"unknown export model {model!r}; only 'poincare' exists")
    in_dir = Path(in_dir)
    frame = load_frame(require_output(in_dir / FRAME_FILE))
    return _write_meshes(in_dir, (surface_primary(frame), surface_shifted(frame)))
