"""End-to-end orchestration: data -> frame -> surfaces -> measurement -> report.

The frame goes to `frame.dat` as an exact binary numpy archive whose F is
the frame's F, of shape (2, 2, nx, ny), and the loaded F becomes the
frame's without a copy (see `save_frame` and `load_frame`).
`run` writes it first and lets the frame go, so the other writers run
beside the two sides only.  Every other output file is plain text with
numbers at 17 significant digits.  A repeated run with the same config is
bitwise identical except for the human report, which carries a generation
timestamp.  The machine report and the diagnostics table never do.  Every
text grid table (`surface.dat`, both meshes and `diagnostics.dat`) is
spelled by `surface_data.table_lines`, whose whole-array kernel writes the
very bytes of '%.17g' a block of grid lines at a time.  The writers hand it
each column at its own shape, so grid coordinates and indices are spelled
once per distinct value, not once per node, and integers as integers; they
write its bytes to files opened in binary mode.  `surface.dat` comes back
through `surface_data.load_surface_data` in one tokenising pass, which
converts u row by row and each spelling of a grid coordinate once, to the
very doubles written.  The formats carry no version of their own.
"""

from __future__ import annotations

import datetime
import zipfile
from pathlib import Path

import numpy as np

from .errors import InvalidInputError
from .config import RunConfig
from .frames import ExtendedFrame, SpectralParam, integrate_frame
from .minkowski import require_h3
from .report import (
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
    _frozen,
    cylinder_data,
    delaunay_data,
    load_surface_data,
    save_surface_data,
    table_lines,
    write_table,
)
from .surfaces import SIDES, surface_primary, surface_shifted
from .verify import Sides, _report, _require_normalized, evaluate, verify_theorem

SURFACE_FILE = "surface.dat"
FRAME_FILE = "frame.dat"
# one mesh file per side, in side order
MESH_FILES = tuple(f"mesh_{side}.obj" for side in SIDES)
DIAGNOSTICS_FILE = "diagnostics.dat"
REPORT_TEXT_FILE = "report.txt"
REPORT_MACHINE_FILE = "report.kv"

# the members of a frame file: name -> (dtype, shape), None taking any length
FRAME_MEMBERS = {
    "F": (np.complex128, (2, 2, None, None)),
    "lam": (np.float64, ()),
    "extents": (np.float64, (4,)),  # x_min x_max y_min y_max
}
_EARLIER = "runs stored by earlier versions must be generated again"


def poincare_ball(p):
    """Project hyperboloid points (x1, x2, x3, x0) into the open unit ball.

    b = (x1, x2, x3)/(1 + x0).  Accepts a single point or an array of them.
    """
    # the points are surface points F F*, held to the same bound as those
    return _ball(require_h3(p, what="ball projection input"))


def _ball(p):
    """`poincare_ball` of points already held to the hyperboloid."""
    return p[:3] / (1.0 + p[3])


def generate_data(config: RunConfig) -> SurfaceData:
    """Build the SurfaceData a config describes."""
    if config.family == "cylinder":
        return cylinder_data(config.grid(), config.H)
    if config.family == "delaunay":
        return delaunay_data(config.grid(), config.H, config.u0, config.du0)
    return load_surface_data(config.input_path)


def _mesh_faces(nx, ny) -> bytes:
    """The 'f' lines of a grid mesh: 1-based quads over each cell, x fastest."""
    # a[i, j] is the 1-based number of vertex (i, j), first corner of cell (i, j)
    a = np.arange(1, nx * ny + 1).reshape(ny, nx).T[:-1, :-1]
    return b"".join(table_lines((a, a + 1, a + 1 + nx, a + nx), prefix="f "))


def write_mesh(path, surface, faces):
    """Wavefront-style quad mesh of an H3SurfaceGrid's ball-projected points.

    The header names the surface's kind; vertices are emitted x fastest,
    followed by `faces`, the bytes `_mesh_faces(nx, ny)` returns.  The grid
    held its points to the hyperboloid, so they are projected ungated.
    """
    with open(path, "wb") as fh:
        fh.write(f"# {surface.kind} surface: Poincare ball vertices, quad faces, "
                 "row-major in y\n".encode())
        write_table(fh, _ball(surface.points), prefix="v ")
        fh.write(faces)


def _write_meshes(out: Path, surfaces) -> list[Path]:
    """One mesh file per side, from the (primary, shifted) surfaces.

    Both sides live on one grid, so they share one face table.
    """
    paths = [out / name for name in MESH_FILES]
    faces = _mesh_faces(*surfaces[0].points.shape[1:])
    for path, surface in zip(paths, surfaces):
        write_mesh(path, surface, faces)
    return paths


def write_diagnostics(path, data, sides: Sides):
    """Per-point table of measured quantities, one row per grid node.

    `sides` is the (primary, shifted) pair `evaluate` built; the measured
    columns are the primary side's.  Columns: i j x y E Fc G |Qm| Hm
    distance-to-shifted gauss-residual.
    """
    m = sides[0].measured
    g = data.grid
    columns = (
        np.arange(g.nx)[:, None], np.arange(g.ny)[None, :], g.xs()[:, None], g.ys()[None, :],
        m.E, m.Fc, m.G,
        np.hypot(m.Qm.real, m.Qm.imag),  # bitwise abs() of each entry; np.abs is not
        m.Hm, sides.distance, data.residual,
    )
    with open(path, "wb") as fh:
        fh.write(b"# columns: i j x y E Fc G |Qm| Hm distance-to-shifted gauss-residual\n")
        write_table(fh, columns)


def save_frame(path, frame: ExtendedFrame):
    """Frame file: an uncompressed numpy archive (npz) of FRAME_MEMBERS.

    F goes in as the frame holds it, shape (2, 2, nx, ny).  Doubles are
    stored as their bits, so `load_frame` returns the very frame
    written, and the archive carries no timestamp, so equal frames give
    equal bytes.
    """
    g = frame.grid
    with open(path, "wb") as fh:  # np.savez appends ".npz" to a path it opens
        np.savez(
            fh,
            F=frame.F,
            lam=float(frame.spectral.lam),
            extents=[float(v) for v in (g.x_min, g.x_max, g.y_min, g.y_max)],
        )


def load_frame(path) -> ExtendedFrame:
    """The frame `save_frame` wrote to `path`.

    Anything but an archive of exactly FRAME_MEMBERS, with their dtypes and
    shapes and finite entries, raises InvalidInputError naming the file; so
    do a grid below MIN_NODES per axis, bad extents and a bad lam.  A
    non-finite entry of F is named by its index F[r, c, i, j].  Frames of
    earlier versions (text, with a `base_index` or `r` member, or with F
    stored as (nx, ny, 2, 2)) are refused too, with a hint to generate the
    run again.  The frame holds the loaded F without a copy.
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
            + _EARLIER
        )
    for name, (dtype, shape) in FRAME_MEMBERS.items():
        a = members[name]
        if a.dtype != dtype or len(a.shape) != len(shape) or any(
            n not in (None, m) for n, m in zip(shape, a.shape)
        ):
            # earlier versions stored F as (nx, ny, 2, 2)
            hint = "; " + _EARLIER if name == "F" and a.shape[2:] == (2, 2) else ""
            raise InvalidInputError(
                f"{path}: {name} is {a.dtype} of shape {a.shape}, expected "
                f"{np.dtype(dtype)} of shape {shape}{hint}"
            )
    for name in FRAME_MEMBERS:
        a = members[name]
        finite = np.isfinite(a)
        if not finite.all():
            k = tuple(int(i) for i in np.unravel_index(np.argmin(finite), a.shape))
            where = f"{name}{list(k)}" if k else name
            raise InvalidInputError(f"{path}: {where} = {a[k]} is not finite")
    F = _frozen(members["F"])
    try:
        grid = GridSpec(*members["extents"].tolist(), *F.shape[2:])
        spectral = SpectralParam(float(members["lam"]))
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


def _require_directory_path(out: Path) -> None:
    """Refuse an `out` that is an existing file or lies under one."""
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise InvalidInputError(f"out_dir {out}: {path} is not a directory")
            return


def run(config: RunConfig) -> VerificationReport:
    """Full pipeline; writes every output file and returns the report.

    An `out_dir` that is a file, or lies under one, is refused before any
    work; everything else is computed before `out_dir` is made, so a refused
    run leaves no `out_dir` behind.  The frame is written first and let go,
    so no other writer runs beside it."""
    out = Path(config.out_dir)
    _require_directory_path(out)
    data = generate_data(config)
    _require_normalized(data)
    frame = integrate_frame(data, config.spectral())
    sides = evaluate(frame)
    report = _report(data, sides, resolve_tolerances(config.tolerances))
    out.mkdir(parents=True, exist_ok=True)
    save_frame(out / FRAME_FILE, frame)
    del frame
    save_surface_data(out / SURFACE_FILE, data)
    _write_meshes(out, [side.surface for side in sides])
    write_diagnostics(out / DIAGNOSTICS_FILE, data, sides)
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


def _stored_report(in_dir) -> tuple[str, VerificationReport]:
    """The text of a run directory's `report.kv` and the report it holds.

    The one reader of a stored `report.kv`: a file that is missing, is not
    UTF-8, does not parse or lacks a registered check is refused, an
    encoding error and a missing check with the file's path.  Its
    tolerances are left to `resolve_tolerances`."""
    path = require_output(Path(in_dir) / REPORT_MACHINE_FILE)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None
    report = parse_machine(text)
    stored = {r.name for r in report.records}
    missing = [name for name in registry_names() if name not in stored]
    if missing:
        raise InvalidInputError(f"{path}: no stored tolerance for {', '.join(missing)}")
    return text, report


def read_machine_report(in_dir) -> tuple[str, VerificationReport]:
    """`_stored_report`, also refused when `resolve_tolerances` refuses the
    check names or tolerances it holds."""
    text, report = _stored_report(in_dir)
    resolve_tolerances({r.name: r.tolerance for r in report.records})
    return text, report


def verify_outputs(in_dir) -> VerificationReport:
    """Re-run the theorem checks on stored outputs and refresh the reports.

    Each check is judged against the tolerance the stored `report.kv` gives
    it, so a run generated with overrides keeps them.  A report.kv that
    `read_machine_report` would refuse is refused: by `_stored_report`, or
    by `verify_theorem`, which resolves the stored tolerances once.
    """
    in_dir = Path(in_dir)
    tols = {r.name: r.tolerance for r in _stored_report(in_dir)[1].records}
    data, frame = load_outputs(in_dir)
    report = verify_theorem(data, frame, tols)
    _write_report_files(in_dir, report)
    return report


def export_meshes(in_dir):
    """Re-project stored frames to Poincare ball meshes."""
    in_dir = Path(in_dir)
    frame = load_frame(require_output(in_dir / FRAME_FILE))
    return _write_meshes(in_dir, (surface_primary(frame), surface_shifted(frame)))
