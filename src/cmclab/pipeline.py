"""End-to-end orchestration: data -> frame -> surfaces -> measurement -> report.

All output files are plain text with numbers at 17 significant digits, so a
repeated run with the same config is bitwise identical except for the human
report, which carries a generation timestamp.  The machine report and the
diagnostics table never do.  Every grid table goes through
`surface_data.write_table` and comes back through `surface_data.read_table`,
which parses the stored text to the same doubles and refuses the same rows;
the formats carry no version of their own.
"""

from __future__ import annotations

import datetime
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvalidInputError
from .config import RunConfig
from .frames import ExtendedFrame, SpectralParam, integrate_frame
from .minkowski import require_h3
from .report import SIDES, VerificationReport, render_machine, render_text
from .surface_data import (
    GridSpec,
    SurfaceData,
    cylinder_data,
    delaunay_data,
    gauss_residual,
    load_surface_data,
    read_table,
    require_grid_size,
    save_surface_data,
    write_table,
)
from .surfaces import distance_grid, surface_primary, surface_shifted
from .verify import Side, _report, _require_normalized, evaluate, verify_theorem

BALL_TOL = 1e-8

SURFACE_FILE = "surface.dat"
FRAME_FILE = "frame.dat"
# one mesh file per side, in side order
MESH_FILES = tuple(f"mesh_{side}.obj" for side in SIDES)
MESH_PRIMARY_FILE, MESH_SHIFTED_FILE = MESH_FILES
DIAGNOSTICS_FILE = "diagnostics.dat"
REPORT_TEXT_FILE = "report.txt"
REPORT_MACHINE_FILE = "report.kv"


def poincare_ball(p):
    """Project hyperboloid points (x1, x2, x3, x0) into the open unit ball.

    b = (x1, x2, x3)/(1 + x0).  Accepts a single point or an array of them.
    """
    p = np.asarray(p, dtype=float)
    require_h3(p, tol=BALL_TOL, what="ball projection input")
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


def write_mesh(path, points, what="surface"):
    """Wavefront-style quad mesh of ball-projected grid points.

    points has shape (nx, ny, 4); vertices are emitted x fastest, faces as
    1-based quads over each grid cell.
    """
    b = poincare_ball(points)
    nx, ny = b.shape[0], b.shape[1]
    with open(path, "w") as fh:
        fh.write(f"# {what}: Poincare ball vertices, quad faces, row-major in y\n")
        write_table(fh, b, prefix="v ")
        # a[i, j] is the 1-based number of vertex (i, j), first corner of cell (i, j)
        a = np.arange(1, nx * ny + 1).reshape(ny, nx).T[:-1, :-1]
        faces = np.stack([a, a + 1, a + 1 + nx, a + nx], axis=-1)
        write_table(fh, faces, prefix="f ")


def _write_meshes(out: Path, surfaces) -> list[Path]:
    """One mesh file per side, from the (primary, shifted) surfaces."""
    paths = [out / name for name in MESH_FILES]
    for path, surface in zip(paths, surfaces):
        write_mesh(path, surface.points, f"{surface.kind} surface")
    return paths


def write_diagnostics(path, data, sides: tuple[Side, Side]):
    """Per-point table of measured quantities on the interior grid.

    `sides` is the (primary, shifted) pair from `evaluate`; the measured
    columns are the primary side's.  The boundary ring carries no
    second-order measurements and is omitted.
    Columns: i j x y E Fc G |Qm| Hm distance-to-shifted gauss-residual.
    """
    primary, shifted = sides
    m = primary.measured
    g = data.grid
    columns = (
        *np.indices((g.nx, g.ny)),
        *g.mesh(),
        m.E,
        m.Fc,
        m.G,
        np.hypot(m.Qm.real, m.Qm.imag),  # bitwise abs() of each entry; np.abs is not
        m.Hm,
        distance_grid(primary.surface, shifted.surface),
        gauss_residual(data),
    )
    with open(path, "w") as fh:
        fh.write("# columns: i j x y E Fc G |Qm| Hm distance-to-shifted gauss-residual\n")
        write_table(fh, np.stack(columns, axis=-1)[1:-1, 1:-1])


def save_frame(path, frame: ExtendedFrame):
    """Frame file: header, grid line, then 8 reals per point (x fastest)."""
    g = frame.grid
    sp = frame.spectral
    with open(path, "w") as fh:
        fh.write(
            "# extended frame: 'lambda r nx ny base_i base_j', "
            "'x_min x_max y_min y_max', rows Re/Im of F00 F01 F10 F11\n"
        )
        fh.write(
            f"{sp.lam:.17g} {sp.r:.17g} {g.nx} {g.ny} "
            f"{frame.base_index[0]} {frame.base_index[1]}\n"
        )
        fh.write(f"{g.x_min:.17g} {g.x_max:.17g} {g.y_min:.17g} {g.y_max:.17g}\n")
        re_im = np.stack([frame.F.real, frame.F.imag], axis=-1)
        write_table(fh, re_im.reshape(g.nx, g.ny, 8))


def load_frame(path) -> ExtendedFrame:
    (head, extents), flat = read_table(path, (6, 4), 8)
    try:
        lam, r = float(head[0]), float(head[1])
        nx, ny = int(head[2]), int(head[3])
        bi, bj = int(head[4]), int(head[5])
        x_min, x_max, y_min, y_max = (float(v) for v in extents)
    except ValueError as exc:
        raise InvalidInputError(f"{path}: malformed frame header") from exc
    require_grid_size(nx, ny, path)
    if len(flat) != nx * ny:
        raise InvalidInputError(
            f"{path}: expected {nx * ny} frame rows, found {len(flat)}"
        )
    F = (flat[:, 0::2] + 1j * flat[:, 1::2]).reshape(ny, nx, 2, 2).transpose(1, 0, 2, 3)
    grid = GridSpec(x_min, x_max, y_min, y_max, nx, ny)
    return ExtendedFrame(grid, F, SpectralParam(lam, r), (bi, bj))


def _write_report_files(out: Path, report: VerificationReport):
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    human = VerificationReport(
        report.records, {**report.metadata, "generated": stamp}
    )
    (out / REPORT_TEXT_FILE).write_text(render_text(human))
    (out / REPORT_MACHINE_FILE).write_text(render_machine(report))


def run(config: RunConfig) -> VerificationReport:
    """Full pipeline; writes every output file and returns the report."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data = generate_data(config)
    _require_normalized(data)
    frame = integrate_frame(data, config.spectral())
    save_surface_data(out / SURFACE_FILE, data)
    save_frame(out / FRAME_FILE, frame)
    sides = evaluate(frame)
    _write_meshes(out, (side.surface for side in sides))
    write_diagnostics(out / DIAGNOSTICS_FILE, data, sides)
    report = _report(data, sides, config.tolerances or None)
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
    """Re-run the theorem checks on stored outputs and refresh the reports."""
    data, frame = load_outputs(in_dir)
    report = verify_theorem(data, frame)
    _write_report_files(Path(in_dir), report)
    return report


def export_meshes(in_dir, model="poincare"):
    """Re-project stored frames to ball meshes; only one model exists."""
    if model != "poincare":
        raise ConfigError(f"unknown export model {model!r}; only 'poincare' exists")
    in_dir = Path(in_dir)
    frame = load_frame(require_output(in_dir / FRAME_FILE))
    return _write_meshes(in_dir, (surface_primary(frame), surface_shifted(frame)))
