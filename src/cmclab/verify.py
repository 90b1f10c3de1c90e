"""End-to-end verification of the parallel-surface statement.

`evaluate` builds each side of the theorem once from an integrated frame:
the primary surface F conj(F)^t with its algebraic normal, from one
`surfaces._surface` pass over F, and the shifted surface, that side
turned through q (`surfaces._shifted`), so no shifted frame FD is formed.
Each side is measured once, and the frame's largest |det F - 1| is read
once, the maximum `integrate_frame` checked, and kept with the pair
(`Sides.det_drift`).  A side's name is its surface's `kind`, a name from
`surfaces.SIDES`, and its sign is +1 on the primary side and -1 on the
shifted one; the sign is all that tells the per-side checks apart: the
closed form carries it (`closed_form(data, spectral, sign)`), and the
Lawson partner is taken at the scale sign * s, with
s = homothety_scale(H, spectral) = H(1/lam - lam)/2, from the Christoffel
dual on the primary side and from the data itself on the shifted one; the
primary surface's SpectralParam is the one check on lam.  `_report` walks
the check table of `report` in registry order: the whole-run rows read the
data and the pair, and each side's rows read its measured geometry and
the closed form and Lawson data built once for that side.  `_report`
takes the tolerance map that `report.resolve_tolerances` validated.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import report
from .errors import InvalidInputError
from .frames import ExtendedFrame
from .measure import MeasuredData, closed_form, homothety_scale, lawson_data, measure
from .report import CheckRecord, VerificationReport, registry_names, resolve_tolerances
from .surface_data import SurfaceData, dual_data
from .surfaces import H3SurfaceGrid, _shifted, _surface


@dataclass(frozen=True, eq=False)
class Side:
    """One side of the parallel pair: its sign (+1 primary, -1 shifted), its
    surface with its normal and its `kind`, the side's name in SIDES, and
    its measured geometry."""

    sign: int
    surface: H3SurfaceGrid
    measured: MeasuredData


class Sides(tuple):
    """The (primary, shifted) pair of sides `evaluate` builds, and
    `det_drift`, the largest |det F - 1| of the frame they come from."""

    def __new__(cls, sides, det_drift: float):
        self = super().__new__(cls, sides)
        self.det_drift = det_drift
        return self


def evaluate(frame: ExtendedFrame) -> Sides:
    """The (primary, shifted) pair of sides, each member built once: the
    shifted surface is the primary one turned through q."""
    primary = _surface(frame)
    shifted = _shifted(primary)
    return Sides(
        (Side(1, primary, measure(primary)), Side(-1, shifted, measure(shifted))),
        frame.max_det_drift,
    )


def verify_theorem(
    data: SurfaceData,
    frame: ExtendedFrame,
    tolerances: dict[str, float] | None = None,
) -> VerificationReport:
    """Run every registered check and return the report.

    Failures are carried in the report, never raised; only structural
    problems (mismatched grids, non-normalized data, tolerance overrides
    that `resolve_tolerances` refuses) raise.
    """
    tols = resolve_tolerances({} if tolerances is None else tolerances)
    _require_normalized(data)
    if data.grid != frame.grid:
        raise InvalidInputError("data and frame live on different grids")
    return _report(data, evaluate(frame), tols)


def _require_normalized(data: SurfaceData) -> None:
    """Refuse data off the H = 2Q normalization the theorem needs."""
    if not data.normalized:
        raise InvalidInputError(
            "verification requires normalized isothermic data with H = 2Q; "
            f"got H = {data.H}, Q = {data.Q}"
        )


def _report(
    data: SurfaceData,
    sides: Sides,
    tols: dict[str, float],
) -> VerificationReport:
    """The report on the sides `evaluate` built from one frame, judged
    against `tols`, the resolved tolerance of every registered check.

    It walks the rows of `report` in registry order, so `sides` must be in
    SIDES order, as `evaluate` builds them; each side's closed form and
    Lawson data are built once, for that side's rows."""
    spectral = sides[0].surface.spectral
    scale = homothety_scale(data.H, spectral)
    values = [value(data, sides) for _, _, value in report.RUN_CHECKS]
    for side in sides:
        closed = closed_form(data, spectral, side.sign)
        partner = dual_data(data) if side.sign == 1 else data
        lawson = lawson_data(partner, side.sign * scale)
        values += (value(side.measured, closed, lawson) for _, _, value in report.SIDE_CHECKS)
    records = tuple(
        CheckRecord(name, float(value), tols[name])
        for name, value in zip(registry_names(), values, strict=True)
    )
    g = data.grid
    return VerificationReport(records, {
        "lambda": f"{spectral.lam:.17g}",
        "q": f"{spectral.q:.17g}",
        "H": f"{data.H:.17g}",
        "Q": f"{data.Q:.17g}",
        "nx": str(g.nx),
        "ny": str(g.ny),
        "hx": f"{g.hx:.17g}",
        "hy": f"{g.hy:.17g}",
        "homothety_scale": f"{scale:.17g}",
    })
