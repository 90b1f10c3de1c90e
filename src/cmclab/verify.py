"""End-to-end verification of the parallel-surface statement.

`evaluate` builds each side of the theorem once from an integrated frame:
the primary surface F conj(F)^t and the shifted surface (FD) conj(FD)^t,
each with its algebraic normal, its measured geometry and its frame's
largest |det - 1|.  A side holds no frame: the shifted frame FD is let go
once its surface and determinant drift are read, before the side is
measured.  A side's name is its surface's `kind`, a name from
`surfaces.SIDES`, and its sign is +1 on the primary side and -1 on the
shifted one; the sign is all that tells the per-side checks apart: the
closed form carries it (`closed_form(data, spectral, sign)`), and the
Lawson partner is taken at the scale sign * s, with
s = homothety_scale(H, spectral) = H(1/lam - lam)/2, from the Christoffel
dual on the primary side and from the data itself on the shifted one; the
primary surface's SpectralParam is the one check on lam.  `_report` walks
the check table of `report` in registry order: the whole-run rows read the
data and both sides, and each side's rows read its measured geometry and
the closed form and Lawson data built once for that side.

Every frame-derived array is built once per evaluation: each side's
surface, which carries its normal, comes from one `surfaces._surface`
pass over its frame, the report and the diagnostics share one distance
grid (`Sides.distance`), the parallel identity is checked on the points
and normal the sides hold, and each frame's |det F - 1| maximum is taken
once, so the report reuses the one `integrate_frame` checked.  `_report`
takes the tolerance map that `report.resolve_tolerances` validated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from . import report
from .errors import InvalidInputError
from .frames import ExtendedFrame, shift_frame
from .measure import (
    CONFORMAL_WARN_RATIO,
    MeasuredData,
    closed_form,
    homothety_scale,
    lawson_data,
    mean_sign,
    measure,
)
from .report import CheckRecord, VerificationReport, registry_names, resolve_tolerances
from .surface_data import SurfaceData, _frozen, dual_data
from .surfaces import SIDES, H3SurfaceGrid, _surface, distance_grid


@dataclass(frozen=True, eq=False)
class Side:
    """One side of the parallel pair: its sign (+1 primary, -1 shifted), the
    surface F F* its frame spans (FD on the shifted side), with its normal
    and its `kind`, the side's name in SIDES; its measured geometry; and its
    frame's largest |det - 1|."""

    sign: int
    surface: H3SurfaceGrid
    measured: MeasuredData
    det_drift: float


def _side(kind: str, sign: int, frame: ExtendedFrame) -> Side:
    """The side `kind` spanned by `frame`, which it does not keep."""
    surface, drift = _surface(frame, kind), frame.max_det_drift
    del frame  # on the shifted side the last reference to FD
    return Side(sign, surface, measure(surface), drift)


class Sides(tuple):
    """The (primary, shifted) pair of sides `evaluate` builds."""

    @cached_property
    def distance(self):
        """The pointwise distance between the two surfaces, taken once."""
        return _frozen(distance_grid(self[0].surface, self[1].surface))


def evaluate(frame: ExtendedFrame) -> Sides:
    """The (primary, shifted) pair of sides, each member built once; the
    shifted side's surface and normal both come from one shifted frame FD,
    which is let go before that side is measured."""
    return Sides((_side(SIDES[0], 1, frame), _side(SIDES[1], -1, shift_frame(frame))))


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
    tols = resolve_tolerances(tolerances)
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
    values += (value(data, sides) for _, _, value in report.CLOSING_CHECKS)
    checked = VerificationReport(tuple(
        CheckRecord(name, float(value), tols[name])
        for name, value in zip(registry_names(), values, strict=True)
    ))
    g = data.grid
    metadata = {
        "lambda": f"{spectral.lam:.17g}",
        "q": f"{spectral.q:.17g}",
        "H": f"{data.H:.17g}",
        "Q": f"{data.Q:.17g}",
        "nx": str(g.nx),
        "ny": str(g.ny),
        "hx": f"{g.hx:.17g}",
        "hy": f"{g.hy:.17g}",
        "homothety_scale": f"{scale:.17g}",
        **{f"mean_sign_{s.surface.kind}": f"{mean_sign(s.measured):+.0f}" for s in sides},
        **{
            f"conformal_warning_{s.surface.kind}": str(
                checked.record(f"conformality_{s.surface.kind}").value
                > CONFORMAL_WARN_RATIO
            ).lower()
            for s in sides
        },
    }
    return replace(checked, metadata=metadata)
