"""End-to-end verification of the parallel-surface statement.

`_sides` builds, measures and yields each side of the theorem once from an
integrated frame, one side at a time: first the primary surface
F conj(F)^t with its algebraic normal, from one
`surfaces.surface_primary` pass over F, then the shifted surface, that
side turned through q (`surfaces._shifted`), so no shifted frame FD is
formed.  The primary
surface is let go as soon as the shifted one is built, and `_report`
drops every grid of a side before it asks for the next, so the verifier
holds one side's grids at a time; `evaluate` is the same path kept whole,
for the writers of a run, which read both sides.  A side's name is its
surface's `kind`, a name from `surfaces.SIDES`, and its sign is +1 on the
primary side and -1 on the shifted one; the sign is all that tells the
per-side checks apart: the closed form carries it
(`closed_form(data, spectral, sign)`), and the Lawson partner is taken at
the scale sign * s, with s = homothety_scale(H, spectral) = H(1/lam - lam)/2,
from the Christoffel dual on the primary side and from the data itself on
the shifted one; the frame's SpectralParam is the one check on lam.
`_report` walks the check table of `report` in registry order: the
whole-run rows read the data and the frame (its largest |det F - 1|, the
maximum `integrate_frame` checked, is taken once per frame), and each
side's rows read its measured geometry and the closed form and Lawson data
built once for that side.  `_report` takes the tolerance map that
`report.resolve_tolerances` validated.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from . import report
from .errors import InvalidInputError
from .frames import ExtendedFrame
from .measure import MeasuredData, closed_form, homothety_scale, lawson_data, measure
from .report import CheckRecord, VerificationReport, registry_names, resolve_tolerances
from .surface_data import SurfaceData, dual_data
from .surfaces import H3SurfaceGrid, _shifted, surface_primary


@dataclass(frozen=True, eq=False)
class Side:
    """One side of the parallel pair: its sign (+1 primary, -1 shifted), its
    surface with its normal and its `kind`, the side's name in SIDES, and
    its measured geometry."""

    sign: int
    surface: H3SurfaceGrid
    measured: MeasuredData


def _sides(frame: ExtendedFrame) -> Iterator[Side]:
    """The primary side of `frame`, then the shifted side, the primary
    surface turned through q; the primary surface is let go once the
    shifted one is built."""
    primary = surface_primary(frame)
    yield Side(1, primary, measure(primary))
    shifted = _shifted(primary)
    del primary
    yield Side(-1, shifted, measure(shifted))


def evaluate(frame: ExtendedFrame) -> tuple[Side, Side]:
    """The (primary, shifted) pair of sides `_sides` builds, kept whole."""
    return tuple(_sides(frame))


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
    return _report(data, frame, _sides(frame), tols)


def _require_normalized(data: SurfaceData) -> None:
    """Refuse data off the H = 2Q normalization the theorem needs."""
    if not data.normalized:
        raise InvalidInputError(
            "verification requires normalized isothermic data with H = 2Q; "
            f"got H = {data.H}, Q = {data.Q}"
        )


def _report(
    data: SurfaceData,
    frame: ExtendedFrame,
    sides: Iterable[Side],
    tols: dict[str, float],
) -> VerificationReport:
    """The report on the sides of `frame`, judged against `tols`, the
    resolved tolerance of every registered check.

    It walks the rows of `report` in registry order, so `sides` must come
    in SIDES order, as `_sides` yields them; each side's closed form and
    Lawson data are built once, for that side's rows, and let go with the
    side before the next one is asked for."""
    spectral = frame.spectral
    scale = homothety_scale(data.H, spectral)
    values = [value(data, frame) for _, _, value in report.RUN_CHECKS]
    for side in sides:
        closed = closed_form(data, spectral, side.sign)
        partner = dual_data(data) if side.sign == 1 else data
        lawson = lawson_data(partner, side.sign * scale)
        values += (value(side.measured, closed, lawson) for _, _, value in report.SIDE_CHECKS)
        # the loop names would keep this side alive while the next is built
        del side, closed, partner, lawson
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
