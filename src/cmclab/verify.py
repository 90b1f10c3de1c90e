"""End-to-end verification of the parallel-surface statement.

`evaluate` builds each side of the theorem once from an integrated frame:
the primary surface F conj(F)^t and the shifted surface (FD) conj(FD)^t,
each with its frame, algebraic normal and measured geometry.  A side is a
name from `report.SIDES` and a sign, +1 on the primary side and -1 on the
shifted one, and the sign is all that tells the per-side checks apart: the
closed form carries it (`closed_form(data, frame.spectral, sign)`), and
the Lawson partner is taken at the scale sign * s, with
s = homothety_scale(H, frame.spectral) = H(1/lam - lam)/2, from the
Christoffel dual on the primary side and from the data itself on the
shifted one; the frame's SpectralParam is the one check on lam.  The
report runs the per-side checks (closed forms, constancy, Lawson
homothety) in one loop over the two sides and takes frame unimodularity
and the normal-field algebra as a maximum over it; compatibility, the
exact parallel identity, equidistance and the opposite mean-curvature
signs complete the registry.

Every frame-derived array is built once per evaluation: the parallel
identity is checked on the points and normal the two sides hold, and each
frame's |det F - 1| maximum is taken once, so the report reuses the one
`integrate_frame` checked.  `_report` takes the tolerance map that
`report.resolve_tolerances` validated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInputError
from .frames import ExtendedFrame, shift_frame
from .measure import (
    MeasuredData,
    closed_form,
    closed_form_max_diff,
    conformality_defect,
    homothety_scale,
    hopf_constancy,
    hopf_match,
    hopf_phase_defect,
    isothermic_defect,
    lawson_data,
    mean_constancy,
    mean_match,
    mean_sign,
    measure,
    metric_match,
)
from .report import (
    SIDES,
    CheckRecord,
    VerificationReport,
    registry_names,
    resolve_tolerances,
)
from .surface_data import SurfaceData, dual_data, max_gauss_residual
from .surfaces import (
    H3SurfaceGrid,
    NormalField,
    _surface,
    equidistance_defect,
    normal_field,
    normal_orthogonality_defect,
    normal_unit_defect,
    parallel_identity_defect,
)


@dataclass(frozen=True, eq=False)
class Side:
    """One side of the parallel pair: its name in SIDES, its sign (+1
    primary, -1 shifted), `frame` (FD on the shifted side), the surface F F*
    it spans, its normal and its measured geometry."""

    name: str
    sign: int
    frame: ExtendedFrame
    surface: H3SurfaceGrid
    normal: NormalField
    measured: MeasuredData


def _side(name: str, sign: int, frame: ExtendedFrame) -> Side:
    surface = _surface(frame, name)
    normal = normal_field(frame)
    return Side(name, sign, frame, surface, normal, measure(surface, normal))


def evaluate(frame: ExtendedFrame) -> tuple[Side, Side]:
    """The (primary, shifted) pair of sides, each member built once; the
    shifted side's surface and normal both come from one shifted frame FD."""
    frames = (frame, shift_frame(frame))
    return tuple(_side(*args) for args in zip(SIDES, (1, -1), frames))


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
    sides: tuple[Side, Side],
    tols: dict[str, float],
) -> VerificationReport:
    """The report on the sides `evaluate` built from one frame, judged
    against `tols`, the resolved tolerance of every registered check."""
    primary, shifted = sides
    frame = primary.frame
    scale = homothety_scale(data.H, frame.spectral)

    values = {
        "gauss_residual_max": max_gauss_residual(data),
        "det_drift_max": max(s.frame.max_det_drift for s in sides),
        "normal_unit_max_dev": max(normal_unit_defect(s.normal) for s in sides),
        "normal_orthogonality_max_dev": max(
            normal_orthogonality_defect(s.surface, s.normal) for s in sides
        ),
        "parallel_identity_residual": parallel_identity_defect(
            primary.surface, primary.normal, shifted.surface
        ),
        "equidistance_max_dev": equidistance_defect(primary.surface, shifted.surface),
    }
    signs = {}
    for side in sides:
        m = side.measured
        clo = closed_form(data, frame.spectral, side.sign)
        partner = dual_data(data) if side.sign == 1 else data
        lawson = lawson_data(partner, side.sign * scale)
        side_values = {
            "metric_match": metric_match(m, clo),
            "hopf_match": hopf_match(m, clo),
            "mean_match": mean_match(m, clo),
            "conformality": conformality_defect(m),
            "isothermic": isothermic_defect(m),
            "mean_constancy": mean_constancy(m),
            "hopf_constancy": hopf_constancy(m),
            "hopf_phase": hopf_phase_defect(m),
            "lawson_match": closed_form_max_diff(lawson, clo),
        }
        values.update((f"{k}_{side.name}", v) for k, v in side_values.items())
        signs[side.name] = mean_sign(m)
    # 0 when the two measured signs are opposite, 2 when equal
    values["mean_sign_opposite"] = abs(sum(signs.values()))

    records = tuple(
        CheckRecord(name, float(values[name]), tols[name]) for name in registry_names()
    )
    g = data.grid
    metadata = {
        "lambda": f"{frame.lam:.17g}",
        "q": f"{frame.spectral.q:.17g}",
        "r": f"{frame.spectral.r:.17g}",
        "H": f"{data.H:.17g}",
        "Q": f"{data.Q:.17g}",
        "nx": str(g.nx),
        "ny": str(g.ny),
        "hx": f"{g.hx:.17g}",
        "hy": f"{g.hy:.17g}",
        "homothety_scale": f"{scale:.17g}",
        **{f"mean_sign_{s.name}": f"{signs[s.name]:+.0f}" for s in sides},
        **{
            f"conformal_warning_{s.name}": str(s.measured.conformal_warning).lower()
            for s in sides
        },
    }
    return VerificationReport(records=records, metadata=metadata)
