"""Discrete measurement of surface geometry and the closed-form targets.

First fundamental form, Hopf differential function and mean curvature are
recovered on every node of a surface grid by the fourth-order difference
kernel of `surface_data`, using the exact algebraic normal the surface
carries rather than a reconstructed one so that all finite-difference
error is isolated in derivatives of the position f.
Because <f, N> = 0, the ambient second derivatives may be paired with N
directly: the components along f that distinguish ambient from intrinsic
second derivatives are annihilated.

`measure` makes one pass per coordinate plane of f: it takes that plane's
first and second derivatives and adds its term to each Minkowski product
in `mink_dot`'s order, ((t0 + t1) + t2) - t3, before it moves to the next
plane.  So it holds the derivatives of one plane at a time, never a
derivative grid of all four coordinates, and its results keep
`mink_dot`'s bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalError
from .frames import SpectralParam
from .surface_data import GridSpec, SurfaceData, _frozen, _locked, grid_derivatives
from .surface_data import grid_second_derivatives
from .surfaces import H3SurfaceGrid

# how far above the round-off floor eps max|f| / min(hx, hy) the square root
# of the measured metric must lie; see `measure`
METRIC_FLOOR_FACTOR = 16.0 / 5e-3


@dataclass(frozen=True, eq=False)
class MeasuredData:
    """Per-point measured geometry, each array of the grid's shape (nx, ny)."""

    grid: GridSpec
    E: np.ndarray
    Fc: np.ndarray
    G: np.ndarray
    Qm: np.ndarray
    Hm: np.ndarray

    def __post_init__(self):
        shape = (self.grid.nx, self.grid.ny)
        for name in ("E", "Fc", "G", "Qm", "Hm"):
            dtype = complex if name == "Qm" else float
            a = _locked(getattr(self, name), dtype, shape, name)
            object.__setattr__(self, name, a)


@dataclass(frozen=True, eq=False)
class ClosedFormData:
    """Target data: conformal metric factor per point, constant Hopf value
    and constant mean curvature."""

    metric_factor: np.ndarray
    hopf: float
    mean: float

    def __post_init__(self):
        mf = _locked(self.metric_factor)
        if not np.all(mf > 0.0):
            raise InvalidInputError("metric factor must be positive")
        object.__setattr__(self, "metric_factor", mf)


def _add_term(total, c, term):
    """`total` with coordinate c's `term` of a Minkowski product added in
    `mink_dot`'s order, ((t0 + t1) + t2) - t3; `term` starts it at c = 0."""
    if c == 0:
        return term
    if c < 3:
        total += term
    else:
        total -= term
    return total


def measure(surface: H3SurfaceGrid) -> MeasuredData:
    """Measure E, Fc, G, Qm, Hm on every node of a surface grid.

    Uses f_zz = (f_xx - f_yy - 2i f_xy)/4 and f_zzbar = (f_xx + f_yy)/4,
    then Qm = <f_zz, N> and Hm = 2 <f_zzbar, N> / E (formed from <f_xx, N>,
    <f_yy, N> and <f_xy, N>) with the conformal factor read off from the
    measured E.

    E must be resolved above round-off at every node, or NumericalError is
    raised before Qm and Hm are formed.  Each coordinate of f carries a
    rounding of up to eps max|f|, and the widest first-derivative row, the
    one-sided (-27, 58, -56, 36, -13, 2)/12 at a grid edge, carries it into
    f_x and f_y magnified by sum|w|/12 = 16 over the step.  So a derivative
    of length sqrt(E) is known to 16 eps max|f| / h, and to the 5e-3
    default tolerance of the side checks only where sqrt(E) exceeds
    K = 16 / 5e-3 = 3.2e3 (METRIC_FLOOR_FACTOR) times the floor
    eps max|f| / min(hx, hy).  Near lam = 1 the surface shrinks toward a
    point, E with it, and the checks that divide by E would read round-off:
    on the 21 x 21 cylinder sqrt(min E) is 22 floors at lam = 1 - 1e-13,
    225 at 1 - 1e-12 and 2.25e4 at 1 - 1e-10; over lam in [0.05, 0.95] it is
    at least 3e11 on cylinder and Delaunay data (u0 in [-0.6, 0.6]) at
    201 x 201 and 401 x 401.
    """
    g = surface.grid
    f, N = surface.points, surface.normal
    hx, hy = g.hx, g.hy

    E = Fc = G = fxx_n = fyy_n = fxy_n = None
    for c in range(4):
        fx, fy = grid_derivatives(f[c], hx, hy)
        E = _add_term(E, c, fx * fx)
        Fc = _add_term(Fc, c, fx * fy)
        G = _add_term(G, c, fy * fy)
        del fy
        fxx, fyy, fxy = grid_second_derivatives(f[c], fx, hx, hy)
        del fx
        fxx_n = _add_term(fxx_n, c, fxx * N[c])
        fyy_n = _add_term(fyy_n, c, fyy * N[c])
        fxy_n = _add_term(fxy_n, c, fxy * N[c])
        del fxx, fyy, fxy
    # Hm and the conformality and isothermic defects divide by E; an E at
    # or below round-off (or NaN) would make those checks read noise.  On
    # the hyperboloid x0^2 = 1 + x1^2 + x2^2 + x3^2, so max|f| is max x0
    floor = METRIC_FLOOR_FACTOR * np.finfo(float).eps * float(f[3].max()) / min(hx, hy)
    if not np.all(E > floor * floor):
        i, j = np.unravel_index(np.argmin(E), E.shape)
        raise NumericalError(
            f"measured metric E = {E[i, j]:.3g} at grid node ({i}, {j}) is not above "
            f"{floor * floor:.3g}, the square of {METRIC_FLOOR_FACTOR:g} times the "
            "round-off floor eps max|f| / min(hx, hy)"
        )
    Qm = 0.25 * (fxx_n - fyy_n - 2.0j * fxy_n)
    Hm = 0.5 * (fxx_n + fyy_n) / E
    return MeasuredData(g, *map(_frozen, (E, Fc, G, Qm, Hm)))


def closed_form(data: SurfaceData, spectral: SpectralParam, sign: int) -> ClosedFormData:
    """Closed-form data of one side at the spectral value lam of `spectral`:
    sign +1 for the primary surface, -1 for the shifted one.

    Metric factor Q^2 e^{-2 sign u} (lam - 1/lam)^2, Hopf value
    sign QH(1/lam - lam)/2, mean curvature
    sign (1/lam + lam)/(1/lam - lam).  The sign multiplies exactly, so the
    two sides differ by no rounding.  The formulas describe the measured
    surfaces under the H = 2Q normalization; SpectralParam keeps lam in
    (0, 1), away from the value 1 at which the metric factor collapses.
    """
    if sign not in (1, -1):
        raise InvalidInputError(f"side sign must be +1 or -1, got {sign!r}")
    lam = spectral.lam
    d = lam - 1.0 / lam
    return ClosedFormData(
        metric_factor=_frozen(data.Q**2 * np.exp(-2.0 * sign * data.u) * d**2),
        hopf=0.5 * data.Q * data.H * (-sign * d),
        mean=sign * (1.0 / lam + lam) / (1.0 / lam - lam),
    )


def homothety_scale(H: float, spectral: SpectralParam) -> float:
    """The scale s = H(1/lam - lam)/2 at the spectral value lam of
    `spectral`, relating the hyperbolic surface's data to Euclidean data;
    the shifted side uses -s."""
    if H == 0:
        raise InvalidInputError("mean curvature H must be nonzero")
    lam = spectral.lam
    return 0.5 * H * (1.0 / lam - lam)


def lawson_data(data: SurfaceData, s: float) -> ClosedFormData:
    """Lawson-partner data of the surface `data` describes, scaled by a
    homothety s: metric factor s^2 e^{2u}, Hopf value sQ, mean curvature
    sqrt((H/s)^2 + 1).  Pass `dual_data(data)` for the partner built from
    the Christoffel dual."""
    if s == 0:
        raise InvalidInputError("homothety scale must be nonzero")
    return ClosedFormData(
        metric_factor=_frozen(s**2 * np.exp(2.0 * data.u)),
        hopf=s * data.Q,
        mean=float(np.sqrt((data.H / s) ** 2 + 1.0)),
    )


def closed_form_max_diff(a: ClosedFormData, b: ClosedFormData) -> float:
    """Largest absolute difference between two closed-form data sets,
    comparing Hopf and mean curvature by modulus."""
    return max(
        float(np.max(np.abs(a.metric_factor - b.metric_factor))),
        abs(abs(a.hopf) - abs(b.hopf)),
        abs(abs(a.mean) - abs(b.mean)),
    )


def metric_match(measured: MeasuredData, closed: ClosedFormData) -> float:
    """Max relative deviation of measured E from the closed-form factor."""
    mf = closed.metric_factor
    return float(np.max(np.abs(measured.E - mf) / mf))


def hopf_match(measured: MeasuredData, closed: ClosedFormData) -> float:
    """Max relative deviation of Qm from the closed-form Hopf value, sign
    and phase included: max |Qm - hopf| / |hopf|."""
    return float(np.max(np.abs(measured.Qm - closed.hopf)) / abs(closed.hopf))


def mean_match(measured: MeasuredData, closed: ClosedFormData) -> float:
    """Max relative deviation of Hm from the closed-form mean curvature,
    sign included: max |Hm - mean| / |mean|.  So a side whose normal points
    the other way reads 2."""
    return float(np.max(np.abs(measured.Hm - closed.mean)) / abs(closed.mean))


def conformality_defect(measured: MeasuredData) -> float:
    """Max |Fc| / E."""
    return float(np.max(np.abs(measured.Fc) / measured.E))


def isothermic_defect(measured: MeasuredData) -> float:
    """Max |E - G| / E."""
    return float(np.max(np.abs(measured.E - measured.G) / measured.E))


def mean_constancy(measured: MeasuredData) -> float:
    """Standard deviation of Hm."""
    return float(np.std(measured.Hm))


def hopf_constancy(measured: MeasuredData) -> float:
    """Standard deviation of |Qm|."""
    return float(np.std(np.abs(measured.Qm)))
