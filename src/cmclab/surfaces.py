"""The two parallel surfaces in hyperbolic 3-space.

From an extended frame F the primary surface is f = F conj(F)^t and the
shifted surface is (FD) conj(FD)^t with D = diag(lam^{-1/2}, lam^{1/2}).
Writing lam = e^q, the two satisfy the exact pointwise identity

    (FD) conj(FD)^t = cosh(q) F conj(F)^t - sinh(q) N

where N = F diag(1, -1) conj(F)^t is the unit normal of the primary
surface, so the shifted surface lies at constant geodesic distance -q
along the normal.  `_surface`, the one side builder, takes a surface and
the normal it carries, each of shape (4, nx, ny), from one pass of
`minkowski.surface_and_normal` over F's entries.  Coordinates are linear in the Hermitian matrices, so
`parallel_identity_defect` checks the identity on the points and normal
the sides of `verify.evaluate` already hold.  SIDES names the two sides,
primary first; it is the set of `kind`s an H3SurfaceGrid accepts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .frames import ExtendedFrame, SpectralParam, shift_frame
from .minkowski import H3_TOL, mink_dot, require_h3, surface_and_normal
from .surface_data import GridSpec, _locked

SIDES = ("primary", "shifted")


@dataclass(frozen=True, eq=False)
class H3SurfaceGrid:
    """Hyperboloid points and their finite unit normals over a grid, in
    coordinates (x1, x2, x3, x0), each of shape (4, nx, ny); `kind` is the
    surface's side in SIDES."""

    grid: GridSpec
    points: np.ndarray
    normal: np.ndarray
    spectral: SpectralParam
    kind: str

    def __post_init__(self):
        if self.kind not in SIDES:
            raise InvalidInputError(f"unknown surface kind {self.kind!r}")
        shape = (4, self.grid.nx, self.grid.ny)
        for name in ("points", "normal"):
            object.__setattr__(self, name, _locked(getattr(self, name), float, shape, name))
        # a point F F* misses the hyperboloid by |det F|^2 - 1, so require_h3
        # holds it to H3_TOL, derived from the integrator's bound on |det F - 1|
        require_h3(self.points, what=f"{self.kind} surface")
        if not np.isfinite(self.normal).all():
            raise InvalidInputError(f"{self.kind} normal has a vector that is not finite")


def _surface(frame: ExtendedFrame, kind: str) -> H3SurfaceGrid:
    """The surface F conj(F)^t of `frame` on side `kind`, with its normal;
    on a shifted frame FD this is the shifted surface."""
    return H3SurfaceGrid(frame.grid, *surface_and_normal(frame.F), frame.spectral, kind)


def surface_primary(frame: ExtendedFrame) -> H3SurfaceGrid:
    """The surface F conj(F)^t, with its normal."""
    return _surface(frame, SIDES[0])


def surface_shifted(frame: ExtendedFrame) -> H3SurfaceGrid:
    """The parallel surface (FD) conj(FD)^t, with its normal."""
    return _surface(shift_frame(frame), SIDES[1])


def normal_field(frame: ExtendedFrame) -> np.ndarray:
    """Unit normal N = F diag(1, -1) conj(F)^t of the frame's surface; on a
    shifted frame FD, the shifted surface's normal."""
    return _surface(frame, SIDES[0]).normal


def _require_same_grid(a: H3SurfaceGrid, b: H3SurfaceGrid) -> None:
    """Refuse a pair of surfaces on different grids."""
    if a.grid != b.grid:
        raise InvalidInputError("surface grids do not match")


def normal_unit_defect(surface: H3SurfaceGrid) -> float:
    """Max deviation of <N, N> from +1 over the grid."""
    v = surface.normal
    return float(np.max(np.abs(mink_dot(v, v) - 1.0)))


def normal_orthogonality_defect(surface: H3SurfaceGrid) -> float:
    """Max deviation of <N, f> from 0 over the grid."""
    return float(np.max(np.abs(mink_dot(surface.normal, surface.points))))


def parallel_identity_defect(primary: H3SurfaceGrid, shifted: H3SurfaceGrid) -> float:
    """Grid maximum of |s - (cosh q f - sinh q N)| over the primary points f,
    their normal N and the shifted points s, relative to the largest shifted
    coordinate; q = ln(lam) is the primary's.  It works one coordinate
    plane at a time, so it holds no residual grid of all four."""
    _require_same_grid(primary, shifted)
    q = primary.spectral.q
    ch, sh = np.cosh(q), np.sinh(q)
    f, N, s = primary.points, primary.normal, shifted.points
    worst, largest = [], []  # each plane's maxima; np.max keeps a NaN
    for c in range(4):
        worst.append(np.max(np.abs(s[c] - (ch * f[c] - sh * N[c]))))
        largest.append(np.max(np.abs(s[c])))
    return float(np.max(worst)) / float(np.max(largest))


def hyperbolic_distance(p, s):
    """Geodesic distance arccosh(-<p, s>) between hyperboloid points.

    Accepts single coordinate 4-vectors or broadcastable batches.  Values of
    -<p, s> within H3_TOL below 1 (coincident points as far off the
    hyperboloid as H3SurfaceGrid admits them) are clamped to distance zero;
    anything lower, or NaN, is rejected.
    """
    p = np.asarray(p, dtype=float)
    s = np.asarray(s, dtype=float)
    c = -mink_dot(p, s)
    if not np.all(c >= 1.0 - H3_TOL):
        worst = float(np.min(c))
        raise InvalidInputError(
            f"-<p, s> = {worst:.12g}, not >= 1; points are not a hyperboloid pair"
        )
    out = np.arccosh(np.maximum(c, 1.0))
    return float(out) if out.ndim == 0 else out


def distance_grid(primary: H3SurfaceGrid, shifted: H3SurfaceGrid) -> np.ndarray:
    """Pointwise hyperbolic distance between two surface grids."""
    _require_same_grid(primary, shifted)
    return hyperbolic_distance(primary.points, shifted.points)


def equidistance_defect(primary: H3SurfaceGrid, shifted: H3SurfaceGrid) -> float:
    """Max deviation of the pointwise distance from -q = -ln(lam)."""
    return _distance_defect(distance_grid(primary, shifted), primary.spectral)


def _distance_defect(distance: np.ndarray, spectral: SpectralParam) -> float:
    """Max deviation of a grid of distances from -q."""
    return float(np.max(np.abs(distance + spectral.q)))
