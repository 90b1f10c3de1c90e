"""The two parallel surfaces in hyperbolic 3-space.

From an extended frame F the primary surface is f = F conj(F)^t and the
shifted surface is (FD) conj(FD)^t with D = diag(lam^{-1/2}, lam^{1/2}).
Writing lam = e^q, the two satisfy the exact pointwise identity

    (FD) conj(FD)^t = cosh(q) F conj(F)^t - sinh(q) N

where N = F diag(1, -1) conj(F)^t is the unit normal of the primary
surface, so the shifted surface lies at constant geodesic distance -q
along the normal.  Both products come from one pass of
`minkowski.surface_and_normal` over F's entries; `_surface` keeps the
points and `normal_field` the normal.  Coordinates are linear in the
Hermitian matrices, so `parallel_identity_defect` checks the identity on
the points and normal the sides of `verify.evaluate` already hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .frames import ExtendedFrame, SpectralParam, shift_frame
from .minkowski import H3_TOL, mink_dot, require_h3, surface_and_normal
from .report import SIDES
from .surface_data import GridSpec, _locked


@dataclass(frozen=True, eq=False)
class H3SurfaceGrid:
    """Grid of hyperboloid points, coordinates (x1, x2, x3, x0); `kind` is
    the name in SIDES of the side the surface belongs to."""

    grid: GridSpec
    points: np.ndarray
    spectral: SpectralParam
    kind: str

    def __post_init__(self):
        if self.kind not in SIDES:
            raise InvalidInputError(f"unknown surface kind {self.kind!r}")
        pts = _locked(
            self.points, float, (self.grid.nx, self.grid.ny, 4), "points", entries=1
        )
        # a point F F* misses the hyperboloid by |det F|^2 - 1, so require_h3
        # holds it to H3_TOL, derived from the integrator's bound on |det F - 1|
        require_h3(pts, what=f"{self.kind} surface")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True, eq=False)
class NormalField:
    """Grid of spacelike unit vectors normal to a surface grid; a vector
    that is not finite is refused."""

    grid: GridSpec
    vectors: np.ndarray

    def __post_init__(self):
        v = _locked(
            self.vectors, float, (self.grid.nx, self.grid.ny, 4), "vectors", entries=1
        )
        if not np.isfinite(v).all():
            raise InvalidInputError("normal field has a vector that is not finite")
        object.__setattr__(self, "vectors", v)


def _surface(frame: ExtendedFrame, kind: str) -> H3SurfaceGrid:
    """The surface F conj(F)^t of `frame` on side `kind`; on a shifted
    frame FD this is the shifted surface."""
    return H3SurfaceGrid(frame.grid, surface_and_normal(frame.F)[0], frame.spectral, kind)


def surface_primary(frame: ExtendedFrame) -> H3SurfaceGrid:
    """The surface F conj(F)^t as hyperboloid points."""
    return _surface(frame, SIDES[0])


def surface_shifted(frame: ExtendedFrame) -> H3SurfaceGrid:
    """The parallel surface (FD) conj(FD)^t as hyperboloid points."""
    return _surface(shift_frame(frame), SIDES[1])


def normal_field(frame: ExtendedFrame) -> NormalField:
    """Unit normal N = F diag(1, -1) conj(F)^t of the frame's surface.

    Applied to a shifted frame this gives the shifted surface's normal.
    """
    return NormalField(frame.grid, surface_and_normal(frame.F)[1])


def normal_unit_defect(normal: NormalField) -> float:
    """Max deviation of <N, N> from +1 over the grid."""
    v = normal.vectors
    return float(np.max(np.abs(mink_dot(v, v) - 1.0)))


def normal_orthogonality_defect(surface: H3SurfaceGrid, normal: NormalField) -> float:
    """Max deviation of <N, f> from 0 over the grid."""
    if surface.grid != normal.grid:
        raise InvalidInputError("surface and normal live on different grids")
    return float(np.max(np.abs(mink_dot(normal.vectors, surface.points))))


def parallel_identity_defect(
    primary: H3SurfaceGrid, normal: NormalField, shifted: H3SurfaceGrid
) -> float:
    """Grid maximum of |s - (cosh q f - sinh q N)| over the primary points f,
    their normal N and the shifted points s, relative to the largest shifted
    coordinate; q = ln(lam) is the primary's."""
    if not primary.grid == normal.grid == shifted.grid:
        raise InvalidInputError("surfaces and normal live on different grids")
    q = primary.spectral.q
    R = shifted.points - (np.cosh(q) * primary.points - np.sinh(q) * normal.vectors)
    return float(np.max(np.abs(R))) / float(np.max(np.abs(shifted.points)))


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
    if primary.grid != shifted.grid:
        raise InvalidInputError("surface grids do not match")
    return hyperbolic_distance(primary.points, shifted.points)


def equidistance_defect(primary: H3SurfaceGrid, shifted: H3SurfaceGrid) -> float:
    """Max deviation of the pointwise distance from -q = -ln(lam)."""
    return _distance_defect(distance_grid(primary, shifted), primary.spectral)


def _distance_defect(distance: np.ndarray, spectral: SpectralParam) -> float:
    """Max deviation of a grid of distances from -q."""
    return float(np.max(np.abs(distance + spectral.q)))
