"""The two parallel surfaces in hyperbolic 3-space.

From an extended frame F the primary surface is f = F conj(F)^t and the
shifted surface is (FD) conj(FD)^t with D = diag(lam^{-1/2}, lam^{1/2}).
Writing lam = e^q, the two satisfy the exact pointwise identity

    (FD) conj(FD)^t = cosh(q) F conj(F)^t - sinh(q) N

where N = F diag(1, -1) conj(F)^t is the unit normal of the primary
surface, so the shifted surface lies at constant geodesic distance -q
along the normal.  Each product F conj(F)^t is mul2(F, conj_transpose(F)),
the entrywise 2x2 kernel of the minkowski module.

`_surface` and `_normal` return, with a surface or a normal, the matrices
it was read from.  `verify.evaluate` passes the matrices F conj(F)^t, N and
(FD) conj(FD)^t of its two sides to `_identity_residual`, which
`parallel_identity_residual(frame)` also calls on matrices it builds
itself; so the report checks the identity on the very matrices the
surfaces are read from, and none is built twice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .frames import DET_DRIFT_TOL, ExtendedFrame, SpectralParam, shift_frame
from .minkowski import conj_transpose, from_hermitian, mink_dot, mul2, require_h3
from .report import SIDES
from .surface_data import GridSpec, _locked

# -<p,s> this far below 1 means the points are not an H3 pair
DISTANCE_CLAMP_TOL = 1e-9


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
        pts = _locked(self.points, float, (self.grid.nx, self.grid.ny, 4), "points")
        # a point F F* misses the hyperboloid by |det F|^2 - 1, so it answers
        # to the bound the integrator holds |det F - 1| to
        require_h3(pts, tol=DET_DRIFT_TOL, what=f"{self.kind} surface")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True, eq=False)
class NormalField:
    """Grid of spacelike unit vectors normal to a surface grid."""

    grid: GridSpec
    vectors: np.ndarray

    def __post_init__(self):
        v = _locked(self.vectors, float, (self.grid.nx, self.grid.ny, 4), "vectors")
        object.__setattr__(self, "vectors", v)


def _surface(frame: ExtendedFrame, kind: str) -> tuple[H3SurfaceGrid, np.ndarray]:
    """The surface of `frame` on side `kind` and the matrices F conj(F)^t
    it is read from; on a shifted frame FD this is the shifted surface."""
    F = frame.F
    M = mul2(F, conj_transpose(F))
    return H3SurfaceGrid(frame.grid, from_hermitian(M), frame.spectral, kind), M


def surface_primary(frame: ExtendedFrame) -> H3SurfaceGrid:
    """The surface F conj(F)^t as hyperboloid points."""
    return _surface(frame, SIDES[0])[0]


def surface_shifted(frame: ExtendedFrame) -> H3SurfaceGrid:
    """The parallel surface (FD) conj(FD)^t as hyperboloid points."""
    return _surface(shift_frame(frame), SIDES[1])[0]


def _normal_matrices(F: np.ndarray) -> np.ndarray:
    # F diag(1,-1) conj(F)^t without forming diag explicitly
    Fs = F.copy()
    Fs[..., :, 1] = -Fs[..., :, 1]
    return mul2(Fs, conj_transpose(F))


def _normal(frame: ExtendedFrame) -> tuple[NormalField, np.ndarray]:
    """The normal of the frame's surface and the matrices
    F diag(1, -1) conj(F)^t it is read from."""
    N = _normal_matrices(frame.F)
    return NormalField(grid=frame.grid, vectors=from_hermitian(N)), N


def normal_field(frame: ExtendedFrame) -> NormalField:
    """Unit normal N = F diag(1, -1) conj(F)^t of the frame's surface.

    Applied to a shifted frame this gives the shifted surface's normal.
    """
    return _normal(frame)[0]


def normal_unit_defect(normal: NormalField) -> float:
    """Max deviation of <N, N> from +1 over the grid."""
    v = normal.vectors
    return float(np.max(np.abs(mink_dot(v, v) - 1.0)))


def normal_orthogonality_defect(surface: H3SurfaceGrid, normal: NormalField) -> float:
    """Max deviation of <N, f> from 0 over the grid."""
    if surface.grid != normal.grid:
        raise InvalidInputError("surface and normal live on different grids")
    return float(np.max(np.abs(mink_dot(normal.vectors, surface.points))))


def _identity_residual(M_primary, M_shifted, N, q: float) -> float:
    """The parallel identity's residual on the matrices F conj(F)^t,
    (FD) conj(FD)^t and F diag(1, -1) conj(F)^t of one frame F."""
    R = M_shifted - (np.cosh(q) * M_primary - np.sinh(q) * N)
    scale = float(np.max(np.abs(M_shifted)))
    return float(np.max(np.abs(R))) / scale


def parallel_identity_residual(frame: ExtendedFrame) -> float:
    """Grid maximum of |(FD)conj(FD)^t - (cosh q F conj(F)^t - sinh q N)|,
    relative to the largest matrix entry.

    The identity is exact matrix algebra (D^2 = cosh q I - sinh q diag(1,-1)),
    so the result must sit at round-off scale for any unimodular frame.
    """
    F, FD = frame.F, shift_frame(frame).F
    M_primary = mul2(F, conj_transpose(F))
    M_shifted = mul2(FD, conj_transpose(FD))
    return _identity_residual(M_primary, M_shifted, _normal_matrices(F), frame.spectral.q)


def hyperbolic_distance(p, s):
    """Geodesic distance arccosh(-<p, s>) between hyperboloid points.

    Accepts single coordinate 4-vectors or broadcastable batches.  Values of
    -<p, s> within DISTANCE_CLAMP_TOL below 1 (round-off at coincident
    points) are clamped to distance zero; anything lower is rejected.
    """
    p = np.asarray(p, dtype=float)
    s = np.asarray(s, dtype=float)
    c = -mink_dot(p, s)
    if np.any(c < 1.0 - DISTANCE_CLAMP_TOL):
        worst = float(np.min(c))
        raise InvalidInputError(
            f"-<p, s> = {worst:.12g} < 1; points are not a hyperboloid pair"
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
    expected = -primary.spectral.q
    return float(np.max(np.abs(distance_grid(primary, shifted) - expected)))
