"""The two parallel surfaces in hyperbolic 3-space.

From an extended frame F the primary surface is f = F conj(F)^t, with the
unit normal N = F diag(1, -1) conj(F)^t.  The shifted surface is
(FD) conj(FD)^t with D = diag(lam^{-1/2}, lam^{1/2}).  Writing lam = e^q,
D conj(D)^t = cosh(q) I - sinh(q) diag(1, -1) and
D diag(1, -1) conj(D)^t = cosh(q) diag(1, -1) - sinh(q) I, so for every
2x2 F, unimodular or not, the shifted surface and its normal are

    cosh(q) f - sinh(q) N   and   cosh(q) N - sinh(q) f,

the primary side's points and normal turned through q: the shifted
surface lies at geodesic distance -q along the normal.  `surface_primary`
builds the primary side from one pass of `minkowski.surface_and_normal`
over F's entries, each of shape (4, nx, ny), and `_shifted` turns it; so
the shifted side forms no frame FD and no second pass.  The verifier and
`cmclab export` call those two.  `surface_shifted` and `normal_field`
serve no program path; the benchmark's spans look them up by name.  The
route through FD and the identities that hold for any F are reference
definitions (`cmclab.reference`).  SIDES names the two sides, primary
first; it is the set of `kind`s an H3SurfaceGrid accepts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .frames import ExtendedFrame, SpectralParam
from .minkowski import require_h3, surface_and_normal
from .surface_data import GridSpec, _frozen, _locked

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
        # holds it to H3_TOL, derived from the integrator's bound on |det F - 1|;
        # turning through q keeps <f, f> = -|det F|^2
        require_h3(self.points, what=f"{self.kind} surface")
        if not np.isfinite(self.normal).all():
            raise InvalidInputError(f"{self.kind} normal has a vector that is not finite")


def _turn(f, N, lam):
    """Points f and their normal N, each of shape (4, ...), turned through
    q = ln(lam): (cosh q f - sinh q N, cosh q N - sinh q f).  cosh q and
    sinh q are (lam + 1/lam)/2 and (lam - 1/lam)/2, the half sum and half
    difference of the entries of D conj(D)^t = diag(1/lam, lam), formed in
    plain arithmetic, so their bits do not hang on a transcendental's
    implementation."""
    ch, sh = 0.5 * (lam + 1.0 / lam), 0.5 * (lam - 1.0 / lam)
    points = ch * f
    points -= sh * N
    normal = ch * N
    normal -= sh * f
    return points, normal


def surface_primary(frame: ExtendedFrame) -> H3SurfaceGrid:
    """The primary surface F conj(F)^t of `frame`, with its normal."""
    return H3SurfaceGrid(frame.grid, *surface_and_normal(frame.F), frame.spectral, SIDES[0])


def _shifted(primary: H3SurfaceGrid) -> H3SurfaceGrid:
    """The shifted side of a primary surface: its points and normal turned
    through q = ln(lam)."""
    turned = map(_frozen, _turn(primary.points, primary.normal, primary.spectral.lam))
    return H3SurfaceGrid(primary.grid, *turned, primary.spectral, SIDES[1])


def surface_shifted(frame: ExtendedFrame) -> H3SurfaceGrid:
    """The parallel surface (FD) conj(FD)^t, with its normal, as the primary
    surface turned through q."""
    return _shifted(surface_primary(frame))


def normal_field(frame: ExtendedFrame) -> np.ndarray:
    """Unit normal N = F diag(1, -1) conj(F)^t of the frame's surface."""
    return surface_primary(frame).normal
