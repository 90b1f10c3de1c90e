"""Extended frames at a fixed spectral value.

The moving frame F solves F_z = F U, F_zbar = F V with

    U = 1/2 [[-u_z, 2 e^{-u} lambda^{-1} Q], [-H e^u, u_z]]
    V = 1/2 [[u_zbar, H e^u], [-2 e^{-u} lambda Q, -u_zbar]]

whose compatibility condition is the Gauss equation enforced by
surface_data.gauss_residual.  Integration runs in real coordinates,

    F_x = F (U + V),   F_y = F i (U - V),

by a fourth-order Magnus step along the base row and then up and down each
column: each cell's transition is exp(Omega) from A's samples at the cell's
two nodes and midpoint (`minkowski.sl2_transition`).  A is traceless, so
every transition has determinant 1 to round-off, and det F drifts from 1 by
round-off only; integrate_frame still monitors the drift against
DET_DRIFT_TOL and never projects F back.  On constant A (the cylinder) a
transition is exp(hA) itself.

The transitions are built a block of cells at a time from that block's
node and midpoint samples of u, u_x and u_y.  A block holds at most
BLOCK_MATRICES matrices (one line, where a line holds more), so each step
of the transition kernel is one numpy call on the block, and no coefficient
or transition stack of a whole line is formed.  Blocks split only the march
axis and every transition is the same elementwise arithmetic on the same
numbers, so the bits do not depend on the block size.  The march writes
each product F[k] T straight into F.

Both marches take forward views: the march toward index 0 reads the same
increasing slices and swaps each cell's near and far nodes (`_transitions`
with h < 0), never a reversed view.  numpy 2.4.6's np.exp gives other last
bits on a negative-stride view than on a contiguous one (4,613 of 100,001
random values), while a stride-2 view matches; a march on reversed views
moved F's bits on a 61 x 83 Delaunay run (lam 0.4, u0 0.5).

Frames are stacks of shape (2, 2, nx, ny), entries first
(`cmclab.minkowski`).  Every product F[k] T goes through
minkowski.mul2_into, the one product kernel, every transition through
minkowski.sl2_transition and every determinant through minkowski.det2:
whole-array entrywise arithmetic, not one BLAS call per matrix of a stack.
Each march step is two whole-entry numpy calls on views of F and of its
block of transitions, through one scratch the march holds.  The shift F D
forms no product: D is diagonal, so shift_frame scales F's two columns.
The frames these functions return are handed to ExtendedFrame read-only
(`surface_data._frozen`), which holds them without a copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from .errors import IncompatibleDataError, IntegrationFailureError, InvalidInputError
from .minkowski import (
    DET_DRIFT_TOL,
    det2,
    empty_products,
    mul2_into,
    sl2_transition,
)
from .surface_data import (
    GridSpec,
    SurfaceData,
    _frozen,
    _locked,
    grid_derivatives,
    max_gauss_residual,
)

COMPAT_TOL = 0.1


@dataclass(frozen=True)
class SpectralParam:
    """Spectral value lam, constrained to 0 < lam < 1; the one check of lam
    for closed_form and homothety_scale."""

    lam: float

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise InvalidInputError(f"need 0 < lambda < 1, got lambda = {self.lam}")

    @property
    def q(self) -> float:
        # lam = e^q with q < 0
        return math.log(self.lam)


@dataclass(frozen=True, eq=False)
class ExtendedFrame:
    """Grid of unimodular 2x2 frames at one spectral value.

    F has shape (2, 2, nx, ny): F[:, :, i, j] is the frame at node (i, j).
    Frames produced by integrate_frame equal the identity at
    grid.center_index(); frames produced by shift_frame carry
    D = diag(lam^{-1/2}, lam^{1/2}) there instead.
    """

    grid: GridSpec
    F: np.ndarray
    spectral: SpectralParam

    def __post_init__(self):
        shape = (2, 2, self.grid.nx, self.grid.ny)
        object.__setattr__(self, "F", _locked(self.F, complex, shape, "frame"))

    @property
    def lam(self) -> float:
        return self.spectral.lam

    def det_drift(self) -> np.ndarray:
        """|det F - 1| at every grid point."""
        return np.abs(det2(self.F) - 1.0)

    @cached_property
    def max_det_drift(self) -> float:
        """Largest |det F - 1|, taken once per frame: F is read-only."""
        return float(self.det_drift().max())


# cubic-interpolation weights for values at cell midpoints
_MID_CENTER = np.array([-1.0, 9.0, 9.0, -1.0]) / 16.0
_MID_LEFT = np.array([5.0, 15.0, -5.0, 1.0]) / 16.0


def _half_samples(a: np.ndarray) -> np.ndarray:
    """Midpoint values along axis 0 via cubic interpolation, O(h^4)."""
    n = a.shape[0]
    out = np.empty((n - 1,) + a.shape[1:], dtype=a.dtype)
    w = _MID_CENTER
    out[1 : n - 2] = w[0] * a[: n - 3] + w[1] * a[1 : n - 2]
    out[1 : n - 2] += w[2] * a[2 : n - 1] + w[3] * a[3:]
    w = _MID_LEFT
    out[0] = w[0] * a[0] + w[1] * a[1] + w[2] * a[2] + w[3] * a[3]
    out[n - 2] = w[3] * a[n - 4] + w[2] * a[n - 3] + w[1] * a[n - 2] + w[0] * a[n - 1]
    return out


def _transitions(coefficient, nodes, mids, c0, c1, h):
    """Magnus transitions across cells c0..c1-1 of axis 0 from `coefficient`
    at their nodes and midpoints; with h < 0 each carries its cell's far
    node to the near one."""
    A = coefficient(*(a[c0 : c1 + 1] for a in nodes))
    Am = coefficient(*(a[c0:c1] for a in mids))
    near, far = A[:, :, :-1], A[:, :, 1:]
    if h > 0:
        return sl2_transition(near, Am, far, h)
    return sl2_transition(far, Am, near, h)


# matrices per block of transitions: enough to amortise numpy's
# per-call cost, few enough that a block's temporaries stay small next to
# a frame
BLOCK_MATRICES = 4096


def _march(F, coefficient, nodes, mids, h, k0):
    """Fill the stack F outward along its first grid axis from the known
    slice F[:, :, k0].

    `coefficient(u, u_x, u_y)` gives A from samples of `nodes` (at the
    nodes) or of `mids` (at the midpoints).  The transitions come a block
    of cells at a time; each product F[k +- 1] = F[k] T is written into F
    by `mul2_into`, through one scratch held for the whole march.
    """
    n = F.shape[2]
    step = max(1, BLOCK_MATRICES // F[0, 0, 0].size)
    scratch = empty_products(F[:, :, k0])
    for c0 in range(k0, n - 1, step):
        c1 = min(c0 + step, n - 1)
        T = _transitions(coefficient, nodes, mids, c0, c1, h)
        for k in range(c0, c1):
            mul2_into(F[:, :, k], T[:, :, k - c0], F[:, :, k + 1], scratch)
    for c1 in range(k0, 0, -step):
        c0 = max(c1 - step, 0)
        # T[k - 1 - c0] carries F[k] to F[k - 1]
        T = _transitions(coefficient, nodes, mids, c0, c1, -h)
        for k in range(c1, c0, -1):
            mul2_into(F[:, :, k], T[:, :, k - 1 - c0], F[:, :, k - 1], scratch)


def _coefficient(data: SurfaceData, lam: float, axis: int, u, ux, uy):
    """A = U + V along x (axis 0) or i (U - V) along y at samples of u, u_x
    and u_y, written plane by plane into its real and imaginary parts.

    With r = H e^u / 2, p = e^{-u} Q / lam and s = e^{-u} lam Q, A is
    [[i u_y/2, p + r], [-(r + s), -i u_y/2]] along x and
    [[-i u_x/2, i (p - r)], [i (s - r), i u_x/2]] along y.  Every entry is
    real or imaginary, so no complex arithmetic is done, and each is
    rounded as the sum of the entries of `reference.lax_matrices` rounds,
    but for the sign of a zero part.
    """
    eu, emu = np.exp(u), np.exp(-u)
    r = 0.5 * data.H * eu
    p = emu * data.Q / lam
    s = emu * lam * data.Q
    A = np.zeros((2, 2) + u.shape, complex)
    if axis == 0:
        A.imag[0, 0] = 0.5 * uy
        A.real[0, 1] = p + r
        A.real[1, 0] = -(r + s)
    else:
        A.imag[0, 0] = -0.5 * ux
        A.imag[0, 1] = p - r
        A.imag[1, 0] = s - r
    A.imag[1, 1] = -A.imag[0, 0]
    return A


def _sweep(data: SurfaceData, lam: float, first: int) -> np.ndarray:
    """Frames from the identity at the grid center: along the line of axis
    `first` through the center, then across the grid along the other axis.

    Each march moves its axis to the front, takes the midpoint samples of
    u, u_x and u_y on the nodes it crosses, and builds A a block at a time.
    """
    grid = data.grid
    center = grid.center_index()
    nodes = (data.u, *grid_derivatives(data.u, grid.hx, grid.hy))
    F = np.empty((2, 2, grid.nx, grid.ny), complex)
    F[:, :, center[0], center[1]] = np.eye(2)
    for axis, line in ((first, center[1 - first]), (1 - first, slice(None))):
        on_line = [np.moveaxis(a, axis, 0)[:, line] for a in nodes]
        mids = [_half_samples(a) for a in on_line]
        coefficient = partial(_coefficient, data, lam, axis)
        F_line = np.moveaxis(F, 2 + axis, 2)[:, :, :, line]
        _march(F_line, coefficient, on_line, mids, (grid.hx, grid.hy)[axis], center[axis])
    return F


def integrate_frame(data: SurfaceData, spectral: SpectralParam) -> ExtendedFrame:
    """Integrate the frame system over the grid of ``data`` at one spectral
    value.

    The base row through the grid center is integrated first, then every
    column, so the result is single-valued by construction; path
    independence is a property to be measured, see
    reference.two_path_discrepancy.
    Data whose Gauss residual exceeds COMPAT_TOL is refused; unimodularity
    is monitored against DET_DRIFT_TOL, never restored by projection.
    """
    res = max_gauss_residual(data)
    if not res <= COMPAT_TOL:
        raise IncompatibleDataError(
            f"compatibility residual {res:.3e} exceeds {COMPAT_TOL:.3e}; "
            "the frame system would not be integrable"
        )
    F = _frozen(_sweep(data, spectral.lam, 0))
    frame = ExtendedFrame(grid=data.grid, F=F, spectral=spectral)
    worst = frame.max_det_drift
    if not worst <= DET_DRIFT_TOL:
        drift = frame.det_drift()
        i, j = np.unravel_index(int(np.argmax(drift)), drift.shape)
        raise IntegrationFailureError(
            f"determinant drift {worst:.3e} at grid index ({i}, {j}) "
            f"exceeds {DET_DRIFT_TOL:g}"
        )
    return frame


def shift_frame(frame: ExtendedFrame) -> ExtendedFrame:
    """Right-multiply every frame by D = diag(lam^{-1/2}, lam^{1/2}).

    D is diagonal, so F D is F with column 0 (F[:, 0]) scaled by lam^{-1/2}
    and column 1 by lam^{1/2}: one entrywise multiply, F the left operand
    as in minkowski.mul2_into.  It equals mul2(F, D) in value, and in bits but
    for the sign of a zero part.  det D = 1, so unimodularity is
    preserved; the value at the grid center becomes D instead of the
    identity.
    """
    sq = math.sqrt(frame.lam)
    d = np.array([1.0 / sq, sq], dtype=complex)
    return replace(frame, F=_frozen(frame.F * d[:, None, None]))

