"""Extended frames at a fixed spectral value.

The moving frame F solves F_z = F U, F_zbar = F V with

    U = 1/2 [[-u_z, 2 e^{-u} lambda^{-1} Q], [-H e^u, u_z]]
    V = 1/2 [[u_zbar, H e^u], [-2 e^{-u} lambda Q, -u_zbar]]

whose compatibility condition is the Gauss equation enforced by
surface_data.gauss_residual.  Integration runs in real coordinates,

    F_x = F (U + V),   F_y = F i (U - V),

by classical RK4 along the base row and then up and down each column.

Every 2x2 product (the RK4 stages, the F[k] T recurrence, the shift F D and
a gauge G F) goes through minkowski.mul2 and every determinant through
minkowski.det2: whole-array entrywise arithmetic, not one BLAS call per
matrix of a stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import IncompatibleDataError, IntegrationFailureError, InvalidInputError
from .minkowski import det2, mul2
from .surface_data import (
    GridSpec,
    SurfaceData,
    _locked,
    grid_derivatives,
    max_gauss_residual,
)

DET_DRIFT_TOL = 1e-8
COMPAT_TOL = 0.1


@dataclass(frozen=True)
class SpectralParam:
    """Spectral value lam with annulus radius r, constrained to 0 < r < lam < 1;
    the one check of lam for closed_form and homothety_scale."""

    lam: float
    r: float | None = None

    def __post_init__(self):
        if self.r is None:
            object.__setattr__(self, "r", 0.5 * self.lam)
        if not 0.0 < self.r < self.lam < 1.0:
            raise InvalidInputError(
                f"need 0 < r < lambda < 1, got r = {self.r}, lambda = {self.lam}"
            )

    @property
    def q(self) -> float:
        # lam = e^q with q < 0
        return math.log(self.lam)


@dataclass(frozen=True, eq=False)
class ExtendedFrame:
    """Grid of unimodular 2x2 frames at one spectral value.

    F has shape (nx, ny, 2, 2).  Frames produced by integrate_frame equal the
    identity at grid.center_index(); frames produced by shift_frame
    carry the constant right factor D there instead.
    """

    grid: GridSpec
    F: np.ndarray
    spectral: SpectralParam

    def __post_init__(self):
        shape = (self.grid.nx, self.grid.ny, 2, 2)
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


def cylinder_frame_closed_form(z, lam):
    """Reference closed form of the flat-cylinder frame.

    Returns [[cosh g, lam^{-1/2} sinh g], [lam^{1/2} sinh g, cosh g]] with
    g = (i/4)(lam^{-1/2} z + lam^{1/2} zbar).  Determinant is identically 1
    and F(0) is the identity.

    Note: this form does not itself solve the frame system integrated here;
    direct substitution leaves constant factors of -i and i on the two
    off-diagonal entries.  The constant gauge diag(1, i), which fixes the
    initial value and the determinant, reconciles the two conventions; see
    cylinder_frame_lax_gauge.
    """
    if not lam > 0:
        raise InvalidInputError("spectral value must be positive")
    z = np.asarray(z, dtype=complex)
    sq = math.sqrt(lam)
    g = 0.25j * (z / sq + sq * np.conj(z))
    ch, sh = np.cosh(g), np.sinh(g)
    F = np.empty(z.shape + (2, 2), dtype=complex)
    F[..., 0, 0] = ch
    F[..., 0, 1] = sh / sq
    F[..., 1, 0] = sq * sh
    F[..., 1, 1] = ch
    return F


def cylinder_frame_lax_gauge(z, lam):
    """Cylinder frame in the gauge of the frame system.

    Equals diag(1, i) cylinder_frame_closed_form(z, lam) diag(1, -i), i.e.
    [[cosh g, -i lam^{-1/2} sinh g], [i lam^{1/2} sinh g, cosh g]]; this is
    the solution of F_z = F U, F_zbar = F V with F(0) = I for u = 0, H = 2Q
    (checked by finite-difference substitution).  Same determinant and same
    initial value as the reference form.
    """
    F = cylinder_frame_closed_form(z, lam)
    out = F.copy()
    out[..., 0, 1] *= -1j
    out[..., 1, 0] *= 1j
    return out


def spectral_shift_matrix(lam: float) -> np.ndarray:
    """D = diag(lam^{-1/2}, lam^{1/2}); det D = 1."""
    if not lam > 0:
        raise InvalidInputError("spectral value must be positive")
    sq = math.sqrt(lam)
    return np.array([[1.0 / sq, 0.0], [0.0, sq]], dtype=complex)


def lax_matrices(u, u_z, u_zbar, Q, H, lam):
    """The frame-system coefficient matrices (U, V), shape u.shape + (2, 2).

    u, u_z and u_zbar may be scalars or grids.  Both matrices are traceless.
    lam may be complex; on the unit circle with real u the pair satisfies
    V = -conj(U)^t, the unitary-frame relation.
    """
    if lam == 0:
        raise InvalidInputError("spectral value must be nonzero")
    eu = np.exp(u)
    emu = np.exp(-u)
    U = np.empty(np.shape(u) + (2, 2), dtype=complex)
    U[..., 0, 0] = -0.5 * u_z
    U[..., 0, 1] = emu * Q / lam
    U[..., 1, 0] = -0.5 * H * eu
    U[..., 1, 1] = 0.5 * u_z
    V = np.empty_like(U)
    V[..., 0, 0] = 0.5 * u_zbar
    V[..., 0, 1] = 0.5 * H * eu
    V[..., 1, 0] = -emu * lam * Q
    V[..., 1, 1] = -0.5 * u_zbar
    return U, V


# cubic-interpolation weights for values at cell midpoints
_MID_CENTER = np.array([-1.0, 9.0, 9.0, -1.0]) / 16.0
_MID_LEFT = np.array([5.0, 15.0, -5.0, 1.0]) / 16.0


def _half_samples(a: np.ndarray, axis: int) -> np.ndarray:
    """Midpoint values along one axis via cubic interpolation, O(h^4)."""
    a = np.moveaxis(a, axis, 0)
    n = a.shape[0]
    out = np.empty((n - 1,) + a.shape[1:], dtype=a.dtype)
    w = _MID_CENTER
    out[1 : n - 2] = w[0] * a[: n - 3] + w[1] * a[1 : n - 2]
    out[1 : n - 2] += w[2] * a[2 : n - 1] + w[3] * a[3:]
    w = _MID_LEFT
    out[0] = w[0] * a[0] + w[1] * a[1] + w[2] * a[2] + w[3] * a[3]
    out[n - 2] = w[3] * a[n - 4] + w[2] * a[n - 3] + w[1] * a[n - 2] + w[0] * a[n - 1]
    return np.moveaxis(out, 0, axis)


def _coefficient_arrays(data: SurfaceData, lam: float):
    """A_x, A_y at grid nodes plus midpoint arrays along each direction."""

    def lax(u, ux, uy):
        uz = 0.5 * (ux - 1j * uy)
        uzb = 0.5 * (ux + 1j * uy)
        return lax_matrices(u, uz, uzb, data.Q, data.H, lam)

    ux, uy = grid_derivatives(data.u, data.grid.hx, data.grid.hy)
    nodes = (data.u, ux, uy)
    U, V = lax(*nodes)
    Ax, Ay = U + V, 1j * (U - V)
    del U, V
    # coefficients at half-steps come from interpolated u, u_x, u_y; each
    # direction builds only its own
    Axm = np.add(*lax(*(_half_samples(a, 0) for a in nodes)))
    Aym = 1j * np.subtract(*lax(*(_half_samples(a, 1) for a in nodes)))
    return Ax, Ay, Axm, Aym


def _rk4_cell(A0, Am, A1, h):
    """RK4 transition matrix for F' = F A across one cell; batched over
    leading axes."""
    eye = np.eye(2, dtype=complex)
    k1 = A0
    k2 = mul2(eye + (0.5 * h) * k1, Am)
    k3 = mul2(eye + (0.5 * h) * k2, Am)
    k4 = mul2(eye + h * k3, A1)
    return eye + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _march(F, A, Am, h, k0):
    """Fill F outward along axis 0 from the known slice F[k0]; A holds the
    coefficient at the nodes, Am at the midpoints.

    The RK4 transitions of each direction come from one batched call; only
    the products F[k +- 1] = F[k] T stay in the loop.
    """
    T = _rk4_cell(A[k0:-1], Am[k0:], A[k0 + 1 :], h)
    for k in range(k0, len(F) - 1):
        F[k + 1] = mul2(F[k], T[k - k0])
    # T[k - 1] carries F[k] to F[k - 1]
    T = _rk4_cell(A[1 : k0 + 1], Am[:k0], A[:k0], -h)
    for k in range(k0, 0, -1):
        F[k - 1] = mul2(F[k], T[k - 1])


def _sweep(Ax, Ay, Axm, Aym, grid: GridSpec, x_first: bool) -> np.ndarray:
    """Frames from the identity at the grid center: along the base line of
    the first direction, then across the grid in the other one."""
    i0, j0 = grid.center_index()
    F = np.empty((grid.nx, grid.ny, 2, 2), dtype=complex)
    F[i0, j0] = np.eye(2)
    # F and the y coefficients with y moved to the front march along y
    Fy, Ay, Aym = (np.moveaxis(a, 1, 0) for a in (F, Ay, Aym))
    if x_first:
        _march(F[:, j0], Ax[:, j0], Axm[:, j0], grid.hx, i0)
        _march(Fy, Ay, Aym, grid.hy, j0)
    else:
        _march(Fy[:, i0], Ay[:, i0], Aym[:, i0], grid.hy, j0)
        _march(F, Ax, Axm, grid.hx, i0)
    return F


def integrate_frame(data: SurfaceData, spectral: SpectralParam) -> ExtendedFrame:
    """Integrate the frame system over the grid of ``data`` at one spectral
    value.

    The base row through the grid center is integrated first, then every
    column, so the result is single-valued by construction; path
    independence is a property to be measured, see two_path_discrepancy.
    Data whose Gauss residual exceeds COMPAT_TOL is refused; unimodularity
    is monitored against DET_DRIFT_TOL, never restored by projection.
    """
    grid = data.grid
    res = max_gauss_residual(data)
    if not res <= COMPAT_TOL:
        raise IncompatibleDataError(
            f"compatibility residual {res:.3e} exceeds {COMPAT_TOL:.3e}; "
            "the frame system would not be integrable"
        )
    F = _sweep(*_coefficient_arrays(data, spectral.lam), grid, True)
    frame = ExtendedFrame(grid=grid, F=F, spectral=spectral)
    worst = frame.max_det_drift
    if worst > DET_DRIFT_TOL:
        drift = frame.det_drift()
        i, j = np.unravel_index(int(np.argmax(drift)), drift.shape)
        raise IntegrationFailureError(
            f"determinant drift {worst:.3e} at grid index ({i}, {j}) "
            f"exceeds {DET_DRIFT_TOL:g}"
        )
    return frame


def two_path_discrepancy(data: SurfaceData, spectral: SpectralParam) -> float:
    """Max entry difference at the far corner (nx-1, ny-1) between
    row-first and column-first integration from the grid center.

    Vanishes (to integrator order) exactly when the data satisfies the
    compatibility condition, so no residual precondition is applied here.
    """
    grid = data.grid
    coefficients = _coefficient_arrays(data, spectral.lam)
    F_xy = _sweep(*coefficients, grid, True)[-1, -1]
    F_yx = _sweep(*coefficients, grid, False)[-1, -1]
    return float(np.max(np.abs(F_xy - F_yx)))


def shift_frame(frame: ExtendedFrame) -> ExtendedFrame:
    """Right-multiply every frame by D = diag(lam^{-1/2}, lam^{1/2}).

    det D = 1, so unimodularity is preserved exactly; the value at the grid
    center becomes D instead of the identity.
    """
    return replace(frame, F=mul2(frame.F, spectral_shift_matrix(frame.lam)))


def frame_left_multiply(frame: ExtendedFrame, G) -> ExtendedFrame:
    """Apply a constant unimodular gauge G on the left: F -> G F pointwise."""
    G = np.asarray(G, dtype=complex)
    if G.shape != (2, 2):
        raise InvalidInputError(f"gauge must be 2x2, got shape {G.shape}")
    detG = det2(G)
    if abs(detG - 1.0) > 1e-9:
        raise InvalidInputError(f"gauge must be unimodular, det = {detG}")
    return replace(frame, F=mul2(G, frame.F))
