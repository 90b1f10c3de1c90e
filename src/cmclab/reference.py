"""Reference definitions the theorem's tests and demos compare against.

What no program path runs lives here: the Hermitian model of R^{3,1} and
its gate, the cylinder frame's closed forms, the Lax pair and the spectral
shift D as matrices, the two-path discrepancy, a constant gauge on a frame
and the normal rebuilt from the surface alone.  Each restates,
independently, something the core computes, and planted defects and other
oracles belong here too.  No core module imports this one, which may
import core names, private ones included, and does no work at import time.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .errors import InvalidInputError, NumericalError
from .frames import ExtendedFrame, SpectralParam, _lax_entries, _sweep
from .minkowski import det2, empty_planes, mat2, mink_dot, mul2
from .surface_data import SurfaceData, _frozen, grid_derivatives
from .surfaces import H3SurfaceGrid

# Hermiticity slack: the round-off of a computed matrix, not a logic error
HERMITIAN_RTOL = 1e-9


def conj_transpose(M):
    """Conjugate transpose over the trailing matrix axes."""
    return np.conj(np.swapaxes(M, -1, -2))


def _off_diagonal_defect(b, c):
    """Largest |b - conj(c)| of a matrix grid's off-diagonal entries b, c."""
    return np.max(np.abs(b - np.conj(c)), initial=0.0)


def _diagonal_defect(a):
    """Largest |2 Im a| of a matrix grid's diagonal entry a."""
    return 2.0 * np.max(np.abs(a.imag), initial=0.0)


def to_hermitian(p):
    """Map coordinate points (..., 4) = (x1, x2, x3, x0) to Hermitian matrices."""
    p = np.asarray(p, dtype=float)
    x1, x2, x3, x0 = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    return mat2(x0 + x3, x1 - 1j * x2, x1 + 1j * x2, x0 - x3)


def from_hermitian(M):
    """Invert `to_hermitian`: the coordinates (x1, x2, x3, x0) of a grid of
    Hermitian matrices M, read off its four entry planes.

    The one Hermitian gate: the defect, |b - conj(c)| over the off-diagonal
    entries and |2 Im| over the diagonal ones, may not exceed HERMITIAN_RTOL
    * (1 + largest entry magnitude), and a NaN is refused, with
    InvalidInputError.  Imaginary round-off within the tolerance is
    discarded.  The map is linear: `mink_dot` of two images is the
    Minkowski product of the two matrices.
    """
    M = np.asarray(M, dtype=complex)
    a, b, c, d = (M[..., i, j] for i, j in np.ndindex(2, 2))
    diag = np.maximum(_diagonal_defect(a), _diagonal_defect(d))
    defect = float(np.maximum(_off_diagonal_defect(b, c), diag))
    largest = max(float(np.max(np.abs(m), initial=0.0)) for m in (a, b, c, d))
    tol = HERMITIAN_RTOL * (1.0 + largest)
    if not defect <= tol:
        raise InvalidInputError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds {tol:.3e}"
        )
    out = empty_planes(M.shape[:-2], (4,), float)
    out[..., 0] = 0.5 * (b + c).real
    out[..., 1] = 0.5 * (c - b).imag
    out[..., 2] = 0.5 * (a.real - d.real)
    out[..., 3] = 0.5 * (a.real + d.real)
    return out


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
    return mat2(ch, sh / sq, sq * sh, ch)


def cylinder_frame_lax_gauge(z, lam):
    """Cylinder frame in the gauge of the frame system.

    Equals diag(1, i) cylinder_frame_closed_form(z, lam) diag(1, -i), i.e.
    [[cosh g, -i lam^{-1/2} sinh g], [i lam^{1/2} sinh g, cosh g]]; this is
    the solution of F_z = F U, F_zbar = F V with F(0) = I for u = 0, H = 2Q
    (checked by finite-difference substitution).  Same determinant and same
    initial value as the reference form.
    """
    F = cylinder_frame_closed_form(z, lam)
    return mat2(F[..., 0, 0], F[..., 0, 1] * -1j, F[..., 1, 0] * 1j, F[..., 1, 1])


def lax_matrices(u, u_z, u_zbar, Q, H, lam):
    """The frame-system coefficient matrices (U, V), shape u.shape + (2, 2).

    u, u_z and u_zbar may be scalars or grids.  Both matrices are traceless.
    lam may be complex; on the unit circle with real u the pair satisfies
    V = -conj(U)^t, the unitary-frame relation.
    """
    if lam == 0:
        raise InvalidInputError("spectral value must be nonzero")
    U, V = _lax_entries(u, u_z, u_zbar, Q, H, lam)
    return mat2(*U), mat2(*V)


def spectral_shift_matrix(lam: float) -> np.ndarray:
    """D = diag(lam^{-1/2}, lam^{1/2}); det D = 1.  The right factor that
    frames.shift_frame applies by scaling F's columns."""
    if not lam > 0:
        raise InvalidInputError("spectral value must be positive")
    sq = math.sqrt(lam)
    return np.array([[1.0 / sq, 0.0], [0.0, sq]], dtype=complex)


def two_path_discrepancy(data: SurfaceData, spectral: SpectralParam) -> float:
    """Max entry difference at the far corner (nx-1, ny-1) between
    row-first and column-first integration from the grid center.

    Vanishes (to integrator order) exactly when the data satisfies the
    compatibility condition, so no residual precondition is applied here.
    """
    F_xy = _sweep(data, spectral.lam, 0)[-1, -1]
    F_yx = _sweep(data, spectral.lam, 1)[-1, -1]
    return float(np.max(np.abs(F_xy - F_yx)))


def frame_left_multiply(frame: ExtendedFrame, G) -> ExtendedFrame:
    """Apply a constant unimodular gauge G on the left: F -> G F pointwise."""
    G = np.asarray(G, dtype=complex)
    if G.shape != (2, 2):
        raise InvalidInputError(f"gauge must be 2x2, got shape {G.shape}")
    detG = det2(G)
    if not abs(detG - 1.0) <= 1e-9:
        raise InvalidInputError(f"gauge must be unimodular, det = {detG}")
    return replace(frame, F=_frozen(mul2(G, frame.F)))


def numeric_normal(surface: H3SurfaceGrid) -> np.ndarray:
    """Reconstruct the unit normal from the surface grid alone.

    Solves <N, f> = <N, f_x> = <N, f_y> = 0, <N, N> = 1 at every node
    via the null space of a 3x4 system, with f_x and f_y from
    `grid_derivatives`: shape (nx, ny, 4).  The sign is whatever the solver
    returns; compare with numeric_normal_max_deviation.
    """
    g = surface.grid
    f = surface.points
    fx, fy = grid_derivatives(f, g.hx, g.hy)
    eta = np.array([1.0, 1.0, 1.0, -1.0])
    rows = np.stack([f * eta, fx * eta, fy * eta], axis=-2)
    _, _, vh = np.linalg.svd(rows)
    null = vh[..., -1, :]
    nn = mink_dot(null, null)
    if np.any(nn <= 0.0):
        raise NumericalError("reconstructed normal is not spacelike")
    return null / np.sqrt(nn)[..., None]


def numeric_normal_max_deviation(surface: H3SurfaceGrid) -> float:
    """Max deviation between the reconstructed normal and the algebraic one
    the surface carries, after aligning the reconstruction's per-point sign."""
    Nn, Nr = numeric_normal(surface), surface.normal
    sign = np.sign(mink_dot(Nn, Nr))
    sign[sign == 0.0] = 1.0
    return float(np.max(np.abs(Nn * sign[..., None] - Nr)))
