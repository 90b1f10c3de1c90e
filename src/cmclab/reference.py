"""Reference definitions the theorem's tests and demos compare against.

What no program path runs lives here: the assembler `mat2` and the
whole-operand product `mul2` of 2x2 stacks, the Hermitian model of R^{3,1}
and its gate, the cylinder frame's closed forms, the Lax pair and the
spectral shift D as matrices, the two-path discrepancy, a constant gauge on
a frame, the normal rebuilt from the surface alone, the distance between
the two sides, the Christoffel dual and the Lawson partner's data with the
gap between two closed forms, the Delaunay profile's energy and the exact
weights of a one-sided difference row.
Each restates, independently, something the core computes; planted defects
and other oracles belong here too.  The Lawson partner's data equals a
side's closed form up to the homothety `measure.homothety_scale` (an
identity of (u, Q, H, lam) alone, which holds for any surface under
H = 2Q), so the tests check it here and the report does not.  No module
of the program imports this one, the package root included, so
`import cmclab` loads neither it nor `fractions`; tests and demos import
it as `cmclab.reference`.  It may import core names, private ones
included, and does no work at import time.  Matrices and 4-vectors come
entries first, as in `cmclab.minkowski`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import InvalidInputError, NumericalError
from .frames import ExtendedFrame, SpectralParam, _sweep, shift_frame
from .minkowski import H3_TOL, det2, empty_products, mink_dot, mul2_into
from .minkowski import surface_and_normal
from .surface_data import PROFILE_STEP, SurfaceData, _frozen, _integrate_profile, _locked
from .surface_data import grid_derivatives
from .measure import ClosedFormData
from .surfaces import SIDES, H3SurfaceGrid

# Hermiticity slack: the round-off of a computed matrix, not a logic error
HERMITIAN_RTOL = 1e-9


def mat2(a, b, c, d):
    """Assemble [[a, b], [c, d]] as a complex array of shape (2, 2) plus the
    shape the entries broadcast to."""
    a, b, c, d = np.broadcast_arrays(a, b, c, d)
    out = np.empty((2, 2) + a.shape, complex)
    out[0, 0] = a
    out[0, 1] = b
    out[1, 0] = c
    out[1, 1] = d
    return out


def mul2(A, B):
    """Product of 2x2 matrices on the two leading axes, formed entry by entry.

    Each entry is A[i, 0] B[0, j] + A[i, 1] B[1, j], one
    `minkowski.mul2_into` call on the whole operands, so a stack costs two
    whole-array numpy calls instead of one BLAS call per matrix.  The grid
    axes broadcast, aligned from the right: the operand with fewer of them
    gains unit axes after its entry axes, so a single 2x2 multiplies a
    whole stack.  The bits do not depend on memory layout.
    """
    A, B = np.asarray(A), np.asarray(B)
    n = max(A.ndim, B.ndim)
    A, B = (M.reshape(M.shape[:2] + (1,) * (n - M.ndim) + M.shape[2:]) for M in (A, B))
    out = np.empty(np.broadcast_shapes(A.shape, B.shape), np.result_type(A, B))
    mul2_into(A, B, out, empty_products(out))
    return out


def conj_transpose(M):
    """Conjugate transpose over the two leading matrix axes."""
    return np.conj(np.swapaxes(M, 0, 1))


def _off_diagonal_defect(b, c):
    """Largest |b - conj(c)| of a matrix grid's off-diagonal entries b, c."""
    return np.max(np.abs(b - np.conj(c)), initial=0.0)


def _diagonal_defect(a):
    """Largest |2 Im a| of a matrix grid's diagonal entry a."""
    return 2.0 * np.max(np.abs(a.imag), initial=0.0)


def to_hermitian(p):
    """Map coordinate points (4, ...) = (x1, x2, x3, x0) to Hermitian
    matrices (2, 2, ...)."""
    x1, x2, x3, x0 = np.asarray(p, dtype=float)
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
    (a, b), (c, d) = M
    diag = np.maximum(_diagonal_defect(a), _diagonal_defect(d))
    defect = float(np.maximum(_off_diagonal_defect(b, c), diag))
    largest = max(float(np.max(np.abs(m), initial=0.0)) for m in (a, b, c, d))
    tol = HERMITIAN_RTOL * (1.0 + largest)
    if not defect <= tol:
        raise InvalidInputError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds {tol:.3e}"
        )
    out = np.empty((4,) + M.shape[2:])
    out[0] = 0.5 * (b + c).real
    out[1] = 0.5 * (c - b).imag
    out[2] = 0.5 * (a.real - d.real)
    out[3] = 0.5 * (a.real + d.real)
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
    (a, b), (c, d) = F
    return mat2(a, b * -1j, c * 1j, d)


def lax_matrices(u, u_z, u_zbar, Q, H, lam):
    """The frame-system coefficient matrices (U, V), shape (2, 2) + u.shape.

    u, u_z and u_zbar may be scalars or grids.  Both matrices are traceless.
    lam may be complex; on the unit circle with real u the pair satisfies
    V = -conj(U)^t, the unitary-frame relation.
    """
    if lam == 0:
        raise InvalidInputError("spectral value must be nonzero")
    eu = np.exp(u)
    emu = np.exp(-u)
    U = mat2(-0.5 * u_z, emu * Q / lam, -0.5 * H * eu, 0.5 * u_z)
    V = mat2(0.5 * u_zbar, 0.5 * H * eu, -emu * lam * Q, -0.5 * u_zbar)
    return U, V


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
    F_xy = _sweep(data, spectral.lam, 0)[:, :, -1, -1]
    F_yx = _sweep(data, spectral.lam, 1)[:, :, -1, -1]
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
    `grid_derivatives`: shape (4, nx, ny).  The sign is whatever the solver
    returns; compare with numeric_normal_max_deviation.
    """
    g = surface.grid
    f = np.moveaxis(surface.points, 0, -1)  # the solver takes (nx, ny, 3, 4) rows
    fx, fy = grid_derivatives(f, g.hx, g.hy)
    eta = np.array([1.0, 1.0, 1.0, -1.0])
    rows = np.stack([f * eta, fx * eta, fy * eta], axis=-2)
    _, _, vh = np.linalg.svd(rows)
    null = np.moveaxis(vh[..., -1, :], -1, 0)
    nn = mink_dot(null, null)
    if np.any(nn <= 0.0):
        raise NumericalError("reconstructed normal is not spacelike")
    return null / np.sqrt(nn)


def numeric_normal_max_deviation(surface: H3SurfaceGrid) -> float:
    """Max deviation between the reconstructed normal and the algebraic one
    the surface carries, after aligning the reconstruction's per-point sign."""
    Nn, Nr = numeric_normal(surface), surface.normal
    sign = np.sign(mink_dot(Nn, Nr))
    sign[sign == 0.0] = 1.0
    return float(np.max(np.abs(Nn * sign - Nr)))


def frame_shifted_surface(frame: ExtendedFrame) -> H3SurfaceGrid:
    """The shifted side by the route through the frame: (FD) conj(FD)^t and
    its normal FD diag(1, -1) conj(FD)^t, with FD from `frames.shift_frame`.
    The core turns the primary side through q instead; for every 2x2 F the
    two agree to rounding (`parallel_identity_defect`)."""
    FD = shift_frame(frame)
    return H3SurfaceGrid(frame.grid, *surface_and_normal(FD.F), frame.spectral, SIDES[1])


def _require_same_grid(a: H3SurfaceGrid, b: H3SurfaceGrid) -> None:
    """Refuse a pair of surfaces on different grids."""
    if a.grid != b.grid:
        raise InvalidInputError("surface grids do not match")


def normal_unit_defect(surface: H3SurfaceGrid) -> float:
    """Max deviation of <N, N> from +1 over the grid; for N = F diag(1, -1)
    conj(F)^t, <N, N> = |det F|^2."""
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
    return float(np.max(np.abs(distance_grid(primary, shifted) + primary.spectral.q)))


def dual_data(data: SurfaceData) -> SurfaceData:
    """Christoffel-dual data: u -> -u with Q and H unchanged (involution)."""
    return SurfaceData(data.grid, _frozen(-data.u), Q=data.Q, H=data.H)


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


@dataclass(frozen=True, eq=False)
class DelaunayProfile:
    """Dense solution of the reduced Gauss equation u'' = 4Q^2 e^{-2u} - H^2 e^{2u}."""

    xs: np.ndarray
    us: np.ndarray
    dus: np.ndarray
    Q: float
    H: float

    def energy(self):
        """Conserved energy (1/2) u'^2 + 2 Q^2 e^{-2u} + (1/2) H^2 e^{2u}."""
        return (
            0.5 * self.dus**2
            + 2.0 * self.Q**2 * np.exp(-2.0 * self.us)
            + 0.5 * self.H**2 * np.exp(2.0 * self.us)
        )

    def energy_drift(self):
        e = self.energy()
        return float(np.max(np.abs(e - e[0])))


def delaunay_profile(H, x_range, u0, du0):
    """Integrate the translation-invariant Gauss equation along x.

    Initial data (u0, du0) is imposed at x_range[0]; Q = H/2 is forced by
    the normalization.  PROFILE_STEP is shrunk so the range divides evenly.
    """
    if H == 0.0:
        raise InvalidInputError("H must be nonzero")
    x0, x1 = float(x_range[0]), float(x_range[1])
    if not x1 > x0:
        raise InvalidInputError("x_range must be increasing")
    n = max(1, math.ceil((x1 - x0) / PROFILE_STEP))
    us, dus = _integrate_profile(H, x0, x1, u0, du0, n)
    xs = np.linspace(x0, x1, n + 1)
    return DelaunayProfile(
        xs=_locked(xs), us=_locked(us), dus=_locked(dus), Q=0.5 * H, H=H
    )


def edge_row(offsets, order, last=None):
    """The weights w_k of the difference row over the distinct integer
    `offsets` o_k (in grid steps from the node it serves) for the
    derivative of `order`, in exact Fraction arithmetic.

    They solve sum_k w_k o_k^m / m! = [m = order] for m = 0, ..., n - 1,
    n = len(offsets), so that h^-order sum_k w_k u(x + o_k h) is
    u^(order)(x) up to h^(n - 1 - order) M u^(n - 1)(x), M the last
    moment; a `last` given fixes M to it in place of [n - 1 = order].
    Fornberg (1988, Math. Comp. 51) gives the method.
    """
    n = len(offsets)
    if len(set(offsets)) != n or not 0 <= order < n:
        raise InvalidInputError("a difference row needs distinct offsets, more than its order")
    rows = [
        [Fraction(o) ** m / math.factorial(m) for o in offsets] + [Fraction(m == order)]
        for m in range(n)
    ]
    if last is not None:
        rows[-1][-1] = Fraction(last)
    # Gauss-Jordan elimination; a Vandermonde system of distinct nodes is
    # regular, so each column has a pivot
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                rows[r] = [a - rows[r][c] * b for a, b in zip(rows[r], rows[c])]
    return tuple(row[-1] for row in rows)
