"""Hermitian-matrix model of Minkowski 4-space and hyperbolic 3-space.

Points of R^{3,1} (signature +++-) are 4-vectors stored in the fixed
coordinate order (x1, x2, x3, x0), with x0 the timelike coordinate.
The equivalent Hermitian form is

    X = [[x0 + x3, x1 - i*x2],
         [x1 + i*x2, x0 - x3]],

so det X = -<X, X>, and the unimodular 2x2 group acts isometrically by
X -> G X conj(G)^T.  Hyperbolic 3-space is the sheet det X = 1, x0 > 0.

The Minkowski product in matrix form is

    <X, Y> = -1/2 tr(X s Y^T s),   s = [[0, -i], [i, 0]],

where Y^T is the plain transpose.  Matrices are numpy complex arrays with
the two matrix axes last; every routine broadcasts over leading grid axes.

Stacks of matrices and grids of 4-vectors are laid out entry-major
(`empty_planes`): each entry [..., i, j] or [..., c] is one contiguous plane
over the grid axes, so the entrywise kernels read and write whole planes
rather than gathering every fourth or second number.
"""

import numpy as np

from .errors import InternalConsistencyError, InvalidInputError

# Hermiticity slack absorbs accumulated RK4 round-off without masking
# logic errors.
HERMITIAN_RTOL = 1e-9


def empty_planes(shape, entries, dtype=complex):
    """An uninitialised array of shape `shape + entries` laid out entry-major:
    each entry [..., i, j] (or [..., c]) is one C-contiguous plane of `shape`.

    The one allocator of 2x2 stacks and 4-vector grids; indexing is as for
    any array of that shape, only the strides differ.
    """
    shape, entries = tuple(shape), tuple(entries)
    k, n = len(entries), len(shape)
    return np.empty(entries + shape, dtype=dtype).transpose(
        (*range(k, k + n), *range(k))
    )


def mat2(a, b, c, d):
    """Assemble [[a, b], [c, d]] as a complex array (entries may broadcast)."""
    a, b, c, d = np.broadcast_arrays(a, b, c, d)
    out = empty_planes(a.shape, (2, 2))
    out[..., 0, 0] = a
    out[..., 0, 1] = b
    out[..., 1, 0] = c
    out[..., 1, 1] = d
    return out


def mul2(A, B):
    """Product of 2x2 matrices on the trailing axes, formed entry by entry.

    Each entry is A[i, 0] B[0, j] + A[i, 1] B[1, j] in elementwise numpy
    arithmetic, so a stack costs a few whole-array operations instead of
    one BLAS call per matrix; the leading axes broadcast, so a single 2x2
    multiplies a whole stack.  The bits do not depend on memory layout, and
    the product comes out entry-major.

    Operand order is part of the result: numpy's vectorised complex `*` is
    not bitwise commutative (on AVX-512, z * w and w * z differ in the last
    bit of the imaginary part for about a third of random inputs), so every
    product here is A-entry * B-entry, both operands existing arrays.  A
    temporary operand is not safe: numpy may evaluate `x * f(y)` in place
    in the temporary f(y), that is as f(y) * x, once it is large enough
    (256 KiB).
    """
    A = np.asarray(A)
    B = np.asarray(B)
    shape = np.broadcast_shapes(A.shape, B.shape)
    out = empty_planes(shape[:-2], (2, 2), np.result_type(A, B))
    for i in (0, 1):
        for j in (0, 1):
            np.add(A[..., i, 0] * B[..., 0, j], A[..., i, 1] * B[..., 1, j], out=out[..., i, j])
    return out


def det2(A):
    """Determinant a d - b c of 2x2 matrices on the trailing axes."""
    A = np.asarray(A)
    return A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]


def conj_transpose(M):
    """Conjugate transpose over the trailing matrix axes."""
    return np.conj(np.swapaxes(M, -1, -2))


def hermitian_defect(M):
    """Largest entrywise deviation of M from its conjugate transpose, read
    off |b - conj(c)| and the diagonal's |2 Im|: the same bits, no copy."""
    M = np.asarray(M)
    off = np.max(np.abs(M[..., 0, 1] - np.conj(M[..., 1, 0])))
    diag = 2.0 * np.max(np.abs(np.diagonal(M, axis1=-2, axis2=-1).imag))
    return float(np.maximum(off, diag))  # a NaN in either propagates


def require_hermitian(M, what="matrix"):
    """Raise InvalidInputError unless M is Hermitian within tolerance.

    Tolerance is HERMITIAN_RTOL * (1 + max entry magnitude).
    """
    M = np.asarray(M, dtype=complex)
    scale = 1.0 + float(np.max(np.abs(M))) if M.size else 1.0
    defect = hermitian_defect(M) if M.size else 0.0
    if not defect <= HERMITIAN_RTOL * scale:
        raise InvalidInputError(
            f"{what} is not Hermitian: defect {defect:.3e} exceeds "
            f"{HERMITIAN_RTOL * scale:.3e}"
        )
    return M


def to_hermitian(p):
    """Map coordinate points (..., 4) = (x1, x2, x3, x0) to Hermitian matrices."""
    p = np.asarray(p, dtype=float)
    x1, x2, x3, x0 = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    return mat2(x0 + x3, x1 - 1j * x2, x1 + 1j * x2, x0 - x3)


def from_hermitian(M):
    """Invert `to_hermitian`, validating hermiticity first.

    Imaginary round-off within the Hermitian tolerance is discarded.
    """
    M = require_hermitian(M)
    a = M[..., 0, 0].real
    d = M[..., 1, 1].real
    b = M[..., 0, 1]
    c = M[..., 1, 0]
    out = empty_planes(M.shape[:-2], (4,), float)
    out[..., 0] = 0.5 * (b + c).real
    out[..., 1] = 0.5 * (c - b).imag
    out[..., 2] = 0.5 * (a - d)
    out[..., 3] = 0.5 * (a + d)
    return out


def minkowski_inner(X, Y):
    """Minkowski product -1/2 tr(X s Y^T s) of two Hermitian matrices.

    Equals x1*y1 + x2*y2 + x3*y3 - x0*y0 in coordinates, which is how it is
    computed.  Both arguments must be Hermitian within tolerance.
    """
    X = require_hermitian(X, "first argument")
    Y = require_hermitian(Y, "second argument")
    return mink_dot(from_hermitian(X), from_hermitian(Y))


def mink_dot(p, q):
    """Coordinate bilinear form p1*q1 + p2*q2 + p3*q3 - p0*q0.

    Bilinear (no conjugation), so complex-valued vectors such as Wirtinger
    derivatives of a real grid are handled correctly.
    """
    p = np.asarray(p)
    q = np.asarray(q)
    return (
        p[..., 0] * q[..., 0]
        + p[..., 1] * q[..., 1]
        + p[..., 2] * q[..., 2]
        - p[..., 3] * q[..., 3]
    )


def h3_defect(p):
    """Largest deviation of <p, p> from -1 over a batch of points."""
    return float(np.max(np.abs(mink_dot(p, p) + 1.0)))


def require_h3(p, tol, what="point"):
    """Validate hyperboloid membership: x0 > 0 and <p, p> = -1 within tol."""
    p = np.asarray(p, dtype=float)
    if np.any(p[..., 3] <= 0.0):
        raise InternalConsistencyError(f"{what} has non-positive x0")
    defect = h3_defect(p)
    if not defect <= tol:
        raise InvalidInputError(
            f"{what} is off the unit hyperboloid: defect {defect:.3e} > {tol:.3e}"
        )
    return p
