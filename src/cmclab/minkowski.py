"""Minkowski 4-space and hyperbolic 3-space in coordinates.

Points of R^{3,1} (signature +++-) are 4-vectors stored in the fixed
coordinate order (x1, x2, x3, x0), with x0 the timelike coordinate, and
`mink_dot` is their bilinear form.  Hyperbolic 3-space is the sheet
<p, p> = -1, x0 > 0, which `require_h3` holds to H3_TOL.  Matrices are
numpy complex arrays with the two matrix axes last; every routine
broadcasts over leading grid axes.

Stacks of matrices and grids of 4-vectors are laid out entry-major
(`empty_planes`): each entry [..., i, j] or [..., c] is one contiguous plane
over the grid axes, so the entrywise kernels read and write whole planes
rather than gathering every fourth or second number.

`mul2` and `det2` multiply 2x2 stacks and take their determinants, and
`surface_and_normal` forms F conj(F)^t and F diag(1, -1) conj(F)^t as real
quadratic forms in F's entries.  Every product goes through one kernel,
`mul2_into`, which takes its stacks entries-first (`entries_first`): mul2
calls it once on views of its whole operands, and the integrator's march
calls it on views it holds.  The Hermitian matrix model those products
live in, and its gate, are reference definitions (`cmclab.reference`).
"""

import numpy as np

from .errors import InternalConsistencyError, InvalidInputError

# the integrator holds |det F - 1| to DET_DRIFT_TOL; a point F conj(F)^t
# then misses the sheet by | |det F|^2 - 1 | <= H3_TOL, the one bound on
# hyperboloid points
DET_DRIFT_TOL = 1e-8
H3_TOL = DET_DRIFT_TOL * (2.0 + DET_DRIFT_TOL)


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


def entries_first(A):
    """View of a stack of 2x2 matrices with its two entry axes in front:
    entries_first(A)[i, j] is A[..., i, j]."""
    n = A.ndim - 2
    return A.transpose((n, n + 1, *range(n)))


def empty_products(out):
    """Scratch for `mul2_into`'s products into the entries-first `out`: one
    plane per product A[i, m] * B[m, j], shape out.shape[:1] + (2,) +
    out.shape[1:]."""
    return np.empty(out.shape[:1] + (2,) + out.shape[1:], out.dtype)


def mul2_into(A, B, out, scratch):
    """The one 2x2 product kernel, on stacks held entries-first.

    For rows A[i, m] (any rows i), columns B[m, j] (any columns j) and
    scratch from `empty_products(out)`, one broadcast multiply writes every
    product A[i, m] * B[m, j] into scratch[i, m, j], and one add sums the
    m = 0 and m = 1 planes into out[i, j].  out and scratch must not overlap
    A or B.

    Operand order is part of the result: numpy's vectorised complex `*` is
    not bitwise commutative (on AVX-512, z * w and w * z differ in the last
    bit of the imaginary part for about a third of random inputs), so every
    product is A-entry * B-entry, written into the scratch (numpy may form
    `x * f(y)` in place in a large temporary f(y), that is as f(y) * x),
    and the m = 1 product is added to the m = 0 one.  Those two orders fix
    the bits; the broadcast shape did not move them.  On numpy 2.4.6
    (AVX-512), this full (i, m, j) broadcast, the same kernel taken one
    output entry at a time, and a row-wise form, A[..., i, 0, None] * B[..., 0, :] summed in the
    same order, each gave F the bits of one product plane at a time, on the
    grids tests/test_frames.py pins and at 401 x 401.
    """
    np.multiply(A[:, :, None], B[None], out=scratch)
    np.add(scratch[:, 0], scratch[:, 1], out=out)


def mul2(A, B):
    """Product of 2x2 matrices on the trailing axes, formed entry by entry.

    Each entry is A[i, 0] B[0, j] + A[i, 1] B[1, j], one `mul2_into` call
    on entries-first views, so a stack costs two whole-array numpy calls
    instead of one BLAS call per matrix; the leading axes broadcast, so a
    single 2x2 multiplies a whole stack.  The bits do not depend on memory
    layout.  The product comes out entry-major.
    """
    A = np.asarray(A)
    B = np.asarray(B)
    shape = np.broadcast_shapes(A.shape, B.shape)
    out = empty_planes(shape[:-2], (2, 2), np.result_type(A, B))
    A, B = (entries_first(np.broadcast_to(M, shape)) for M in (A, B))
    C = entries_first(out)
    mul2_into(A, B, C, empty_products(C))
    return out


def det2(A):
    """Determinant a d - b c of 2x2 matrices on the trailing axes."""
    A = np.asarray(A)
    return A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]


def surface_and_normal(F):
    """The coordinates (x1, x2, x3, x0) of the surface F conj(F)^t and of its
    normal F diag(1, -1) conj(F)^t over a grid of frames F, in that order,
    each entry-major and read-only for a container.

    With F = [[a, b], [c, d]], x1 + i x2 = c conj(a) +- d conj(b) and x0, x3
    = ((|a|^2 +- |b|^2) +- (|c|^2 +- |d|^2))/2: real quadratic forms, formed
    in plain `+ - *` on the `.real`/`.imag` views of F's entry planes, so
    both are Hermitian by construction and no complex product is formed.
    Real `*` and `+` commute bitwise; the grouping written fixes the bits.
    """
    F = np.asarray(F)
    a, b, c, d = (F[..., i, j] for i, j in np.ndindex(2, 2))
    surface, normal = (empty_planes(F.shape[:-2], (4,), float) for _ in range(2))
    re = c.real * a.real + c.imag * a.imag, d.real * b.real + d.imag * b.imag
    im = c.imag * a.real - c.real * a.imag, d.imag * b.real - d.real * b.imag
    for k, (ca, db) in enumerate((re, im)):
        np.add(ca, db, out=surface[..., k])
        np.subtract(ca, db, out=normal[..., k])
    del re, im, ca, db
    rows = []  # (|z|^2 + |w|^2, |z|^2 - |w|^2) of the rows (a, b) and (c, d)
    for z, w in ((a, b), (c, d)):
        zz, ww = (v.real * v.real + v.imag * v.imag for v in (z, w))
        rows.append((zz + ww, np.subtract(zz, ww, out=zz)))
    for out, top, bottom in zip((surface, normal), *rows):
        np.multiply(0.5, top - bottom, out=out[..., 2])
        np.multiply(0.5, np.add(top, bottom, out=top), out=out[..., 3])
    for out in (surface, normal):
        out.flags.writeable = out.base.flags.writeable = False
    return surface, normal


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


def require_h3(p, what="point"):
    """Validate hyperboloid membership: x0 > 0 and <p, p> = -1 within H3_TOL."""
    p = np.asarray(p, dtype=float)
    if np.any(p[..., 3] <= 0.0):
        raise InternalConsistencyError(f"{what} has non-positive x0")
    defect = h3_defect(p)
    if not defect <= H3_TOL:
        raise InvalidInputError(
            f"{what} is off the unit hyperboloid: defect {defect:.3e} > {H3_TOL:.3e}"
        )
    return p
