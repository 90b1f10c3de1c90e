"""Minkowski 4-space and hyperbolic 3-space in coordinates.

Points of R^{3,1} (signature +++-) are 4-vectors stored in the fixed
coordinate order (x1, x2, x3, x0), with x0 the timelike coordinate, and
`mink_dot` is their bilinear form.  Hyperbolic 3-space is the sheet
<p, p> = -1, x0 > 0, which `require_h3` holds to H3_TOL.  Matrices are
numpy complex arrays.

Entries come first: a stack of 2x2 matrices has shape (2, 2, *grid) and a
grid of 4-vectors (4, *grid), C-contiguous, so each entry A[i, j] or
coordinate p[c] is one contiguous plane over the grid axes, and every
routine broadcasts over the trailing grid axes.  A single matrix is a
(2, 2) array and a single point a (4,) one.

`mul2` and `det2` multiply 2x2 stacks and take their determinants, and
`surface_and_normal` forms F conj(F)^t and F diag(1, -1) conj(F)^t as real
quadratic forms in F's entries.  Every product goes through one kernel,
`mul2_into`: mul2 calls it once on its whole operands, and the
integrator's march calls it on views it holds.  Beside it sits the kernel
for sl(2) transitions, `sl2_transition`: the fourth-order Magnus step
exp(Omega) of F' = F A for traceless A, formed from three entries of each
sample of A, with determinant 1 to round-off.  The Hermitian matrix model
those products live in, and its gate, are reference definitions
(`cmclab.reference`).
"""

import math

import numpy as np

from .errors import InternalConsistencyError, InvalidInputError

# the integrator holds |det F - 1| to DET_DRIFT_TOL; a point F conj(F)^t
# then misses the sheet by | |det F|^2 - 1 | <= H3_TOL, the one bound on
# hyperboloid points
DET_DRIFT_TOL = 1e-8
H3_TOL = DET_DRIFT_TOL * (2.0 + DET_DRIFT_TOL)


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


def empty_products(out):
    """Scratch for `mul2_into`'s products into the stack `out`: one plane
    per product A[i, m] * B[m, j], shape (2, 2) + out.shape[1:]."""
    return np.empty(out.shape[:1] + (2,) + out.shape[1:], out.dtype)


def mul2_into(A, B, out, scratch):
    """The one 2x2 product kernel.

    For rows A[i, m] (any rows i), columns B[m, j] (any columns j) and
    scratch from `empty_products(out)`, one broadcast multiply writes every
    product A[i, m] * B[m, j] into scratch[i, m, j], and one add sums the
    m = 0 and m = 1 planes into out[i, j]; the grid axes broadcast.  out
    and scratch must not overlap A or B.

    Operand order is part of the result: numpy's vectorised complex `*` is
    not bitwise commutative (on AVX-512, z * w and w * z differ in the last
    bit of the imaginary part for about a third of random inputs), so every
    product is A-entry * B-entry, written into the scratch (numpy may form
    `x * f(y)` in place in a large temporary f(y), that is as f(y) * x),
    and the m = 1 product is added to the m = 0 one.  Those two orders fix
    the bits; neither the broadcast shape nor the memory layout moved them.
    On numpy 2.4.6 (AVX-512), this full (i, m, j) broadcast, the same
    kernel taken one output entry at a time, and a row-wise form,
    A[i, 0] * B[0] summed in the same order, each gave F the bits of one
    product plane at a time, on the grids tests/test_frames.py pins and at
    401 x 401.
    """
    np.multiply(A[:, :, None], B[None], out=scratch)
    np.add(scratch[:, 0], scratch[:, 1], out=out)


# cosh s and sinh(s)/s as series in z = s^2, sum_k z^k/(2k)! and
# sum_k z^k/(2k+1)!, highest power first for Horner's rule: eight terms each,
# whose first dropped terms, (1/4)^8/16! and (1/4)^8/17!, lie below 2^-53
# wherever |z| <= SERIES_BOUND
SERIES_BOUND = 0.25
_COSH = tuple(1.0 / math.factorial(2 * k) for k in range(7, -1, -1))
_SINHC = tuple(1.0 / math.factorial(2 * k + 1) for k in range(7, -1, -1))


def _horner(terms, z):
    """sum_k terms[-1 - k] z^k by Horner's rule, in one new array."""
    out = terms[0] * z
    out += terms[1]
    for term in terms[2:]:
        out *= z
        out += term
    return out


def sl2_transition(A0, Am, A1, h):
    """The kernel for sl(2) transitions: exp(Omega) for the fourth-order
    Magnus step of F' = F A across one cell of signed step h, from the
    stacks of A at the cells' starts, midpoints and ends, each of shape
    (2, 2, *grid) with at least one grid axis.

    Omega = (h/6)(A0 + 4 Am + A1) + (h^2/12)[A0, A1], the commutator
    A0 A1 - A1 A0 in this order because F multiplies on the right
    (Iserles, Munthe-Kaas, Norsett and Zanna 2000, Acta Numerica; Blanes,
    Casas, Oteo and Ros 2009, Phys. Rep. 470).  A is traceless, so only the
    entries [0, 0], [0, 1] and [1, 0] are read; Omega is traceless, Omega^2
    = s^2 I with s^2 = -det Omega, and exp(Omega) = cosh(s) I + (sinh(s)/s)
    Omega has determinant cosh^2 s - sinh^2 s = 1.  cosh s and sinh(s)/s
    are a fixed eight-term series in s^2 wherever |s^2| <= SERIES_BOUND, and
    np.cosh/np.sinh of the principal root elsewhere.  Every step is the same
    elementwise arithmetic whatever the stacks' grid axes, so a cell's bits
    do not depend on the batch it is formed in.
    """
    # Omega's entries [0, 0], [0, 1] and [1, 0], stacked on one axis: the
    # first three of a stack's entries in C order
    grid = A0.shape[2:]
    e0, em, e1 = (A.reshape((4,) + grid)[:3] for A in (A0, Am, A1))
    omega = em * 4.0
    omega += e0
    omega += e1
    omega *= h / 6.0
    (a0, b0, c0), (a1, b1, c1) = e0, e1
    v = h * h / 12.0
    omega[0] += v * (b0 * c1 - b1 * c0)
    omega[1] += (2.0 * v) * (a0 * b1 - b0 * a1)
    omega[2] += (2.0 * v) * (c0 * a1 - a0 * c1)
    a, b, c = omega
    z = a * a
    z += b * c
    cosh, sinhc = _horner(_COSH, z), _horner(_SINHC, z)
    far = np.abs(z) > SERIES_BOUND
    if far.any():
        s = np.sqrt(z[far])
        cosh[far] = np.cosh(s)
        sinhc[far] = np.sinh(s) / s
    T = np.empty((2, 2) + grid, omega.dtype)
    np.multiply(sinhc, b, out=T[0, 1])
    np.multiply(sinhc, c, out=T[1, 0])
    np.multiply(sinhc, a, out=T[1, 1])
    np.add(cosh, T[1, 1], out=T[0, 0])
    np.subtract(cosh, T[1, 1], out=T[1, 1])
    return T


def mul2(A, B):
    """Product of 2x2 matrices on the two leading axes, formed entry by entry.

    Each entry is A[i, 0] B[0, j] + A[i, 1] B[1, j], one `mul2_into` call
    on the whole operands, so a stack costs two whole-array numpy calls
    instead of one BLAS call per matrix.  The grid axes broadcast, aligned
    from the right: the operand with fewer of them gains unit axes after its
    entry axes, so a single 2x2 multiplies a whole stack.  The bits do not
    depend on memory layout.
    """
    A, B = np.asarray(A), np.asarray(B)
    n = max(A.ndim, B.ndim)
    A, B = (M.reshape(M.shape[:2] + (1,) * (n - M.ndim) + M.shape[2:]) for M in (A, B))
    out = np.empty(np.broadcast_shapes(A.shape, B.shape), np.result_type(A, B))
    mul2_into(A, B, out, empty_products(out))
    return out


def det2(A):
    """Determinant a d - b c of 2x2 matrices on the two leading axes."""
    A = np.asarray(A)
    return A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]


def surface_and_normal(F):
    """The coordinates (x1, x2, x3, x0) of the surface F conj(F)^t and of its
    normal F diag(1, -1) conj(F)^t over a grid of frames F, in that order,
    each of shape (4, *grid) and read-only for a container.

    With F = [[a, b], [c, d]], x1 + i x2 = c conj(a) +- d conj(b) and x0, x3
    = ((|a|^2 +- |b|^2) +- (|c|^2 +- |d|^2))/2: real quadratic forms, formed
    in plain `+ - *` on the `.real`/`.imag` views of F's entry planes, so
    both are Hermitian by construction and no complex product is formed.
    Real `*` and `+` commute bitwise; the grouping written fixes the bits.
    """
    F = np.asarray(F)
    (a, b), (c, d) = F
    surface, normal = (np.empty((4,) + F.shape[2:]) for _ in range(2))
    re = c.real * a.real + c.imag * a.imag, d.real * b.real + d.imag * b.imag
    im = c.imag * a.real - c.real * a.imag, d.imag * b.real - d.real * b.imag
    for k, (ca, db) in enumerate((re, im)):
        np.add(ca, db, out=surface[k])
        np.subtract(ca, db, out=normal[k])
    del re, im, ca, db
    rows = []  # (|z|^2 + |w|^2, |z|^2 - |w|^2) of the rows (a, b) and (c, d)
    for z, w in ((a, b), (c, d)):
        zz, ww = (v.real * v.real + v.imag * v.imag for v in (z, w))
        rows.append((zz + ww, np.subtract(zz, ww, out=zz)))
    for out, top, bottom in zip((surface, normal), *rows):
        np.multiply(0.5, top - bottom, out=out[2])
        np.multiply(0.5, np.add(top, bottom, out=top), out=out[3])
    for out in (surface, normal):
        out.flags.writeable = False
    return surface, normal


def mink_dot(p, q):
    """Coordinate bilinear form p1*q1 + p2*q2 + p3*q3 - p0*q0.

    Bilinear (no conjugation), so complex-valued vectors such as Wirtinger
    derivatives of a real grid are handled correctly.
    """
    p = np.asarray(p)
    q = np.asarray(q)
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2] - p[3] * q[3]


def h3_defect(p):
    """Largest deviation of <p, p> from -1 over a batch of points."""
    return float(np.max(np.abs(mink_dot(p, p) + 1.0)))


def require_h3(p, what="point"):
    """Validate hyperboloid membership: x0 > 0 and <p, p> = -1 within H3_TOL."""
    p = np.asarray(p, dtype=float)
    if np.any(p[3] <= 0.0):
        raise InternalConsistencyError(f"{what} has non-positive x0")
    defect = h3_defect(p)
    if not defect <= H3_TOL:
        raise InvalidInputError(
            f"{what} is off the unit hyperboloid: defect {defect:.3e} > {H3_TOL:.3e}"
        )
    return p
