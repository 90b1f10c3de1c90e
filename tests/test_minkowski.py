"""Tests for the Hermitian model of R^{3,1}."""

import numpy as np
import pytest
from conftest import plain_sides

from cmclab import reference
from cmclab.errors import InternalConsistencyError, InvalidInputError
from cmclab.minkowski import (
    _COSH,
    _SINHC,
    SERIES_BOUND,
    _horner,
    det2,
    h3_defect,
    mat2,
    mink_dot,
    mul2,
    require_h3,
    sl2_transition,
    surface_and_normal,
)
from cmclab.reference import conj_transpose, from_hermitian, to_hermitian

IDENTITY = np.eye(2, dtype=complex)
DIAG_1_M1 = np.diag([1.0, -1.0]).astype(complex)


def node_major(A):
    """The (..., 2, 2) view of a stack that numpy's matmul and linalg take."""
    return np.moveaxis(A, (0, 1), (-2, -1))


def random_hermitian(rng, n=1):
    x = rng.standard_normal((4, n)) * 2.0
    return to_hermitian(x), x


def random_unimodular(rng, n=1):
    """Random SL2(C) samples: scale a generic matrix to determinant one."""
    M = rng.standard_normal((2, 2, n)) + 1j * rng.standard_normal((2, 2, n))
    d = np.linalg.det(node_major(M))
    return M / np.sqrt(d)


def inner(X, Y):
    """The Minkowski product of two Hermitian matrices, in coordinates."""
    return mink_dot(from_hermitian(X), from_hermitian(Y))


class TestTraceForm:
    def test_identity_is_timelike_unit(self):
        assert inner(IDENTITY, IDENTITY) == pytest.approx(-1.0, abs=1e-14)

    def test_diag_1_m1_is_spacelike_unit(self):
        # expanded by hand: X s = [[0,-i],[-i,0]], (X s)^2 = -I, trace -2
        assert inner(DIAG_1_M1, DIAG_1_M1) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_axes(self):
        assert inner(IDENTITY, DIAG_1_M1) == pytest.approx(0.0, abs=1e-14)

    def test_matches_coordinate_form(self):
        rng = np.random.default_rng(7)
        X, x = random_hermitian(rng, 50)
        Y, y = random_hermitian(rng, 50)
        got = inner(X, Y)
        want = mink_dot(x, y)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(1.0 + np.abs(want))

    def test_symmetry_and_bilinearity(self):
        rng = np.random.default_rng(8)
        X, _ = random_hermitian(rng, 20)
        Y, _ = random_hermitian(rng, 20)
        Z, _ = random_hermitian(rng, 20)
        np.testing.assert_allclose(
            inner(X, Y), inner(Y, X), atol=1e-12
        )
        np.testing.assert_allclose(
            inner(X, 2.0 * Y + Z),
            2.0 * inner(X, Y) + inner(X, Z),
            atol=1e-11,
        )

    def test_unimodular_action_is_isometric(self):
        rng = np.random.default_rng(9)
        X, _ = random_hermitian(rng, 40)
        Y, _ = random_hermitian(rng, 40)
        G = random_unimodular(rng, 40)
        GX = mul2(mul2(G, X), conj_transpose(G))
        GY = mul2(mul2(G, Y), conj_transpose(G))
        before = inner(X, Y)
        after = inner(GX, GY)
        scale = np.max(1.0 + np.abs(before))
        assert np.max(np.abs(after - before)) <= 1e-10 * scale

    def test_rejects_non_hermitian(self):
        M = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(InvalidInputError, match="matrix is not Hermitian"):
            inner(M, IDENTITY)
        with pytest.raises(InvalidInputError, match="matrix is not Hermitian"):
            inner(IDENTITY, M)


class TestHermitianMap:
    def test_template_points(self):
        np.testing.assert_array_equal(to_hermitian([0, 0, 0, 1]), IDENTITY)
        np.testing.assert_array_equal(
            to_hermitian([1, 0, 0, 0]), np.array([[0, 1], [1, 0]], dtype=complex)
        )
        np.testing.assert_array_equal(
            to_hermitian([0, 1, 0, 0]), np.array([[0, -1j], [1j, 0]])
        )

    def test_round_trip(self):
        rng = np.random.default_rng(10)
        p = rng.standard_normal((4, 30)) * 3.0
        np.testing.assert_allclose(from_hermitian(to_hermitian(p)), p, atol=1e-14)

    def test_det_is_minus_inner(self):
        rng = np.random.default_rng(11)
        p = rng.standard_normal((4, 30)) * 2.0
        d = np.linalg.det(node_major(to_hermitian(p))).real
        np.testing.assert_allclose(d, -mink_dot(p, p), atol=1e-12)

    def test_from_hermitian_rejects_non_hermitian(self):
        with pytest.raises(InvalidInputError):
            from_hermitian(np.array([[0.0, 1.0], [0.5, 0.0]], dtype=complex))

    def test_tolerates_roundoff_defect(self):
        M = IDENTITY + 1e-12 * np.array([[0, 1j], [0, 0]])
        from_hermitian(M)  # within tolerance, must not raise


class TestMatrixHelpers:
    def test_conj_transpose(self):
        M = np.array([[0.0, 1j], [0.0, 0.0]])
        np.testing.assert_array_equal(
            conj_transpose(M), np.array([[0.0, 0.0], [-1j, 0.0]])
        )
        rng = np.random.default_rng(12)
        A = rng.standard_normal((2, 2, 5)) + 1j * rng.standard_normal((2, 2, 5))
        np.testing.assert_array_equal(conj_transpose(conj_transpose(A)), A)

    def test_det_of_spectral_diagonal(self):
        lam = 0.37
        D = np.diag([lam**-0.5, lam**0.5]).astype(complex)
        assert np.linalg.det(D) == pytest.approx(1.0, abs=1e-15)

    def test_mat2_entries(self):
        M = mat2(1.0, 2.0, 3.0, 4.0)
        np.testing.assert_array_equal(M, np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert M.dtype == complex


def random_stack(rng, shape):
    return rng.standard_normal((2, 2) + shape) + 1j * rng.standard_normal((2, 2) + shape)


def same_bits(a, b):
    # the words in C order: exact for any layout, and .view needs a
    # contiguous last axis, which a strided view may not have
    return np.array_equal(*(np.ascontiguousarray(x).view(np.int64) for x in (a, b)))


class TestProductKernel:
    def test_mul2_matches_matmul_to_a_few_ulps(self):
        rng = np.random.default_rng(13)
        A = random_stack(rng, (10_000,))
        B = random_stack(rng, (10_000,))
        # each entry sums two complex products: a few ulps of |A||B| bound
        # any correctly rounded ordering of them
        bound = 4 * np.finfo(float).eps * (node_major(np.abs(A)) @ node_major(np.abs(B)))
        assert np.all(np.abs(node_major(mul2(A, B)) - node_major(A) @ node_major(B)) <= bound)

    def test_single_matrix_broadcasts_against_a_stack(self):
        rng = np.random.default_rng(14)
        S = random_stack(rng, (7, 5))
        lam = 0.37
        D = np.diag([lam**-0.5, lam**0.5]).astype(complex)
        G = random_unimodular(rng)[:, :, 0]
        eye = np.eye(2, dtype=complex)
        for single in (D, G, eye):
            right = mul2(S, single)
            left = mul2(single, S)
            assert right.shape == left.shape == S.shape
            for i, j in np.ndindex(7, 5):
                assert same_bits(right[:, :, i, j], mul2(S[:, :, i, j], single))
                assert same_bits(left[:, :, i, j], mul2(single, S[:, :, i, j]))
        np.testing.assert_array_equal(mul2(S, eye), S)

    def test_strided_view_gives_the_bits_of_a_copy(self):
        # the y sweep of the integrator multiplies rows of a moveaxis view
        rng = np.random.default_rng(15)
        F = random_stack(rng, (9, 11))
        T = random_stack(rng, (9, 11))
        Fy, Ty = np.moveaxis(F, 3, 2), np.moveaxis(T, 3, 2)
        assert not Fy.flags.c_contiguous
        for k in range(Fy.shape[2]):
            copy = mul2(np.ascontiguousarray(Fy[:, :, k]), np.ascontiguousarray(Ty[:, :, k]))
            assert same_bits(mul2(Fy[:, :, k], Ty[:, :, k]), copy)
        assert same_bits(mul2(Fy, Ty), mul2(Fy.copy(), Ty.copy()))

    def test_det2_matches_linalg_det(self):
        rng = np.random.default_rng(16)
        A = random_stack(rng, (10_000,))
        scale = np.abs(A[0, 0] * A[1, 1]) + np.abs(A[0, 1] * A[1, 0])
        err = np.abs(det2(A) - np.linalg.det(node_major(A)))
        assert np.all(err <= 8 * np.finfo(float).eps * scale)
        np.testing.assert_allclose(det2(random_unimodular(rng, 50)), 1.0, atol=1e-13)

    def test_frame_times_its_conjugate_transpose_is_hermitian(self):
        rng = np.random.default_rng(17)
        F = random_unimodular(rng, 10_000)
        p = from_hermitian(mul2(F, conj_transpose(F)))
        assert np.all(p[3] > 0.0)


EPS = np.finfo(float).eps


def random_traceless(rng, n, top):
    """n random traceless matrices, the k-th scaled by a uniform draw in
    [0, top): a stack of shape (2, 2, n)."""
    A = random_stack(rng, (n,)) * rng.uniform(0.0, top, n)
    A[1, 1] = -A[0, 0]
    return A


def exp_taylor(M, terms=60):
    """exp of each matrix of a stack by its Taylor series, summed with mul2."""
    out = np.zeros_like(M)
    out[0, 0] = out[1, 1] = 1.0
    term = out.copy()
    for k in range(1, terms):
        term = mul2(term, M) / k
        out = out + term
    return out


class TestTransitionKernel:
    def test_series_meets_the_closed_form_at_the_bound(self):
        # on |s^2| = SERIES_BOUND the eight-term series are cosh s and
        # sinh(s)/s to about an ulp, so the branches meet there
        z = SERIES_BOUND * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 1001))
        s = np.sqrt(z)
        for terms, exact in ((_COSH, np.cosh(s)), (_SINHC, np.sinh(s) / s)):
            assert np.all(np.abs(_horner(terms, z) - exact) <= 4 * EPS * np.abs(exact))

    def test_det_is_one_to_round_off_on_both_sides_of_the_series_bound(self):
        rng = np.random.default_rng(31)
        A0, Am, A1 = (random_traceless(rng, 20_000, 1.0) for _ in range(3))
        T = sl2_transition(A0, Am, A1, 1.0)
        # s^2 = -det Omega, Omega formed from the same samples with mul2
        omega = (A0 + 4 * Am + A1) / 6 + (mul2(A0, A1) - mul2(A1, A0)) / 12
        s = np.sqrt(-det2(omega))
        # det T = cosh^2 s - sinh^2 s: round-off on the scale of its two terms
        scale = np.abs(np.cosh(s)) ** 2 + np.abs(np.sinh(s)) ** 2
        within = np.abs(det2(T) - 1.0) <= 8 * EPS * scale
        series = np.abs(s * s) <= SERIES_BOUND
        assert 5_000 < series.sum() < 15_000
        assert within[series].all() and within[~series].all()

    @pytest.mark.parametrize("h", [0.7, -0.7])
    def test_constant_coefficient_cell_is_the_exponential(self, h):
        # the commutator vanishes, so a cell is exp(hA), here against its
        # Taylor series, on both sides of the series bound
        rng = np.random.default_rng(32)
        A = random_traceless(rng, 5_000, 1.5)
        assert 0 < np.count_nonzero(np.abs(det2(h * A)) > SERIES_BOUND) < 5_000
        T = sl2_transition(A, A, A, h)
        exact = exp_taylor(h * A)
        size = np.abs(exact).max(axis=(0, 1))
        assert np.all(np.abs(T - exact).max(axis=(0, 1)) <= 16 * EPS * size)

    def test_fourth_order_on_a_coefficient_that_does_not_commute(self):
        # F' = F A(t) on [0, 1] with [A(s), A(t)] != 0, each march against one
        # with 4x the cells: the error falls 16x per halving
        def A(t):
            return mat2(1j * np.sin(t), 1.0 + 0.5 * t * t, -0.5 * np.exp(t), -1j * np.sin(t))

        def march(n):
            t = np.linspace(0.0, 1.0, n + 1)
            nodes, mids = A(t), A(0.5 * (t[:-1] + t[1:]))
            T = sl2_transition(nodes[:, :, :-1], mids, nodes[:, :, 1:], 1.0 / n)
            F = np.eye(2, dtype=complex)
            for k in range(n):
                F = mul2(F, T[:, :, k])
            return F

        errs = [np.max(np.abs(march(n) - march(4 * n))) for n in (10, 20, 40)]
        for coarse, fine in zip(errs, errs[1:]):
            assert 15.0 < coarse / fine < 17.0

    def test_reads_only_three_entries(self):
        # A[1, 1] = -A[0, 0] is implied, never read
        rng = np.random.default_rng(33)
        A0, Am, A1 = (random_traceless(rng, 50, 1.0) for _ in range(3))
        T = sl2_transition(A0, Am, A1, 0.3)
        for A in (A0, Am, A1):
            A[1, 1] = np.nan
        assert same_bits(sl2_transition(A0, Am, A1, 0.3), T)


class TestSurfaceAndNormal:
    def test_dyadic_frames_give_the_bits_of_the_complex_products(self):
        # dyadic entries of a few bits: every product and sum is exact, so
        # the real forms equal from_hermitian(mul2(F S, conj(F)^t))
        rng = np.random.default_rng(20)
        F = (rng.integers(-8, 9, (2, 2, 40, 30)) + 1j * rng.integers(-8, 9, (2, 2, 40, 30))) / 4
        FS = F.copy()
        FS[:, 1] = -F[:, 1]  # F diag(1, -1)
        surface, normal = surface_and_normal(F)
        assert same_bits(surface, from_hermitian(mul2(F, conj_transpose(F))))
        assert same_bits(normal, from_hermitian(mul2(FS, conj_transpose(F))))

    @pytest.mark.parametrize("shape", [(1,), (7, 5), (201, 90)])
    def test_bits_of_the_plain_real_formula(self, shape):
        rng = np.random.default_rng(21)
        F = random_stack(rng, shape)
        for got, want in zip(surface_and_normal(F), plain_sides(F)):
            assert got.shape == (4,) + shape and same_bits(got, want)

    def test_outputs_are_entry_major_and_read_only(self):
        F = random_unimodular(np.random.default_rng(22), 12).reshape(2, 2, 3, 4)
        for out in surface_and_normal(F):
            assert out.shape == (4, 3, 4) and out.flags.c_contiguous
            assert not out.flags.writeable


def hermitian_defect(M):
    """The defect the Hermitian gate of `from_hermitian` reads off four
    entries: |b - conj(c)| and the diagonal's |2 Im|, a NaN propagating."""
    diag = reference._diagonal_defect(M[0, 0]), reference._diagonal_defect(M[1, 1])
    off = reference._off_diagonal_defect(M[0, 1], M[1, 0])
    return float(np.maximum(off, np.maximum(*diag)))


def _full_hermitian_defect(M):
    """The defect as the whole grid M - conj(M)^t spells it."""
    return float(np.max(np.abs(M - conj_transpose(M))))


class TestHermitianDefect:
    # the defect read off four entries has the bits of the whole-grid one
    def test_frame_products(self, del_frame_101):
        F = del_frame_101.F
        N = F.copy()
        N[:, 1] *= -1  # F diag(1, -1)
        for M in (mul2(F, conj_transpose(F)), mul2(N, conj_transpose(F))):
            assert same_bits(hermitian_defect(M), _full_hermitian_defect(M))

    def test_random_stacks(self):
        rng = np.random.default_rng(18)
        for shape in ((1,), (7,), (40, 30)):
            A = random_stack(rng, shape)
            H = A + conj_transpose(A)
            for M in (A, H, H + 1e-12 * random_stack(rng, shape)):
                assert same_bits(hermitian_defect(M), _full_hermitian_defect(M))

    def test_diagonal_and_off_diagonal_defects_both_count(self):
        M = np.zeros((2, 2, 3), dtype=complex)
        M[1, 1, 1] = 1.0 + 3e-7j  # diagonal: defect 6e-7
        assert hermitian_defect(M) == 6e-7
        M[0, 1, 2], M[1, 0, 2] = 2.0 + 1j, 2.0 + 1j  # off-diagonal: defect 2
        assert hermitian_defect(M) == 2.0

    def test_nan_is_refused(self):
        # a NaN defect is no pass: the gate reads `not defect <= tol`
        with pytest.raises(InvalidInputError, match="defect nan"):
            from_hermitian(np.full((2, 2, 3), np.nan, dtype=complex))


class TestH3Validation:
    def test_identity_point(self):
        require_h3(np.array([0.0, 0.0, 0.0, 1.0]))

    def test_rejects_negative_x0(self):
        with pytest.raises(InternalConsistencyError):
            require_h3(np.array([0.0, 0.0, 0.0, -1.0]))

    def test_rejects_off_sheet(self):
        with pytest.raises(InvalidInputError):
            require_h3(np.array([0.0, 0.0, 0.0, 2.0]))

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError, match="defect nan"):
            require_h3(np.full((4, 5), np.nan))

    def test_defect_of_boosted_point(self):
        t = 0.8
        p = np.array([np.sinh(t), 0.0, 0.0, np.cosh(t)])
        assert h3_defect(p) < 1e-12

    @staticmethod
    def _boosts():
        """Five points on the upper sheet, boosted along x1."""
        t = np.linspace(-1.0, 1.0, 5)
        return np.stack([np.sinh(t), 0.0 * t, 0.0 * t, np.cosh(t)])

    def test_defect_is_the_worst_point_of_a_batch(self):
        p = self._boosts()
        p[:, 2] = [0.0, 0.0, 0.0, np.sqrt(1.0 + 1e-3)]  # <p, p> = -(1 + 1e-3)
        assert h3_defect(p) == pytest.approx(1e-3, rel=1e-9)

    def test_one_point_on_the_lower_sheet_refused(self):
        p = self._boosts()
        p[:, 2] = [0.0, 0.0, 0.0, -1.0]  # on the hyperboloid, but x0 < 0
        with pytest.raises(InternalConsistencyError, match="non-positive x0"):
            require_h3(p)

    @pytest.mark.parametrize("defect, admitted", [(1.99e-8, True), (2.01e-8, False)])
    def test_sheet_bound_is_twice_the_drift_bound(self, defect, admitted):
        # a determinant 1e-8 off 1 puts F F* 1e-8 (2 + 1e-8) off the sheet
        p = self._boosts()
        p[:, 2] = [0.0, 0.0, 0.0, np.sqrt(1.0 + defect)]
        if admitted:
            require_h3(p)
        else:
            with pytest.raises(InvalidInputError, match="defect 2.010e-08 > 2.000e-08"):
                require_h3(p)
