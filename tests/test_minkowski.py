"""Tests for the Hermitian model of R^{3,1}."""

import numpy as np
import pytest
from conftest import plain_sides

from cmclab import reference
from cmclab.errors import InternalConsistencyError, InvalidInputError
from cmclab.minkowski import (
    det2,
    h3_defect,
    mat2,
    mink_dot,
    mul2,
    require_h3,
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
