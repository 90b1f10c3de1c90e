"""Tests for Lax matrices, the cylinder frame oracle, and RK4 integration."""

import hashlib

import numpy as np
import pytest

from cmclab.errors import (
    IncompatibleDataError,
    IntegrationFailureError,
    InvalidInputError,
)
from cmclab.frames import (
    ExtendedFrame,
    SpectralParam,
    _sweep,
    integrate_frame,
    shift_frame,
)
from cmclab.minkowski import mul2
from cmclab.reference import (
    cylinder_frame_closed_form,
    cylinder_frame_lax_gauge,
    frame_left_multiply,
    lax_matrices,
    spectral_shift_matrix,
    two_path_discrepancy,
)
from cmclab.surface_data import GridSpec, SurfaceData, cylinder_data, delaunay_data


def square_grid(n):
    return GridSpec(-1.0, 1.0, -1.0, 1.0, n, n)


def lax_defect(frame_fn, lam, x, y, Q=0.25, H=0.5, h=1e-5):
    """Finite-difference substitution of a closed-form frame into the
    frame system at a point, for cylinder data (u = 0)."""
    U, V = lax_matrices(0.0, 0.0, 0.0, Q, H, lam)
    F = lambda a, b: frame_fn(a + 1j * b, lam)
    Fx = (F(x + h, y) - F(x - h, y)) / (2 * h)
    Fy = (F(x, y + h) - F(x, y - h)) / (2 * h)
    Fz = 0.5 * (Fx - 1j * Fy)
    Fzb = 0.5 * (Fx + 1j * Fy)
    F0 = F(x, y)
    return max(np.max(np.abs(Fz - F0 @ U)), np.max(np.abs(Fzb - F0 @ V)))


class TestSpectralParam:
    def test_q(self):
        assert SpectralParam(0.5).q == pytest.approx(np.log(0.5))

    @pytest.mark.parametrize("lam", [1.0, 1.2, 0.0, -0.5])
    def test_rejects_bad_values(self, lam):
        with pytest.raises(InvalidInputError):
            SpectralParam(lam)


class TestLaxMatrices:
    def test_cylinder_values(self):
        U, V = lax_matrices(0.0, 0.0, 0.0, 0.25, 0.5, 0.5)
        assert np.array_equal(U, np.array([[0.0, 0.5], [-0.25, 0.0]]))
        assert np.array_equal(V, np.array([[0.0, 0.25], [-0.125, 0.0]]))

    def test_traceless(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            u = rng.normal()
            uz = rng.normal() + 1j * rng.normal()
            U, V = lax_matrices(u, uz, np.conj(uz), rng.normal(), rng.normal(), 0.7)
            assert abs(U[0, 0] + U[1, 1]) < 1e-15
            assert abs(V[0, 0] + V[1, 1]) < 1e-15

    def test_unitary_relation_on_circle(self):
        # at |lam| = 1 with real u the pair satisfies V = -conj(U)^t
        rng = np.random.default_rng(5)
        for _ in range(10):
            u = rng.normal()
            uz = rng.normal() + 1j * rng.normal()
            lam = np.exp(1j * rng.uniform(0.0, 2 * np.pi))
            U, V = lax_matrices(u, uz, np.conj(uz), 0.25, 0.5, lam)
            np.testing.assert_allclose(V, -U.conj().T, atol=1e-13)

    def test_zero_spectral_value(self):
        with pytest.raises(InvalidInputError):
            lax_matrices(0.0, 0.0, 0.0, 0.25, 0.5, 0.0)


class TestCylinderClosedForm:
    def test_identity_at_origin(self):
        np.testing.assert_allclose(cylinder_frame_closed_form(0.0, 0.5), np.eye(2))

    def test_unimodular(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=12) + 1j * rng.normal(size=12)
        F = cylinder_frame_closed_form(z, 0.37)
        np.testing.assert_allclose(np.linalg.det(np.moveaxis(F, (0, 1), (1, 2))), 1.0, atol=1e-14)

    def test_unit_spectral_value_on_real_axis(self):
        x = 0.83
        F = cylinder_frame_closed_form(x, 1.0)
        c, s = np.cos(x / 2), np.sin(x / 2)
        np.testing.assert_allclose(F, [[c, 1j * s], [1j * s, c]], atol=1e-15)

    def test_reference_form_misses_the_frame_system(self):
        # direct substitution leaves constant factors of i on the
        # off-diagonal; this mismatch is what the gauge form reconciles
        assert lax_defect(cylinder_frame_closed_form, 0.5, 0.4, -0.3) > 1e-2

    def test_gauge_form_solves_the_frame_system(self):
        rng = np.random.default_rng(8)
        for lam in (0.3, 0.5, 0.8):
            for _ in range(5):
                x, y = rng.uniform(-1.0, 1.0, 2)
                assert lax_defect(cylinder_frame_lax_gauge, lam, x, y) < 1e-9

    def test_gauge_form_is_a_constant_conjugation(self):
        P = np.diag([1.0, 1j])
        z = 0.4 - 0.3j
        ref = cylinder_frame_closed_form(z, 0.5)
        np.testing.assert_allclose(
            cylinder_frame_lax_gauge(z, 0.5), P @ ref @ np.conj(P.T), atol=1e-15
        )

    def test_gauge_form_identity_and_det(self):
        np.testing.assert_allclose(cylinder_frame_lax_gauge(0.0, 0.5), np.eye(2))
        F = cylinder_frame_lax_gauge(0.3 + 0.9j, 0.44)
        assert abs(np.linalg.det(F) - 1.0) < 1e-14


class TestShiftMatrix:
    def test_quarter(self):
        D = spectral_shift_matrix(0.25)
        assert np.array_equal(D, np.diag([2.0, 0.5]).astype(complex))

    def test_unimodular(self):
        assert np.linalg.det(spectral_shift_matrix(0.73)) == pytest.approx(1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            spectral_shift_matrix(-0.5)


@pytest.fixture(scope="module")
def cylinder_frame_51():
    return integrate_frame(cylinder_data(square_grid(51)), SpectralParam(0.5))


class TestIntegrateFrame:
    def test_identity_at_base(self, cylinder_frame_51):
        i0, j0 = cylinder_frame_51.grid.center_index()
        assert np.array_equal(cylinder_frame_51.F[:, :, i0, j0], np.eye(2, dtype=complex))

    def test_matches_closed_form(self, cylinder_frame_51):
        g = cylinder_frame_51.grid
        X, Y = g.mesh()
        exact = cylinder_frame_lax_gauge(X + 1j * Y, 0.5)
        assert np.max(np.abs(cylinder_frame_51.F - exact)) < 5e-9

    def test_fourth_order_convergence(self, cylinder_frame_51):
        fine = integrate_frame(cylinder_data(square_grid(101)), SpectralParam(0.5))
        errs = []
        for fr in (cylinder_frame_51, fine):
            X, Y = fr.grid.mesh()
            exact = cylinder_frame_lax_gauge(X + 1j * Y, 0.5)
            errs.append(np.max(np.abs(fr.F - exact)))
        assert 12.0 < errs[0] / errs[1] < 20.0

    def test_unimodular(self, cylinder_frame_51):
        assert cylinder_frame_51.max_det_drift < 1e-9

    def test_delaunay_det_drift(self):
        fr = integrate_frame(delaunay_data(square_grid(101), 0.5, 0.3, 0.0), SpectralParam(0.5))
        assert fr.max_det_drift < 1e-8

    def test_incompatible_data_refused(self):
        g = square_grid(11)
        X, Y = g.mesh()
        wild = SurfaceData(g, 4.0 * np.cos(3 * np.pi * X) * np.cos(3 * np.pi * Y), Q=0.25, H=0.5)
        with pytest.raises(IncompatibleDataError):
            integrate_frame(wild, SpectralParam(0.5))

    def test_det_drift_failure_names_worst_point(self):
        # compatible data on a coarse grid (h = 0.2) drifts 9.9e-8 at (0, 5)
        with pytest.raises(IntegrationFailureError) as err:
            integrate_frame(cylinder_data(square_grid(11)), SpectralParam(0.5))
        assert "at grid index (0, 5)" in str(err.value)


class TestPathIndependence:
    def test_cylinder_exact(self):
        disc = two_path_discrepancy(cylinder_data(square_grid(101)), SpectralParam(0.5))
        assert disc < 1e-12

    def test_delaunay_small(self):
        disc = two_path_discrepancy(
            delaunay_data(square_grid(101), 0.5, 0.3, 0.0), SpectralParam(0.5)
        )
        assert disc < 1e-3

    def test_discrepancy_tracks_compatibility_violation(self):
        # perturbing u inflates the two-path discrepancy proportionally
        g = square_grid(51)
        X, Y = g.mesh()
        bump = np.sin(np.pi * X) * np.sin(np.pi * Y)
        base = cylinder_data(g)
        discs = []
        for eps in (0.0, 1e-3, 1e-2):
            d = SurfaceData(g, base.u + eps * bump, Q=base.Q, H=base.H)
            discs.append(two_path_discrepancy(d, SpectralParam(0.5)))
        assert discs[0] < 1e-12
        assert discs[0] < discs[1] < discs[2]
        assert 5.0 < discs[2] / discs[1] < 20.0

    @pytest.mark.parametrize(
        "data, bits",
        [
            (lambda g: cylinder_data(g), "0x1.82fd05f129838p-51"),
            (lambda g: delaunay_data(g, 0.5, 0.3, 0.0), "0x1.305b24474a7bcp-30"),
        ],
        ids=["cylinder", "delaunay"],
    )
    def test_both_sweep_orders_keep_their_bits(self, data, bits):
        # the golden hashes cover only the x-first sweep; the discrepancy
        # pins the y-first one too, to the last bit
        disc = two_path_discrepancy(data(square_grid(101)), SpectralParam(0.5))
        assert disc.hex() == bits


# sha256 of F in C order, x-first sweep, y-first sweep and the shifted frame
# FD, recorded while every march step still went through mul2: shapes the
# golden runs miss, so that no change to how the products are formed moves
# a bit unseen.  61 x 83 is non-square; 40 x 52 is even on both axes, so the
# two halves of each march differ in length; 6 x 6 is MIN_NODES.
FRAME_BITS = {
    "delaunay-61x83": (
        lambda: delaunay_data(GridSpec(-1.0, 1.0, -1.0, 1.0, 61, 83), 0.5, 0.5, 0.0),
        0.4,
        "4ce3b0f1e73e8e5e514dd28bb75e1a9b63a3c93ce996134e85e2b8a9905565c7",
        "8c28760e0a9ba60cace9a3160a81070950ada3771af84d44f312be393f437b52",
        "77db0a514716081ba0a8ce9699e9386f37592e856bb7e0e90f3f7511fceb5b51",
    ),
    "delaunay-40x52": (
        lambda: delaunay_data(GridSpec(-1.0, 1.0, -1.0, 1.0, 40, 52), 0.5, 0.3, 0.0),
        0.5,
        "ea361d42d46f2c00df7780fb97024958142efe291c8aa3c53bc997f9d3ed43d5",
        "aa9b301a8082c6e950f079f613518419be4d887b8db6dccd3db5a2a79825edaa",
        "6f77af84bc28fbd6f9b74150f4158de6901b8026b61c8436715ca2236e29b4b4",
    ),
    "cylinder-6x6": (
        lambda: cylinder_data(GridSpec(-0.1, 0.1, -0.1, 0.1, 6, 6)),
        0.5,
        "7980cf437ad777c12d6089198c30ab07d99f64e6756c2a597852d3b7080a0973",
        "e6a1c3a67cce1c3c14a577b6ca7ee730a4475c2eeb4698226d7284e8bac60c49",
        "0a4f82e533e3a1acb5deb4df0e1bff7c23ee5653e8e389754f3f15c508d69fb8",
    ),
}


def frame_digest(F):
    """The digest of a stack's bytes in node-major order, (nx, ny, 2, 2)."""
    node_major = np.moveaxis(F, (0, 1), (2, 3))
    return hashlib.sha256(np.ascontiguousarray(node_major).tobytes()).hexdigest()


@pytest.mark.parametrize("name", FRAME_BITS)
def test_frames_keep_their_bits_on_uncommon_grids(name):
    make, lam, x_first, y_first, shifted = FRAME_BITS[name]
    data = make()
    frame = integrate_frame(data, SpectralParam(lam))
    assert frame_digest(frame.F) == x_first
    assert frame_digest(_sweep(data, lam, 1)) == y_first
    assert frame_digest(shift_frame(frame).F) == shifted


class TestShiftFrame:
    def test_base_value_and_det(self, cylinder_frame_51):
        shifted = shift_frame(cylinder_frame_51)
        i0, j0 = shifted.grid.center_index()
        D = spectral_shift_matrix(0.5)
        np.testing.assert_allclose(shifted.F[:, :, i0, j0], D, atol=1e-15)
        assert shifted.max_det_drift < 1e-9

    def test_base_product_is_diagonal_exponential(self, cylinder_frame_51):
        # (FD)(FD)^bar-t at the base point with F = I is diag(e^{-q}, e^q)
        shifted = shift_frame(cylinder_frame_51)
        i0, j0 = shifted.grid.center_index()
        FD = shifted.F[:, :, i0, j0]
        q = cylinder_frame_51.spectral.q
        np.testing.assert_allclose(
            FD @ np.conj(FD.T), np.diag([np.exp(-q), np.exp(q)]), atol=1e-15
        )

    @pytest.mark.parametrize("lam", [0.02, 0.5, 0.98])
    def test_scaling_has_the_bits_of_the_product(self, cylinder_frame_51, lam):
        # the column scaling F D gives the bits of the general product
        # mul2(F, D), on an integrated frame and on a random stack
        rng = np.random.default_rng(28)
        stack = rng.normal(size=(2, 2, 51, 51)) + 1j * rng.normal(size=(2, 2, 51, 51))
        D = spectral_shift_matrix(lam)
        for F in (cylinder_frame_51.F, stack):
            frame = ExtendedFrame(cylinder_frame_51.grid, F, SpectralParam(lam))
            assert frame_digest(shift_frame(frame).F) == frame_digest(mul2(frame.F, D))

    @pytest.mark.parametrize("lam", [0.02, 0.5, 0.98])
    def test_scaling_equals_the_product_on_zeros_and_subnormals(self, lam):
        # the product adds a zero term, F[i, 1] * 0 to column 0 and F[i, 0] * 0
        # to column 1, which can flip the sign of a zero real or imaginary
        # part; so here only the values must agree
        rng = np.random.default_rng(28)
        parts = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300])
        stack = np.empty((2, 2, 8, 8), complex)
        stack.real[...] = rng.choice(parts, stack.shape)
        stack.imag[...] = rng.choice(parts, stack.shape)
        frame = ExtendedFrame(square_grid(8), stack, SpectralParam(lam))
        np.testing.assert_array_equal(
            shift_frame(frame).F, mul2(frame.F, spectral_shift_matrix(lam))
        )


class TestGauge:
    def test_left_multiply_applies_pointwise(self, cylinder_frame_51):
        rng = np.random.default_rng(9)
        G = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        G /= np.sqrt(np.linalg.det(G))
        moved = frame_left_multiply(cylinder_frame_51, G)
        np.testing.assert_allclose(
            moved.F[:, :, 7, 3], G @ cylinder_frame_51.F[:, :, 7, 3], atol=1e-14
        )
        assert moved.max_det_drift < 1e-8

    def test_rejects_non_unimodular(self, cylinder_frame_51):
        with pytest.raises(InvalidInputError):
            frame_left_multiply(cylinder_frame_51, 2.0 * np.eye(2))


class TestExtendedFrameType:
    def test_base_is_grid_center(self):
        # integration starts at the node halving each axis, rounded down
        assert GridSpec(-1.0, 1.0, -1.0, 1.0, 7, 6).center_index() == (3, 3)

    def test_array_locked(self, cylinder_frame_51):
        with pytest.raises(ValueError):
            cylinder_frame_51.F[0, 0, 0, 0] = 5.0
