"""Tests for Lax matrices, the cylinder frame oracle, and Magnus integration."""

import hashlib

import numpy as np
import pytest

import cmclab.frames
from cmclab.errors import (
    IncompatibleDataError,
    IntegrationFailureError,
    InvalidInputError,
)
from cmclab.frames import (
    ExtendedFrame,
    SpectralParam,
    _coefficient,
    _sweep,
    integrate_frame,
    shift_frame,
)
from cmclab.minkowski import DET_DRIFT_TOL
from cmclab.reference import (
    cylinder_frame_closed_form,
    cylinder_frame_lax_gauge,
    frame_left_multiply,
    lax_matrices,
    mul2,
    spectral_shift_matrix,
    two_path_discrepancy,
)
from cmclab.surface_data import (
    GridSpec,
    SurfaceData,
    cylinder_data,
    delaunay_data,
    max_gauss_residual,
)
from cmclab.verify import verify_theorem


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

    @pytest.mark.parametrize("axis", [0, 1])
    def test_march_coefficient_is_the_lax_sum(self, axis):
        # the march forms A plane by plane; it must hold the values of U + V
        # along x and i (U - V) along y from the reference entries
        rng = np.random.default_rng(12)
        u, ux, uy = rng.normal(size=(3, 7, 9))
        data = SurfaceData(square_grid(6), np.zeros((6, 6)), Q=0.25, H=0.5)
        U, V = lax_matrices(u, 0.5 * (ux - 1j * uy), 0.5 * (ux + 1j * uy), 0.25, 0.5, 0.37)
        expected = U + V if axis == 0 else 1j * (U - V)
        np.testing.assert_array_equal(_coefficient(data, 0.37, axis, u, ux, uy), expected)


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
        # A is constant on the cylinder and each Magnus cell is exp(hA), so
        # the frame is its closed form to round-off
        g = cylinder_frame_51.grid
        X, Y = g.mesh()
        exact = cylinder_frame_lax_gauge(X + 1j * Y, 0.5)
        assert np.max(np.abs(cylinder_frame_51.F - exact)) <= 1e-13

    def test_fourth_order_convergence(self):
        # A does not commute with itself along the base row of Delaunay data,
        # which the cylinder's exact cells cannot show; each error is taken
        # against a run refined 4x, on a box whose centre is no symmetry
        # point of u
        def frame(n):
            data = delaunay_data(GridSpec(0.2, 1.4, -0.3, 0.9, n, n), 0.5, 1.0, 0.0)
            return integrate_frame(data, SpectralParam(0.5)).F

        errs = [np.max(np.abs(frame(n) - frame(4 * n - 3)[:, :, ::4, ::4])) for n in (25, 49)]
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

    @pytest.mark.parametrize("residual, refused", [(0.099, False), (0.101, True)])
    def test_compatibility_bound_is_0_1(self, residual, refused):
        # u = 0 leaves the constant residual H^2 - 4Q^2 on every node
        H = 0.5
        Q = 0.5 * np.sqrt(H**2 - residual)
        data = SurfaceData(GridSpec(-0.2, 0.2, -0.2, 0.2, 9, 9), np.zeros((9, 9)), Q=Q, H=H)
        assert max_gauss_residual(data) == pytest.approx(residual, rel=1e-12)
        if refused:
            with pytest.raises(IncompatibleDataError, match="1.010e-01 exceeds 1.000e-01"):
                integrate_frame(data, SpectralParam(0.5))
        else:
            integrate_frame(data, SpectralParam(0.5))

    @pytest.mark.parametrize("u0, lam", [(0.3, 0.5), (0.6, 0.05)], ids=["readme", "small-lambda"])
    def test_drift_reads_round_off(self, u0, lam):
        # det T = 1 for every Magnus cell, so det F drifts only by round-off
        data = delaunay_data(square_grid(201), 0.5, u0, 0.0)
        assert integrate_frame(data, SpectralParam(lam)).max_det_drift <= 1e-13

    def test_wide_cylinder_passes_every_check(self):
        # h = 0.12 on [-6, 6]^2, where an RK4 march drifted 4.6e-8 and was
        # refused
        data = cylinder_data(GridSpec(-6.0, 6.0, -6.0, 6.0, 101, 101))
        frame = integrate_frame(data, SpectralParam(0.5))
        assert frame.max_det_drift <= 1e-13
        report = verify_theorem(data, frame)
        assert len(report.records) == 18 and report.overall_pass()

    @pytest.mark.parametrize("drift", [0.99e-8, 1.01e-8])
    def test_drift_bound_is_1e_8(self, monkeypatch, drift):
        # a determinant planted just either side of the bound at node (4, 11)
        # of a 17 x 17 cylinder, whose own drift is round-off
        plant_determinants(monkeypatch, {(4, 11): 1.0 + drift})
        data = cylinder_data(square_grid(17))
        if drift < DET_DRIFT_TOL:
            frame = integrate_frame(data, SpectralParam(0.5))
            assert frame.max_det_drift == pytest.approx(drift, rel=1e-6)
        else:
            with pytest.raises(
                IntegrationFailureError,
                match=r"drift 1\.010e-08 at grid index \(4, 11\) exceeds 1e-08",
            ):
                integrate_frame(data, SpectralParam(0.5))

    def test_det_drift_failure_names_worst_point(self, monkeypatch):
        # of three nodes past the bound, the one that drifts most is named
        dets = {(0, 0): 1.0 + 2e-8, (0, 5): 1.0 - 9e-8, (10, 3): 1.0 + 5e-8}
        plant_determinants(monkeypatch, dets)
        with pytest.raises(IntegrationFailureError) as err:
            integrate_frame(cylinder_data(square_grid(11)), SpectralParam(0.5))
        assert "drift 9.000e-08 at grid index (0, 5)" in str(err.value)


def plant_determinants(monkeypatch, dets):
    """Have integrate_frame's sweep scale F at each node (i, j) of `dets` by
    the root of its entry, so det F there is that value times the integrated
    one."""
    sweep = cmclab.frames._sweep

    def planted(data, lam, first):
        F = sweep(data, lam, first)
        for (i, j), det in dets.items():
            F[:, :, i, j] *= np.sqrt(det)
        return F

    monkeypatch.setattr(cmclab.frames, "_sweep", planted)


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
            (lambda g: cylinder_data(g), "0x1.1e3779b97f4a8p-52"),
            (lambda g: delaunay_data(g, 0.5, 0.3, 0.0), "0x1.2c6b4a7943779p-30"),
        ],
        ids=["cylinder", "delaunay"],
    )
    def test_both_sweep_orders_keep_their_bits(self, data, bits):
        # the golden hashes cover only the x-first sweep; the discrepancy
        # pins the y-first one too, to the last bit
        disc = two_path_discrepancy(data(square_grid(101)), SpectralParam(0.5))
        assert disc.hex() == bits


# sha256 of F in C order, x-first sweep, y-first sweep and the shifted frame
# FD, recorded with the Magnus transitions of minkowski.sl2_transition: shapes
# the golden runs miss, so that no change to how the transitions or products
# are formed moves a bit unseen.  61 x 83 is non-square; 40 x 52 is even on both axes, so the
# two halves of each march differ in length; 6 x 6 is MIN_NODES.
FRAME_BITS = {
    "delaunay-61x83": (
        lambda: delaunay_data(GridSpec(-1.0, 1.0, -1.0, 1.0, 61, 83), 0.5, 0.5, 0.0),
        0.4,
        "fd7882c7ce5e178d686ebeb1abfdc2ede1808a886790c7ba4e32087c7a2ec4b1",
        "34714473ad76856a08287b335e3fbe3493b7e599eb99655a2c2b3bffe16b7ecf",
        "6c82c32fbbaab8f15716435b7b2b5b4858a9117e94f7781c24706d7b049fca0c",
    ),
    "delaunay-40x52": (
        lambda: delaunay_data(GridSpec(-1.0, 1.0, -1.0, 1.0, 40, 52), 0.5, 0.3, 0.0),
        0.5,
        "de78b798ceb5cd2b8bd12bf71dbd28a6d1b2938969d1dfa042853705f8ad5164",
        "ea3a65b83fffa1cedd168477be514a64be3a7107ce30ebd7806badf07052bf46",
        "43addca972be034ea1aead4e343ce09f97fda2923e58697403cfc3eb6d5a2f41",
    ),
    "cylinder-6x6": (
        lambda: cylinder_data(GridSpec(-0.1, 0.1, -0.1, 0.1, 6, 6)),
        0.5,
        "0299b10d07757b0326fe25bb97e0a4b3b976e1eb8dd35082c0cb35d562b88419",
        "1de8cb0e8e7111eb8b2a1cce8eb1cd611a7ac8d4820c7c478d1633286cfc30d9",
        "0b607f4210ec4907cb1498778b34f7237c3ab91f10a95cd66fe6637bd20eff44",
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


@pytest.mark.parametrize("block", [1, 1024, 10**9], ids=["one-line", "1024", "whole-march"])
@pytest.mark.parametrize(
    "make, lam",
    [
        (lambda: delaunay_data(GridSpec(-1.0, 1.0, -1.0, 1.0, 61, 83), 0.5, 0.5, 0.0), 0.4),
        (lambda: delaunay_data(square_grid(201), 0.5, 0.3, 0.0), 0.5),
    ],
    ids=["delaunay-61x83", "readme-201"],
)
def test_frame_bits_do_not_depend_on_the_block_size(monkeypatch, make, lam, block):
    # each cell's transition is the same elementwise arithmetic in any block,
    # against the default BLOCK_MATRICES of 4096; a whole-march block of the
    # 201 x 201 grid has planes past numpy's 256 KiB temporary-elision size
    data = make()
    default = [frame_digest(_sweep(data, lam, first)) for first in (0, 1)]
    monkeypatch.setattr(cmclab.frames, "BLOCK_MATRICES", block)
    assert [frame_digest(_sweep(data, lam, first)) for first in (0, 1)] == default


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
