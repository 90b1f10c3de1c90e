"""Tests for the parallel surface pair, normals, and hyperbolic distance.

The shifted side is the primary side turned through q.  The identities
behind that, which hold for every 2x2 frame F, unimodular or not, are
tested here on random stacks against the route through the frame FD
(`reference.frame_shifted_surface`); the reference definitions of the
pair's distance and identity defects are tested here too."""

from dataclasses import replace

import numpy as np
import pytest
from conftest import plain_sides

from cmclab.errors import InternalConsistencyError, InvalidInputError
from cmclab.frames import ExtendedFrame, SpectralParam, integrate_frame, shift_frame
from cmclab.minkowski import (
    DET_DRIFT_TOL,
    H3_TOL,
    det2,
    h3_defect,
    mink_dot,
    surface_and_normal,
)
from cmclab.reference import (
    cylinder_frame_lax_gauge,
    distance_grid,
    equidistance_defect,
    frame_left_multiply,
    frame_shifted_surface,
    hyperbolic_distance,
    mul2,
    normal_orthogonality_defect,
    normal_unit_defect,
    parallel_identity_defect,
    to_hermitian,
)
from cmclab.surface_data import GridSpec, cylinder_data
from cmclab.surfaces import H3SurfaceGrid, _turn, normal_field, surface_primary, surface_shifted
from cmclab.verify import evaluate


def point_grid(p, n=6):
    """The 4-vector p at every node of an n x n grid, shape (4, n, n)."""
    return np.broadcast_to(np.reshape(p, (4, 1, 1)), (4, n, n)).copy()


# the normal (0, 0, 1, 0) of the identity frame on a 6 x 6 grid
NORMAL6 = point_grid([0.0, 0.0, 1.0, 0.0])


def identity_frame(n=6, lam=0.5):
    g = GridSpec(-1.0, 1.0, -1.0, 1.0, n, n)
    F = np.broadcast_to(np.eye(2, dtype=complex)[:, :, None, None], (2, 2, n, n)).copy()
    return ExtendedFrame(g, F, SpectralParam(lam))


def random_unimodular(rng):
    G = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return G / np.sqrt(np.linalg.det(G))


@pytest.fixture(scope="module")
def cylinder_frame():
    return integrate_frame(cylinder_data(GridSpec(-1, 1, -1, 1, 41, 41)), SpectralParam(0.5))


class TestSurfacePoints:
    def test_identity_frame_primary(self):
        s = surface_primary(identity_frame())
        assert np.allclose(s.points, point_grid([0.0, 0.0, 0.0, 1.0]))

    def test_identity_frame_shifted(self):
        # D D^bar-t = diag(1/lam, lam) = point (0, 0, -sinh q, cosh q)
        s = surface_shifted(identity_frame(lam=0.5))
        q = np.log(0.5)
        np.testing.assert_allclose(
            s.points[:, 2, 2], [0.0, 0.0, -np.sinh(q), np.cosh(q)], atol=1e-15
        )

    def test_random_frames_land_on_hyperboloid(self):
        rng = np.random.default_rng(4)
        n = 6
        F = np.stack([random_unimodular(rng) for _ in range(n * n)], axis=-1).reshape(2, 2, n, n)
        fr = ExtendedFrame(GridSpec(-1, 1, -1, 1, n, n), F, SpectralParam(0.5))
        for s in (surface_primary(fr), surface_shifted(fr)):
            assert np.all(s.points[3] > 0.0)
            sq = s.points
            norm = sq[0] ** 2 + sq[1] ** 2 + sq[2] ** 2 - sq[3] ** 2
            np.testing.assert_allclose(norm, -1.0, atol=1e-12)

    def test_negative_x0_is_internal_corruption(self):
        g = GridSpec(-1, 1, -1, 1, 6, 6)
        pts = point_grid([0.0, 0.0, 0.0, -1.0])
        with pytest.raises(InternalConsistencyError):
            H3SurfaceGrid(g, pts, NORMAL6, SpectralParam(0.5), "primary")

    def test_off_sheet_points_rejected(self):
        g = GridSpec(-1, 1, -1, 1, 6, 6)
        pts = point_grid([0.0, 0.0, 0.0, 2.0])
        with pytest.raises(InvalidInputError):
            H3SurfaceGrid(g, pts, NORMAL6, SpectralParam(0.5), "primary")

    def test_frame_at_the_drift_bound_builds_both_sides(self):
        # det(c F) = c^2 det F: a real root scales the unimodular closed-form
        # cylinder frame to det 1 + 0.9 DET_DRIFT_TOL, which the integrator
        # admits; its points miss the sheet by about twice that
        g = GridSpec(-1, 1, -1, 1, 41, 41)
        z = g.xs()[:, None] + 1j * g.ys()[None, :]
        F = np.sqrt(1.0 + 0.9 * DET_DRIFT_TOL) * cylinder_frame_lax_gauge(z, 0.5)
        frame = ExtendedFrame(g, F, SpectralParam(0.5))
        assert frame.max_det_drift == pytest.approx(0.9 * DET_DRIFT_TOL, abs=1e-15)
        for side in evaluate(frame):
            assert DET_DRIFT_TOL < h3_defect(side.surface.points) <= H3_TOL

    def test_unknown_kind_rejected(self):
        g = GridSpec(-1, 1, -1, 1, 6, 6)
        pts = point_grid([0.0, 0.0, 0.0, 1.0])
        with pytest.raises(InvalidInputError):
            H3SurfaceGrid(g, pts, NORMAL6, SpectralParam(0.5), "other")


class TestNormalField:
    def test_identity_frame(self):
        assert np.allclose(normal_field(identity_frame()), NORMAL6)

    def test_unit_and_orthogonal(self, cylinder_frame):
        s = surface_primary(cylinder_frame)
        assert normal_unit_defect(s) < 1e-9
        assert normal_orthogonality_defect(s) < 1e-9

    def test_shifted_normal(self, cylinder_frame):
        s = surface_shifted(cylinder_frame)
        fd = frame_shifted_surface(cylinder_frame)
        assert np.max(np.abs(s.normal - fd.normal)) <= 1e-14 * np.max(np.abs(fd.normal))
        assert normal_unit_defect(s) < 1e-9
        assert normal_orthogonality_defect(s) < 1e-9

    def test_zero_signs_of_the_real_formula(self):
        # N's coordinates are sums and differences of real products of F's
        # parts, so each -0 or +0 among them is that of the plain formula;
        # these F are not unimodular, so the kernel is called without the
        # surface container's hyperboloid gate
        rng = np.random.default_rng(19)
        n = 16
        F = np.empty((2, 2, n, n), complex)
        F.real, F.imag = rng.choice([0.0, -0.0, 1.0, -1.0, 2.5, 0.5], (2, 2, 2, n, n))
        expected = plain_sides(F)[1]
        frame = ExtendedFrame(GridSpec(-1.0, 1.0, -1.0, 1.0, n, n), F, SpectralParam(0.5))
        got = surface_and_normal(frame.F)[1]
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_frame_holding_a_nan_is_refused(self):
        F = identity_frame().F.copy()
        F[1, 0, 2, 3] = np.nan
        frame = ExtendedFrame(GridSpec(-1.0, 1.0, -1.0, 1.0, 6, 6), F, SpectralParam(0.5))
        # the points are checked first, and they hold the NaN too
        with pytest.raises(InvalidInputError, match="defect nan"):
            normal_field(frame)
        with pytest.raises(InvalidInputError, match="defect nan"):
            surface_primary(frame)
        points, normal = surface_and_normal(identity_frame().F)
        normal = normal.copy()
        normal[0, 2, 3] = np.nan
        with pytest.raises(InvalidInputError, match="normal has a vector that is not finite"):
            H3SurfaceGrid(frame.grid, points, normal, frame.spectral, "primary")

    def test_normal_matrices_hermitian(self):
        rng = np.random.default_rng(12)
        for _ in range(8):
            G = random_unimodular(rng)
            N = G @ np.diag([1.0, -1.0]) @ np.conj(G.T)
            assert np.max(np.abs(N - np.conj(N.T))) < 1e-13


def parallel_residual(frame):
    """`parallel_identity_defect` of the primary side `evaluate(frame)`
    builds against the shifted surface by way of the frame FD."""
    primary, _ = evaluate(frame)
    return parallel_identity_defect(primary.surface, frame_shifted_surface(frame))


class TestParallelIdentity:
    def test_cylinder_residual_at_round_off(self, cylinder_frame):
        assert parallel_residual(cylinder_frame) < 1e-13

    def test_gauge_invariant(self, cylinder_frame):
        rng = np.random.default_rng(6)
        moved = frame_left_multiply(cylinder_frame, random_unimodular(rng))
        assert parallel_residual(moved) < 1e-12

    @pytest.mark.parametrize("family", ["cyl_frame_101", "del_frame_101"])
    def test_planted_spectral_error_is_seen(self, request, family):
        # a shifted surface built at lam (1 + 1e-6) sits about 1e-6 off the
        # parallel one; both round-off checks must see that, far above their
        # tolerances, or they have become vacuous
        frame = request.getfixturevalue(family)
        wrong = replace(frame, spectral=SpectralParam(frame.lam * (1 + 1e-6)))
        primary, shifted = surface_primary(frame), surface_shifted(wrong)
        assert parallel_identity_defect(primary, shifted) > 1e-11
        assert equidistance_defect(primary, shifted) > 1e-9


def random_stack(seed, shape=(9, 7)):
    """Random complex 2x2 frames, shape (2, 2, *shape); det F is not 1."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(2, 2) + shape) + 1j * rng.normal(size=(2, 2) + shape)


# random stacks with det F far from 1, and one scaled to det F = 1
STACKS = {
    "random": random_stack(40),
    "random-large": 3.0 * random_stack(41),
    "unimodular": random_stack(42) / np.sqrt(det2(random_stack(42))),
}


class TestIdentitiesOfAnyFrame:
    """With f = F F*, N = F diag(1, -1) F* and FD = F diag(lam^-1/2, lam^1/2),
    for every 2x2 F: (FD)(FD)* and its normal are f and N turned through
    q = ln(lam); <N, N> = |det F|^2, <N, f> = 0, <f, f> = -|det F|^2 and
    -<f, (FD)(FD)*> = |det F|^2 cosh q.  Each form is quartic in F, so its
    rounding is held to the size of |F|^4 at each node."""

    @pytest.fixture(params=list(STACKS), ids=list(STACKS))
    def stack(self, request):
        F = STACKS[request.param]
        grid = GridSpec(-1.0, 1.0, -1.0, 1.0, *F.shape[2:])
        det_sq = np.abs(det2(F)) ** 2
        size = np.sum(np.abs(F) ** 2, axis=(0, 1)) ** 2
        return grid, F, det_sq, size

    @pytest.mark.parametrize("lam", [0.02, 0.3, 0.5, 0.95])
    def test_the_shift_is_the_turn_through_q(self, stack, lam):
        grid, F, det_sq, size = stack
        frame = ExtendedFrame(grid, F, SpectralParam(lam))
        through_fd = surface_and_normal(shift_frame(frame).F)
        turned = _turn(*surface_and_normal(F), lam)
        for got, want in zip(turned, through_fd):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_normal_algebra(self, stack):
        _, F, det_sq, size = stack
        f, N = surface_and_normal(F)
        assert np.all(np.abs(mink_dot(N, N) - det_sq) <= 1e-14 * size)
        assert np.all(np.abs(mink_dot(N, f)) <= 1e-14 * size)
        assert np.all(np.abs(mink_dot(f, f) + det_sq) <= 1e-14 * size)

    @pytest.mark.parametrize("lam", [0.02, 0.3, 0.5, 0.95])
    def test_the_shifted_surface_is_at_distance_minus_q(self, stack, lam):
        grid, F, det_sq, size = stack
        q = np.log(lam)
        f = surface_and_normal(F)[0]
        shifted = surface_and_normal(shift_frame(ExtendedFrame(grid, F, SpectralParam(lam))).F)[0]
        assert np.all(np.abs(-mink_dot(f, shifted) - det_sq * np.cosh(q)) <= 1e-14 * size / lam)

    def test_a_wrong_turn_is_seen(self, stack):
        # the turn at a spectral value off by 1e-3 misses the route through
        # FD far above rounding, so the comparison above can fail
        grid, F, _, _ = stack
        frame = ExtendedFrame(grid, F, SpectralParam(0.5))
        want = surface_and_normal(shift_frame(frame).F)[0]
        got = _turn(*surface_and_normal(F), 0.5 * (1.0 + 1e-3))[0]
        assert np.max(np.abs(got - want)) > 1e-5 * np.max(np.abs(want))


class TestHyperbolicDistance:
    def test_coincident(self):
        assert hyperbolic_distance([0, 0, 0, 1.0], [0, 0, 0, 1.0]) == 0.0

    def test_along_axis(self):
        q = -0.3
        s = [0.0, 0.0, -np.sinh(q), np.cosh(q)]
        assert hyperbolic_distance([0, 0, 0, 1.0], s) == pytest.approx(0.3, abs=1e-14)

    def test_symmetric(self):
        p = [0.1, -0.2, 0.3, np.sqrt(1.14)]
        s = [0.0, 0.0, 0.75, 1.25]
        assert hyperbolic_distance(p, s) == pytest.approx(hyperbolic_distance(s, p))

    def test_round_off_clamped(self):
        d = hyperbolic_distance([0, 0, 0, 1.0], [0, 0, 0, 1.0 - 1e-10])
        assert d == 0.0

    def test_far_off_pair_rejected(self):
        with pytest.raises(InvalidInputError):
            hyperbolic_distance([0, 0, 0, 0.5], [0, 0, 0, 1.0])

    def test_clamped_at_the_bound_points_are_admitted_under(self):
        # H3SurfaceGrid admits points H3_TOL (about 2e-8) off the hyperboloid,
        # so coincident points may show -<p, s> that far below 1
        for below in (5e-9, 1.5e-8):
            assert hyperbolic_distance([0, 0, 0, 1.0], [0, 0, 0, 1.0 - below]) == 0.0

    def test_nan_point_rejected(self):
        with pytest.raises(InvalidInputError, match="not a hyperboloid pair"):
            hyperbolic_distance([0, 0, 0, 1.0], [0, 0, np.nan, 1.0])

    def test_one_far_off_pair_among_good_ones_rejected(self):
        p = np.zeros((4, 5))
        p[3] = 1.0
        s = p.copy()
        s[3, 2] = 0.5  # -<p, s> = 0.5 at one node only
        with pytest.raises(InvalidInputError, match="-<p, s> = 0.5, not >= 1"):
            hyperbolic_distance(p, s)


class TestEquidistance:
    def test_cylinder(self, cylinder_frame):
        p = surface_primary(cylinder_frame)
        s = surface_shifted(cylinder_frame)
        d = distance_grid(p, s)
        assert np.max(np.abs(d - np.log(2.0))) < 1e-9
        assert equidistance_defect(p, s) < 1e-9

    def test_grid_mismatch(self, cylinder_frame):
        p = surface_primary(cylinder_frame)
        other = surface_shifted(
            integrate_frame(cylinder_data(GridSpec(-1, 1, -1, 1, 21, 21)), SpectralParam(0.5))
        )
        for pair_check in (distance_grid, equidistance_defect, parallel_identity_defect):
            with pytest.raises(InvalidInputError, match="surface grids do not match"):
                pair_check(p, other)


class TestIsometryEquivariance:
    def test_left_gauge_moves_surface_by_isometry(self, cylinder_frame):
        rng = np.random.default_rng(3)
        G = random_unimodular(rng)
        moved = frame_left_multiply(cylinder_frame, G)
        X = to_hermitian(surface_primary(cylinder_frame).points)
        Y = to_hermitian(surface_primary(moved).points)
        np.testing.assert_allclose(Y, mul2(mul2(G, X), np.conj(G.T)), atol=1e-10)

    def test_distances_unchanged(self, cylinder_frame):
        rng = np.random.default_rng(14)
        moved = frame_left_multiply(cylinder_frame, random_unimodular(rng))
        d0 = distance_grid(surface_primary(cylinder_frame), surface_shifted(cylinder_frame))
        d1 = distance_grid(surface_primary(moved), surface_shifted(moved))
        np.testing.assert_allclose(d1, d0, atol=1e-10)
