"""Tests for the parallel surface pair, normals, and hyperbolic distance."""

from dataclasses import replace

import numpy as np
import pytest

from cmclab.errors import InternalConsistencyError, InvalidInputError
from cmclab.frames import (
    ExtendedFrame,
    SpectralParam,
    frame_left_multiply,
    integrate_frame,
    shift_frame,
)
from cmclab.minkowski import to_hermitian
from cmclab.surface_data import GridSpec, cylinder_data
from cmclab.surfaces import (
    H3SurfaceGrid,
    distance_grid,
    equidistance_defect,
    hyperbolic_distance,
    normal_field,
    normal_orthogonality_defect,
    normal_unit_defect,
    parallel_identity_defect,
    parallel_identity_residual,
    surface_primary,
    surface_shifted,
)


def identity_frame(n=5, lam=0.5):
    g = GridSpec(-1.0, 1.0, -1.0, 1.0, n, n)
    F = np.broadcast_to(np.eye(2, dtype=complex), (n, n, 2, 2)).copy()
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
        assert np.allclose(s.points, [0.0, 0.0, 0.0, 1.0])

    def test_identity_frame_shifted(self):
        # D D^bar-t = diag(1/lam, lam) = point (0, 0, -sinh q, cosh q)
        s = surface_shifted(identity_frame(lam=0.5))
        q = np.log(0.5)
        np.testing.assert_allclose(
            s.points[2, 2], [0.0, 0.0, -np.sinh(q), np.cosh(q)], atol=1e-15
        )

    def test_random_frames_land_on_hyperboloid(self):
        rng = np.random.default_rng(4)
        n = 5
        F = np.stack([random_unimodular(rng) for _ in range(n * n)]).reshape(n, n, 2, 2)
        fr = ExtendedFrame(GridSpec(-1, 1, -1, 1, n, n), F, SpectralParam(0.5))
        for s in (surface_primary(fr), surface_shifted(fr)):
            assert np.all(s.points[..., 3] > 0.0)
            sq = s.points
            norm = sq[..., 0] ** 2 + sq[..., 1] ** 2 + sq[..., 2] ** 2 - sq[..., 3] ** 2
            np.testing.assert_allclose(norm, -1.0, atol=1e-12)

    def test_negative_x0_is_internal_corruption(self):
        g = GridSpec(-1, 1, -1, 1, 5, 5)
        pts = np.tile([0.0, 0.0, 0.0, -1.0], (5, 5, 1))
        with pytest.raises(InternalConsistencyError):
            H3SurfaceGrid(g, pts, SpectralParam(0.5), "primary")

    def test_off_sheet_points_rejected(self):
        g = GridSpec(-1, 1, -1, 1, 5, 5)
        pts = np.tile([0.0, 0.0, 0.0, 2.0], (5, 5, 1))
        with pytest.raises(InvalidInputError):
            H3SurfaceGrid(g, pts, SpectralParam(0.5), "primary")

    def test_unknown_kind_rejected(self):
        g = GridSpec(-1, 1, -1, 1, 5, 5)
        pts = np.tile([0.0, 0.0, 0.0, 1.0], (5, 5, 1))
        with pytest.raises(InvalidInputError):
            H3SurfaceGrid(g, pts, SpectralParam(0.5), "other")


class TestNormalField:
    def test_identity_frame(self):
        n = normal_field(identity_frame())
        assert np.allclose(n.vectors, [0.0, 0.0, 1.0, 0.0])

    def test_unit_and_orthogonal(self, cylinder_frame):
        s = surface_primary(cylinder_frame)
        n = normal_field(cylinder_frame)
        assert normal_unit_defect(n) < 1e-9
        assert normal_orthogonality_defect(s, n) < 1e-9

    def test_shifted_normal(self, cylinder_frame):
        shifted = shift_frame(cylinder_frame)
        assert normal_unit_defect(normal_field(shifted)) < 1e-9
        assert (
            normal_orthogonality_defect(surface_shifted(cylinder_frame), normal_field(shifted))
            < 1e-9
        )

    def test_normal_matrices_hermitian(self):
        rng = np.random.default_rng(12)
        for _ in range(8):
            G = random_unimodular(rng)
            N = G @ np.diag([1.0, -1.0]) @ np.conj(G.T)
            assert np.max(np.abs(N - np.conj(N.T))) < 1e-13


class TestParallelIdentity:
    def test_cylinder_residual_at_round_off(self, cylinder_frame):
        assert parallel_identity_residual(cylinder_frame) < 1e-13

    def test_gauge_invariant(self, cylinder_frame):
        rng = np.random.default_rng(6)
        moved = frame_left_multiply(cylinder_frame, random_unimodular(rng))
        assert parallel_identity_residual(moved) < 1e-12

    @pytest.mark.parametrize("family", ["cyl_frame_101", "del_frame_101"])
    def test_planted_spectral_error_is_seen(self, request, family):
        # a shifted surface built at lam (1 + 1e-6) sits about 1e-6 off the
        # parallel one; both round-off checks must see that, far above their
        # tolerances, or they have become vacuous
        frame = request.getfixturevalue(family)
        wrong = replace(frame, spectral=SpectralParam(frame.lam * (1 + 1e-6)))
        primary, shifted = surface_primary(frame), surface_shifted(wrong)
        assert parallel_identity_defect(primary, normal_field(frame), shifted) > 1e-11
        assert equidistance_defect(primary, shifted) > 1e-9


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
        with pytest.raises(InvalidInputError):
            distance_grid(p, other)


class TestIsometryEquivariance:
    def test_left_gauge_moves_surface_by_isometry(self, cylinder_frame):
        rng = np.random.default_rng(3)
        G = random_unimodular(rng)
        moved = frame_left_multiply(cylinder_frame, G)
        X = to_hermitian(surface_primary(cylinder_frame).points)
        Y = to_hermitian(surface_primary(moved).points)
        np.testing.assert_allclose(Y, G @ X @ np.conj(G.T), atol=1e-10)

    def test_distances_unchanged(self, cylinder_frame):
        rng = np.random.default_rng(14)
        moved = frame_left_multiply(cylinder_frame, random_unimodular(rng))
        d0 = distance_grid(surface_primary(cylinder_frame), surface_shifted(cylinder_frame))
        d1 = distance_grid(surface_primary(moved), surface_shifted(moved))
        np.testing.assert_allclose(d1, d0, atol=1e-10)
