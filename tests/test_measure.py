"""Tests for discrete measurement and the closed-form target data."""

import re

import numpy as np
import pytest

from cmclab.errors import InvalidInputError
from cmclab.frames import ExtendedFrame, SpectralParam, integrate_frame, shift_frame
from cmclab.measure import (
    ClosedFormData,
    MeasuredData,
    closed_form,
    closed_form_max_diff,
    conformality_defect,
    homothety_scale,
    hopf_constancy,
    hopf_match,
    hopf_phase_defect,
    isothermic_defect,
    lawson_data,
    mean_constancy,
    mean_match,
    mean_sign,
    measure,
    metric_match,
    numeric_normal_max_deviation,
)
from cmclab.surface_data import GridSpec, SurfaceData, cylinder_data, delaunay_data, dual_data
from cmclab.surfaces import (
    H3SurfaceGrid,
    NormalField,
    normal_field,
    surface_primary,
    surface_shifted,
)


def constant_data(u_value, Q, H, n=5):
    g = GridSpec(-1.0, 1.0, -1.0, 1.0, n, n)
    return SurfaceData(g, np.full((n, n), float(u_value)), Q=Q, H=H)


@pytest.fixture(scope="module")
def measured_cylinder(cyl_frame_101):
    primary = measure(surface_primary(cyl_frame_101), normal_field(cyl_frame_101))
    shifted_frame = shift_frame(cyl_frame_101)
    shifted = measure(surface_shifted(cyl_frame_101), normal_field(shifted_frame))
    return primary, shifted


class TestClosedForms:
    def test_cylinder_primary_values(self):
        c = closed_form(cylinder_data(GridSpec(-1, 1, -1, 1, 5, 5)), SpectralParam(0.5), 1)
        assert np.allclose(c.metric_factor, 0.140625, atol=1e-15)
        assert c.hopf == pytest.approx(0.09375, abs=1e-15)
        assert c.mean == pytest.approx(5.0 / 3.0, abs=1e-15)

    def test_cylinder_shifted_values(self):
        c = closed_form(cylinder_data(GridSpec(-1, 1, -1, 1, 5, 5)), SpectralParam(0.5), -1)
        assert np.allclose(c.metric_factor, 0.140625, atol=1e-15)
        assert c.hopf == pytest.approx(-0.09375, abs=1e-15)
        assert c.mean == pytest.approx(-5.0 / 3.0, abs=1e-15)

    def test_unknown_sign_rejected(self):
        d = constant_data(0.0, 0.25, 0.5)
        for sign in (0, 2, 0.5, -1.5):
            with pytest.raises(InvalidInputError, match="side sign must be"):
                closed_form(d, SpectralParam(0.5), sign)

    def test_dual_swaps_metrics(self):
        d = constant_data(0.4, 0.25, 0.5)
        sp = SpectralParam(0.5)
        p, s = closed_form(d, sp, 1), closed_form(d, sp, -1)
        pd = closed_form(dual_data(d), sp, 1)
        sd = closed_form(dual_data(d), sp, -1)
        np.testing.assert_allclose(pd.metric_factor, s.metric_factor, rtol=1e-15)
        np.testing.assert_allclose(sd.metric_factor, p.metric_factor, rtol=1e-15)
        assert pd.hopf == p.hopf and pd.mean == p.mean

    def test_shifted_negates_hopf_and_mean(self):
        d = constant_data(-0.2, 0.3, 0.6)
        sp = SpectralParam(0.7)
        p, s = closed_form(d, sp, 1), closed_form(d, sp, -1)
        assert s.hopf == pytest.approx(-p.hopf, abs=1e-15)
        assert s.mean == pytest.approx(-p.mean, abs=1e-15)

    def test_metric_ratio(self):
        d = constant_data(0.3, 0.25, 0.5)
        sp = SpectralParam(0.5)
        p, s = closed_form(d, sp, 1), closed_form(d, sp, -1)
        np.testing.assert_allclose(
            s.metric_factor / p.metric_factor, np.exp(4 * d.u), rtol=1e-13
        )

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(InvalidInputError):
            ClosedFormData(np.zeros((3, 3)), 0.1, 1.0)


class TestHomothetyScale:
    def test_value(self):
        assert homothety_scale(0.5, SpectralParam(0.5)) == pytest.approx(0.375, abs=1e-16)

    def test_small_near_one(self):
        assert abs(homothety_scale(0.5, SpectralParam(0.999))) < 1e-3

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            homothety_scale(0.0, SpectralParam(0.5))


class TestLawsonData:
    def test_cylinder_dual_matches_primary_closed_form(self):
        d = cylinder_data(GridSpec(-1, 1, -1, 1, 5, 5))
        L = lawson_data(dual_data(d), 0.375)
        assert np.allclose(L.metric_factor, 0.140625, atol=1e-15)
        assert L.hopf == pytest.approx(0.09375, abs=1e-16)
        assert L.mean == pytest.approx(5.0 / 3.0, abs=1e-15)

    def test_cylinder_f_side_with_negated_scale(self):
        d = cylinder_data(GridSpec(-1, 1, -1, 1, 5, 5))
        L = lawson_data(d, -0.375)
        assert np.allclose(L.metric_factor, 0.140625, atol=1e-15)
        assert L.hopf == pytest.approx(-0.09375, abs=1e-16)
        assert L.mean == pytest.approx(5.0 / 3.0, abs=1e-15)

    def test_flat_case_sides_coincide(self):
        d = cylinder_data(GridSpec(-1, 1, -1, 1, 5, 5))
        a = lawson_data(d, 0.375)
        b = lawson_data(dual_data(d), 0.375)
        assert closed_form_max_diff(a, b) == 0.0

    def test_zero_scale_rejected(self):
        with pytest.raises(InvalidInputError):
            lawson_data(constant_data(0.0, 0.25, 0.5), 0.0)

    def test_dual_partner_metric_is_bit_exact(self):
        # the partner of the dual reads e^{2(-u)}, which must round exactly
        # as e^{-2u} does on any u, not only on the golden 41 x 41 config
        rng = np.random.default_rng(7)
        g = GridSpec(-1.0, 1.0, -1.0, 1.0, 9, 9)
        for _ in range(50):
            d = SurfaceData(g, rng.uniform(-3.0, 3.0, (9, 9)), Q=0.25, H=0.5)
            s = rng.uniform(-2.0, 2.0)
            got = lawson_data(dual_data(d), s).metric_factor
            want = s**2 * np.exp(-2.0 * d.u)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_exact_identity_on_normalized_tuples(self):
        # the dual's Lawson data with the homothety scale reproduces the
        # primary closed form; that of f with the negated scale reproduces
        # the shifted closed form up to the documented mean sign
        rng = np.random.default_rng(21)
        for _ in range(25):
            Q = rng.uniform(0.1, 1.5)
            lam = rng.uniform(0.1, 0.9)
            d = constant_data(rng.uniform(-1.0, 1.0), Q, 2.0 * Q)
            s = homothety_scale(d.H, SpectralParam(lam))
            assert closed_form_max_diff(
                lawson_data(dual_data(d), s), closed_form(d, SpectralParam(lam), 1)
            ) <= 1e-12
            assert closed_form_max_diff(
                lawson_data(d, -s), closed_form(d, SpectralParam(lam), -1)
            ) <= 1e-12

    def test_metric_forced_scale_breaks_mean_without_normalization(self):
        # forcing the metric identity fixes s = Q(1/lam - lam); the mean
        # identity then holds only under H = 2Q
        lam = 0.5
        bad = constant_data(0.2, 0.25, 0.9)  # H != 2Q
        s_metric = bad.Q * (1.0 / lam - lam)
        L = lawson_data(dual_data(bad), s_metric)
        C = closed_form(bad, SpectralParam(lam), 1)
        assert np.max(np.abs(L.metric_factor - C.metric_factor)) <= 1e-15
        assert abs(abs(L.mean) - abs(C.mean)) > 0.1


class TestMeasureCylinder:
    def test_primary_matches_closed_form(self, measured_cylinder, cyl_frame_101):
        m, _ = measured_cylinder
        c = closed_form(cylinder_data(cyl_frame_101.grid), SpectralParam(0.5), 1)
        assert metric_match(m, c) < 3e-4
        assert hopf_match(m, c) < 1e-4
        assert mean_match(m, c) < 2.5e-4

    def test_shifted_matches_closed_form(self, measured_cylinder, cyl_frame_101):
        _, m = measured_cylinder
        c = closed_form(cylinder_data(cyl_frame_101.grid), SpectralParam(0.5), -1)
        assert metric_match(m, c) < 3e-4
        assert hopf_match(m, c) < 1e-4
        assert mean_match(m, c) < 2.5e-4

    def test_conformal_and_isothermic(self, measured_cylinder):
        for m in measured_cylinder:
            assert conformality_defect(m) < 1e-12
            assert isothermic_defect(m) < 3.5e-4
            assert not m.conformal_warning

    def test_constancy(self, measured_cylinder):
        for m in measured_cylinder:
            assert mean_constancy(m) < 1e-10
            assert hopf_constancy(m) < 1e-10
            assert hopf_phase_defect(m) < 1e-10

    def test_signs_opposite(self, measured_cylinder):
        primary, shifted = measured_cylinder
        assert mean_sign(primary) == 1.0
        assert mean_sign(shifted) == -1.0

    def test_interior_shape(self, measured_cylinder):
        m = measured_cylinder[0]
        interior = (m.grid.nx - 2, m.grid.ny - 2)
        assert all(a.shape == interior for a in (m.E, m.Fc, m.G, m.Qm, m.Hm))


@pytest.mark.parametrize(
    "build",
    [cylinder_data, lambda g: delaunay_data(g, 0.5, 1.0, 0.0)],
    ids=["cylinder", "delaunay"],
)
def test_second_order_convergence(build):
    # every measured match converges at second order on every family, the
    # boundary nodes included: halving h shrinks each error about 4x
    errors = []
    for n in (51, 101):
        data = build(GridSpec(-1.0, 1.0, -1.0, 1.0, n, n))
        frame = integrate_frame(data, SpectralParam(0.5))
        m = measure(surface_primary(frame), normal_field(frame))
        c = closed_form(data, frame.spectral, 1)
        errors.append(np.array([metric_match(m, c), hopf_match(m, c), mean_match(m, c)]))
    ratios = errors[0] / errors[1]
    assert np.all((3.5 < ratios) & (ratios < 4.5)), ratios


GRID5 = GridSpec(-1.0, 1.0, -1.0, 1.0, 5, 5)
ORIGIN = np.array([0.0, 0.0, 0.0, 1.0])  # a point of H^3


@pytest.mark.parametrize(
    "build, good, bad, attr",
    [
        (lambda a: SurfaceData(GRID5, a, Q=0.25, H=0.5), np.zeros((5, 5)), np.zeros((5, 4)), "u"),
        (
            lambda a: ExtendedFrame(GRID5, a, SpectralParam(0.5)),
            np.zeros((5, 5, 2, 2)),
            np.zeros((4, 5, 2, 2)),
            "F",
        ),
        (
            lambda a: H3SurfaceGrid(GRID5, a, SpectralParam(0.5), "primary"),
            np.broadcast_to(ORIGIN, (5, 5, 4)),
            np.broadcast_to(ORIGIN, (5, 4, 4)),
            "points",
        ),
        (lambda a: NormalField(GRID5, a), np.zeros((5, 5, 4)), np.zeros((4, 5, 4)), "vectors"),
        # measured data lives on the interior nodes; the full grid is refused
        (
            lambda a: MeasuredData(GRID5, a, a, a, a, a, conformal_warning=False),
            np.ones((3, 3)),
            np.ones((5, 5)),
            "Qm",
        ),
    ],
    ids=["SurfaceData", "ExtendedFrame", "H3SurfaceGrid", "NormalField", "MeasuredData"],
)
def test_container_checks_shape_and_locks(build, good, bad, attr):
    with pytest.raises(InvalidInputError, match=re.escape(f"has shape {bad.shape}, expected")):
        build(bad)
    held = getattr(build(good), attr)
    assert held.shape == good.shape and not np.shares_memory(held, good)
    with pytest.raises(ValueError):
        held[(0,) * held.ndim] = 1.0


class TestMeasureDelaunay:
    def test_mean_constant_despite_varying_u(self, del_frame_101, del_data_101):
        m = measure(surface_primary(del_frame_101), normal_field(del_frame_101))
        c = closed_form(del_data_101, SpectralParam(0.5), 1)
        assert mean_constancy(m) < 1e-4
        assert mean_match(m, c) < 5e-3
        assert metric_match(m, c) < 5e-3
        assert hopf_match(m, c) < 5e-3

    def test_numeric_normal_agrees(self, del_frame_101):
        s = surface_primary(del_frame_101)
        assert numeric_normal_max_deviation(s, normal_field(del_frame_101)) < 2e-4

    def test_numeric_normal_second_order(self, del_frame_101, del_frame_201):
        devs = [
            numeric_normal_max_deviation(surface_primary(fr), normal_field(fr))
            for fr in (del_frame_101, del_frame_201)
        ]
        assert 3.0 < devs[0] / devs[1] < 5.0


class TestMeasureValidation:
    def test_grid_mismatch(self, cyl_frame_101, cyl_frame_51):
        with pytest.raises(InvalidInputError):
            measure(surface_primary(cyl_frame_101), normal_field(cyl_frame_51))

    def test_non_conformal_parametrization_flagged(self):
        # sheared geodesic strip: f_y parallel to f_x, so Fc/E = 1/2
        g = GridSpec(-1.0, 1.0, -1.0, 1.0, 9, 9)
        X, Y = g.mesh()
        v = X + 0.5 * Y
        pts = np.stack(
            [np.sinh(v), np.zeros_like(v), np.zeros_like(v), np.cosh(v)], axis=-1
        )
        from cmclab.surfaces import H3SurfaceGrid
        from cmclab.frames import SpectralParam

        s = H3SurfaceGrid(g, pts, SpectralParam(0.5), "primary")
        n = NormalField(g, np.tile([0.0, 0.0, 1.0, 0.0], (9, 9, 1)))
        m = measure(s, n)
        assert m.conformal_warning
