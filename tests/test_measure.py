"""Tests for discrete measurement and the closed-form target data."""

import re

import numpy as np
import pytest

from cmclab.errors import InvalidInputError, NumericalError
from cmclab.frames import ExtendedFrame, SpectralParam, integrate_frame
from cmclab.measure import (
    ClosedFormData,
    MeasuredData,
    closed_form,
    conformality_defect,
    homothety_scale,
    hopf_match,
    isothermic_defect,
    mean_match,
    measure,
    metric_match,
)
from cmclab.reference import closed_form_max_diff, dual_data, lawson_data
from cmclab.reference import numeric_normal_max_deviation
from cmclab.surface_data import (
    GridSpec,
    SurfaceData,
    cylinder_data,
    delaunay_data,
    max_gauss_residual,
)
from cmclab.surfaces import H3SurfaceGrid, surface_primary, surface_shifted
from cmclab.verify import evaluate, verify_theorem

from conftest import sinh_gordon_run, square_grid


def constant_data(u_value, Q, H, n=6):
    g = GridSpec(-1.0, 1.0, -1.0, 1.0, n, n)
    return SurfaceData(g, np.full((n, n), float(u_value)), Q=Q, H=H)


@pytest.fixture(scope="module")
def measured_cylinder(cyl_frame_101):
    return measure(surface_primary(cyl_frame_101)), measure(surface_shifted(cyl_frame_101))


class TestClosedForms:
    def test_cylinder_primary_values(self):
        c = closed_form(cylinder_data(GridSpec(-1, 1, -1, 1, 6, 6)), SpectralParam(0.5), 1)
        assert np.allclose(c.metric_factor, 0.140625, atol=1e-15)
        assert c.hopf == pytest.approx(0.09375, abs=1e-15)
        assert c.mean == pytest.approx(5.0 / 3.0, abs=1e-15)

    def test_cylinder_shifted_values(self):
        c = closed_form(cylinder_data(GridSpec(-1, 1, -1, 1, 6, 6)), SpectralParam(0.5), -1)
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
        # a NaN factor compares false both ways; it is refused as well
        with pytest.raises(InvalidInputError, match="metric factor must be positive"):
            ClosedFormData(np.array([[np.nan]]), 0.1, 1.0)
        # and so is one bad node among good ones
        factor = np.ones((3, 3))
        factor[1, 2] = 0.0
        with pytest.raises(InvalidInputError, match="metric factor must be positive"):
            ClosedFormData(factor, 0.1, 1.0)


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
        d = cylinder_data(GridSpec(-1, 1, -1, 1, 6, 6))
        L = lawson_data(dual_data(d), 0.375)
        assert np.allclose(L.metric_factor, 0.140625, atol=1e-15)
        assert L.hopf == pytest.approx(0.09375, abs=1e-16)
        assert L.mean == pytest.approx(5.0 / 3.0, abs=1e-15)

    def test_cylinder_f_side_with_negated_scale(self):
        d = cylinder_data(GridSpec(-1, 1, -1, 1, 6, 6))
        L = lawson_data(d, -0.375)
        assert np.allclose(L.metric_factor, 0.140625, atol=1e-15)
        assert L.hopf == pytest.approx(-0.09375, abs=1e-16)
        assert L.mean == pytest.approx(5.0 / 3.0, abs=1e-15)

    def test_flat_case_sides_coincide(self):
        d = cylinder_data(GridSpec(-1, 1, -1, 1, 6, 6))
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

    def test_constancy(self, measured_cylinder):
        # two lines in from every edge every stencil is central, so each node
        # carries the same error; the edge rows' other error constant moves
        # the whole-grid values, which test_fourth_order_convergence covers
        for m in measured_cylinder:
            inner = central_nodes(m)
            assert np.std(inner.Hm) < 1e-10
            assert np.std(np.abs(inner.Qm)) < 1e-10

    def test_signs_opposite(self, measured_cylinder, cyl_frame_101):
        # the sides' mean curvatures and Hopf values have opposite signs, and
        # the signed matches see it: against the other side's target each
        # reads 2 where it reads below 2.5e-4 against its own
        primary, shifted = measured_cylinder
        assert np.all(primary.Hm > 0.0) and np.all(shifted.Hm < 0.0)
        assert np.all(primary.Qm.real > 0.0) and np.all(shifted.Qm.real < 0.0)
        data = cylinder_data(cyl_frame_101.grid)
        for m, other_sign in ((primary, -1), (shifted, 1)):
            other = closed_form(data, SpectralParam(0.5), other_sign)
            assert mean_match(m, other) == pytest.approx(2.0, abs=5e-4)
            assert hopf_match(m, other) == pytest.approx(2.0, abs=5e-4)

    def test_interior_shape(self, measured_cylinder):
        m = measured_cylinder[0]
        grid = (m.grid.nx, m.grid.ny)
        assert all(a.shape == grid for a in (m.E, m.Fc, m.G, m.Qm, m.Hm))


def central_nodes(m):
    """The measured data of the nodes two lines in from every edge."""
    g, k = m.grid, (slice(2, -2), slice(2, -2))
    inner = GridSpec(
        g.x_min + 2 * g.hx, g.x_max - 2 * g.hx, g.y_min + 2 * g.hy, g.y_max - 2 * g.hy,
        g.nx - 4, g.ny - 4,
    )
    return MeasuredData(inner, m.E[k], m.Fc[k], m.G[k], m.Qm[k], m.Hm[k])


@pytest.mark.parametrize("lam", [0.5, 0.02])  # |hopf| 0.094 and 3.1
@pytest.mark.parametrize(
    "build",
    [cylinder_data, lambda g: delaunay_data(g, 0.5, 0.3, 0.0)],
    ids=["cylinder", "delaunay"],
)
def test_the_matches_bound_the_spread(build, lam):
    # std |Qm| <= max ||Qm| - |hopf|| <= max |Qm - hopf| and std Hm <= max |Hm - mean|:
    # each side's Hopf and mean matches bound the spread of Qm and Hm, which
    # the report therefore does not state on lines of its own
    data = build(square_grid(101))
    frame = integrate_frame(data, SpectralParam(lam))
    for side in evaluate(frame):
        m, closed = side.measured, closed_form(data, frame.spectral, side.sign)
        assert np.std(np.abs(m.Qm)) <= hopf_match(m, closed) * abs(closed.hopf)
        assert np.std(m.Hm) <= mean_match(m, closed) * abs(closed.mean)


@pytest.mark.parametrize(
    "build",
    [
        cylinder_data,
        lambda g: delaunay_data(g, 0.5, 1.0, 0.0),
        lambda g: delaunay_data(g, 0.5, -0.6, 0.0),
    ],
    ids=["cylinder", "delaunay", "delaunay-negative-u0"],
)
def test_fourth_order_convergence(build):
    # every measured match converges at fourth order on every family and on
    # both sides, the boundary nodes included: halving h shrinks each error
    # about 16x
    errors = []
    for n in (101, 201):
        data = build(GridSpec(-1.0, 1.0, -1.0, 1.0, n, n))
        frame = integrate_frame(data, SpectralParam(0.5))
        row = []
        for surface, sign in ((surface_primary(frame), 1), (surface_shifted(frame), -1)):
            m = measure(surface)
            c = closed_form(data, frame.spectral, sign)
            row += [metric_match(m, c), hopf_match(m, c), mean_match(m, c)]
        errors.append(np.array(row))
    ratios = errors[0] / errors[1]
    assert np.all((14.0 < ratios) & (ratios < 18.5)), ratios


@pytest.mark.parametrize("n", [51, 101, 201])
def test_sinh_gordon_data_passes_every_check(n):
    # every family has u_y = 0; this data's u_y is not, so the y terms of
    # the Lax matrix carry data
    report = verify_theorem(*sinh_gordon_run(n))
    assert report.overall_pass(), [r.name for r in report.records if not r.passed]


def test_sinh_gordon_data_converges_at_fourth_order():
    # the Gauss residual of u and each side's measured matches: 5.0e-5,
    # 3.1e-6 and 1.9e-7 for the residual at 51, 101 and 201 nodes, and
    # 3.6e-4, 2.3e-5 and 1.5e-6 for the shifted Hopf match
    errors = []
    for n in (101, 201):
        data, frame = sinh_gordon_run(n)
        row = [max_gauss_residual(data)]
        for side in evaluate(frame):
            c = closed_form(data, frame.spectral, side.sign)
            row += [check(side.measured, c) for check in (metric_match, hopf_match, mean_match)]
        errors.append(np.array(row))
    ratios = errors[0] / errors[1]
    assert np.all((14.0 < ratios) & (ratios < 18.5)), ratios


GRID6 = GridSpec(-1.0, 1.0, -1.0, 1.0, 6, 6)
ORIGIN = np.array([0.0, 0.0, 0.0, 1.0])  # a point of H^3
POINTS6 = np.broadcast_to(ORIGIN[:, None, None], (4, 6, 6))
NORMAL6 = np.zeros((4, 6, 6))


@pytest.mark.parametrize(
    "build, good, bad, attr",
    [
        (lambda a: SurfaceData(GRID6, a, Q=0.25, H=0.5), np.zeros((6, 6)), np.zeros((6, 5)), "u"),
        (
            lambda a: ExtendedFrame(GRID6, a, SpectralParam(0.5)),
            np.zeros((2, 2, 6, 6)),
            np.zeros((2, 2, 5, 6)),
            "F",
        ),
        (
            lambda a: H3SurfaceGrid(GRID6, a, NORMAL6, SpectralParam(0.5), "primary"),
            POINTS6,
            np.broadcast_to(ORIGIN[:, None, None], (4, 6, 5)),
            "points",
        ),
        (
            lambda a: H3SurfaceGrid(GRID6, POINTS6, a, SpectralParam(0.5), "primary"),
            NORMAL6,
            np.zeros((4, 5, 6)),
            "normal",
        ),
        (
            lambda a: MeasuredData(GRID6, a, a, a, a, a),
            np.ones((6, 6)),
            np.ones((4, 4)),  # the interior of the grid is refused
            "Qm",
        ),
    ],
    ids=["SurfaceData", "ExtendedFrame", "H3SurfaceGrid", "H3SurfaceGrid-normal", "MeasuredData"],
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
        m = measure(surface_primary(del_frame_101))
        c = closed_form(del_data_101, SpectralParam(0.5), 1)
        assert np.std(m.Hm) < 1e-4
        assert mean_match(m, c) < 5e-3
        assert metric_match(m, c) < 5e-3
        assert hopf_match(m, c) < 5e-3

    def test_numeric_normal_agrees(self, del_frame_101):
        assert numeric_normal_max_deviation(surface_primary(del_frame_101)) < 2e-4

    def test_numeric_normal_fourth_order(self, del_frame_101, del_frame_201):
        # f_x and f_y come from the fourth-order kernel: 1.9e-8 at 101 x 101
        # and 1.1e-9 at 201 x 201, a ratio of 16.2
        devs = [
            numeric_normal_max_deviation(surface_primary(fr))
            for fr in (del_frame_101, del_frame_201)
        ]
        assert 14.0 < devs[0] / devs[1] < 18.5


class TestMeasureValidation:
    def test_non_conformal_parametrization_flagged(self):
        # sheared geodesic strip: f_y parallel to f_x, so Fc/E = 1/2
        g = GridSpec(-1.0, 1.0, -1.0, 1.0, 9, 9)
        X, Y = g.mesh()
        v = X + 0.5 * Y
        pts = np.stack([np.sinh(v), np.zeros_like(v), np.zeros_like(v), np.cosh(v)])
        from cmclab.surfaces import H3SurfaceGrid
        from cmclab.frames import SpectralParam

        n = np.broadcast_to(np.array([0.0, 0.0, 1.0, 0.0])[:, None, None], (4, 9, 9))
        s = H3SurfaceGrid(g, pts, n, SpectralParam(0.5), "primary")
        assert conformality_defect(measure(s)) == pytest.approx(0.5, abs=1e-3)

    def test_non_positive_metric_refused(self):
        # geodesic strip along v = y + x^2: f_x vanishes on the column x = 0,
        # grid node 4, so E = 0 there and every ratio over E is undefined; the
        # first such node is on the edge line j = 0
        g = GridSpec(-1.0, 1.0, -1.0, 1.0, 9, 9)
        X, Y = g.mesh()
        v = Y + X**2
        pts = np.stack([np.sinh(v), np.zeros_like(v), np.zeros_like(v), np.cosh(v)])
        n = np.broadcast_to(np.array([0.0, 0.0, 1.0, 0.0])[:, None, None], (4, 9, 9))
        s = H3SurfaceGrid(g, pts, n, SpectralParam(0.5), "primary")
        with pytest.raises(NumericalError, match=r"E = 0 at grid node \(4, 0\) is not above"):
            measure(s)


# a varying metric E, far from 1 at every node, so a match that dropped its
# division by the target would read another value
E6 = 1.5 + 0.1 * np.arange(36.0).reshape(6, 6)
BAD = (2, 3)  # the one node a test plants off
HOPF, MEAN = -0.3, -1.7


def side_data(**planted):
    """MeasuredData on GRID6 that meets the targets `targets()` exactly:
    conformal (Fc = 0), isothermic (G = E), Qm = HOPF and Hm = MEAN, with
    the given arrays in place of those."""
    arrays = {
        "E": E6, "Fc": np.zeros((6, 6)), "G": E6,
        "Qm": np.full((6, 6), complex(HOPF)), "Hm": np.full((6, 6), MEAN),
    }
    return MeasuredData(GRID6, **{**arrays, **planted})


def targets(metric=1.0, value=1.0):
    """The closed form `side_data()` meets, its metric factor scaled by
    `metric` and its Hopf value and mean curvature by `value`."""
    return ClosedFormData(metric * E6, value * HOPF, value * MEAN)


def one_off(a, factor):
    """`a` with the node BAD multiplied by `factor`."""
    a = a.copy()
    a[BAD] *= factor
    return a


class TestReducers:
    """Each check's reduction over the grid: one bad node among good ones
    sets a max-reduced value, and a relative match divides by its target."""

    def test_exact_data_reads_zero(self):
        m, c = side_data(), targets()
        for check in (metric_match, hopf_match, mean_match):
            assert check(m, c) == 0.0
        assert conformality_defect(m) == 0.0 and isothermic_defect(m) == 0.0

    @pytest.mark.parametrize(
        "check, planted",
        [
            (metric_match, {"E": one_off(E6, 1.0 + 1e-3)}),
            (hopf_match, {"Qm": one_off(np.full((6, 6), complex(HOPF)), 1.0 + 1e-3)}),
            (mean_match, {"Hm": one_off(np.full((6, 6), MEAN), 1.0 + 1e-3)}),
        ],
        ids=["metric", "hopf", "mean"],
    )
    def test_one_bad_node_sets_a_match(self, check, planted):
        assert check(side_data(**planted), targets()) == pytest.approx(1e-3, rel=1e-9)

    def test_one_bad_node_sets_the_conformality(self):
        Fc = np.zeros((6, 6))
        Fc[BAD] = -1e-3 * E6[BAD]
        assert conformality_defect(side_data(Fc=Fc)) == pytest.approx(1e-3, rel=1e-12)

    def test_one_bad_node_sets_the_isothermic_defect(self):
        m = side_data(G=one_off(E6, 1.0 - 1e-3))
        assert isothermic_defect(m) == pytest.approx(1e-3, rel=1e-9)

    @pytest.mark.parametrize("scale", [2.0, 0.5])
    def test_a_scaled_metric_target_reads_its_relative_gap(self, scale):
        # E = mf / scale at every node: |1 - scale| / scale
        got = metric_match(side_data(), targets(metric=scale))
        assert got == pytest.approx(abs(1.0 - scale) / scale, rel=1e-12)

    @pytest.mark.parametrize("scale", [2.0, 0.5, -1.0])
    def test_a_scaled_hopf_or_mean_target_reads_its_relative_gap(self, scale):
        # a target scaled by -1 is the other side's sign: the match reads 2
        for check in (hopf_match, mean_match):
            got = check(side_data(), targets(value=scale))
            assert got == pytest.approx(abs(1.0 - scale) / abs(scale), rel=1e-12)

    def test_hopf_match_sees_the_phase(self):
        # |Qm| = |hopf| at every node, but one node's Qm is turned by 90 degrees
        Qm = np.full((6, 6), complex(HOPF))
        Qm[BAD] = 1j * HOPF
        assert hopf_match(side_data(Qm=Qm), targets()) == pytest.approx(np.sqrt(2.0))

    def test_closed_form_gap_is_set_by_one_bad_node(self):
        a = targets()
        b = ClosedFormData(one_off(E6, 1.25), HOPF, MEAN)
        assert closed_form_max_diff(a, b) == pytest.approx(0.25 * E6[BAD], rel=1e-12)

    @pytest.mark.parametrize(
        "other, gap",
        [
            (ClosedFormData(E6, 1.25 * HOPF, MEAN), 0.25 * abs(HOPF)),
            (ClosedFormData(E6, HOPF, 1.25 * MEAN), 0.25 * abs(MEAN)),
        ],
        ids=["hopf", "mean"],
    )
    def test_closed_form_gap_is_the_largest_part(self, other, gap):
        # one part differs and the other two agree: the gap is that part's
        assert closed_form_max_diff(targets(), other) == pytest.approx(gap, rel=1e-12)
