"""Negative controls: a measured check must see a target that is off.

The closed form is built at lam (1 + 1e-3), a planted 0.1 % error in the
spectral value.  Each match must read it far above its honest error, the
discretisation error of the same measurement against the true closed form;
otherwise no tolerance can tell a wrong surface from a coarse grid.

The two sides are also judged with each other's sign.  On the cylinder the
metric targets of the two sides agree, so only the signed Hopf and mean
matches can see the swap.
"""

from dataclasses import replace

import pytest

from cmclab.frames import SpectralParam, integrate_frame
from cmclab.measure import closed_form, hopf_match, mean_match, measure, metric_match
from cmclab.report import default_tolerances
from cmclab.surface_data import cylinder_data, delaunay_data
from cmclab.surfaces import SIDES, surface_primary
from cmclab.verify import _report, evaluate

from conftest import square_grid


@pytest.mark.parametrize(
    "build",
    [cylinder_data, lambda g: delaunay_data(g, 0.5, 1.0, 0.0)],
    ids=["cylinder", "delaunay"],
)
def test_planted_spectral_error_stands_out(build):
    data = build(square_grid(201))
    frame = integrate_frame(data, SpectralParam(0.5))
    m = measure(surface_primary(frame))
    honest = closed_form(data, frame.spectral, 1)
    planted = closed_form(data, SpectralParam(0.5 * (1.0 + 1e-3)), 1)
    for check in (metric_match, hopf_match, mean_match):
        assert check(m, planted) >= 300.0 * check(m, honest), check.__name__


@pytest.mark.parametrize(
    "build",
    [cylinder_data, lambda g: delaunay_data(g, 0.5, 0.3, 0.0)],
    ids=["cylinder", "delaunay-u0-0.3"],
)
def test_swapped_side_signs_fail_the_hopf_and_mean_matches(build):
    data = build(square_grid(101))
    frame = integrate_frame(data, SpectralParam(0.5))
    primary, shifted = evaluate(frame)
    swapped = (replace(primary, sign=shifted.sign), replace(shifted, sign=primary.sign))
    report = _report(data, frame, swapped, default_tolerances())
    for name in ("hopf_match", "mean_match"):
        for side in SIDES:
            record = report.record(f"{name}_{side}")
            assert not record.passed
            assert record.value == pytest.approx(2.0, abs=1e-3), record.name

