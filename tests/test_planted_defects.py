"""Negative controls: a measured check must see a target that is off.

The closed form is built at lam (1 + 1e-3), a planted 0.1 % error in the
spectral value.  Each match must read it far above its honest error, the
discretisation error of the same measurement against the true closed form;
otherwise no tolerance can tell a wrong surface from a coarse grid.
"""

import pytest

from cmclab.frames import SpectralParam, integrate_frame
from cmclab.measure import closed_form, hopf_match, mean_match, measure, metric_match
from cmclab.surface_data import cylinder_data, delaunay_data
from cmclab.surfaces import surface_primary

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
