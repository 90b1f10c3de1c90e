"""Measuring the surfaces and running the full verification report.

The measured first fundamental form of the primary surface should be a
homothety of the Lawson-partner data of the dual surface, and the shifted
surface should do the same with the roles of f and its dual exchanged.
Closed forms make this checkable to rounding error; finite differences
make it checkable on the actual integrated surfaces at O(h^2).
"""

from cmclab import (
    GridSpec,
    SpectralParam,
    cylinder_data,
    integrate_frame,
    measure,
    render_text,
    surface_primary,
    verify_theorem,
)
from cmclab.measure import closed_form, homothety_scale

sp = SpectralParam(0.5)
data = cylinder_data(GridSpec(-1, 1, -1, 1, 101, 101))
frame = integrate_frame(data, sp)

# Direct measurement: metric coefficients, Hopf quantity, mean curvature,
# against the normal the surface carries.  The arrays have the grid's
# shape, so the centre is entry [50, 50].
m = measure(surface_primary(frame))
print("measured E (center):", m.E[50, 50])
print("measured |Qm| (center):", abs(m.Qm[50, 50]))
print("measured Hm (center):", m.Hm[50, 50])

c = closed_form(data, sp, 1)  # sign +1: the primary side
print("closed-form metric factor:", float(c.metric_factor[0, 0]))
print("closed-form |hopf|:", abs(c.hopf), " mean:", c.mean)

# The homothety scale that links the Lawson data to the measured data.
print("homothety scale s:", homothety_scale(data.H, sp))

# The one-call version: every check, one record each, pass/fail per line.
report = verify_theorem(data, frame)
print()
print(render_text(report))
