"""Measuring the surfaces and running the full verification report.

The measured first fundamental form of the primary surface should be a
homothety of the Lawson-partner data of the dual surface, and the shifted
surface should do the same with the roles of f and its dual exchanged.
The report measures each side against its closed form, at O(h^4) on the
actual integrated surfaces.  The closed form equals the Lawson partner's
data up to the homothety by an identity of (u, Q, H, lambda) alone, which
holds to rounding error for any data; `cmclab.reference` holds that
partner, and the tests check the identity.

The Hopf value and the mean curvature are compared with their signs: the
shifted side's are the primary side's negated, and a side judged with the
other side's sign reads 2 in both matches.  Each report line states one
fact; the identities of the normal and of the parallel pair hold for any
frame and are tested, not reported (see demo 04), and the spread of Qm
and Hm is bounded by their matches.
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
from cmclab.measure import closed_form, homothety_scale, hopf_match, mean_match
from cmclab.reference import closed_form_max_diff, dual_data, lawson_data

sp = SpectralParam(0.5)
data = cylinder_data(GridSpec(-1, 1, -1, 1, 101, 101))
frame = integrate_frame(data, sp)

# Direct measurement: metric coefficients, Hopf quantity, mean curvature,
# against the normal the surface carries.  The arrays have the grid's
# shape, so the centre is entry [50, 50].
m = measure(surface_primary(frame))
print("measured E (center):", m.E[50, 50])
print("measured Qm (center):", m.Qm[50, 50])
print("measured Hm (center):", m.Hm[50, 50])

c = closed_form(data, sp, 1)  # sign +1: the primary side
print("closed-form metric factor:", float(c.metric_factor[0, 0]))
print("closed-form hopf:", c.hopf, " mean:", c.mean)

# The signed matches: small against the primary side's own targets, 2
# against the shifted side's, which carry the opposite sign.
other = closed_form(data, sp, -1)
print("hopf/mean match, own sign:  ", hopf_match(m, c), mean_match(m, c))
print("hopf/mean match, other sign:", hopf_match(m, other), mean_match(m, other))

# The homothety scale that links the Lawson data to the closed form: the
# dual's partner at scale s is the primary side's target to rounding.
s = homothety_scale(data.H, sp)
print("homothety scale s:", s)
lawson = lawson_data(dual_data(data), s)
print("Lawson data against the closed form:", closed_form_max_diff(lawson, c))

# The one-call version: every check, one record each, pass/fail per line.
report = verify_theorem(data, frame)
print()
print(render_text(report))
