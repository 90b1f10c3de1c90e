"""The two parallel surfaces a single frame produces.

Evaluating the frame at lambda and at the shifted argument (multiplying by
D = diag(lambda^{-1/2}, lambda^{1/2}) on the right) gives two surfaces
f = F F* and f_shift = (F D)(F D)*.  They satisfy the exact pointwise
identity

    f_shift = cosh(q) f - sinh(q) N,    q = ln lambda,

with N the unit normal of f, which forces the hyperbolic distance between
corresponding points to be -q everywhere.  Each surface carries its normal
(`prim.normal`), built in the same pass over the frame as its points.
"""

import math

from cmclab import (
    GridSpec,
    SpectralParam,
    delaunay_data,
    distance_grid,
    equidistance_defect,
    integrate_frame,
    surface_primary,
    surface_shifted,
)
from cmclab.surfaces import parallel_identity_defect

sp = SpectralParam(0.5)
data = delaunay_data(GridSpec(-1, 1, -1, 1, 101, 101), H=0.5, u0=0.3, du0=0.0)
frame = integrate_frame(data, sp)

prim = surface_primary(frame)
shif = surface_shifted(frame)

# The identity is algebra, not analysis: it holds to rounding error on
# any unimodular frame, integrated or not.
print("parallel identity residual:", parallel_identity_defect(prim, shif))

d = distance_grid(prim, shif)
print("distance min/max:", float(d.min()), float(d.max()))
print("-q =", -sp.q, "=", math.log(2.0))
print("worst deviation from -q:", equidistance_defect(prim, shif))

# The same holds at other spectral values.
for lam in (0.3, 0.8):
    f = integrate_frame(data, SpectralParam(lam))
    dev = equidistance_defect(surface_primary(f), surface_shifted(f))
    print(f"lambda = {lam}: distance deviation {dev:.3e}, target -q = {-math.log(lam):.6f}")

# Both surfaces live on the hyperboloid sheet x0 > 0.
# points have shape (4, nx, ny): points[3] is the grid of x0 coordinates
print("x0 range primary:", float(prim.points[3].min()), float(prim.points[3].max()))
print("x0 range shifted:", float(shif.points[3].min()), float(shif.points[3].max()))
