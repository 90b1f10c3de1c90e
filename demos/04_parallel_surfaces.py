"""The two parallel surfaces a single frame produces.

Evaluating the frame at lambda and at the shifted argument (multiplying by
D = diag(lambda^{-1/2}, lambda^{1/2}) on the right) gives two surfaces
f = F F* and f_shift = (F D)(F D)*.  Because D D* = cosh(q) I - sinh(q)
diag(1, -1), they satisfy the exact pointwise identity

    f_shift = cosh(q) f - sinh(q) N,    q = ln lambda,

with N = F diag(1, -1) F* the unit normal of f, for every 2x2 frame F.
cmclab builds the shifted side this way, by turning the primary side's
points and normal through q, so it never forms F D.  The route through
F D is kept as a reference (`cmclab.reference.frame_shifted_surface`),
and the demo compares the two.  The identity forces the hyperbolic
distance between corresponding points to be -q everywhere.
"""

import math

from cmclab import (
    GridSpec,
    SpectralParam,
    delaunay_data,
    integrate_frame,
    surface_primary,
    surface_shifted,
)
from cmclab.reference import (
    distance_grid,
    equidistance_defect,
    frame_shifted_surface,
    parallel_identity_defect,
)

sp = SpectralParam(0.5)
data = delaunay_data(GridSpec(-1, 1, -1, 1, 101, 101), H=0.5, u0=0.3, du0=0.0)
frame = integrate_frame(data, sp)

prim = surface_primary(frame)
shif = surface_shifted(frame)  # the primary side turned through q

# The identity is algebra, not analysis: (F D)(F D)*, formed from the
# shifted frame, meets cosh(q) f - sinh(q) N to rounding error on any
# frame, integrated or not.
through_fd = frame_shifted_surface(frame)
print("parallel identity residual, F D against the turn:",
      parallel_identity_defect(prim, through_fd))

d = distance_grid(prim, shif)
print("distance min/max:", float(d.min()), float(d.max()))
print("-q =", -sp.q, "=", math.log(2.0))
print("worst deviation from -q:", equidistance_defect(prim, shif))

# The same holds at other spectral values.
for lam in (0.3, 0.8):
    f = integrate_frame(data, SpectralParam(lam))
    p = surface_primary(f)
    res = parallel_identity_defect(p, frame_shifted_surface(f))
    dev = equidistance_defect(p, surface_shifted(f))
    print(f"lambda = {lam}: identity residual {res:.3e}, distance deviation {dev:.3e}, "
          f"target -q = {-math.log(lam):.6f}")

# Both surfaces live on the hyperboloid sheet x0 > 0.
# points have shape (4, nx, ny): points[3] is the grid of x0 coordinates
print("x0 range primary:", float(prim.points[3].min()), float(prim.points[3].max()))
print("x0 range shifted:", float(shif.points[3].min()), float(shif.points[3].max()))
