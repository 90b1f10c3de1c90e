"""The two built-in data families and the compatibility residual.

Surface data is a conformal factor u on a rectangular grid together with
the constants Q (Hopf coefficient) and H (mean curvature), normalized so
that H = 2Q.  The data is only usable if u solves the Gauss equation

    u_xx + u_yy - 4 Q^2 e^{-2u} + H^2 e^{2u} = 0

and the residual of that equation is the first thing every run checks.
"""

import numpy as np

from cmclab import (
    GridSpec,
    cylinder_data,
    delaunay_data,
    dual_data,
    gauss_residual,
    max_gauss_residual,
)
from cmclab.reference import delaunay_profile

grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 101, 101)

# Cylinder: u = 0 identically, so the residual vanishes to the last bit.
cyl = cylinder_data(grid)
print("cylinder residual:", max_gauss_residual(cyl))

# Delaunay-type data comes from the reduced equation along x,
#     u'' = 4 Q^2 e^{-2u} - H^2 e^{2u},
# integrated as an ODE and swept across the grid (constant in y).
dela = delaunay_data(grid, H=0.5, u0=0.3, du0=0.0)
print("delaunay u range:", float(dela.u.min()), "to", float(dela.u.max()))
print("delaunay residual:", max_gauss_residual(dela))

# The residual above is pure discretization error of the fourth-order
# Laplacian; halving h divides it by about sixteen.
fine = delaunay_data(GridSpec(-1, 1, -1, 1, 201, 201), H=0.5, u0=0.3, du0=0.0)
print("residual ratio under h-halving:", max_gauss_residual(dela) / max_gauss_residual(fine))

# The ODE conserves an energy; its drift is a sanity check on the
# integrator itself, independent of any grid.
prof = delaunay_profile(0.5, (0.0, 10.0), 0.3, 0.0)
print("profile energy drift over length 10:", prof.energy_drift())

# Christoffel duality flips the sign of u and keeps Q, H.  Applying it
# twice gives the data back, and the residual just changes sign where u
# enters oddly.
dd = dual_data(dual_data(dela))
assert np.array_equal(dd.u, dela.u)
print("dual involution ok")

r = gauss_residual(dela)
print("residual lives on every node, shape:", r.shape, "of grid", dela.u.shape)
