"""Integrating the moving-frame system and checking it against a closed form.

The frame F solves F_z = F U, F_zbar = F V with the coefficient matrices
built from (u, Q, H) and a spectral value lambda in (0, 1).  On cylinder
data the solution is known in closed form, which makes a sharp oracle for
the grid integrator.
"""

import numpy as np

from cmclab import (
    GridSpec,
    SpectralParam,
    cylinder_data,
    delaunay_data,
    integrate_frame,
)
from cmclab.reference import cylinder_frame_lax_gauge, lax_matrices, two_path_discrepancy

sp = SpectralParam(0.5)
print("lambda:", sp.lam, " q = ln lambda:", sp.q)

# The coefficient matrices at the cylinder values u = 0, Q = 1/4, H = 1/2.
U, V = lax_matrices(0.0, 0.0, 0.0, 0.25, 0.5, sp.lam)
print("U =\n", U)
print("V =\n", V)
print("both traceless:", abs(np.trace(U)) + abs(np.trace(V)))

# Integrate over the grid.  The scheme is a fourth-order Magnus sweep: one
# row through the base point, then every column.  Each cell's transition
# exp(Omega) has determinant one, so det F drifts by round-off only.
grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 101, 101)
data = cylinder_data(grid)
frame = integrate_frame(data, sp)
# F has shape (2, 2, nx, ny): F[:, :, i, j] is the frame at node (i, j).
i0, j0 = frame.grid.center_index()
print("frame at the base point:\n", frame.F[:, :, i0, j0])
print("worst |det F - 1| on the grid:", frame.max_det_drift)

# Compare with the closed-form cylinder frame.  A is constant on the
# cylinder, where each Magnus cell is exp(hA) itself: the error is round-off.
X, Y = grid.mesh()
F_exact = cylinder_frame_lax_gauge(X + 1j * Y, sp.lam)
err = np.max(np.abs(frame.F - F_exact))
print("max error against the closed form:", err)


# Where A does not commute with itself (Delaunay u0 = 1), halving h should
# shrink the error about sixteen times (order four); each error is taken
# against a run with four times the cells per axis.
def delaunay_frame(n):
    box = GridSpec(0.2, 1.4, -0.3, 0.9, n, n)
    return integrate_frame(delaunay_data(box, 0.5, 1.0, 0.0), sp).F


errs = [
    float(np.max(np.abs(delaunay_frame(n) - delaunay_frame(4 * n - 3)[:, :, ::4, ::4])))
    for n in (25, 49)
]
print("Delaunay errors at h and h/2:", errs, " ratio:", errs[0] / errs[1])

# Integrating row-first or column-first must agree when the data is
# compatible; the discrepancy is a direct compatibility probe.
print("two-path discrepancy:", two_path_discrepancy(data, sp))
