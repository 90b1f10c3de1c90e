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
    cylinder_frame_lax_gauge,
    integrate_frame,
    lax_matrices,
    two_path_discrepancy,
)

sp = SpectralParam(0.5)
print("lambda:", sp.lam, " q = ln lambda:", sp.q)

# The coefficient matrices at the cylinder values u = 0, Q = 1/4, H = 1/2.
U, V = lax_matrices(0.0, 0.0, 0.0, 0.25, 0.5, sp.lam)
print("U =\n", U)
print("V =\n", V)
print("both traceless:", abs(np.trace(U)) + abs(np.trace(V)))

# Integrate over the grid.  The scheme is a fourth-order sweep: one row
# through the base point, then every column.
grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 101, 101)
data = cylinder_data(grid)
frame = integrate_frame(data, sp)
# F has shape (2, 2, nx, ny): F[:, :, i, j] is the frame at node (i, j).
i0, j0 = frame.grid.center_index()
print("frame at the base point:\n", frame.F[:, :, i0, j0])
print("worst |det F - 1| on the grid:", frame.max_det_drift)

# Compare with the closed-form cylinder frame.
X, Y = grid.mesh()
F_exact = cylinder_frame_lax_gauge(X + 1j * Y, sp.lam)
err = np.max(np.abs(frame.F - F_exact))
print("max error against the closed form:", err)

# Halving h should shrink the error about sixteen times (order four).
fine = integrate_frame(cylinder_data(GridSpec(-1, 1, -1, 1, 201, 201)), sp)
Xf, Yf = fine.grid.mesh()
err_fine = np.max(np.abs(fine.F - cylinder_frame_lax_gauge(Xf + 1j * Yf, sp.lam)))
print("error at half the step:", err_fine, " ratio:", err / err_fine)

# Integrating row-first or column-first must agree when the data is
# compatible; the discrepancy is a direct compatibility probe.
print("two-path discrepancy:", two_path_discrepancy(data, sp))
