"""Tour of the Hermitian matrix model of hyperbolic 3-space.

A point (x1, x2, x3, x0) of Minkowski 4-space is stored as the Hermitian
matrix

    X = [[x0 + x3, x1 - i x2],
         [x1 + i x2, x0 - x3]]

and the hyperboloid x0 > 0, <X, X> = -1 is exactly the set F F*, with F
running over unimodular 2x2 complex matrices.  Run this file top to bottom;
it prints what it checks.
"""

import numpy as np

from cmclab import from_hermitian, h3_defect, poincare_ball, to_hermitian
from cmclab.minkowski import mink_dot
from cmclab.reference import conj_transpose


def inner(X, Y):
    """The Minkowski product of two Hermitian matrices: the map to
    coordinates is linear, so it is the coordinate form of their images."""
    return mink_dot(from_hermitian(X), from_hermitian(Y))


rng = np.random.default_rng(0)

# The base point of the hyperboloid is the identity matrix.
origin = np.array([0.0, 0.0, 0.0, 1.0])
X = to_hermitian(origin)
print("origin as a matrix:\n", X)
print("self inner product:", inner(X, X))

# Round trip: coordinates -> matrix -> coordinates is exact.
p = rng.normal(size=4)
assert np.allclose(from_hermitian(to_hermitian(p)), p)
print("coordinate round trip ok")

# Any unimodular F gives a point of the hyperboloid.
A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
F = A / np.sqrt(np.linalg.det(A))
point = from_hermitian(F @ conj_transpose(F))
print("random hyperboloid point:", point)
print("hyperboloid defect:", h3_defect(point))

# The action X -> G X G* by unimodular G preserves the inner product,
# so it moves hyperboloid points to hyperboloid points isometrically.
B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
G = B / np.sqrt(np.linalg.det(B))
Y = to_hermitian(rng.normal(size=4))
Xg = G @ to_hermitian(p) @ conj_transpose(G)
Yg = G @ Y @ conj_transpose(G)
print(
    "inner product before/after the action:",
    inner(to_hermitian(p), Y),
    inner(Xg, Yg),
)

# For pictures the hyperboloid is projected into the unit ball:
# b = (x1, x2, x3)/(1 + x0).  The origin lands at the center.
print("origin in the ball:", poincare_ball(origin))
print("random point in the ball:", poincare_ball(point), "norm", np.linalg.norm(poincare_ball(point)))
