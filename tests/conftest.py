"""Shared fixtures: frames and surfaces reused across test modules, the
sinh-Gordon run whose u varies along y, and the plain formula of a frame's
surface and normal.

Session-scoped because integration on the finer grids is the expensive part
of the suite; everything downstream of a frame is cheap.  `edit_frame`
rewrites a stored frame file for the tests that refuse a bad one.
"""

import numpy as np
import pytest

from cmclab.frames import SpectralParam, integrate_frame
from cmclab.reference import sinh_gordon_data
from cmclab.surface_data import GridSpec, cylinder_data, delaunay_data


def square_grid(n: int) -> GridSpec:
    return GridSpec(-1.0, 1.0, -1.0, 1.0, n, n)


def sinh_gordon_run(n: int):
    """(data, frame) of the separated sinh-Gordon data at H 0.5, k 0.5 and
    lambda 0.5 on n x n nodes of [-1, 1] x [-0.7, 1.3]: u_y is nonzero
    there, and the box is off y = 0, the line u is mirrored in, on which a
    wrong sign of u_y would mirror away."""
    data = sinh_gordon_data(GridSpec(-1.0, 1.0, -0.7, 1.3, n, n), 0.5, 0.5)
    return data, integrate_frame(data, SpectralParam(0.5))


def plain_sides(F):
    """The surface and normal coordinates (x1, x2, x3, x0) of frames F by
    the plain real formula, in the grouping `minkowski.surface_and_normal`
    documents: the bits it must give, spelled here on a C-ordered copy."""
    F = np.ascontiguousarray(F)
    (ar, br), (cr, dr) = F.real
    (ai, bi), (ci, di) = F.imag
    aa, bb, cc, dd = ar * ar + ai * ai, br * br + bi * bi, cr * cr + ci * ci, dr * dr + di * di
    ca = cr * ar + ci * ai, ci * ar - cr * ai  # c conj(a)
    db = dr * br + di * bi, di * br - dr * bi  # d conj(b)
    top, bottom = aa + bb, cc + dd
    surface = (ca[0] + db[0], ca[1] + db[1], 0.5 * (top - bottom), 0.5 * (top + bottom))
    top, bottom = aa - bb, cc - dd
    normal = (ca[0] - db[0], ca[1] - db[1], 0.5 * (top - bottom), 0.5 * (top + bottom))
    return np.stack(surface), np.stack(normal)


@pytest.fixture(scope="session")
def sp_half():
    return SpectralParam(0.5)


@pytest.fixture(scope="session")
def cyl_frame_101(sp_half):
    return integrate_frame(cylinder_data(square_grid(101)), sp_half)


@pytest.fixture(scope="session")
def cyl_frame_201(sp_half):
    return integrate_frame(cylinder_data(square_grid(201)), sp_half)


@pytest.fixture(scope="session")
def del_data_101():
    return delaunay_data(square_grid(101), 0.5, 0.3, 0.0)


@pytest.fixture(scope="session")
def del_data_201():
    return delaunay_data(square_grid(201), 0.5, 0.3, 0.0)


@pytest.fixture(scope="session")
def del_frame_101(del_data_101, sp_half):
    return integrate_frame(del_data_101, sp_half)


@pytest.fixture(scope="session")
def del_frame_201(del_data_201, sp_half):
    return integrate_frame(del_data_201, sp_half)


@pytest.fixture(scope="session")
def edit_frame():
    """edit(path, **members): rewrite a stored frame file with `members`
    replaced; a member given as None is deleted."""

    def edit(path, **members):
        with np.load(path) as z:
            stored = dict(z)
        stored.update(members)
        with open(path, "wb") as fh:
            np.savez(fh, **{k: v for k, v in stored.items() if v is not None})

    return edit
