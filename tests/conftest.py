"""Shared fixtures: frames and surfaces reused across test modules, and the
plain formula of a frame's surface and normal.

Session-scoped because integration on the finer grids is the expensive part
of the suite; everything downstream of a frame is cheap.  `edit_frame`
rewrites a stored frame file for the tests that refuse a bad one.
"""

import numpy as np
import pytest

from cmclab.frames import SpectralParam, integrate_frame
from cmclab.surface_data import GridSpec, cylinder_data, delaunay_data


def square_grid(n: int) -> GridSpec:
    return GridSpec(-1.0, 1.0, -1.0, 1.0, n, n)


def plain_sides(F):
    """The surface and normal coordinates (x1, x2, x3, x0) of frames F by
    the plain real formula, in the grouping `minkowski.surface_and_normal`
    documents: the bits it must give, spelled here on a C-ordered copy."""
    F = np.ascontiguousarray(F)
    (ar, br), (cr, dr) = np.moveaxis(F.real, (-2, -1), (0, 1))
    (ai, bi), (ci, di) = np.moveaxis(F.imag, (-2, -1), (0, 1))
    aa, bb, cc, dd = ar * ar + ai * ai, br * br + bi * bi, cr * cr + ci * ci, dr * dr + di * di
    ca = cr * ar + ci * ai, ci * ar - cr * ai  # c conj(a)
    db = dr * br + di * bi, di * br - dr * bi  # d conj(b)
    top, bottom = aa + bb, cc + dd
    surface = (ca[0] + db[0], ca[1] + db[1], 0.5 * (top - bottom), 0.5 * (top + bottom))
    top, bottom = aa - bb, cc - dd
    normal = (ca[0] - db[0], ca[1] - db[1], 0.5 * (top - bottom), 0.5 * (top + bottom))
    return np.stack(surface, axis=-1), np.stack(normal, axis=-1)


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
