"""Entries first: every 2x2 stack has shape (2, 2, *grid) and every 4-vector
grid (4, *grid), C-contiguous, so each entry is one contiguous plane over
the grid axes.  The kernels give the same bits for any layout, their
outputs and the containers are C-contiguous, and the primary side has the
bits of the plain real formula, whatever F's layout."""

import numpy as np
import pytest
from conftest import plain_sides

from cmclab.frames import ExtendedFrame, SpectralParam
from cmclab.minkowski import det2, mat2, mul2
from cmclab.pipeline import load_frame, save_frame
from cmclab.reference import conj_transpose, from_hermitian, to_hermitian
from cmclab.surface_data import GridSpec
from cmclab.surfaces import H3SurfaceGrid, _surface, normal_field
from cmclab.verify import evaluate

# long rows, so numpy's vectorised loops run on every layout
SHAPE = (201, 90)


def same_bits(a, b):
    return np.array_equal(*(np.ascontiguousarray(x).view(np.int64) for x in (a, b)))


def as_node_major(a, k):
    """`a`, of the same shape, with the k entries of each node adjacent in
    memory: the strides of a C-ordered (*grid, *entries) array."""
    entries, last = tuple(range(k)), tuple(range(-k, 0))
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, entries, last)), last, entries)


def random_stack(seed, shape=SHAPE):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((2, 2) + shape) + 1j * rng.standard_normal((2, 2) + shape)


def unimodular_stack(seed, shape):
    M = random_stack(seed, shape)
    return M / np.sqrt(det2(M))


# each takes an array and the number k of its leading entry axes
LAYOUTS = {
    "C": lambda a, k: np.ascontiguousarray(a),
    "Fortran": lambda a, k: np.asfortranarray(a),
    "node-major": as_node_major,
}


def test_kernels_give_the_same_bits_for_either_layout():
    A, B = random_stack(1), random_stack(2)
    Af, Bf = np.asfortranarray(A), np.asfortranarray(B)
    assert A.flags.c_contiguous and Af.flags.f_contiguous and not Af.flags.c_contiguous
    want = mul2(A, B)
    for X, Y in ((Af, Bf), (Af, B), (A, Bf)):
        assert same_bits(mul2(X, Y), want)
    assert same_bits(det2(Af), det2(A))
    H = mul2(A, conj_transpose(A))
    assert same_bits(from_hermitian(np.asfortranarray(H)), from_hermitian(H))


def test_kernel_outputs_are_entry_major():
    A = random_stack(3)
    eye = np.eye(2, dtype=complex)
    (a, b), (c, d) = A
    for M in (mul2(A, A), mul2(eye, A), mul2(A, eye), mat2(a, b, c, d)):
        assert M.shape == A.shape and M.flags.c_contiguous
    x = np.random.default_rng(4).standard_normal((4,) + SHAPE)
    X = to_hermitian(x)
    assert X.shape == (2, 2) + SHAPE and X.flags.c_contiguous
    assert from_hermitian(X).flags.c_contiguous


@pytest.mark.parametrize("layout", LAYOUTS)
def test_containers_store_entry_major_arrays(layout):
    to_layout = LAYOUTS[layout]
    grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 7, 6)
    sp = SpectralParam(0.5)
    F = unimodular_stack(5, (7, 6))
    frame = ExtendedFrame(grid, to_layout(F, 2), sp)
    points = from_hermitian(mul2(F, conj_transpose(F)))
    normal = plain_sides(F)[1]
    surface = H3SurfaceGrid(grid, to_layout(points, 1), to_layout(normal, 1), sp, "primary")
    held = (frame.F, F), (surface.points, points), (surface.normal, normal)
    for stored, given in held:
        assert stored.flags.c_contiguous and same_bits(stored, given)
        assert not stored.flags.writeable


def test_frame_file_round_trip_is_bit_equal_and_entry_major(tmp_path, del_frame_101):
    path = tmp_path / "frame.dat"
    save_frame(path, del_frame_101)
    back = load_frame(path)
    assert back.F.flags.c_contiguous and same_bits(back.F, del_frame_101.F)


def test_sides_have_the_bits_of_the_real_formula(del_frame_201):
    # every coordinate of the primary side is a real quadratic form in F's
    # entries, and real `*` and `+` commute bitwise, so only the grouping of
    # the sums fixes the bits: the primary side has those of the plain
    # formula on a C-ordered copy, the evaluated side included, and the
    # shifted side those of the plain turn of it through q
    points, vectors = plain_sides(del_frame_201.F)
    primary, shifted = evaluate(del_frame_201)
    for surface in (_surface(del_frame_201), primary.surface):
        assert same_bits(surface.points, points) and same_bits(surface.normal, vectors)
    assert same_bits(normal_field(del_frame_201), vectors)
    lam = del_frame_201.lam
    ch, sh = 0.5 * (lam + 1.0 / lam), 0.5 * (lam - 1.0 / lam)  # cosh q, sinh q
    assert same_bits(shifted.surface.points, ch * points - sh * vectors)
    assert same_bits(shifted.surface.normal, ch * vectors - sh * points)
