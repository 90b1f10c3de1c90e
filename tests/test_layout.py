"""Entry-major layout: every 2x2 stack and 4-vector grid holds each entry as
one contiguous plane over the grid axes.  The kernels give the same bits for
either layout, their outputs and the containers are entry-major, and the
sides have the bits of the plain real formula, whatever F's layout."""

import numpy as np
import pytest
from conftest import plain_sides

from cmclab.frames import ExtendedFrame, SpectralParam, shift_frame
from cmclab.minkowski import det2, empty_planes, mat2, mul2
from cmclab.pipeline import load_frame, save_frame
from cmclab.reference import conj_transpose, from_hermitian, to_hermitian
from cmclab.surface_data import GridSpec
from cmclab.surfaces import H3SurfaceGrid, _surface, normal_field
from cmclab.verify import evaluate

# long rows, so numpy's vectorised loops run on both layouts
SHAPE = (201, 90)


def entry_major(a, k):
    """Whether every entry over the last k axes of `a` is one C-contiguous
    plane over the leading axes."""
    return all(a[(..., *idx)].flags.c_contiguous for idx in np.ndindex(a.shape[-k:]))


def same_bits(a, b):
    return np.array_equal(*(np.ascontiguousarray(x).view(np.int64) for x in (a, b)))


def as_entry_major(a, k):
    out = empty_planes(a.shape[:-k], a.shape[-k:], a.dtype)
    out[...] = a
    return out


def random_stack(seed, shape=SHAPE):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape + (2, 2)) + 1j * rng.standard_normal(shape + (2, 2))


def unimodular_stack(seed, shape):
    M = random_stack(seed, shape)
    return M / np.sqrt(det2(M))[..., None, None]


# each takes an array and the number k of its trailing entry axes
LAYOUTS = {
    "C": lambda a, k: np.ascontiguousarray(a),
    "Fortran": lambda a, k: np.asfortranarray(a),
    "entry-major": as_entry_major,
}


def test_empty_planes_lays_each_entry_out_as_a_plane():
    a = empty_planes((7, 5), (2, 2))
    assert a.shape == (7, 5, 2, 2) and a.dtype == complex and entry_major(a, 2)
    assert not entry_major(np.empty((7, 5, 2, 2)), 2)
    v = empty_planes((7, 5), (4,), float)
    assert v.shape == (7, 5, 4) and v.dtype == float and entry_major(v, 1)
    assert empty_planes((), (2, 2)).shape == (2, 2)


def test_kernels_give_the_same_bits_for_either_layout():
    A, B = random_stack(1), random_stack(2)
    Ae, Be = as_entry_major(A, 2), as_entry_major(B, 2)
    want = mul2(A, B)
    for X, Y in ((Ae, Be), (Ae, B), (A, Be)):
        assert same_bits(mul2(X, Y), want)
    assert same_bits(det2(Ae), det2(A))
    H = np.ascontiguousarray(mul2(A, conj_transpose(A)))
    assert same_bits(from_hermitian(as_entry_major(H, 2)), from_hermitian(H))


def test_kernel_outputs_are_entry_major():
    A = random_stack(3)
    eye = np.eye(2, dtype=complex)
    entries = (A[..., i, j] for i, j in np.ndindex(2, 2))
    for M in (mul2(A, A), mul2(eye, A), mul2(A, eye), mat2(*entries)):
        assert M.shape == A.shape and entry_major(M, 2)
    x = np.random.default_rng(4).standard_normal(SHAPE + (4,))
    X = to_hermitian(x)
    assert entry_major(X, 2)
    assert entry_major(from_hermitian(X), 1)


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
    held = ((frame.F, F, 2), (surface.points, points, 1), (surface.normal, normal, 1))
    for stored, given, k in held:
        assert entry_major(stored, k) and same_bits(stored, given)
        assert not stored.flags.writeable


def test_frame_file_round_trip_is_bit_equal_and_entry_major(tmp_path, del_frame_101):
    path = tmp_path / "frame.dat"
    save_frame(path, del_frame_101)
    back = load_frame(path)
    assert entry_major(back.F, 2) and same_bits(back.F, del_frame_101.F)


def test_sides_have_the_bits_of_the_real_formula(del_frame_201):
    # every coordinate of a side is a real quadratic form in F's entries,
    # and real `*` and `+` commute bitwise, so only the grouping of the sums
    # fixes the bits: the sides built from an entry-major frame have those
    # of the plain formula on a C-ordered copy, the evaluated sides included
    for frame, side in zip((del_frame_201, shift_frame(del_frame_201)), evaluate(del_frame_201)):
        points, vectors = plain_sides(frame.F)
        surface = _surface(frame, side.surface.kind)
        assert same_bits(surface.points, points) and same_bits(surface.normal, vectors)
        assert same_bits(normal_field(frame), vectors)
        assert same_bits(side.surface.points, points) and same_bits(side.surface.normal, vectors)
