"""Working memory of the numeric layers: the integrator and an evaluation
hold little more than what they return, and containers hold a builder's
fresh read-only arrays without copying them."""

import tracemalloc

import numpy as np
import pytest

from cmclab.frames import ExtendedFrame, SpectralParam, integrate_frame
from cmclab.minkowski import empty_planes, surface_and_normal
from cmclab.surface_data import GridSpec, _frozen, _locked
from cmclab.surfaces import H3SurfaceGrid
from cmclab.verify import evaluate


def traced(fn, *args):
    """fn(*args), its traced peak and what it still holds on return, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, kept


def test_integrator_peaks_near_its_frame(del_data_201):
    # whole-line coefficient and transition stacks peaked at 6.6 x the frame
    frame, peak, _ = traced(integrate_frame, del_data_201, SpectralParam(0.5))
    assert peak <= 4 * frame.F.nbytes


def test_evaluation_peaks_near_what_it_keeps(del_frame_201):
    # conj(F)^t and product stacks, and four-coordinate derivative grids,
    # peaked at 2.7 x the frame above the two sides
    sides, peak, kept = traced(evaluate, del_frame_201)
    assert len(sides) == 2
    assert peak - kept <= 1.5 * del_frame_201.F.nbytes


def test_locked_holds_only_what_nothing_can_write():
    fresh = _frozen(np.arange(30.0).reshape(5, 6))
    assert _locked(fresh, float, (5, 6), "u") is fresh

    writeable = np.arange(30.0).reshape(5, 6)
    held = _locked(writeable, float, (5, 6), "u")
    assert not np.shares_memory(held, writeable) and not held.flags.writeable

    view = writeable[:, :]
    view.flags.writeable = False  # read-only, but its base is not
    assert not np.shares_memory(_locked(view, float, (5, 6), "u"), writeable)

    # a read-only array of the wrong dtype or layout is copied too
    assert _locked(fresh, complex) is not fresh
    fortran = _frozen(np.asfortranarray(np.ones((5, 6))))
    assert _locked(fortran) is not fortran


def test_containers_hold_a_frozen_entry_major_frame():
    grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 7, 6)
    F = empty_planes((7, 6), (2, 2))
    F[...] = np.eye(2)
    frozen = _frozen(F)
    assert ExtendedFrame(grid, frozen, SpectralParam(0.5)).F is frozen
    points, normal = surface_and_normal(frozen)
    surface = H3SurfaceGrid(grid, points, normal, SpectralParam(0.5), "primary")
    assert surface.points is points and surface.normal is normal
    # read-only down its chain but C-ordered: copied into entry-major planes
    c_order = _frozen(np.broadcast_to(np.eye(2, dtype=complex), (7, 6, 2, 2)).copy())
    held = ExtendedFrame(grid, c_order, SpectralParam(0.5)).F
    assert held is not c_order and np.array_equal(held, c_order)
    with pytest.raises(ValueError):
        F[0, 0, 0, 0] = 2.0
