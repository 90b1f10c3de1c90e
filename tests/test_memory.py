"""Working memory of the numeric layers and of a run: the integrator and an
evaluation hold little more than what they return, the verifier holds one
side's grids at a time, a run lets its frame go once it is written, the
frame archive is written without a copy, a surface file is read without a
list of its lines, and containers hold a builder's fresh read-only arrays
(a loaded frame's included) without copying them."""

import tracemalloc

import numpy as np
import pytest

import cmclab.surfaces
from cmclab.config import config_from_mapping
from cmclab.frames import ExtendedFrame, SpectralParam, integrate_frame
from cmclab.minkowski import surface_and_normal
from cmclab.pipeline import load_frame, run, save_frame, verify_outputs
from cmclab.surface_data import GridSpec, _frozen, _locked, load_surface_data, save_surface_data
from cmclab.surfaces import H3SurfaceGrid
from cmclab.verify import evaluate, verify_theorem


# F of a 201 x 201 frame
FRAME_201_BYTES = 201 * 201 * 4 * np.dtype(complex).itemsize


def readme_config(out_dir):
    """The README's default run at 201 x 201, writing to `out_dir`."""
    return config_from_mapping({
        "family": "delaunay", "H": 0.5, "u0": 0.3, "du0": 0.0, "lambda": 0.5,
        "nx": 201, "ny": 201, "out_dir": str(out_dir),
    })


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
    # a side that held its frame kept FD as long as the sides, 4.50 x the
    # frame in all; the two surfaces and their measurements are 3.50 x
    assert kept <= 3.6 * del_frame_201.F.nbytes


def test_verifier_holds_one_side_at_a_time(del_data_201, del_frame_201):
    # both sides' points, normals and measured grids held through the
    # report peaked at 4.30 x the frame
    _, peak, _ = traced(verify_theorem, del_data_201, del_frame_201)
    assert peak <= 3 * del_frame_201.F.nbytes


def test_stored_run_is_verified_one_side_at_a_time(tmp_path):
    # loaded frame and data beside both sides peaked at 5.61 x the frame
    run(readme_config(tmp_path))
    _, peak, _ = traced(verify_outputs, tmp_path)
    assert peak <= 4.3 * FRAME_201_BYTES


def test_frame_archive_is_written_without_a_copy(tmp_path, del_frame_201):
    # np.savez hands each zip entry a copy of the whole array: 1.00 x the frame
    _, peak, _ = traced(save_frame, tmp_path / "frame.dat", del_frame_201)
    assert peak <= 0.05 * del_frame_201.F.nbytes


def test_shifted_side_holds_the_turned_arrays(del_frame_101, monkeypatch):
    # the turn's fresh arrays go to the container read-only, so it holds
    # them without a copy, as it holds the primary side's
    turn, turned = cmclab.surfaces._turn, []

    def recorded(*args):
        turned.append(turn(*args))
        return turned[-1]

    monkeypatch.setattr(cmclab.surfaces, "_turn", recorded)
    _, shifted = evaluate(del_frame_101)
    (points, normal), = turned
    assert shifted.surface.points is points and shifted.surface.normal is normal


def test_run_peak_holds_no_spare_frame(tmp_path):
    # F held through every writer, FD through the report, and C-ordered
    # copies of F for the archive peaked at 7.9 x the frame; 5.6 x here
    _, peak, _ = traced(run, readme_config(tmp_path))
    assert peak <= 6.4 * FRAME_201_BYTES


def test_surface_file_loads_near_its_u(tmp_path, del_data_201):
    # a list of every body line beside numpy's float table peaked at 18.7 x u
    path = tmp_path / "surface.dat"
    save_surface_data(path, del_data_201)
    data, peak, _ = traced(load_surface_data, path)
    assert np.array_equal(data.u, del_data_201.u)
    assert peak <= 14 * data.u.nbytes


def test_loaded_frame_holds_the_archive_array(tmp_path, del_frame_101, monkeypatch):
    path = tmp_path / "frame.dat"
    save_frame(path, del_frame_101)
    read = {}
    getitem = np.lib.npyio.NpzFile.__getitem__

    def record(self, key):
        read[key] = getitem(self, key)
        return read[key]

    monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", record)
    F = load_frame(path).F
    assert np.shares_memory(F, read["F"]) and np.array_equal(F, del_frame_101.F)


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
    held = _locked(fortran)
    assert held is not fortran and held.flags.c_contiguous


def test_containers_hold_a_frozen_entry_major_frame():
    grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 7, 6)
    F = np.empty((2, 2, 7, 6), complex)
    F[...] = np.eye(2)[:, :, None, None]
    frozen = _frozen(F)
    assert ExtendedFrame(grid, frozen, SpectralParam(0.5)).F is frozen
    points, normal = surface_and_normal(frozen)
    surface = H3SurfaceGrid(grid, points, normal, SpectralParam(0.5), "primary")
    assert surface.points is points and surface.normal is normal
    # read-only down its chain but not C-contiguous: copied into a
    # C-contiguous array
    fortran = _frozen(np.asfortranarray(F))
    held = ExtendedFrame(grid, fortran, SpectralParam(0.5)).F
    assert held is not fortran and np.array_equal(held, F) and held.flags.c_contiguous
    with pytest.raises(ValueError):
        F[0, 0, 0, 0] = 2.0
