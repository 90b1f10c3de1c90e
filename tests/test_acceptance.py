"""End-to-end acceptance checks.

Each test covers one acceptance item and prints a single pass/fail line
(bypassing capture) so a full run reads as a scoreboard.  Tolerances are
stated inline; see the README for how they were calibrated.
"""

import json
import math

import numpy as np

from cmclab.cli import main as cli_main
from cmclab.frames import (
    SpectralParam,
    cylinder_frame_lax_gauge,
    frame_left_multiply,
    integrate_frame,
    two_path_discrepancy,
)
from cmclab.measure import (
    closed_form,
    closed_form_max_diff,
    conformality_defect,
    homothety_scale,
    hopf_match,
    isothermic_defect,
    lawson_data,
    mean_constancy,
    mean_match,
    measure,
    metric_match,
)
from cmclab.minkowski import conj_transpose, minkowski_inner, to_hermitian
from cmclab.surface_data import (
    GridSpec,
    SurfaceData,
    cylinder_data,
    delaunay_profile,
    dual_data,
    gauss_residual,
    max_gauss_residual,
    save_surface_data,
)
from cmclab.surfaces import (
    equidistance_defect,
    normal_field,
    parallel_identity_residual,
    surface_primary,
    surface_shifted,
)
from cmclab.verify import verify_theorem

from conftest import square_grid


def emit(capsys, num, label, checks):
    ok = all(checks.values())
    with capsys.disabled():
        print(f"\nacceptance {num}/8 {label}: {'PASS' if ok else 'FAIL'}")
    failed = [k for k, v in checks.items() if not v]
    assert not failed, f"acceptance {num} failed: {failed}"


def test_criterion_1_compatibility(capsys, del_data_101, del_data_201):
    checks = {}
    res = gauss_residual(cylinder_data(square_grid(51)))
    checks["cylinder residual exactly zero"] = float(np.max(np.abs(res))) == 0.0
    prof = delaunay_profile(0.5, (0.0, 10.0), 0.3, 0.0, step=1e-3)
    checks["profile energy drift <= 1e-8"] = prof.energy_drift() <= 1e-8
    r_coarse = max_gauss_residual(del_data_101)
    r_fine = max_gauss_residual(del_data_201)
    order = math.log2(r_coarse / r_fine)
    checks["residual order >= 1.9"] = order >= 1.9
    emit(capsys, 1, "compatibility and energy conservation", checks)


def test_criterion_2_frame_oracle(capsys, cyl_frame_101, cyl_frame_201, sp_half):
    checks = {}

    def closed_form_error(frame):
        X, Y = frame.grid.mesh()
        F_ref = cylinder_frame_lax_gauge(X + 1j * Y, frame.lam)
        return float(np.max(np.abs(frame.F - F_ref)))

    err_fine = closed_form_error(cyl_frame_201)
    err_coarse = closed_form_error(cyl_frame_101)
    checks["closed-form error <= 1e-6 at h = 0.01"] = err_fine <= 1e-6
    # fourth-order integrator: one halving shrinks the error about 16x
    checks["error ratio in [10, 24] per halving"] = 10.0 <= err_coarse / err_fine <= 24.0
    checks["det F within 1e-8 of 1 grid-wide"] = cyl_frame_201.max_det_drift <= 1e-8
    disc = two_path_discrepancy(cylinder_data(square_grid(201)), sp_half)
    checks["two-path discrepancy <= 1e-6"] = disc <= 1e-6
    emit(capsys, 2, "frame integration against the closed form", checks)


def test_criterion_3_parallel_exact_identities(capsys, del_data_101):
    checks = {}
    cyl = cylinder_data(square_grid(101))
    for lam in (0.3, 0.5, 0.8):
        sp = SpectralParam(lam)
        for name, data in (("cylinder", cyl), ("delaunay", del_data_101)):
            frame = integrate_frame(data, sp)
            rel = parallel_identity_residual(frame)
            dev = equidistance_defect(surface_primary(frame), surface_shifted(frame))
            checks[f"{name} lam={lam} parallel residual <= 1e-11"] = rel <= 1e-11
            checks[f"{name} lam={lam} distance = -q within 1e-9"] = dev <= 1e-9
    emit(capsys, 3, "parallel identity and equidistance", checks)


def test_criterion_4_measured_vs_closed_form(capsys, cyl_frame_101, cyl_frame_201):
    checks = {}
    # closed-form targets at lambda = 1/2: metric 0.140625, |Hopf| 3/32, mean 5/3
    t_fine = closed_form(cylinder_data(square_grid(201)), SpectralParam(0.5), 1)
    t_coarse = closed_form(cylinder_data(square_grid(101)), SpectralParam(0.5), 1)
    m_fine = measure(surface_primary(cyl_frame_201), normal_field(cyl_frame_201))
    m_coarse = measure(surface_primary(cyl_frame_101), normal_field(cyl_frame_101))
    fine = {
        "metric": metric_match(m_fine, t_fine),
        "hopf": hopf_match(m_fine, t_fine),
        "mean": mean_match(m_fine, t_fine),
    }
    coarse = {
        "metric": metric_match(m_coarse, t_coarse),
        "hopf": hopf_match(m_coarse, t_coarse),
        "mean": mean_match(m_coarse, t_coarse),
    }
    for key, val in fine.items():
        checks[f"{key} within 5e-3 relative"] = val <= 5e-3
        checks[f"{key} order >= 1.9"] = math.log2(coarse[key] / val) >= 1.9
    checks["conformality <= 5e-3"] = conformality_defect(m_fine) <= 5e-3
    checks["isothermic deviation <= 5e-3"] = isothermic_defect(m_fine) <= 5e-3
    emit(capsys, 4, "measured geometry against closed forms", checks)


def test_criterion_5_lawson_identities(capsys):
    checks = {}
    rng = np.random.default_rng(42)
    worst_dual = worst_f = 0.0
    for _ in range(100):
        Q = rng.uniform(0.1, 1.5)
        lam = rng.uniform(0.1, 0.9)
        g = GridSpec(-1.0, 1.0, -1.0, 1.0, 5, 5)
        d = SurfaceData(g, np.full((5, 5), rng.uniform(-1.0, 1.0)), Q=Q, H=2.0 * Q)
        sp = SpectralParam(lam)
        s = homothety_scale(d.H, sp)
        worst_dual = max(
            worst_dual,
            closed_form_max_diff(lawson_data(dual_data(d), s), closed_form(d, sp, 1)),
        )
        worst_f = max(
            worst_f,
            closed_form_max_diff(lawson_data(d, -s), closed_form(d, sp, -1)),
        )
    checks["dual-side identity <= 1e-12 on 100 tuples"] = worst_dual <= 1e-12
    checks["f-side identity <= 1e-12 on 100 tuples"] = worst_f <= 1e-12

    # necessity: for H != 2Q no single scale works.  The metric identity
    # pins s = Q(1/lam - lam); with that scale the mean identity breaks.
    lam = 0.5
    bad = SurfaceData(
        GridSpec(-1, 1, -1, 1, 5, 5), np.full((5, 5), 0.2), Q=0.25, H=0.9
    )
    s_metric = bad.Q * (1.0 / lam - lam)
    s_hom = homothety_scale(bad.H, SpectralParam(lam))
    L = lawson_data(dual_data(bad), s_metric)
    C = closed_form(bad, SpectralParam(lam), 1)
    checks["non-normalized: scales disagree"] = abs(s_metric - s_hom) > 1e-2
    checks["non-normalized: metric identity forced"] = (
        float(np.max(np.abs(L.metric_factor - C.metric_factor))) <= 1e-13
    )
    checks["non-normalized: mean identity fails"] = abs(abs(L.mean) - abs(C.mean)) > 0.1
    emit(capsys, 5, "homothety identities and necessity of H = 2Q", checks)


def test_criterion_6_cmc_on_delaunay(capsys, del_data_201, del_frame_201):
    checks = {}
    checks["u genuinely non-constant"] = float(np.ptp(del_data_201.u)) > 0.1
    m = measure(surface_primary(del_frame_201), normal_field(del_frame_201))
    checks["mean curvature std dev <= 5e-3"] = mean_constancy(m) <= 5e-3
    target = closed_form(del_data_201, SpectralParam(0.5), 1)
    # target mean is (1/lam + lam)/(1/lam - lam) = 5/3 at lam = 1/2
    checks["mean equals closed form within 5e-3"] = mean_match(m, target) <= 5e-3
    emit(capsys, 6, "constant mean curvature on delaunay data", checks)


def test_criterion_7_invariance(capsys, cyl_frame_101):
    checks = {}
    data = cylinder_data(square_grid(101))
    base = verify_theorem(data, cyl_frame_101)
    rng = np.random.default_rng(3)
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    G = A / np.sqrt(np.linalg.det(A))
    moved = verify_theorem(data, frame_left_multiply(cyl_frame_101, G))
    worst = max(
        abs(a.value - b.value) for a, b in zip(base.records, moved.records)
    )
    checks["no report entry moves more than 1e-8 under gauge"] = worst <= 1e-8

    dev = 0.0
    for _ in range(200):
        p, q = rng.normal(size=4), rng.normal(size=4)
        X, Y = to_hermitian(p), to_hermitian(q)
        B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        G = B / np.sqrt(np.linalg.det(B))
        lhs = minkowski_inner(G @ X @ conj_transpose(G), G @ Y @ conj_transpose(G))
        dev = max(dev, abs(lhs - minkowski_inner(X, Y)))
    checks["unimodular action isometric to 1e-10"] = dev <= 1e-10
    emit(capsys, 7, "gauge and isometry invariance", checks)


def test_criterion_8_cli_contract(capsys, tmp_path):
    checks = {}
    cfg_obj = {
        "family": "cylinder",
        "lambda": 0.5,
        "nx": 41,
        "ny": 41,
        "out_dir": str(tmp_path / "a"),
    }
    cfg_a = tmp_path / "a.json"
    cfg_a.write_text(json.dumps(cfg_obj))
    cfg_obj["out_dir"] = str(tmp_path / "b")
    cfg_b = tmp_path / "b.json"
    cfg_b.write_text(json.dumps(cfg_obj))

    checks["clean run exits 0"] = cli_main(["generate", "--config", str(cfg_a)]) == 0
    cli_main(["generate", "--config", str(cfg_b)])
    diag_a = (tmp_path / "a" / "diagnostics.dat").read_bytes()
    diag_b = (tmp_path / "b" / "diagnostics.dat").read_bytes()
    checks["identical config gives bitwise-identical diagnostics"] = diag_a == diag_b

    norms = []
    for mesh in ("mesh_primary.obj", "mesh_shifted.obj"):
        for ln in (tmp_path / "a" / mesh).read_text().splitlines():
            if ln.startswith("v "):
                norms.append(np.linalg.norm([float(v) for v in ln.split()[1:]]))
    checks["all ball vertices strictly inside the unit ball"] = max(norms) < 1.0

    fail_obj = dict(cfg_obj)
    fail_obj["out_dir"] = str(tmp_path / "c")
    fail_obj["tolerances"] = {"metric_match_primary": 1e-18}
    cfg_c = tmp_path / "c.json"
    cfg_c.write_text(json.dumps(fail_obj))
    checks["verification failure exits 1"] = (
        cli_main(["generate", "--config", str(cfg_c)]) == 1
    )

    bad_obj = dict(cfg_obj)
    bad_obj["lambda"] = 1.2
    cfg_d = tmp_path / "d.json"
    cfg_d.write_text(json.dumps(bad_obj))
    checks["config error exits 2"] = cli_main(["generate", "--config", str(cfg_d)]) == 2

    g = GridSpec(-1, 1, -1, 1, 11, 11)
    X, Y = g.mesh()
    wild = SurfaceData(g, 4.0 * np.cos(3 * np.pi * X) * np.cos(3 * np.pi * Y), Q=0.25, H=0.5)
    src = tmp_path / "wild.dat"
    save_surface_data(src, wild)
    wild_obj = {
        "family": "custom-file",
        "input": str(src),
        "lambda": 0.5,
        "out_dir": str(tmp_path / "e"),
    }
    cfg_e = tmp_path / "e.json"
    cfg_e.write_text(json.dumps(wild_obj))
    checks["numerical failure exits 3"] = (
        cli_main(["generate", "--config", str(cfg_e)]) == 3
    )
    emit(capsys, 8, "determinism and command line contract", checks)
