"""Tests for report records, serialization round-trips, and verify_theorem."""

import numpy as np
import pytest

from cmclab import report
from cmclab.errors import ConfigError, InvalidInputError
from cmclab.report import (
    CheckRecord,
    VerificationReport,
    default_tolerances,
    parse_machine,
    registry_names,
    render_machine,
    render_text,
    resolve_tolerances,
)
from cmclab.surface_data import GridSpec, SurfaceData, cylinder_data
from cmclab.verify import verify_theorem


class TestCheckRecord:
    def test_pass_at_tolerance(self):
        assert CheckRecord("x", 1e-3, 1e-3).passed

    def test_fail_above(self):
        assert not CheckRecord("x", 1.1e-3, 1e-3).passed

    def test_nan_fails(self):
        assert not CheckRecord("x", float("nan"), 1e-3).passed


def sample_report():
    records = (
        CheckRecord("alpha", 1.25e-5, 1e-3),
        CheckRecord("beta", 0.5, 1e-3),
    )
    return VerificationReport(records=records, metadata={"lambda": "0.5", "nx": "11"})


class TestSerialization:
    def test_machine_round_trip(self):
        rep = sample_report()
        back = parse_machine(render_machine(rep))
        assert back.records == rep.records
        assert back.metadata == rep.metadata

    def test_machine_line_shape(self):
        lines = [
            l for l in render_machine(sample_report()).splitlines() if not l.startswith("#")
        ]
        assert lines[0].split() == ["alpha", "1.2500000000000001e-05", "0.001", "PASS"]
        assert lines[1].split()[-1] == "FAIL"

    def test_text_has_overall_line(self):
        txt = render_text(sample_report())
        assert "overall: FAIL (1/2 checks)" in txt
        assert "[PASS] alpha" in txt and "[FAIL] beta" in txt

    def test_parse_rejects_malformed(self):
        with pytest.raises(InvalidInputError):
            parse_machine("alpha 1.0\n")

    def test_parse_rejects_inconsistent_status(self):
        with pytest.raises(InvalidInputError):
            parse_machine("alpha 0.5 0.001 PASS\n")

    def test_parse_rejects_a_repeated_check(self):
        # the second line's tolerance would otherwise judge the check
        with pytest.raises(InvalidInputError, match="check alpha is reported twice"):
            parse_machine("alpha 1e-05 0.001 PASS\nalpha 1e-05 0.5 PASS\n")

    def test_overall_pass(self):
        rep = VerificationReport(records=(CheckRecord("a", 0.0, 1.0),), metadata={})
        assert rep.overall_pass()
        assert not sample_report().overall_pass()

    def test_record_lookup(self):
        rep = sample_report()
        assert rep.record("beta").value == 0.5
        with pytest.raises(InvalidInputError):
            rep.record("gamma")


class TestTolerances:
    def test_defaults_cover_registry(self):
        tols = default_tolerances()
        assert set(tols) == set(registry_names())
        assert all(v > 0 for v in tols.values())

    def test_override(self):
        tols = resolve_tolerances({"hopf_match_shifted": 1e-6})
        assert tols["hopf_match_shifted"] == 1e-6
        assert tols["det_drift_max"] == default_tolerances()["det_drift_max"]

    def test_unknown_name_refused(self):
        with pytest.raises(ConfigError):
            resolve_tolerances({"no_such_check": 1.0})

    def test_nonpositive_refused(self):
        with pytest.raises(ConfigError):
            resolve_tolerances({"det_drift_max": 0.0})

    @pytest.mark.parametrize("overrides", [None, [], "metric_match_primary"])
    def test_anything_but_a_map_refused(self, overrides):
        # JSON null once passed as "no overrides"
        with pytest.raises(ConfigError, match="'tolerances' must be a map"):
            resolve_tolerances(overrides)


@pytest.fixture(scope="module")
def cylinder_report(cyl_frame_101):
    return verify_theorem(cylinder_data(cyl_frame_101.grid), cyl_frame_101)


# the checks in report order: one frame check, and the same five per side
REGISTRY = (
    "gauss_residual_max", "det_drift_max",
    *(
        f"{name}_{side}"
        for side in ("primary", "shifted")
        for name in ("metric_match", "hopf_match", "mean_match", "conformality", "isothermic")
    ),
)


class TestVerifyTheorem:
    def test_registry_is_the_twelve_checks(self):
        assert registry_names() == REGISTRY and len(REGISTRY) == 12
        defaults = default_tolerances()
        assert (defaults["gauss_residual_max"], defaults["det_drift_max"]) == (1e-3, 1e-8)
        assert {defaults[name] for name in REGISTRY[2:]} == {5e-3}

    def test_registry_complete_and_unique(self, cylinder_report):
        names = [r.name for r in cylinder_report.records]
        assert names == list(registry_names())
        assert len(names) == len(set(names))

    def test_cylinder_passes_everything(self, cylinder_report):
        failed = [r.name for r in cylinder_report.records if not r.passed]
        assert failed == []

    def test_metadata_signs(self, cylinder_report):
        # the sides' signs are no metadata: the signed Hopf and mean matches
        # carry them, and a side with the other's sign reads 2 in both
        assert list(cylinder_report.metadata) == [
            "lambda", "q", "H", "Q", "nx", "ny", "hx", "hy", "homothety_scale",
        ]
        assert cylinder_report.metadata["lambda"] == "0.5"

    def test_machine_round_trip_of_real_report(self, cylinder_report):
        back = parse_machine(render_machine(cylinder_report))
        assert back.records == cylinder_report.records

    def test_grid_mismatch_refused(self, cyl_frame_101):
        with pytest.raises(InvalidInputError):
            verify_theorem(cylinder_data(GridSpec(-1, 1, -1, 1, 21, 21)), cyl_frame_101)

    def test_non_normalized_refused(self, cyl_frame_101):
        g = cyl_frame_101.grid
        odd = SurfaceData(g, np.zeros((g.nx, g.ny)), Q=0.3, H=0.5)
        with pytest.raises(InvalidInputError, match="H = 2Q"):
            verify_theorem(odd, cyl_frame_101)

    def test_tolerance_override_can_fail_a_check(self, cyl_frame_101):
        data = cylinder_data(cyl_frame_101.grid)
        rep = verify_theorem(data, cyl_frame_101, tolerances={"metric_match_primary": 1e-16})
        assert not rep.record("metric_match_primary").passed
        assert not rep.overall_pass()

    def test_delaunay_passes(self, del_data_101, del_frame_101):
        rep = verify_theorem(del_data_101, del_frame_101)
        failed = [r.name for r in rep.records if not r.passed]
        assert failed == []


def test_one_row_is_the_whole_cost_of_a_check(monkeypatch, cyl_frame_101):
    # a check is its row in the table, (name, default tolerance, value):
    # adding one row adds the check everywhere, with nothing else to edit
    before = registry_names()
    run_rows = len(report.RUN_CHECKS)
    row = ("zero_defect", 1.0, lambda data, sides: 0.0)
    monkeypatch.setattr(report, "RUN_CHECKS", (*report.RUN_CHECKS, row))
    assert registry_names() == (*before[:run_rows], "zero_defect", *before[run_rows:])
    assert default_tolerances()["zero_defect"] == 1.0
    assert resolve_tolerances({"zero_defect": 2.0})["zero_defect"] == 2.0
    rep = verify_theorem(cylinder_data(cyl_frame_101.grid), cyl_frame_101, {"zero_defect": 2.0})
    assert [r.name for r in rep.records] == list(registry_names())
    assert rep.record("zero_defect") == CheckRecord("zero_defect", 0.0, 2.0)
