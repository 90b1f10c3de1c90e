"""Verification reports: the check table and two serializations.

Each check is one row, (name, frozen default tolerance, value).  A
whole-run row's value takes (data, frame), the SurfaceData and the
ExtendedFrame integrated from it; a per-side row's takes one side's
(measured, closed form) and is reported as "<name>_<side>" for each side
in SIDES, primary first.  `registry_names` and `default_tolerances` read
the rows, and `verify._report` walks them, in the same order.  Each row
states one fact a run measures that no other row's value implies: the
Hopf and mean matches compare signed values, so they also carry each
side's sign, and bound the spread of Qm and Hm (std |Qm| <= hopf_match
|hopf|, std Hm <= mean_match |mean|).  Identities between closed forms,
such as the Lawson partner's data against a side's targets, hold for any
surface, so they are reference tests, not rows.

A report is an ordered list of (name, value, tolerance) records, one per
registered check, plus free-form metadata.  The machine format is one check
per line, "name value tolerance PASS|FAIL", with metadata as '# meta' comment
lines; numbers use 17 significant digits so parsing round-trips doubles
exactly.  The text format is for humans and may carry extra header lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError, InvalidInputError
from .measure import conformality_defect, hopf_match, isothermic_defect, mean_match, metric_match
from .surface_data import max_gauss_residual
from .surfaces import SIDES

# checks of the whole run, reported first: the data's compatibility and
# the integrated frame's unimodularity, the one frame check; every
# identity of the normal and of the parallel pair holds for any 2x2 frame,
# so it reads |det F| and rounding, and is a reference test, not a check
RUN_CHECKS = (
    ("gauss_residual_max", 1e-3, lambda data, frame: max_gauss_residual(data)),
    ("det_drift_max", 1e-8, lambda data, frame: frame.max_det_drift),
)

# checks made once per side; measurement bounds are calibrated on the
# cylinder at two resolutions
SIDE_CHECKS = (
    ("metric_match", 5e-3, metric_match),
    ("hopf_match", 5e-3, hopf_match),
    ("mean_match", 5e-3, mean_match),
    ("conformality", 5e-3, lambda m, closed: conformality_defect(m)),
    ("isothermic", 5e-3, lambda m, closed: isothermic_defect(m)),
)


def _registry():
    """(name, default tolerance) of every check, in report order."""
    yield from ((name, tol) for name, tol, _ in RUN_CHECKS)
    for side in SIDES:
        yield from ((f"{name}_{side}", tol) for name, tol, _ in SIDE_CHECKS)


def registry_names() -> tuple[str, ...]:
    return tuple(name for name, _ in _registry())


def default_tolerances() -> dict[str, float]:
    return dict(_registry())


def finite_number(value, what: str) -> float:
    """`value` from outside the program as a finite float, or a ConfigError
    that names it `what`; a boolean is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        got = "boolean" if isinstance(value, bool) else repr(value)
        raise ConfigError(f"{what} must be a number, got {got}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the largest double
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be a finite number, got {value}")
    return value


def resolve_tolerances(overrides: dict) -> dict[str, float]:
    """Default tolerances with `overrides` applied; the one check of an
    override map: a map (JSON null is none), registered names only, each
    with a finite positive number."""
    tols = default_tolerances()
    if not isinstance(overrides, dict):
        raise ConfigError("'tolerances' must be a map of check name to number")
    unknown = sorted(set(overrides) - set(tols))
    if unknown:
        raise ConfigError(f"unknown tolerance names: {', '.join(unknown)}")
    for name, val in overrides.items():
        val = finite_number(val, f"tolerance {name}")
        if not val > 0.0:
            raise ConfigError(f"tolerance {name} must be positive, got {val}")
        tols[name] = val
    return tols


@dataclass(frozen=True)
class CheckRecord:
    name: str
    value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        # NaN compares false, so it fails, as it should
        return self.value <= self.tolerance


@dataclass(frozen=True, eq=False)
class VerificationReport:
    records: tuple[CheckRecord, ...]
    metadata: dict[str, str] = field(default_factory=dict)

    def overall_pass(self) -> bool:
        return all(r.passed for r in self.records)

    def record(self, name: str) -> CheckRecord:
        for r in self.records:
            if r.name == name:
                return r
        raise InvalidInputError(f"no check named {name!r} in report")


def render_text(report: VerificationReport) -> str:
    lines = ["verification report", "==================="]
    for key, val in report.metadata.items():
        lines.append(f"{key} = {val}")
    if report.metadata:
        lines.append("")
    width = max(len(r.name) for r in report.records) if report.records else 0
    for r in report.records:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"  [{status}] {r.name:<{width}}  {r.value:.6e}  (tol {r.tolerance:.1e})"
        )
    n_pass = sum(r.passed for r in report.records)
    overall = "PASS" if report.overall_pass() else "FAIL"
    lines.append("")
    lines.append(f"overall: {overall} ({n_pass}/{len(report.records)} checks)")
    return "\n".join(lines) + "\n"


def render_machine(report: VerificationReport) -> str:
    lines = ["# verification-report"]
    for key, val in report.metadata.items():
        lines.append(f"# meta {key} = {val}")
    for r in report.records:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name} {r.value:.17g} {r.tolerance:.17g} {status}")
    return "\n".join(lines) + "\n"


def parse_machine(text: str) -> VerificationReport:
    """Invert render_machine; malformed lines are rejected, not skipped, and
    so is a check named twice, which no rendered report holds."""
    records = []
    metadata = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("meta "):
                key, _, val = body[len("meta ") :].partition(" = ")
                metadata[key.strip()] = val.strip()
            continue
        parts = line.split()
        if len(parts) != 4 or parts[3] not in ("PASS", "FAIL"):
            raise InvalidInputError(f"malformed report line: {raw!r}")
        try:
            value, tolerance = float(parts[1]), float(parts[2])
        except ValueError:
            raise InvalidInputError(f"malformed report numbers: {raw!r}") from None
        rec = CheckRecord(parts[0], value, tolerance)
        stated = parts[3] == "PASS"
        if rec.passed != stated:
            raise InvalidInputError(
                f"inconsistent status for {parts[0]}: value {parts[1]} vs "
                f"tolerance {parts[2]} says {'PASS' if rec.passed else 'FAIL'}"
            )
        if any(r.name == rec.name for r in records):
            raise InvalidInputError(f"check {rec.name} is reported twice")
        records.append(rec)
    return VerificationReport(records=tuple(records), metadata=metadata)
