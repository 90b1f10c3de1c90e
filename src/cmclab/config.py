"""Run configuration: a flat JSON object with one optional nested map.

Allowed keys: family, H, u0, du0, lambda, x_min, x_max, y_min, y_max, nx, ny,
out_dir, input, tolerances.  A family is one row of FAMILIES and ignores the
keys of H, u0, du0 and input its row does not name; H is checked by the data
it shapes (`SurfaceData`).  "tolerances" is the only nested value, a map from
registered check names to positive numbers, which `report.resolve_tolerances`
validates when the RunConfig is built.  Unknown keys are rejected so typos
cannot silently disable an override, and so are the NaN and Infinity that
Python's json reads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .errors import ConfigError, InvalidInputError
from .frames import SpectralParam
from .report import finite_number, resolve_tolerances
from .surface_data import GridSpec, SurfaceData, cylinder_data, delaunay_data, load_surface_data

# family -> (the keys it reads with their defaults, None where required; its
# builder, which calls by name, so a tracer or test rebinding the name sees it)
FAMILIES = {
    "cylinder": ({"H": 0.5}, lambda grid, **k: cylinder_data(grid, **k)),
    "delaunay": ({"H": 0.5, "u0": 0.3, "du0": 0.0}, lambda grid, **k: delaunay_data(grid, **k)),
    "custom-file": ({"input": None}, lambda grid, input: load_surface_data(input)),
}
_FAMILY_KEYS = {key for keys, _ in FAMILIES.values() for key in keys}

_SCALAR_KEYS = {
    "family": str,
    "H": float,
    "u0": float,
    "du0": float,
    "lambda": float,
    "x_min": float,
    "x_max": float,
    "y_min": float,
    "y_max": float,
    "nx": int,
    "ny": int,
    "out_dir": str,
    "input": str,
}


@dataclass(frozen=True)
class RunConfig:
    family: str
    lam: float
    out_dir: str
    x_min: float = -1.0
    x_max: float = 1.0
    y_min: float = -1.0
    y_max: float = 1.0
    nx: int = 101
    ny: int = 101
    family_keys: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(
                f"unknown family {self.family!r}; expected one of {', '.join(FAMILIES)}"
            )
        try:
            self.spectral()
            self.grid()
        except InvalidInputError as exc:
            raise ConfigError(str(exc)) from None
        for key, default in FAMILIES[self.family][0].items():
            if default is None and self.family_keys.get(key) in (None, ""):
                raise ConfigError(f"{self.family} family requires an {key!r} path")
        self.check_tolerances  # resolved once, here, so a bad map is refused early

    @cached_property
    def check_tolerances(self) -> dict[str, float]:
        return resolve_tolerances(self.tolerances)

    def grid(self) -> GridSpec:
        return GridSpec(
            self.x_min, self.x_max, self.y_min, self.y_max, self.nx, self.ny
        )

    def spectral(self) -> SpectralParam:
        return SpectralParam(self.lam)

    def data(self) -> SurfaceData:
        keys, build = FAMILIES[self.family]
        return build(self.grid(), **{k: self.family_keys.get(k, d) for k, d in keys.items()})


def _coerce(key: str, value, kind):
    if kind is float:
        return finite_number(value, f"key {key!r}")
    # a JSON boolean is never an integer
    if isinstance(value, bool) or not isinstance(value, kind):
        got = "boolean" if isinstance(value, bool) else repr(value)
        raise ConfigError(f"key {key!r} must be {kind.__name__}, got {got}")
    return value


def config_from_mapping(obj: dict) -> RunConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(obj) - set(_SCALAR_KEYS) - {"tolerances"})
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    kwargs, family_keys = {}, {}
    for key, kind in _SCALAR_KEYS.items():
        if key in obj:
            into = family_keys if key in _FAMILY_KEYS else kwargs
            into["lam" if key == "lambda" else key] = _coerce(key, obj[key], kind)
    for required in ("family", "lambda", "out_dir"):
        if required not in obj:
            raise ConfigError(f"missing required config key {required!r}")
    return RunConfig(**kwargs, family_keys=family_keys, tolerances=obj.get("tolerances", {}))


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        obj = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: config is not valid JSON: {e}") from None
    return config_from_mapping(obj)
