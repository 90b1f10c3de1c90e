"""Run configuration: a flat JSON object with one optional nested map.

Allowed keys: family, H, u0, du0, lambda, x_min, x_max, y_min, y_max, nx, ny,
out_dir, input, tolerances.  A family is one row of FAMILIES and ignores the
keys of H, u0, du0 and input its row does not name; H is checked by the data
it shapes (`SurfaceData`).  "tolerances" is the only nested value, a map from
registered check names to positive numbers, which `report.resolve_tolerances`
resolves.  Unknown keys are rejected so typos cannot silently disable an
override, and so are the NaN and Infinity that Python's json reads and an
empty out_dir.  `config_from_mapping` is the one check of a config, and
the RunConfig holds the GridSpec, SpectralParam and tolerances it built.
`load_config` names the file when its JSON read fails (`errors.naming`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, InvalidInputError, naming
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

# the grid keys, in GridSpec's field order, with their defaults
_GRID_KEYS = {"x_min": -1.0, "x_max": 1.0, "y_min": -1.0, "y_max": 1.0, "nx": 101, "ny": 101}


@dataclass(frozen=True)
class RunConfig:
    """A run's inputs as `config_from_mapping` validated them: the family
    with the keys it reads, the grid, the spectral value, the output
    directory and the resolved tolerance of every registered check."""

    family: str
    family_keys: dict
    grid: GridSpec
    spectral: SpectralParam
    out_dir: str
    tolerances: dict[str, float]

    def data(self) -> SurfaceData:
        keys, build = FAMILIES[self.family]
        return build(self.grid, **{k: self.family_keys.get(k, d) for k, d in keys.items()})


def _coerce(key: str, value, kind):
    if kind is float:
        return finite_number(value, f"key {key!r}")
    # a JSON boolean is never an integer
    if isinstance(value, bool) or not isinstance(value, kind):
        got = "boolean" if isinstance(value, bool) else repr(value)
        raise ConfigError(f"key {key!r} must be {kind.__name__}, got {got}")
    return value


def config_from_mapping(obj: dict) -> RunConfig:
    """The RunConfig of the JSON object `obj`.  Refusals come in order: the
    keys, each value's type, the required keys, an empty out_dir, then the
    family, lambda, the grid, the family's required keys and tolerances."""
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(obj) - set(_SCALAR_KEYS) - {"tolerances"})
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    values, family_keys = {}, {}
    for key, kind in _SCALAR_KEYS.items():
        if key in obj:
            into = family_keys if key in _FAMILY_KEYS else values
            into[key] = _coerce(key, obj[key], kind)
    for required in ("family", "lambda", "out_dir"):
        if required not in obj:
            raise ConfigError(f"missing required config key {required!r}")
    if not values["out_dir"]:
        raise ConfigError("key 'out_dir' must name a directory, got an empty string")
    family = values["family"]
    if family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r}; expected one of {', '.join(FAMILIES)}")
    try:
        spectral = SpectralParam(values["lambda"])
        grid = GridSpec(**{key: values.get(key, d) for key, d in _GRID_KEYS.items()})
    except InvalidInputError as exc:
        raise ConfigError(str(exc)) from None
    for key, default in FAMILIES[family][0].items():
        if default is None and family_keys.get(key) in (None, ""):
            raise ConfigError(f"{family} family requires an {key!r} path")
    tolerances = resolve_tolerances(obj.get("tolerances", {}))
    return RunConfig(family, family_keys, grid, spectral, values["out_dir"], tolerances)


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    with naming(path):
        try:
            obj = json.loads(path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise ConfigError(f"config is not valid JSON: {e}") from None
    return config_from_mapping(obj)
