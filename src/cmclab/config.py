"""Run configuration: a flat JSON object with one optional nested map.

Allowed keys: family, H, u0, du0, lambda, x_min, x_max, y_min, y_max, nx,
ny, out_dir, input, tolerances.  "tolerances" is the only nested value, a
map from registered check names to positive numbers, which
`report.resolve_tolerances` validates when the RunConfig is built.  Unknown
keys are rejected so typos cannot silently disable an override, and so are
the NaN and Infinity that Python's json reads.  H is checked by the data it
shapes (`SurfaceData`), not here: a custom-file run does not read it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, InvalidInputError
from .frames import SpectralParam
from .report import finite_number, resolve_tolerances
from .surface_data import GridSpec

FAMILIES = ("cylinder", "delaunay", "custom-file")

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
    H: float = 0.5
    u0: float = 0.3
    du0: float = 0.0
    x_min: float = -1.0
    x_max: float = 1.0
    y_min: float = -1.0
    y_max: float = 1.0
    nx: int = 101
    ny: int = 101
    input_path: str | None = None
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
        if self.family == "custom-file" and not self.input_path:
            raise ConfigError("custom-file family requires an 'input' path")
        resolve_tolerances(self.tolerances)

    def grid(self) -> GridSpec:
        return GridSpec(
            self.x_min, self.x_max, self.y_min, self.y_max, self.nx, self.ny
        )

    def spectral(self) -> SpectralParam:
        return SpectralParam(self.lam)


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
    kwargs = {}
    rename = {"lambda": "lam", "input": "input_path"}
    for key, kind in _SCALAR_KEYS.items():
        if key in obj:
            kwargs[rename.get(key, key)] = _coerce(key, obj[key], kind)
    if "tolerances" in obj:
        kwargs["tolerances"] = obj["tolerances"]
    for required in ("family", "lam", "out_dir"):
        json_name = {"lam": "lambda"}.get(required, required)
        if required not in kwargs:
            raise ConfigError(f"missing required config key {json_name!r}")
    return RunConfig(**kwargs)


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        obj = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: config is not valid JSON: {e}") from None
    return config_from_mapping(obj)
