import json

import pytest

from cmclab.config import RunConfig, config_from_mapping, load_config
from cmclab.errors import ConfigError, InvalidInputError
from cmclab.frames import SpectralParam
from cmclab.report import default_tolerances
from cmclab.surface_data import GridSpec

MINIMAL = {"family": "cylinder", "lambda": 0.5, "out_dir": "/tmp/x"}


def test_minimal_config_defaults():
    cfg = config_from_mapping(dict(MINIMAL))
    assert cfg.family == "cylinder"
    assert cfg.spectral == SpectralParam(0.5)
    assert cfg.data().H == 0.5
    assert cfg.grid == GridSpec(-1.0, 1.0, -1.0, 1.0, 101, 101)
    assert cfg.tolerances == default_tolerances()


def test_grid_and_spectral_builders():
    cfg = config_from_mapping({**MINIMAL, "nx": 11, "ny": 7, "x_max": 2.0})
    assert cfg.grid == GridSpec(-1.0, 2.0, -1.0, 1.0, 11, 7)
    assert cfg.spectral.lam == 0.5


def test_unknown_keys_refused_by_name():
    with pytest.raises(ConfigError, match="lambda_max"):
        config_from_mapping({**MINIMAL, "lambda_max": 0.9})


@pytest.mark.parametrize("missing", ["family", "lambda", "out_dir"])
def test_required_keys(missing):
    obj = dict(MINIMAL)
    del obj[missing]
    with pytest.raises(ConfigError, match=missing):
        config_from_mapping(obj)


def test_unknown_family():
    with pytest.raises(ConfigError, match="unduloid"):
        config_from_mapping({**MINIMAL, "family": "unduloid"})


@pytest.mark.parametrize(
    "key,value",
    [
        ("lambda", 1.2),
        ("lambda", 0.0),
        ("nx", 4),
        ("ny", 3),
    ],
)
def test_invalid_numeric_ranges(key, value):
    with pytest.raises(ConfigError):
        config_from_mapping({**MINIMAL, key: value})


def test_inverted_extents():
    with pytest.raises(ConfigError, match="extents"):
        config_from_mapping({**MINIMAL, "x_min": 1.0, "x_max": -1.0})


def test_boolean_is_not_a_number():
    with pytest.raises(ConfigError, match="boolean"):
        config_from_mapping({**MINIMAL, "H": True})


def test_grid_size_must_be_integer():
    with pytest.raises(ConfigError, match="nx"):
        config_from_mapping({**MINIMAL, "nx": 50.5})


def test_custom_file_needs_input():
    with pytest.raises(ConfigError, match="input"):
        config_from_mapping({**MINIMAL, "family": "custom-file"})


def test_tolerances_must_be_numeric_map():
    with pytest.raises(ConfigError):
        config_from_mapping({**MINIMAL, "tolerances": [1, 2]})
    with pytest.raises(ConfigError, match="metric_match_primary"):
        config_from_mapping(
            {**MINIMAL, "tolerances": {"metric_match_primary": "tight"}}
        )
    cfg = config_from_mapping({**MINIMAL, "tolerances": {"metric_match_primary": 1}})
    assert cfg.tolerances == {**default_tolerances(), "metric_match_primary": 1.0}


def test_null_tolerances_refused():
    # JSON null was once read as "no overrides"; it is refused like a list
    for tolerances in (None, [1, 2]):
        with pytest.raises(ConfigError, match="'tolerances' must be a map of check name to number"):
            config_from_mapping({**MINIMAL, "tolerances": tolerances})


def test_direct_constructor_checks_too():
    # a RunConfig holds a GridSpec and a SpectralParam, which check themselves;
    # config_from_mapping builds them
    with pytest.raises(InvalidInputError, match="nx, ny >= 6"):
        RunConfig("cylinder", {}, GridSpec(-1.0, 1.0, -1.0, 1.0, 2, 101),
                  SpectralParam(0.5), "/tmp/x", default_tolerances())


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**MINIMAL, "nx": 21, "ny": 21}))
    cfg = load_config(path)
    assert (cfg.grid.nx, cfg.grid.ny) == (21, 21)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{family: cylinder")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)
