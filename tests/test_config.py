import json
import math
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import pytest

from mvmae.config import (
    PRESETS, DataConfig, ModelConfig, TrainConfig, config_from_dict, load_config,
    preset_or_file,
)
from mvmae.errors import ConfigError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_every_preset_ships_a_config_file():
    assert sorted(p.stem for p in CONFIGS.glob("*.json")) == sorted(PRESETS)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_shipped_config_matches_preset(name):
    shipped = load_config(CONFIGS / f"{name}.json")
    assert shipped.config_hash() == PRESETS[name]().config_hash()
    assert preset_or_file(str(CONFIGS / f"{name}.json")) == preset_or_file(name)


def bad_field_values():
    """(section, field, value) for every field of the config dataclasses:
    zero (where the field must be positive), negative, float and string
    values for integer fields; non-finite, bool, string and too-large
    integer values for float fields."""
    cases = []
    for section, cls in (("model", ModelConfig), ("train", TrainConfig), ("data", DataConfig)):
        for f in fields(cls):
            if f.type == "int":
                zero = [] if f.name in ("dec_depth", "warmup_steps", "dataset_seed") else [0]
                values = zero + [-1, 2.0, 2.5, "2", True]
            else:
                values = [float("nan"), float("inf"), -float("inf"), True, "0.5", 10**400]
            cases += [
                pytest.param(
                    section, f.name, v,
                    id=f"{section}.{f.name}={'10**400' if v == 10**400 else repr(v)}",
                )
                for v in values
            ]
    return cases


@pytest.mark.parametrize("section, name, value", bad_field_values())
def test_bad_field_value_raises_config_error(section, name, value, tmp_path):
    raw = asdict(PRESETS["tiny"]())
    raw[section][name] = value
    with pytest.raises(ConfigError, match=rf"{section}\.{name}"):
        config_from_dict(raw)
    # the same through a file, where json spells the non-finite floats
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match=rf"{section}\.{name}"):
        load_config(path)


@pytest.mark.parametrize("version", [True, 1.0, "1", 2])
def test_bad_version_raises_config_error(version):
    raw = asdict(PRESETS["tiny"]())
    raw["version"] = version
    with pytest.raises(ConfigError, match="version"):
        config_from_dict(raw)


def test_zero_allowed_where_documented():
    raw = asdict(PRESETS["tiny"]())
    raw["model"]["dec_depth"] = 0
    raw["train"]["warmup_steps"] = 0
    raw["data"]["dataset_seed"] = 0
    config_from_dict(raw)


@pytest.mark.parametrize(
    "section, values",
    [
        ("model", {"K": 4}),  # K == V
        ("model", {"fov_deg": math.nextafter(180.0, 0.0)}),
        ("model", {"fov_deg": 5e-324}),
        ("data", {"n_points": 8}),  # max(n, k, MIN_POINTS) at tiny
        ("train", {"weight_decay": 0.0}),
        ("train", {"weight_decay": sys.float_info.max}),
        ("model", {"elevation_deg": -sys.float_info.max}),
    ],
    ids=[
        "K_equals_V", "fov_below_180", "fov_above_0", "n_points_at_minimum",
        "weight_decay_0", "float_max", "negative_float_max",
    ],
)
def test_boundary_values_accepted(section, values):
    tiny = PRESETS["tiny"]()
    raw = asdict(tiny)
    raw[section].update(values)
    cfg = config_from_dict(raw)
    assert getattr(cfg, section) == replace(getattr(tiny, section), **values)


def test_unknown_section_raises_config_error():
    raw = asdict(PRESETS["tiny"]())
    raw["modle"] = raw.pop("model")
    with pytest.raises(ConfigError, match="modle"):
        config_from_dict(raw)


def test_misspelt_field_raises_config_error():
    with pytest.raises(ConfigError, match="bogus"):
        config_from_dict({"model": {"bogus": 1}})
