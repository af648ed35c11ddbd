from pathlib import Path

import pytest

from mvmae.config import PRESETS, load_config, preset_or_file

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_every_preset_ships_a_config_file():
    assert sorted(p.stem for p in CONFIGS.glob("*.json")) == sorted(PRESETS)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_shipped_config_matches_preset(name):
    shipped = load_config(CONFIGS / f"{name}.json")
    assert shipped.config_hash() == PRESETS[name]().config_hash()
    assert preset_or_file(str(CONFIGS / f"{name}.json")) == preset_or_file(name)
