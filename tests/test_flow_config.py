"""Typed pipeline configuration: validation and dict round-trips."""

import pytest

from repro.core import LearnConfig
from repro.flow import ATPGConfig, ConfigError, ReproConfig
from repro.flow.config import _from_dict


def test_atpg_config_defaults_valid():
    config = ATPGConfig().validate()
    assert config.mode == "forbidden"
    assert config.keep_sequences is False


@pytest.mark.parametrize("kwargs", [
    {"mode": "bogus"},
    {"backtrack_limit": 0},
    {"max_frames": 0},
    {"max_faults": 0},
    {"sim_backend": "array"},
    {"atpg_engine": "turbo"},
    # Mistyped values: a bool is not an int, None only where Optional.
    {"backtrack_limit": "x"},
    {"max_frames": None},
    {"max_faults": 2.5},
    {"keep_sequences": 1},
])
def test_atpg_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        ATPGConfig(**kwargs).validate()


def test_atpg_config_round_trip():
    config = ATPGConfig(mode="known", backtrack_limit=99, max_frames=4,
                        max_faults=7, fill_seed=1, keep_sequences=True,
                        atpg_engine="reference")
    rebuilt = ATPGConfig.from_dict(config.to_dict())
    assert rebuilt == config


@pytest.mark.parametrize("section,key", [
    ("atpg", "sim_width"),
    ("learn", "signature_width"),
    ("learn", "single_node_batch_width"),
])
def test_removed_width_knobs_are_unknown_keys(section, key):
    """Schema version 7 removed the packing-width knobs; a config that
    still names one fails as an unknown key."""
    with pytest.raises(ConfigError, match=key):
        ReproConfig.from_dict({section: {key: None}})


def test_atpg_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown"):
        ATPGConfig.from_dict({"mode": "known", "typo_knob": 1})


def test_learn_config_round_trip():
    config = LearnConfig(max_frames=17, use_multi_node=False, seed=3)
    assert _from_dict(LearnConfig, config.to_dict()) == config
    with pytest.raises(ConfigError, match="unknown"):
        _from_dict(LearnConfig, {"maxframes": 17})


def test_repro_config_round_trip():
    config = ReproConfig(learn=LearnConfig(max_frames=12),
                         atpg=ATPGConfig(mode="none"),
                         retime=2)
    rebuilt = ReproConfig.from_dict(config.to_dict())
    assert rebuilt == config
    assert rebuilt.learn.max_frames == 12
    assert rebuilt.atpg.mode == "none"


def test_repro_config_learn_typo_raises_config_error():
    with pytest.raises(ConfigError, match="unknown"):
        ReproConfig.from_dict({"learn": {"typo": 1}})


def test_repro_config_validation():
    with pytest.raises(ConfigError):
        ReproConfig(retime=-1).validate()
    with pytest.raises(ConfigError):
        ReproConfig(atpg=ATPGConfig(mode="nope")).validate()
    with pytest.raises(ConfigError, match="unknown"):
        ReproConfig.from_dict({"learn": {}, "atpgg": {}})
