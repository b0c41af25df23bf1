"""Config validation/hashing and the XGCK checkpoint container."""

import json

import numpy as np
import pytest

from crossgen.checkpoint import (XGCK_VERSION, load_checkpoint,
                                 save_checkpoint)
from crossgen.config import DEFAULTS, config_hash, load_config
from crossgen.errors import ArtifactError, ConfigError


def test_defaults_resolve():
    cfg = load_config()
    assert cfg == DEFAULTS
    assert cfg is not DEFAULTS  # deep copy


def test_overrides_merge_and_hash_changes():
    base = load_config()
    other = load_config({"dataset": {"n": 123}})
    assert other["dataset"]["n"] == 123
    assert other["encoder"] == base["encoder"]
    assert config_hash(base) != config_hash(other)
    assert config_hash(base) == config_hash(load_config())


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config key: nonsense"):
        load_config({"nonsense": 1})
    with pytest.raises(ConfigError, match="diffusion.warp"):
        load_config({"diffusion": {"warp": 9}})
    with pytest.raises(ConfigError, match="eval.utility.bad"):
        load_config({"eval": {"utility": {"bad": 1}}})


MISTYPED = {
    "float_for_int": ({"diffusion": {"batch_size": 64.0}}, "diffusion.batch_size"),
    "bool_for_int": ({"encoder": {"epochs": True}}, "encoder.epochs"),
    "bool_for_float": ({"diffusion": {"lr": False}}, "diffusion.lr"),
    "float_in_int_list": ({"eval": {"classifier_hidden": [64, 32.0]}},
                          r"eval.classifier_hidden\[1\]"),
    "scalar_for_list": ({"dataset": {"positive_rates": 0.5}}, "dataset.positive_rates"),
    "int_for_str": ({"diffusion": {"sigma_mode": 1}}, "diffusion.sigma_mode"),
}


@pytest.mark.parametrize("case", sorted(MISTYPED))
def test_value_types_checked_at_load(case):
    overrides, key = MISTYPED[case]
    with pytest.raises(ConfigError, match=key):
        load_config(overrides)


def test_int_accepted_for_float_field():
    cfg = load_config({"diffusion": {"lr": 1, "beta_max": 0},
                       "eval": {"utility": {"scarcity_multipliers": [0, 1, 2.0]}}})
    assert cfg["diffusion"]["lr"] == 1


def test_config_file_loading(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 99}))
    assert load_config(path)["seed"] == 99
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config(bad)
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.json")


def test_checkpoint_roundtrip(tmp_path):
    arrays = {"w": np.arange(6.0).reshape(2, 3), "b": np.array(1.5)}
    meta = {"kind": "test", "n": 3}
    path = tmp_path / "ck.xgck"
    digest = save_checkpoint(path, "ldm:view_a", "cafe" * 16, arrays, meta)
    back = load_checkpoint(path, expect_stage="ldm:view_a",
                           expect_config_hash="cafe" * 16)
    assert back["checksum"] == digest
    assert back["metadata"] == meta
    np.testing.assert_array_equal(back["arrays"]["w"], arrays["w"])
    np.testing.assert_array_equal(back["arrays"]["b"], arrays["b"])


def test_checkpoint_save_is_deterministic(tmp_path):
    arrays = {"w": np.ones((3, 3))}
    save_checkpoint(tmp_path / "a.xgck", "alignment", "00" * 32, arrays, {"x": 1})
    save_checkpoint(tmp_path / "b.xgck", "alignment", "00" * 32, arrays, {"x": 1})
    assert (tmp_path / "a.xgck").read_bytes() == (tmp_path / "b.xgck").read_bytes()


def test_checkpoint_detects_corruption(tmp_path):
    path = tmp_path / "ck.xgck"
    save_checkpoint(path, "alignment", "00" * 32, {"w": np.ones(4)}, {})
    raw = bytearray(path.read_bytes())
    raw[40] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ArtifactError, match="checksum"):
        load_checkpoint(path)


def test_checkpoint_rejects_other_version(tmp_path):
    import hashlib
    import struct
    path = tmp_path / "ck.xgck"
    save_checkpoint(path, "alignment", "00" * 32, {}, {})
    raw = bytearray(path.read_bytes())[:-32]
    raw[4:6] = struct.pack("<H", XGCK_VERSION + 1)
    body = bytes(raw)
    path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(ArtifactError, match="version"):
        load_checkpoint(path)


def test_checkpoint_stage_and_hash_mismatch(tmp_path):
    path = tmp_path / "ck.xgck"
    save_checkpoint(path, "alignment", "aa" * 32, {}, {})
    with pytest.raises(ArtifactError, match="stage"):
        load_checkpoint(path, expect_stage="classifier")
    with pytest.raises(ArtifactError, match="config hash"):
        load_checkpoint(path, expect_config_hash="bb" * 32)
