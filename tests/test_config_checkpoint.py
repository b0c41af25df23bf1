"""Config validation/hashing and the XGCK checkpoint container."""

import argparse
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from crossgen import cli
from crossgen import pipeline as pl
from crossgen.checkpoint import (XGCK_VERSION, FieldReader, file_checksum, load_checkpoint,
                                 pack_text, save_checkpoint)
from crossgen.config import DEFAULTS, config_hash, load_config
from crossgen.errors import ArtifactError, ConfigError
from crossgen.pipeline import write_manifest
from crossgen.toydata import generate_dataset, save_dataset


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
    for value in ("uniform", "dirichlet", "bogus"):  # the uniform draw is the only one
        with pytest.raises(ConfigError, match="unknown config key: conditioning"):
            load_config({"conditioning": {"weights": value}})


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


OUT_OF_RANGE = {
    "zero_batch_size": ({"diffusion": {"batch_size": 0}}, "diffusion.batch_size"),
    "zero_joint_batch_size": ({"joint": {"batch_size": 0}}, "joint.batch_size"),
    "one_row_encoder_batch": ({"encoder": {"batch_size": 1}}, "encoder.batch_size"),
    "one_row_joint_batch": ({"joint": {"batch_size": 1}}, "joint.batch_size"),
    "zero_width": ({"encoder": {"hidden": 0}}, "encoder.hidden"),
    "zero_codec_width": ({"diffusion": {"text_codec": {"latent_dim": 0}}},
                         "diffusion.text_codec.latent_dim"),
    "zero_width_in_list": ({"eval": {"classifier_hidden": [64, 0]}},
                           "eval.classifier_hidden"),
    "zero_dataset": ({"dataset": {"n": 0}}, "dataset.n"),
    "zero_denoiser_blocks": ({"diffusion": {"blocks": 0}}, "diffusion.blocks"),
    "negative_epochs": ({"encoder": {"epochs": -1}}, "encoder.epochs"),
    "negative_nested_epochs": ({"eval": {"utility": {"scarcity_epochs": -3}}},
                               "eval.utility.scarcity_epochs"),
    "one_timestep": ({"diffusion": {"timesteps": 1}}, "diffusion.timesteps"),
    "zero_beta_min": ({"diffusion": {"beta_min": 0.0}}, "beta_min"),
    "beta_min_above_max": ({"diffusion": {"beta_min": 0.3, "beta_max": 0.2}}, "beta_min"),
    "beta_max_one": ({"diffusion": {"beta_max": 1.0}}, "beta_max"),
    "zero_temperature": ({"encoder": {"temperature": 0.0}}, "encoder.temperature"),
    "negative_temperature": ({"joint": {"temperature": -0.07}}, "joint.temperature"),
    "seed_above_int64": ({"seed": 2 ** 63}, "seed must fit a signed 64-bit"),
    "seed_below_int64": ({"seed": -2 ** 63 - 1}, "seed must fit a signed 64-bit"),
    "one_classifier_width": ({"eval": {"classifier_hidden": [8]}},
                             "eval.classifier_hidden must hold exactly 2"),
    "three_classifier_widths": ({"eval": {"classifier_hidden": [8, 8, 8]}},
                                "eval.classifier_hidden must hold exactly 2"),
    "no_classifier_width": ({"eval": {"classifier_hidden": []}},
                            "eval.classifier_hidden must hold exactly 2"),
    "negative_multiplier": ({"eval": {"utility": {"scarcity_multipliers": [0.0, -1.0]}}},
                            "eval.utility.scarcity_multipliers"),
    "no_multiplier": ({"eval": {"utility": {"scarcity_multipliers": []}}},
                      "eval.utility.scarcity_multipliers"),
    "zero_lr": ({"encoder": {"lr": 0.0}}, "encoder.lr must be positive"),
    "negative_lr": ({"joint": {"lr": -1e-3}}, "joint.lr must be positive"),
    "zero_codec_lr": ({"diffusion": {"image_codec": {"lr": 0}}},
                      "diffusion.image_codec.lr must be positive"),
    "negative_codec_lr": ({"diffusion": {"text_codec": {"lr": -3e-3}}},
                          "diffusion.text_codec.lr must be positive"),
    "negative_weight_decay": ({"diffusion": {"weight_decay": -1e-4}},
                              "diffusion.weight_decay must not be negative"),
    "negative_pixel_noise": ({"eval": {"utility": {"pixel_noise": -0.25}}},
                             "eval.utility.pixel_noise must not be negative"),
    "negative_contrastive_weight": ({"joint": {"contrastive_weight": -0.1}},
                                    "joint.contrastive_weight must not be negative"),
    "zero_scarcity_base": ({"eval": {"utility": {"scarcity_base": 0}}},
                           "eval.utility.scarcity_base must be at least 1"),
    "zero_imbalance_base": ({"eval": {"utility": {"imbalance_base": 0}}},
                            "eval.utility.imbalance_base must be at least 1"),
    "nan_lr": ({"encoder": {"lr": float("nan")}}, "encoder.lr must be finite"),
    "nan_temperature": ({"joint": {"temperature": float("nan")}},
                        "joint.temperature must be finite"),
    "infinite_pixel_noise": ({"eval": {"utility": {"pixel_noise": float("inf")}}},
                             "eval.utility.pixel_noise must be finite"),
    "infinite_multiplier": ({"eval": {"utility": {"scarcity_multipliers": [0.0, float("inf")]}}},
                            r"eval.utility.scarcity_multipliers\[1\] must be finite"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_value_ranges_checked_at_load(case):
    overrides, key = OUT_OF_RANGE[case]
    with pytest.raises(ConfigError, match=key):
        load_config(overrides)


#: each mode key with the values it accepts
MODES = {("diffusion", "sigma_mode"): ("beta", "alpha_bar_ratio")}


@pytest.mark.parametrize("section, key, value", [("diffusion", "sigma_mode", "weird")])
def test_an_unknown_mode_value_is_rejected_at_load_naming_the_allowed_values(section, key,
                                                                             value):
    allowed = ", ".join(MODES[section, key])
    with pytest.raises(ConfigError, match=f"{section}.{key} must be one of {allowed}, "
                                          f"got '{value}'"):
        load_config({section: {key: value}})


def test_every_known_mode_value_is_accepted():
    for (section, key), values in MODES.items():
        for value in values:
            assert load_config({section: {key: value}})[section][key] == value


def test_range_edges_accepted():
    cfg = load_config({"encoder": {"epochs": 0, "batch_size": 2},
                       "diffusion": {"timesteps": 2, "beta_min": 0.1, "beta_max": 0.1,
                                     "batch_size": 1},
                       "joint": {"temperature": 1e-9}})
    assert cfg["diffusion"]["timesteps"] == 2
    for seed in (-2 ** 63, -1, 0, 2 ** 63 - 1):
        assert load_config({"seed": seed})["seed"] == seed
    assert load_config({"eval": {"utility": {"scarcity_multipliers": [0]}}})
    edges = load_config({"encoder": {"weight_decay": 0.0}, "joint": {"contrastive_weight": 0},
                         "eval": {"utility": {"pixel_noise": 0.0, "scarcity_base": 1,
                                              "imbalance_base": 1}}})
    assert edges["encoder"]["weight_decay"] == edges["eval"]["utility"]["pixel_noise"] == 0


def test_int_accepted_for_float_field():
    cfg = load_config({"diffusion": {"lr": 1, "weight_decay": 0},
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
    # the writer returns the whole file's checksum, hashed as it wrote
    assert back["file_checksum"] == digest == file_checksum(path)
    assert back["metadata"] == meta
    np.testing.assert_array_equal(back["arrays"]["w"], arrays["w"])
    np.testing.assert_array_equal(back["arrays"]["b"], arrays["b"])


def test_checkpoint_round_trips_a_0d_array_with_its_shape(tmp_path):
    arrays = {"s": np.array(2.0), "t": np.array([3.0]), "f": np.asfortranarray(
        np.arange(6.0).reshape(2, 3))}
    path = tmp_path / "ck.xgck"
    save_checkpoint(path, "alignment", "00" * 32, arrays, {})
    back = load_checkpoint(path)["arrays"]
    assert {k: v.shape for k, v in back.items()} == {"s": (), "t": (1,), "f": (2, 3)}
    assert all(back[k].tobytes() == np.ascontiguousarray(v).tobytes()
               for k, v in arrays.items())


def test_loaded_arrays_are_writable_and_own_their_memory(tmp_path):
    arrays = {"a": np.arange(4.0), "c": np.ones((2, 0)), "d": np.full((3, 2), -1.0)}
    path = tmp_path / "ck.xgck"
    save_checkpoint(path, "alignment", "00" * 32, arrays, {})
    back = load_checkpoint(path)["arrays"]
    for name, a in back.items():
        assert a.flags.writeable and a.flags.owndata and a.base is None, name
        assert a.dtype == np.float64 and a.shape == arrays[name].shape, name
        a[...] = 7.0  # as a caller that fills a module in place does
    assert [back[n].tobytes() for n in "ad"] == [np.full(4, 7.0).tobytes(),
                                                 np.full((3, 2), 7.0).tobytes()]
    again = load_checkpoint(path)["arrays"]  # the writes reached no shared buffer
    for name, a in arrays.items():
        assert again[name].tobytes() == a.tobytes(), name


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


def test_field_reader_reads_back_what_pack_text_and_struct_wrote(tmp_path):
    import struct
    data = pack_text("stage:\u00e9") + struct.pack("<qB", -7, 3) + pack_text("{}", "<I")
    fields = FieldReader(data, tmp_path / "f.bin", "test file")
    assert fields.text() == "stage:\u00e9"
    assert fields.unpack("<qB") == (-7, 3)
    assert fields.text("<I") == "{}"
    fields.finish()
    with pytest.raises(ArtifactError, match=f"^{tmp_path / 'f.bin'}: truncated test file"):
        fields.take(1)


def test_field_reader_finish_counts_the_trailing_bytes(tmp_path):
    fields = FieldReader(pack_text("ab") + b"xyz", tmp_path / "f.bin", "test file")
    assert fields.text() == "ab"
    with pytest.raises(ArtifactError, match=f"^{tmp_path / 'f.bin'}: 3 trailing bytes"):
        fields.finish()


def test_a_truncated_checkpoint_body_names_its_file(tmp_path):
    import hashlib
    path = tmp_path / "ck.xgck"
    save_checkpoint(path, "alignment", "00" * 32, {"w": np.ones(4)}, {"k": 1})
    body = path.read_bytes()[:-32 - 9]  # cut into the values, then re-seal
    path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(ArtifactError, match=f"^{path}: truncated checkpoint"):
        load_checkpoint(path)


def test_a_checkpoint_with_bytes_after_its_arrays_names_its_file(tmp_path):
    import hashlib
    path = tmp_path / "ck.xgck"
    save_checkpoint(path, "alignment", "00" * 32, {"w": np.ones(4)}, {})
    body = path.read_bytes()[:-32] + b"\0\0"
    path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(ArtifactError, match=f"^{path}: 2 trailing bytes"):
        load_checkpoint(path)


def _write_checkpoint(home, version):
    save_checkpoint(home / "align.xgck", "alignment", "00" * 32,
                    {"w": np.full(64, float(version))}, {"version": version})


def _write_dataset(home, version):
    save_dataset(generate_dataset(seed=version, n=20), home / "toy.xgtd")


def _write_manifest(home, version):
    artifact = home / "artifact.bin"
    with open(artifact, "wb") as f:  # not through the failing Path writers
        f.write(b"\1" * 8)
    write_manifest(home, "align", artifact, "ab" * 32, {"v": str(version)},
                   file_checksum(artifact))


def _write_history(home, version):  # a stage writes its history CSV first
    pl._write_stage(load_config(), home, "align", {"w": np.full(4, float(version))}, {}, [],
                    (("epoch", "loss"), [(0, float(version))]))


def _write_report(home, version):
    pl.write_metric_report(home, "fid", {"fid": float(version)}, load_config(), version,
                           csv_rows=[(version, 0.5)], csv_header=("seed", "fid"))


def _write_payload(home, version):
    pl.save_payload(home / "sample_000.report.json", "report", ["no", "finding"][:version])


def _write_provenance(home, version):  # no samples: generate writes provenance.json alone
    args = argparse.Namespace(prompt=[], target=["view_a"], joint=False, seed=version,
                              count=0, out=str(home / "out"))
    with mock.patch.object(pl, "generate_samples", return_value=([], {"seed": version})):
        cli._cmd_generate(args, load_config(), home)


def _files(home) -> dict:
    return {p.relative_to(home): p.read_bytes() for p in home.rglob("*") if p.is_file()}


class _FullDisk:
    """A file opened for writing that takes half the bytes (or characters)
    of its first write, then fails as a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        if not isinstance(data, str):
            data = memoryview(data).cast("B")
        self.fh.write(data[:len(data) // 2])
        raise OSError("no space left on device")


WRITES = {"checkpoint": _write_checkpoint, "dataset": _write_dataset,
          "manifest": _write_manifest, "history": _write_history, "report": _write_report,
          "payload": _write_payload, "provenance": _write_provenance}


@pytest.mark.parametrize("write", list(WRITES.values()), ids=list(WRITES))
def test_failed_artifact_write_keeps_the_previous_file(write, tmp_path, monkeypatch):
    """A write that dies partway (here: half the bytes, then a full disk)
    leaves every file under the home with its previous bytes and no
    temporary file beside it."""
    write(tmp_path, 1)
    before = _files(tmp_path)
    real_open = Path.open

    def half_then_fail(self, mode="r", *args, **kwargs):
        fh = real_open(self, mode, *args, **kwargs)
        return _FullDisk(fh) if "w" in mode else fh

    monkeypatch.setattr(Path, "open", half_then_fail)
    with pytest.raises(OSError, match="no space"):
        write(tmp_path, 2)
    monkeypatch.undo()
    assert _files(tmp_path) == before
