"""CLI contracts at smoke scale: stage ordering, exit codes, payload files,
provenance and deterministic checkpoints."""

import copy
import json
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from crossgen import checkpoint, cli
from crossgen import pipeline as pl
from crossgen import toydata as td
from crossgen.checkpoint import file_checksum, load_checkpoint, save_checkpoint
from crossgen.cli import main, run_intra_study, run_utility
from crossgen.config import load_config
from crossgen.diffusion import ImageCodec, noise_stream, sample
from crossgen.errors import ArtifactError, ConfigError
from crossgen.evalkit import bleu, intra_study_consistency
from crossgen.nn import ParameterSet
from crossgen.rng import stream

TINY = {
    "seed": 3,
    "dataset": {"n": 140, "positive_rates": [0.5] * 5},
    "encoder": {"dim": 8, "hidden": 16, "text_embed": 8, "epochs": 2,
                "batch_size": 32},
    "diffusion": {"timesteps": 8, "hidden": 16, "blocks": 1, "attn_dim": 8,
                  "epochs": 2, "batch_size": 32,
                  "image_codec": {"hidden": 16, "epochs": 3, "lr": 3e-3},
                  "text_codec": {"latent_dim": 8, "hidden": 16, "epochs": 3,
                                 "lr": 3e-3}},
    "joint": {"coupling_dim": 4, "proj_hidden": 8, "epochs": 1, "batch_size": 32},
    "eval": {"sample_count": 4, "classifier_epochs": 40,
             "classifier_hidden": [48, 16],
             "utility": {"pixel_noise": 0.2, "anonymization_epochs": 2,
                         "imbalance_n": 120, "imbalance_base": 40,
                         "imbalance_target": 20, "imbalance_epochs": 2,
                         "scarcity_base": 20, "scarcity_pool": 12,
                         "scarcity_epochs": 2,
                         "scarcity_multipliers": [0.0, 0.5]}},
}


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.json"
    path.write_text(json.dumps(TINY))
    return str(path)


@pytest.fixture(scope="module")
def trained_home(tmp_path_factory, cfg_file):
    """One fully trained tiny home shared by the read-only CLI tests."""
    home = str(tmp_path_factory.mktemp("home"))
    assert main(["--config", cfg_file, "--home", home, "gen-data"]) == 0
    assert main(["--config", cfg_file, "--home", home, "train", "align"]) == 0
    for target in ("view_a", "view_b", "report"):
        assert main(["--config", cfg_file, "--home", home,
                     "train", "ldm", "--target", target]) == 0
    assert main(["--config", cfg_file, "--home", home, "train", "joint",
                 "--pair", "view_a", "report"]) == 0
    assert main(["--config", cfg_file, "--home", home, "eval", "classify"]) == 0
    return home


def test_gen_data_refuses_overwrite(tmp_path, cfg_file):
    home = str(tmp_path / "h")
    assert main(["--config", cfg_file, "--home", home, "gen-data"]) == 0
    assert main(["--config", cfg_file, "--home", home, "gen-data"]) == 2
    assert main(["--config", cfg_file, "--home", home, "gen-data", "--force"]) == 0


def test_two_seeds_differ(tmp_path, cfg_file):
    home_a, home_b = str(tmp_path / "a"), str(tmp_path / "b")
    other = dict(TINY)
    other["seed"] = 4
    cfg_b = tmp_path / "cfg_b.json"
    cfg_b.write_text(json.dumps(other))
    assert main(["--config", cfg_file, "--home", home_a, "gen-data"]) == 0
    assert main(["--config", str(cfg_b), "--home", home_b, "gen-data"]) == 0
    assert (file_checksum(pl.dataset_path(home_a))
            != file_checksum(pl.dataset_path(home_b)))


def test_stage_ordering_enforced(tmp_path, cfg_file):
    home = str(tmp_path / "h")
    assert main(["--config", cfg_file, "--home", home, "gen-data"]) == 0
    # joint before ldm -> missing prerequisite (exit 3)
    assert main(["--config", cfg_file, "--home", home, "train", "joint",
                 "--pair", "view_a", "report"]) == 3
    assert main(["--config", cfg_file, "--home", home, "train", "ldm",
                 "--target", "view_a"]) == 3  # alignment missing
    assert main(["--config", cfg_file, "--home", home, "train", "align"]) == 0


def test_train_before_data_is_exit_3(tmp_path, cfg_file):
    home = str(tmp_path / "empty")
    assert main(["--config", cfg_file, "--home", home, "train", "align"]) == 3


def test_missing_dataset_file_is_exit_2(tmp_path, cfg_file, capsys):
    home = str(tmp_path / "h")
    assert main(["--config", cfg_file, "--home", home, "gen-data"]) == 0
    pl.dataset_path(home).unlink()
    assert main(["--config", cfg_file, "--home", home, "train", "align"]) == 2
    assert "missing" in capsys.readouterr().err


def test_a_home_that_cannot_be_created_is_exit_2(tmp_path, cfg_file, capsys):
    home = tmp_path / "a_file"
    home.write_text("")
    assert main(["--config", cfg_file, "--home", str(home), "gen-data"]) == 2
    assert str(home) in capsys.readouterr().err


BAD_MANIFESTS = {"list": "[]", "empty_object": "{}", "int_hash": '{"config_hash": 5}',
                 "not_json": "not json",
                 "no_prerequisites": '{"config_hash": "0", "checksum": "0"}'}


@pytest.mark.parametrize("case", sorted(BAD_MANIFESTS))
def test_a_malformed_manifest_is_exit_2_naming_its_path(tmp_path, cfg_file, capsys, case):
    home = tmp_path / "h"
    assert main(["--config", cfg_file, "--home", str(home), "gen-data"]) == 0
    path = pl.manifest_path(home, "dataset")
    path.write_text(BAD_MANIFESTS[case])
    assert main(["--config", cfg_file, "--home", str(home), "train", "align"]) == 2
    assert f"error: {path}: manifest" in capsys.readouterr().err
    with pytest.raises(ArtifactError, match="manifest"):
        pl.read_manifest(home, "dataset", "0" * 64)


def test_unknown_config_key_is_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"no_such": 1}))
    assert main(["--config", str(bad), "--home", str(tmp_path / "h"),
                 "gen-data"]) == 2


def test_mistyped_config_value_is_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(TINY, diffusion=dict(TINY["diffusion"],
                                                        batch_size=32.0))))
    assert main(["--config", str(bad), "--home", str(tmp_path / "h"),
                 "gen-data"]) == 2


def test_out_of_range_config_value_is_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(TINY, diffusion=dict(TINY["diffusion"],
                                                        batch_size=0))))
    home = tmp_path / "h"
    assert main(["--config", str(bad), "--home", str(home), "gen-data"]) == 2
    assert not home.exists()


def test_a_denoiser_without_blocks_is_exit_2(tmp_path, capsys):
    # without a block the denoiser would read neither the timestep nor the prompt
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(TINY, diffusion=dict(TINY["diffusion"], blocks=0))))
    home = tmp_path / "h"
    assert main(["--config", str(bad), "--home", str(home), "gen-data"]) == 2
    assert "diffusion.blocks" in capsys.readouterr().err
    assert not home.exists()


@pytest.mark.parametrize("seed", [2 ** 63, -2 ** 63 - 1])
def test_a_seed_outside_64_bits_is_exit_2_before_gen_data_writes_anything(tmp_path, capsys,
                                                                         seed):
    # the dataset file packs the seed as a signed 64-bit integer
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"seed": seed, "dataset": {"n": 20}}))
    home = tmp_path / "h"
    assert main(["--config", str(bad), "--home", str(home), "gen-data"]) == 2
    assert "seed must fit a signed 64-bit integer" in capsys.readouterr().err
    assert not home.exists()


def test_the_most_negative_seed_round_trips_through_gen_data(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -2 ** 63, "dataset": {"n": 20}}))
    home = tmp_path / "h"
    assert main(["--config", str(cfg), "--home", str(home), "gen-data"]) == 0
    assert pl.load_data(load_config(str(cfg)), str(home)).seed == -2 ** 63


SCARCITY = ["eval", "utility", "--mode", "scarcity"]


@pytest.mark.parametrize("key, value, stage", [
    ("classifier_hidden", [8], ["eval", "classify"]),
    ("classifier_hidden", [8, 8, 8], ["train", "align"]),
    ("utility.scarcity_multipliers", [-1.0], SCARCITY),
    ("utility.scarcity_multipliers", [], SCARCITY),
])
def test_a_config_list_the_program_cannot_run_is_exit_2_naming_the_key(tmp_path, capsys,
                                                                       key, value, stage):
    section, _, leaf = key.rpartition(".")
    ev = copy.deepcopy(TINY["eval"])
    (ev[section] if section else ev)[leaf] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(TINY, eval=ev)))
    home = tmp_path / "h"
    assert main(["--config", str(bad), "--home", str(home), *stage]) == 2
    assert f"config key eval.{key}" in capsys.readouterr().err
    assert not home.exists()


@pytest.mark.parametrize("section, key, value", [("diffusion", "sigma_mode", "weird")])
def test_an_unknown_mode_is_exit_2_before_train_align_writes_anything(tmp_path, capsys,
                                                                     section, key, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(TINY, **{section: dict(TINY.get(section, {}),
                                                          **{key: value})})))
    home = tmp_path / "h"
    assert main(["--config", str(bad), "--home", str(home), "train", "align"]) == 2
    assert f"{section}.{key} must be one of" in capsys.readouterr().err
    assert not home.exists()


@pytest.mark.parametrize("value", ["uniform", "dirichlet", "bogus"])
def test_a_config_setting_conditioning_weights_is_exit_2_before_any_stage(tmp_path, capsys,
                                                                         value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(TINY, conditioning={"weights": value})))
    home = tmp_path / "h"
    for stage in (["gen-data"], ["train", "align"]):
        assert main(["--config", str(bad), "--home", str(home), *stage]) == 2
        assert "unknown config key: conditioning" in capsys.readouterr().err
    assert not home.exists()


def test_config_mismatch_on_load_is_exit_2(tmp_path, cfg_file):
    home = str(tmp_path / "h")
    assert main(["--config", cfg_file, "--home", home, "gen-data"]) == 0
    changed = dict(TINY)
    changed["encoder"] = dict(TINY["encoder"], dim=12)
    cfg2 = tmp_path / "cfg2.json"
    cfg2.write_text(json.dumps(changed))
    assert main(["--config", str(cfg2), "--home", home, "train", "align"]) == 2


def test_rerun_same_seed_identical_checkpoint(tmp_path, cfg_file):
    homes = []
    for name in ("r1", "r2"):
        home = str(tmp_path / name)
        assert main(["--config", cfg_file, "--home", home, "gen-data"]) == 0
        assert main(["--config", cfg_file, "--home", home, "train", "align"]) == 0
        homes.append(home)
    c1 = file_checksum(pl.checkpoint_path(homes[0], "alignment"))
    c2 = file_checksum(pl.checkpoint_path(homes[1], "alignment"))
    assert c1 == c2


def test_generate_single_target_with_provenance(trained_home, cfg_file, tmp_path):
    cfg = load_config(cfg_file)
    ds = pl.load_data(cfg, trained_home)
    rec = ds.subset("test")[0]
    prompt_file = tmp_path / "prompt.report.json"
    pl.save_payload(prompt_file, "report", rec.report)
    out = tmp_path / "gen"
    assert main(["--config", cfg_file, "--home", trained_home, "generate",
                 "--prompt", f"report={prompt_file}", "--target", "view_a",
                 "--seed", "5", "--count", "2", "--out", str(out)]) == 0
    files = sorted(out.glob("sample_*.view_a.json"))
    assert len(files) == 2
    modality, payload = pl.load_payload(files[0])
    assert modality == "view_a" and payload.shape == (16, 16)
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["subset"] == ["report"]
    assert prov["weights"] == [1.0]
    assert prov["seed"] == 5 and prov["timesteps"] == 8


def test_generate_rejects_prompt_equal_target(trained_home, cfg_file, tmp_path):
    cfg = load_config(cfg_file)
    ds = pl.load_data(cfg, trained_home)
    prompt_file = tmp_path / "p.view_a.json"
    pl.save_payload(prompt_file, "view_a", ds.records[0].view_a)
    assert main(["--config", cfg_file, "--home", trained_home, "generate",
                 "--prompt", f"view_a={prompt_file}", "--target", "view_a",
                 "--out", str(tmp_path / "x")]) == 2


BAD_REQUESTS = {
    "unknown_target": (["--target", "bogus"], "unknown target"),
    "repeated_target": (["--target", "view_a", "--target", "view_a"], "repeated"),
    "repeated_joint_target": (["--joint", "--target", "view_a", "--target", "view_a"],
                              "repeated"),
    "zero_count": (["--target", "view_a", "--count", "0"], "at least 1"),
    "negative_count": (["--target", "view_a", "--count", "-2"], "at least 1"),
    "no_prompt": (["--target", "view_a"], "at least one prompt"),
    "no_target": ([], "at least one target"),
}


@pytest.mark.parametrize("case", sorted(BAD_REQUESTS))
def test_generate_rejects_a_bad_request_before_loading(tmp_path, cfg_file, capsys, case):
    # the home is empty: a request that got as far as loading would exit 3
    args, message = BAD_REQUESTS[case]
    prompt_file = tmp_path / "p.report.json"
    pl.save_payload(prompt_file, "report", ("routine", "study", "no", "findings", "stable"))
    prompt = [] if case == "no_prompt" else ["--prompt", f"report={prompt_file}"]
    out = tmp_path / "out"
    assert main(["--config", cfg_file, "--home", str(tmp_path / "empty"), "generate",
                 *prompt, *args, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_generate_samples_rejects_an_empty_target_list(trained_home, cfg_file):
    # a set-up home: without the check the call returns ``count`` empty samples
    prompt = {"report": ("routine", "study", "no", "findings", "stable")}
    with pytest.raises(ConfigError, match="at least one target"):
        pl.generate_samples(load_config(cfg_file), trained_home, prompt, [],
                            joint=False, seed=0, count=3)


def test_generate_joint_pair(trained_home, cfg_file, tmp_path):
    cfg = load_config(cfg_file)
    ds = pl.load_data(cfg, trained_home)
    prompt_file = tmp_path / "p.view_b.json"
    pl.save_payload(prompt_file, "view_b", ds.records[0].view_b)
    out = tmp_path / "joint"
    assert main(["--config", cfg_file, "--home", trained_home, "generate",
                 "--prompt", f"view_b={prompt_file}", "--target", "view_a",
                 "--target", "report", "--joint", "--seed", "9",
                 "--count", "2", "--out", str(out)]) == 0
    assert len(list(out.glob("sample_*.view_a.json"))) == 2
    assert len(list(out.glob("sample_*.report.json"))) == 2
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["joint"] is True and prov["seed"] == 9


SEED_COMMANDS = {
    "generate": ["generate", "--prompt", "report={prompt}", "--target", "view_a",
                 "--out", "{out}"],
    "intra_study": ["eval", "intra-study", "--count", "2"],
}


@pytest.mark.parametrize("seed", [2 ** 64 + 5, 2 ** 63, -2 ** 63 - 1])
@pytest.mark.parametrize("command", sorted(SEED_COMMANDS))
def test_a_seed_flag_outside_64_bits_is_exit_2_naming_the_flag(trained_home, cfg_file,
                                                               tmp_path, capsys, command,
                                                               seed):
    # rng.stream folds the seed to 64 bits: 2**64 + 5 would draw what 5 draws
    prompt_file = tmp_path / "p.report.json"
    pl.save_payload(prompt_file, "report", ("routine", "study", "no", "findings", "stable"))
    out = tmp_path / "out"
    args = [a.format(prompt=prompt_file, out=out) for a in SEED_COMMANDS[command]]
    assert main(["--config", cfg_file, "--home", trained_home, *args,
                 "--seed", str(seed)]) == 2
    assert "--seed must fit a signed 64-bit integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", [2 ** 63 - 1, -2 ** 63])
def test_a_seed_flag_at_either_64_bit_end_is_recorded(trained_home, cfg_file, tmp_path, seed):
    prompt_file = tmp_path / "p.report.json"
    pl.save_payload(prompt_file, "report", ("routine", "study", "no", "findings", "stable"))
    out = tmp_path / "out"
    assert main(["--config", cfg_file, "--home", trained_home, "generate",
                 "--prompt", f"report={prompt_file}", "--target", "view_a",
                 "--seed", str(seed), "--out", str(out)]) == 0
    assert json.loads((out / "provenance.json").read_text())["seed"] == seed


def test_the_classify_report_records_the_seed_the_classifier_trained_with(trained_home,
                                                                          cfg_file):
    # trained_home ran `eval classify` without --seed; training reads the config seed
    cfg = load_config(cfg_file)
    report = json.loads((pl.report_dir(trained_home) / "classify.json").read_text())
    assert cfg["seed"] != 0 and report["seed"] == cfg["seed"]


BAD_PROMPTS = {
    "missing_tokens": ("report", {"modality": "report"}),
    "missing_pixels": ("view_a", {"modality": "view_a"}),
    "unknown_token": ("report", {"modality": "report", "tokens": ["study", "zebra"]}),
    "too_many_tokens": ("report", {"modality": "report", "tokens": ["study"] * 33}),
    "empty_report": ("report", {"modality": "report", "tokens": []}),
    "non_finite_pixels": ("view_a", {"modality": "view_a",
                                     "pixels": [[float("nan")] * 16] * 16}),
    "missing_file": ("report", None),
}


@pytest.mark.parametrize("case", sorted(BAD_PROMPTS))
def test_generate_rejects_bad_prompt_payload(trained_home, cfg_file, tmp_path, case):
    modality, doc = BAD_PROMPTS[case]
    prompt_file = tmp_path / f"p.{modality}.json"
    if doc is not None:
        prompt_file.write_text(json.dumps(doc))
    target = "view_b" if modality == "report" else "report"
    assert main(["--config", cfg_file, "--home", trained_home, "generate",
                 "--prompt", f"{modality}={prompt_file}", "--target", target,
                 "--out", str(tmp_path / "out")]) == 2
    if case == "empty_report":  # a valid payload file (generate can write one), not a prompt
        assert pl.load_payload(prompt_file) == ("report", ())
        return
    with pytest.raises(ArtifactError):
        pl.load_payload(prompt_file)


@pytest.mark.parametrize("body", [b"not json", b"\x89PNG\r\n\x1a\n\xff\xfe"],
                         ids=["not_json", "binary"])
def test_generate_names_a_prompt_file_that_is_not_json(tmp_path, cfg_file, capsys, body):
    # payloads are read before any model loads, so an empty home suffices
    prompt_file = tmp_path / "p.report.json"
    prompt_file.write_bytes(body)
    assert main(["--config", cfg_file, "--home", str(tmp_path / "empty"), "generate",
                 "--prompt", f"report={prompt_file}", "--target", "view_a",
                 "--out", str(tmp_path / "out")]) == 2
    assert f"error: {prompt_file}: payload file is not JSON text" in capsys.readouterr().err
    with pytest.raises(ArtifactError):
        pl.load_payload(prompt_file)


def test_tampered_dataset_file_is_exit_2(tmp_path, cfg_file, capsys):
    home = tmp_path / "h"
    assert main(["--config", cfg_file, "--home", str(home), "gen-data"]) == 0
    data = pl.dataset_path(home)
    raw = bytearray(data.read_bytes())
    raw[len(raw) // 2] ^= 1
    data.write_bytes(bytes(raw))
    capsys.readouterr()
    assert main(["--config", cfg_file, "--home", str(home), "train", "align"]) == 2
    assert f"error: {data}: checksum mismatch" in capsys.readouterr().err


def test_checkpoint_missing_an_array_is_exit_2(trained_home, cfg_file, tmp_path):
    home = tmp_path / "home"
    shutil.copytree(trained_home, home)
    path = pl.checkpoint_path(home, "ldm:view_a")
    ck = load_checkpoint(path)
    del ck["arrays"]["denoiser.out.b"]
    save_checkpoint(path, ck["stage"], ck["config_hash"], ck["arrays"], ck["metadata"])
    # record the rewritten file in its manifest, so the load gets past the
    # manifest checksum to the array-set check
    manifest_file = pl.manifest_path(home, "ldm:view_a")
    manifest = json.loads(manifest_file.read_text())
    manifest["checksum"] = file_checksum(path)
    manifest_file.write_text(json.dumps(manifest))
    prompt_file = tmp_path / "p.report.json"
    pl.save_payload(prompt_file, "report", ("routine", "study"))
    assert main(["--config", cfg_file, "--home", str(home), "generate",
                 "--prompt", f"report={prompt_file}", "--target", "view_a",
                 "--out", str(tmp_path / "out")]) == 2
    with pytest.raises(ArtifactError, match=rf"^{path}: .*missing \['out.b'\]"):
        pl.load_ldm(load_config(cfg_file), home, "view_a")


def test_training_stages_hash_no_checkpoint_they_wrote(tmp_path, cfg_file, monkeypatch):
    # the manifest records the checksum the writer computed as it wrote
    hashed = []

    def counting(path):
        hashed.append(Path(path).name)
        return file_checksum(path)

    monkeypatch.setattr(pl, "file_checksum", counting, raising=False)
    monkeypatch.setattr(checkpoint, "file_checksum", counting)
    home = tmp_path / "h"
    assert main(["--config", cfg_file, "--home", str(home), "gen-data"]) == 0
    hashed.clear()
    assert main(["--config", cfg_file, "--home", str(home), "train", "align"]) == 0
    assert main(["--config", cfg_file, "--home", str(home),
                 "train", "ldm", "--target", "view_a"]) == 0
    assert [name for name in hashed if name.endswith(".xgck")] == []
    monkeypatch.undo()
    for stage in ("dataset", "alignment", "ldm:view_a"):
        manifest = json.loads(pl.manifest_path(home, stage).read_text())
        assert manifest["checksum"] == file_checksum(pl.checkpoint_path(home, stage))


def test_load_data_reads_the_dataset_file_once(tmp_path, cfg_file, monkeypatch):
    home = tmp_path / "h"
    assert main(["--config", cfg_file, "--home", str(home), "gen-data"]) == 0
    reads = []
    read_bytes, read_text = Path.read_bytes, Path.read_text
    monkeypatch.setattr(Path, "read_bytes", lambda self: reads.append(self.name)
                        or read_bytes(self))
    monkeypatch.setattr(Path, "read_text", lambda self, *a, **k: reads.append(self.name)
                        or read_text(self, *a, **k))
    ds = pl.load_data(load_config(cfg_file), home)
    monkeypatch.undo()
    assert [r for r in reads if r.endswith(".xgck")] == [pl.dataset_path(home).name]
    assert len(ds.records) == TINY["dataset"]["n"]


def test_a_dataset_file_that_does_not_match_its_manifest_fails_before_it_is_parsed(
        tmp_path, cfg_file, monkeypatch):
    home = tmp_path / "h"
    assert main(["--config", cfg_file, "--home", str(home), "gen-data"]) == 0
    data = pl.dataset_path(home)
    ck = load_checkpoint(data)
    ck["arrays"]["split"][:] = 0  # a valid checkpoint the manifest does not record
    save_checkpoint(data, ck["stage"], ck["config_hash"], ck["arrays"], ck["metadata"])
    parsed = []
    monkeypatch.setattr(td, "load_dataset", lambda *a: parsed.append(a))
    with pytest.raises(ArtifactError, match=f"^{data}: content does not match its manifest"):
        pl.load_data(load_config(cfg_file), home)
    assert parsed == []


def test_the_imbalance_arm_renders_only_the_records_it_reads(trained_home, cfg_file,
                                                              monkeypatch):
    u = TINY["eval"]["utility"]
    split = td.generate_dataset(TINY["seed"] + 1, u["imbalance_n"]).split
    reads = min(u["imbalance_base"], len(split["train"])) + len(split["test"])
    rendered = []
    render = td.render_views
    monkeypatch.setattr(td, "render_views", lambda *a: rendered.append(1) or render(*a))
    report = run_utility(load_config(cfg_file), trained_home, "imbalance")
    assert len(rendered) == reads < u["imbalance_n"]
    assert sum(report["baseline_positives"]) > 0


def test_the_imbalance_arm_stacks_only_the_records_it_draws(trained_home, cfg_file,
                                                           monkeypatch):
    u = TINY["eval"]["utility"]
    split = td.generate_dataset(TINY["seed"] + 1, u["imbalance_n"]).split
    drawn = min(u["imbalance_base"], len(split["train"])) + len(split["test"])
    stacked, xy = [], pl._xy
    monkeypatch.setattr(pl, "_xy", lambda records: stacked.append(len(records)) or xy(records))
    run_utility(load_config(cfg_file), trained_home, "imbalance")
    assert sum(stacked) == drawn


def test_the_imbalance_arm_reports_the_baseline_when_no_condition_is_short(tmp_path):
    # a target of 0 positives: every condition meets it, so nothing is drawn
    zero = json.loads(json.dumps(TINY))
    zero["eval"]["utility"]["imbalance_target"] = 0
    cfg_file = tmp_path / "zero.json"
    cfg_file.write_text(json.dumps(zero))
    home = str(tmp_path / "h")
    for stage in (["gen-data"], ["train", "align"], ["train", "ldm", "--target", "view_a"],
                  ["eval", "utility", "--mode", "imbalance"]):
        assert main(["--config", str(cfg_file), "--home", home, *stage]) == 0
    report = json.loads((pl.report_dir(home) / "utility_imbalance.json").read_text())
    assert report["augmented"] == report["baseline"]


def _rewrite_recorded(home, stage, edit) -> Path:
    """Rewrite the checkpoint of ``stage`` through ``edit(ck)`` and record the
    new file in its manifest, so a load gets past every checksum."""
    path = pl.checkpoint_path(home, stage)
    ck = load_checkpoint(path)
    edit(ck)
    save_checkpoint(path, ck["stage"], ck["config_hash"], ck["arrays"], ck["metadata"])
    manifest_file = pl.manifest_path(home, stage)
    manifest = json.loads(manifest_file.read_text())
    manifest["checksum"] = file_checksum(path)
    manifest_file.write_text(json.dumps(manifest))
    return path


#: case -> (stage, edit of its checkpoint, text the error holds; a metadata
#: error also starts with the checkpoint's path)
RECORDED_DEFECTS = {
    "alignment_without_hidden": (
        "alignment", lambda ck: ck["metadata"].pop("hidden"), "metadata lacks ['hidden']"),
    "ldm_without_blocks": (
        "ldm:view_a", lambda ck: ck["metadata"].pop("blocks"), "metadata lacks ['blocks']"),
    "ldm_without_codec_mu": (
        "ldm:view_a", lambda ck: ck["arrays"].pop("codec.stats.mu"), "codec state arrays"),
    "ldm_with_a_stray_codec_stat": (
        "ldm:view_a", lambda ck: ck["arrays"].update({"codec.stats.extra": np.ones(2)}),
        "codec state arrays"),
}


@pytest.mark.parametrize("case", sorted(RECORDED_DEFECTS))
def test_a_recorded_malformed_checkpoint_is_exit_2(trained_home, cfg_file, tmp_path, capsys,
                                                   case):
    stage, edit, message = RECORDED_DEFECTS[case]
    home = tmp_path / "home"
    shutil.copytree(trained_home, home)
    path = _rewrite_recorded(home, stage, edit)
    prompt_file = tmp_path / "p.report.json"
    pl.save_payload(prompt_file, "report", ("routine", "study"))
    assert main(["--config", cfg_file, "--home", str(home), "generate",
                 "--prompt", f"report={prompt_file}", "--target", "view_a",
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert message in err
    if "metadata" in message:
        assert f"error: {path}: checkpoint {message}" in err


def _set(name, index, value):
    """An edit of the dataset checkpoint that sets ``arrays[name][index]``."""
    return lambda ck: ck["arrays"][name].__setitem__(index, value)


#: case -> (edit of the dataset checkpoint, text of the error after its path)
DATASET_DEFECTS = {
    "vocabulary": (lambda ck: ck["metadata"]["vocab"].reverse(),
                   "vocabulary does not match this build"),
    "token_id_past_the_vocabulary": (_set("tokens", (0, 0), len(td.VOCAB)),
                                     "token id out of range"),
    "negative_token_id": (_set("tokens", (0, 0), -1), "token id out of range"),
    "fractional_token_id": (_set("tokens", (0, 0), 1.5), "token id out of range"),
    "empty_report": (_set("tokens", 0, 0), "empty report"),
    "report_past_the_max_length": (
        lambda ck: ck["arrays"].update(tokens=np.ones((TINY["dataset"]["n"],
                                                       td.MAX_REPORT_LEN + 1))),
        "dataset arrays have shapes"),
    "pad_inside_a_report": (_set("tokens", (0, 1), 0), "pad token inside a report"),
    "split_code": (_set("split", 0, 3), r"split code outside \{0, 1, 2\}"),
    "label": (_set("labels", (0, 0), 2), r"label outside \{0, 1\}"),
    "condition_count": (lambda ck: ck["arrays"].update(labels=ck["arrays"]["labels"][:, :4]),
                        "dataset arrays have shapes"),
    "view_shape": (lambda ck: ck["arrays"].update(view_b=ck["arrays"]["view_b"][1:]),
                   "dataset arrays have shapes"),
    "missing_array": (lambda ck: ck["arrays"].pop("factors"), "dataset arrays have shapes"),
    "missing_seed": (lambda ck: ck["metadata"].pop("seed"), r"metadata lacks \['seed'\]"),
}


@pytest.mark.parametrize("case", sorted(DATASET_DEFECTS))
def test_a_recorded_malformed_dataset_is_exit_2_naming_it(tmp_path, cfg_file, capsys, case):
    edit, message = DATASET_DEFECTS[case]
    home = tmp_path / "h"
    assert main(["--config", cfg_file, "--home", str(home), "gen-data"]) == 0
    path = _rewrite_recorded(home, "dataset", edit)
    capsys.readouterr()
    assert main(["--config", cfg_file, "--home", str(home), "train", "align"]) == 2
    assert re.search(f"error: {re.escape(str(path))}: .*{message}", capsys.readouterr().err)
    with pytest.raises(ArtifactError, match=f"^{re.escape(str(path))}: .*{message}"):
        pl.load_data(load_config(cfg_file), home)


def test_a_prompt_file_of_another_modality_is_exit_2_naming_it(tmp_path, cfg_file, capsys):
    prompt_file = tmp_path / "p.report.json"
    pl.save_payload(prompt_file, "report", ("routine", "study"))
    assert main(["--config", cfg_file, "--home", str(tmp_path / "empty"), "generate",
                 "--prompt", f"view_a={prompt_file}", "--target", "view_b",
                 "--out", str(tmp_path / "out")]) == 2
    assert (f"error: {prompt_file}: holds a 'report' payload, not 'view_a'"
            in capsys.readouterr().err)
    assert pl.load_payload(prompt_file, "report")[1] == ("routine", "study")


LOADERS = {
    "alignment": pl.load_encoders,
    "ldm:view_a": lambda cfg, home: pl.load_ldm(cfg, home, "view_a"),
    "joint:view_a+report": lambda cfg, home: pl.load_joint(cfg, home, ("view_a", "report")),
    "classifier": pl.load_classifier,
}


@pytest.mark.parametrize("stage", sorted(LOADERS))
def test_loader_rejects_a_checkpoint_its_manifest_did_not_record(
        stage, trained_home, cfg_file, tmp_path):
    home = tmp_path / "home"
    shutil.copytree(trained_home, home)
    cfg = load_config(cfg_file)
    path = pl.checkpoint_path(home, stage)
    ck = load_checkpoint(path)
    name = sorted(ck["arrays"])[0]
    ck["arrays"][name] = ck["arrays"][name] + 1.0
    # a well-formed checkpoint with its own valid trailing checksum
    save_checkpoint(path, ck["stage"], ck["config_hash"], ck["arrays"], ck["metadata"])
    load_checkpoint(path, stage, ck["config_hash"])
    with pytest.raises(ArtifactError, match="does not match its manifest"):
        LOADERS[stage](cfg, home)


def test_load_joint_rejects_a_base_resaved_after_joint_training(trained_home, cfg_file,
                                                                tmp_path):
    home = tmp_path / "home"
    shutil.copytree(trained_home, home)
    cfg = load_config(cfg_file)
    path = pl.checkpoint_path(home, "ldm:view_a")
    ck = load_checkpoint(path)
    ck["arrays"]["denoiser.out.b"] = ck["arrays"]["denoiser.out.b"] + 1.0
    save_checkpoint(path, ck["stage"], ck["config_hash"], ck["arrays"], ck["metadata"])
    # a valid ldm stage of its own: its manifest records the re-saved file
    manifest_file = pl.manifest_path(home, "ldm:view_a")
    manifest = json.loads(manifest_file.read_text())
    manifest["checksum"] = file_checksum(path)
    manifest_file.write_text(json.dumps(manifest))
    pl.load_ldm(cfg, home, "view_a")
    with pytest.raises(ArtifactError, match=r"joint:view_a\+report.*ldm:view_a"):
        pl.load_joint(cfg, home, ("view_a", "report"))


def test_checkpoint_rewritten_after_its_manifest_is_exit_2(trained_home, cfg_file,
                                                           tmp_path):
    home = tmp_path / "home"
    shutil.copytree(trained_home, home)
    path = pl.checkpoint_path(home, "ldm:view_a")
    ck = load_checkpoint(path)
    ck["metadata"]["note"] = "rewritten"
    save_checkpoint(path, ck["stage"], ck["config_hash"], ck["arrays"], ck["metadata"])
    prompt_file = tmp_path / "p.report.json"
    pl.save_payload(prompt_file, "report", ("routine", "study"))
    assert main(["--config", cfg_file, "--home", str(home), "generate",
                 "--prompt", f"report={prompt_file}", "--target", "view_a",
                 "--out", str(tmp_path / "out")]) == 2


def test_loaders_draw_nothing_and_restore_every_array(trained_home, cfg_file,
                                                      monkeypatch):
    def no_stream(*_):
        raise AssertionError("a loader drew random numbers")

    for module in list(sys.modules.values()):
        if module.__name__.startswith("crossgen") and getattr(module, "stream", None) is stream:
            monkeypatch.setattr(module, "stream", no_stream)

    def saved(stage, prefix=""):
        arrays = load_checkpoint(pl.checkpoint_path(trained_home, stage))["arrays"]
        return {k[len(prefix):]: v for k, v in arrays.items() if k.startswith(prefix)}

    def assert_restored(params, arrays):
        assert params.names() == sorted(arrays)
        for name, t in params.items():
            assert t.shape == arrays[name].shape
            assert t.data.tobytes() == arrays[name].tobytes(), name

    cfg = load_config(cfg_file)
    assert_restored(pl.load_encoders(cfg, trained_home).params, saved("alignment"))
    for m in td.MODALITIES:
        denoiser, codec, _ = pl.load_ldm(cfg, trained_home, m)
        assert_restored(denoiser.params, saved(f"ldm:{m}", "denoiser."))
        assert_restored(codec.params, saved(f"ldm:{m}", "codec.param."))
        stats = saved(f"ldm:{m}", "codec.stats.")
        assert codec.mu.tobytes() == stats["mu"].tobytes()
        assert codec.sd.tobytes() == stats["sd"].tobytes()
    components, _ = pl.load_joint(cfg, trained_home, ("view_a", "report"))
    assert_restored(components.trainable, saved("joint:view_a+report"))
    assert_restored(pl.load_classifier(cfg, trained_home)[0].params, saved("classifier"))


def test_eval_fid_of_real_against_itself_is_zero(trained_home, cfg_file, tmp_path):
    cfg = load_config(cfg_file)
    ds = pl.load_data(cfg, trained_home)
    pool = tmp_path / "realpool"
    for i, rec in enumerate(ds.subset("test")):
        pl.save_payload(pool / f"sample_{i:03d}.view_a.json", "view_a", rec.view_a)
    assert main(["--config", cfg_file, "--home", trained_home, "eval", "fid",
                 "--synth-dir", str(pool)]) == 0
    report = json.loads((pl.report_dir(trained_home) / "fid_view_a.json").read_text())
    assert report["value"] < 1e-6
    assert report["config_hash"] == pl.config_hash(cfg)


def test_eval_bleu_ground_truth_is_one(trained_home, cfg_file, tmp_path):
    cfg = load_config(cfg_file)
    ds = pl.load_data(cfg, trained_home)
    pool = tmp_path / "repool"
    for i, rec in enumerate(ds.subset("test")):
        pl.save_payload(pool / f"sample_{i:03d}.report.json", "report", rec.report)
    assert main(["--config", cfg_file, "--home", trained_home, "eval", "bleu",
                 "--synth-dir", str(pool)]) == 0
    report = json.loads((pl.report_dir(trained_home) / "bleu.json").read_text())
    assert report["bleu"] == [1.0, 1.0, 1.0, 1.0]


def test_eval_cosine_and_hamming_on_generated(trained_home, cfg_file, tmp_path,
                                              monkeypatch):
    cfg = load_config(cfg_file)
    ds = pl.load_data(cfg, trained_home)
    prompt_file = tmp_path / "p.view_b.json"
    pl.save_payload(prompt_file, "view_b", ds.records[1].view_b)
    out = tmp_path / "pairs"
    assert main(["--config", cfg_file, "--home", trained_home, "generate",
                 "--prompt", f"view_b={prompt_file}", "--target", "view_a",
                 "--target", "report", "--joint", "--count", "3",
                 "--out", str(out)]) == 0
    data_loads = []
    monkeypatch.setattr(pl, "load_data", lambda *a: data_loads.append(a))
    assert main(["--config", cfg_file, "--home", trained_home, "eval", "cosine",
                 "--dir", str(out), "--pair", "view_a", "report"]) == 0
    assert main(["--config", cfg_file, "--home", trained_home, "eval", "hamming",
                 "--dir", str(out)]) == 0
    assert data_loads == []  # neither metric reads the dataset
    cos = json.loads((pl.report_dir(trained_home) / "cosine_view_a_report.json").read_text())
    assert -1.0 <= cos["mean"] <= 1.0
    ham = json.loads((pl.report_dir(trained_home) / "hamming.json").read_text())
    assert sum(ham["histogram"]) == 3
    hamming_csv = (pl.report_dir(trained_home) / "hamming.csv").read_text()
    assert hamming_csv.startswith("distance,count")


def test_eval_over_generated_pairs_with_an_empty_report(trained_home, cfg_file, tmp_path):
    # the text codec can decode an empty report and generate writes it: cosine
    # and BLEU skip its pair and count it, Hamming scores it (no labels)
    cfg = load_config(cfg_file)
    ds = pl.load_data(cfg, trained_home)
    prompt_file = tmp_path / "p.view_b.json"
    pl.save_payload(prompt_file, "view_b", ds.records[1].view_b)
    out = tmp_path / "pairs"
    assert main(["--config", cfg_file, "--home", trained_home, "generate",
                 "--prompt", f"view_b={prompt_file}", "--target", "view_a",
                 "--target", "report", "--joint", "--count", "2",
                 "--out", str(out)]) == 0
    report = ("routine", "study")
    pl.save_payload(out / "sample_000.report.json", "report", ())
    pl.save_payload(out / "sample_001.report.json", "report", report)
    assert pl.load_payload(out / "sample_000.report.json") == ("report", ())
    reports = pl.report_dir(trained_home)

    assert main(["--config", cfg_file, "--home", trained_home, "eval", "cosine",
                 "--dir", str(out), "--pair", "view_a", "report"]) == 0
    cos = json.loads((reports / "cosine_view_a_report.json").read_text())
    assert (cos["n"], cos["n_skipped_empty"]) == (1, 1)
    encoders = pl.load_encoders(cfg, trained_home)
    view = pl.load_payload(out / "sample_001.view_a.json")[1]
    expected = np.sum(encoders.encode_batch("view_a", np.stack([view]))
                      * encoders.encode_batch("report", [report]), axis=1)
    assert cos["mean"] == float(expected.mean())

    assert main(["--config", cfg_file, "--home", trained_home, "eval", "bleu",
                 "--synth-dir", str(out)]) == 0
    bl = json.loads((reports / "bleu.json").read_text())
    assert (bl["n"], bl["n_skipped_empty"]) == (1, 1)
    # each candidate keeps its own reference: the second record's
    assert bl["bleu"] == bleu(list(report), [list(ds.subset("test")[1].report)], max_n=4)

    assert main(["--config", cfg_file, "--home", trained_home, "eval", "hamming",
                 "--dir", str(out)]) == 0
    ham = json.loads((reports / "hamming.json").read_text())
    assert ham["n"] == 2 and sum(ham["histogram"]) == 2


def test_eval_cosine_and_bleu_over_empty_reports_alone_are_exit_2(trained_home, cfg_file,
                                                                   tmp_path, capsys):
    out = tmp_path / "empty"
    pl.save_payload(out / "sample_000.report.json", "report", ())
    pl.save_payload(out / "sample_000.view_a.json", "view_a", np.zeros((16, 16)))
    assert main(["--config", cfg_file, "--home", trained_home, "eval", "cosine",
                 "--dir", str(out), "--pair", "view_a", "report"]) == 2
    assert main(["--config", cfg_file, "--home", trained_home, "eval", "bleu",
                 "--synth-dir", str(out)]) == 2
    assert capsys.readouterr().err.count("all 1 pairs hold an empty report") == 2


def test_ldm_checkpoint_metadata_holds_the_target_and_what_load_ldm_reads(trained_home,
                                                                         cfg_file):
    cfg = load_config(cfg_file)
    for target in td.MODALITIES:
        ck = load_checkpoint(pl.checkpoint_path(trained_home, f"ldm:{target}"),
                             f"ldm:{target}", pl.config_hash(cfg))
        assert set(ck["metadata"]) == {"target", *pl._LDM_META}
        assert ck["metadata"]["target"] == target


def test_a_joint_stage_hashes_each_frozen_base_once_before_and_once_after(
        trained_home, cfg_file, tmp_path, monkeypatch):
    cfg = load_config(cfg_file)
    home = tmp_path / "home"
    shutil.copytree(trained_home, home)
    stage, pair = "joint:view_a+report", ("view_a", "report")
    written = load_checkpoint(pl.checkpoint_path(home, stage), stage, pl.config_hash(cfg))
    calls = []
    original = ParameterSet.checksum
    monkeypatch.setattr(ParameterSet, "checksum",
                        lambda self: calls.append(1) or original(self))
    pl.run_train_joint(cfg, home, pair)
    assert len(calls) == 4  # train_joint's check before and after, per base
    monkeypatch.undo()
    meta = load_checkpoint(pl.checkpoint_path(home, stage), stage,
                           pl.config_hash(cfg))["metadata"]
    assert meta == written["metadata"]
    assert meta["base_checksums"] == {m: pl.load_ldm(cfg, home, m)[0].params.checksum()
                                      for m in pair}


def test_eval_requires_inputs(trained_home, cfg_file):
    assert main(["--config", cfg_file, "--home", trained_home, "eval", "fid"]) == 2
    assert main(["--config", cfg_file, "--home", trained_home, "eval",
                 "utility"]) == 2


def test_cli_reexports_the_pipeline_protocols():
    assert cli.run_utility is pl.run_utility
    assert cli.run_intra_study is pl.run_intra_study


def test_run_utility_rejects_an_unknown_mode_before_loading(cfg_file, tmp_path):
    with pytest.raises(ConfigError, match="unknown utility mode"):
        run_utility(load_config(cfg_file), tmp_path / "empty", "bogus")


def test_eval_utility_rejects_a_short_scarcity_pool_before_loading_models(tmp_path, capsys):
    # the home has only the dataset: a run that got as far as the encoders
    # would exit 3
    small = json.loads(json.dumps(TINY))
    small["eval"]["utility"]["scarcity_pool"] = 9  # multiplier 0.5 of base 20 needs 10
    cfg_file = tmp_path / "small.json"
    cfg_file.write_text(json.dumps(small))
    home = str(tmp_path / "h")
    assert main(["--config", str(cfg_file), "--home", home, "gen-data"]) == 0
    assert main(["--config", str(cfg_file), "--home", home, "eval", "utility",
                 "--mode", "scarcity"]) == 2
    assert "scarcity_pool is 9" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="scarcity_pool"):
        run_utility(load_config(str(cfg_file)), home, "scarcity")


def test_eval_utility_and_intra_study_smoke(trained_home, cfg_file):
    for mode in ("anonymization", "imbalance", "scarcity"):
        assert main(["--config", cfg_file, "--home", trained_home, "eval",
                     "utility", "--mode", mode]) == 0
        report = json.loads(
            (pl.report_dir(trained_home) / f"utility_{mode}.json").read_text())
        assert report["mode"] == mode
    assert main(["--config", cfg_file, "--home", trained_home, "eval",
                 "intra-study", "--count", "3"]) == 0
    report = json.loads((pl.report_dir(trained_home) / "intra_study.json").read_text())
    assert len(report["intra"]["mean_bleu"]) == 4


@pytest.mark.parametrize("count", ["0", "-3"])
def test_eval_intra_study_rejects_a_count_below_one(trained_home, cfg_file, tmp_path,
                                                    capsys, count):
    report = pl.report_dir(trained_home) / "intra_study.json"
    before = report.read_bytes() if report.exists() else None
    assert main(["--config", cfg_file, "--home", trained_home, "eval",
                 "intra-study", "--count", count]) == 2
    assert "at least 1" in capsys.readouterr().err
    assert (report.read_bytes() if report.exists() else None) == before
    with pytest.raises(ConfigError, match="at least 1"):  # before any artifact loads
        run_intra_study(load_config(cfg_file), tmp_path / "empty", int(count), seed=0)


def test_eval_rejects_a_modality_fid_cannot_read(trained_home, cfg_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--config", cfg_file, "--home", trained_home, "eval", "fid",
              "--synth-dir", str(tmp_path), "--modality", "report"])
    assert exc.value.code == 2
    assert "--modality" in capsys.readouterr().err


def test_eval_rejects_an_unknown_split(trained_home, cfg_file):
    with pytest.raises(SystemExit) as exc:
        main(["--config", cfg_file, "--home", trained_home, "eval", "bleu",
              "--split", "bogus"])
    assert exc.value.code == 2


def _intra_study_without_reuse(cfg, home, count, seed):
    # the intra-study report as computed before the cross-study baseline
    # reused the intra-study draws: every draw is made anew
    ds = pl.load_data(cfg, home)
    encoders = pl.load_encoders(cfg, home)
    denoiser, codec, _ = pl.load_ldm(cfg, home, "report")
    schedule = pl._schedule(cfg)
    records = ds.subset("test")[:count]

    def generate_report(record, view_name, idx):
        omega = encoders.encode_batch(view_name, np.stack([td.payload(record, view_name)]))
        out = sample(denoiser, schedule, omega, codec,
                     noise_stream(seed + record.id * 7 + idx, "intra"),
                     sigma_mode=cfg["diffusion"]["sigma_mode"])[0]
        return out if out else ("study",)

    intra = intra_study_consistency(generate_report, records, repeats=2)
    cross_scores = np.zeros(4)
    n = 0
    for i, rec in enumerate(records):
        a = generate_report(rec, "view_a", 0)
        b = generate_report(records[(i + 1) % len(records)], "view_b", 1)
        if a and b:
            cross_scores += np.asarray(bleu(list(a), [list(b)], max_n=4))
            n += 1
    return {"intra": intra, "cross_mean_bleu": (cross_scores / max(n, 1)).tolist(),
            "count": len(records)}


def test_intra_study_reuses_its_draws_and_equals_drawing_anew(trained_home, cfg_file,
                                                            monkeypatch):
    cfg = load_config(cfg_file)
    draws = []
    monkeypatch.setattr(pl, "sample",
                        lambda *a, **k: draws.append(1) or sample(*a, **k))
    got = run_intra_study(cfg, trained_home, count=4, seed=2)
    assert len(draws) == 8  # two views per record; the cross baseline reuses them
    assert json.dumps(got) == json.dumps(_intra_study_without_reuse(cfg, trained_home, 4, 2))


def test_dataset_roundtrip_through_cli_artifact(trained_home, cfg_file):
    cfg = load_config(cfg_file)
    ds = pl.load_data(cfg, trained_home)
    assert len(ds.records) == TINY["dataset"]["n"]
    assert ds.seed == TINY["seed"]


@pytest.fixture
def image_codec_fits(monkeypatch):
    """The number of ImageCodec.fit calls made while the test runs."""
    calls = []
    fit = ImageCodec.fit

    def counted(self, *args, **kwargs):
        calls.append(1)
        return fit(self, *args, **kwargs)

    monkeypatch.setattr(ImageCodec, "fit", counted)
    return calls


def _aligned_home(cfg_file, home) -> str:
    home = str(home)
    assert main(["--config", cfg_file, "--home", home, "gen-data"]) == 0
    assert main(["--config", cfg_file, "--home", home, "train", "align"]) == 0
    return home


def _train_ldm(cfg_file, home, target) -> None:
    assert main(["--config", cfg_file, "--home", str(home), "train", "ldm",
                 "--target", target]) == 0


def _stage_bytes(home, stage) -> list[bytes]:
    return [path(home, stage).read_bytes()
            for path in (pl.checkpoint_path, pl.manifest_path, pl.history_path)]


@pytest.fixture(scope="module")
def view_b_alone(tmp_path_factory, cfg_file):
    """The ldm:view_b files of a home where view_b was the only LDM stage."""
    home = _aligned_home(cfg_file, tmp_path_factory.mktemp("alone"))
    _train_ldm(cfg_file, home, "view_b")
    return _stage_bytes(home, "ldm:view_b")


def test_image_stage_takes_the_other_image_stage_codec(tmp_path, cfg_file, view_b_alone,
                                                       image_codec_fits):
    home = _aligned_home(cfg_file, tmp_path / "h")
    _train_ldm(cfg_file, home, "view_a")
    assert len(image_codec_fits) == 1
    _train_ldm(cfg_file, home, "view_b")
    assert len(image_codec_fits) == 1  # view_b reused view_a's codec
    assert _stage_bytes(home, "ldm:view_b") == view_b_alone


def _flip_a_byte(home, cfg_file):
    path = pl.checkpoint_path(home, "ldm:view_a")
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 1
    path.write_bytes(bytes(raw))


def _other_alignment(home, cfg_file):
    path = pl.manifest_path(home, "ldm:view_a")
    manifest = json.loads(path.read_text())
    manifest["prerequisites"]["alignment"] = "0" * 64
    path.write_text(json.dumps(manifest))


def _no_prerequisites(home, cfg_file):
    path = pl.manifest_path(home, "ldm:view_a")
    manifest = json.loads(path.read_text())
    del manifest["prerequisites"]
    path.write_text(json.dumps(manifest))


def _checkpoint_gone(home, cfg_file):
    pl.checkpoint_path(home, "ldm:view_a").unlink()
    with pytest.raises(ArtifactError, match="missing"):
        pl.load_ldm(load_config(cfg_file), home, "view_a")


def _from_another_config(home, cfg_file):
    other = dict(TINY, diffusion=dict(TINY["diffusion"], epochs=1))
    other_cfg = Path(home).parent / "other.json"
    other_cfg.write_text(json.dumps(other))
    other_home = _aligned_home(str(other_cfg), Path(home).parent / "other")
    _train_ldm(str(other_cfg), other_home, "view_a")
    for path in (pl.checkpoint_path, pl.manifest_path):
        shutil.copyfile(path(other_home, "ldm:view_a"), path(home, "ldm:view_a"))


SIBLING_DEFECTS = {
    "tampered": _flip_a_byte,
    "other_alignment": _other_alignment,
    "no_prerequisites": _no_prerequisites,
    "checkpoint_gone": _checkpoint_gone,
    "other_config": _from_another_config,
}


@pytest.mark.parametrize("defect", sorted(SIBLING_DEFECTS))
def test_image_stage_fits_its_own_codec_beside_a_bad_sibling(
        defect, tmp_path, cfg_file, view_b_alone, image_codec_fits):
    home = _aligned_home(cfg_file, tmp_path / "h")
    _train_ldm(cfg_file, home, "view_a")
    SIBLING_DEFECTS[defect](home, cfg_file)
    fits = len(image_codec_fits)
    _train_ldm(cfg_file, home, "view_b")
    assert len(image_codec_fits) == fits + 1
    assert _stage_bytes(home, "ldm:view_b") == view_b_alone
