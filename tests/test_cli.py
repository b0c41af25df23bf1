"""CLI contracts at smoke scale: stage ordering, exit codes, payload files,
provenance and deterministic checkpoints."""

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from crossgen import pipeline as pl
from crossgen import toydata as td
from crossgen.checkpoint import file_checksum, load_checkpoint, save_checkpoint
from crossgen.cli import main
from crossgen.config import load_config
from crossgen.errors import ArtifactError
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


BAD_PROMPTS = {
    "missing_tokens": ("report", {"modality": "report"}),
    "missing_pixels": ("view_a", {"modality": "view_a"}),
    "unknown_token": ("report", {"modality": "report", "tokens": ["study", "zebra"]}),
    "too_many_tokens": ("report", {"modality": "report", "tokens": ["study"] * 33}),
    "empty_report": ("report", {"modality": "report", "tokens": []}),
    "non_finite_pixels": ("view_a", {"modality": "view_a",
                                     "pixels": [[float("nan")] * 16] * 16}),
}


@pytest.mark.parametrize("case", sorted(BAD_PROMPTS))
def test_generate_rejects_bad_prompt_payload(trained_home, cfg_file, tmp_path, case):
    modality, doc = BAD_PROMPTS[case]
    prompt_file = tmp_path / f"p.{modality}.json"
    prompt_file.write_text(json.dumps(doc))
    target = "view_b" if modality == "report" else "report"
    assert main(["--config", cfg_file, "--home", trained_home, "generate",
                 "--prompt", f"{modality}={prompt_file}", "--target", target,
                 "--out", str(tmp_path / "out")]) == 2
    with pytest.raises(ArtifactError):
        pl.load_payload(prompt_file)


def test_tampered_split_sidecar_is_exit_2(tmp_path, cfg_file):
    home = tmp_path / "h"
    assert main(["--config", cfg_file, "--home", str(home), "gen-data"]) == 0
    sidecar = td.sidecar_path(pl.dataset_path(home))
    splits = json.loads(sidecar.read_text())
    splits["train"], splits["test"] = splits["test"], splits["train"]
    sidecar.write_text(json.dumps(splits, sort_keys=True))
    assert main(["--config", cfg_file, "--home", str(home), "train", "align"]) == 2
    with pytest.raises(ArtifactError, match="sidecar"):
        pl.load_data(load_config(cfg_file), home)


def test_checkpoint_missing_an_array_is_exit_2(trained_home, cfg_file, tmp_path):
    home = tmp_path / "home"
    shutil.copytree(trained_home, home)
    path = pl.checkpoint_path(home, "ldm:view_a")
    ck = load_checkpoint(path)
    del ck["arrays"]["denoiser.out.b"]
    save_checkpoint(path, ck["stage"], ck["config_hash"], ck["arrays"], ck["metadata"])
    prompt_file = tmp_path / "p.report.json"
    pl.save_payload(prompt_file, "report", ("routine", "study"))
    assert main(["--config", cfg_file, "--home", str(home), "generate",
                 "--prompt", f"report={prompt_file}", "--target", "view_a",
                 "--out", str(tmp_path / "out")]) == 2
    with pytest.raises(ValueError, match=r"missing \['out.b'\]"):
        pl.load_ldm(load_config(cfg_file), home, "view_a")


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


def test_eval_cosine_and_hamming_on_generated(trained_home, cfg_file, tmp_path):
    cfg = load_config(cfg_file)
    ds = pl.load_data(cfg, trained_home)
    prompt_file = tmp_path / "p.view_b.json"
    pl.save_payload(prompt_file, "view_b", ds.records[1].view_b)
    out = tmp_path / "pairs"
    assert main(["--config", cfg_file, "--home", trained_home, "generate",
                 "--prompt", f"view_b={prompt_file}", "--target", "view_a",
                 "--target", "report", "--joint", "--count", "3",
                 "--out", str(out)]) == 0
    assert main(["--config", cfg_file, "--home", trained_home, "eval", "cosine",
                 "--dir", str(out), "--pair", "view_a", "report"]) == 0
    assert main(["--config", cfg_file, "--home", trained_home, "eval", "hamming",
                 "--dir", str(out)]) == 0
    cos = json.loads((pl.report_dir(trained_home) / "cosine_view_a_report.json").read_text())
    assert -1.0 <= cos["mean"] <= 1.0
    ham = json.loads((pl.report_dir(trained_home) / "hamming.json").read_text())
    assert sum(ham["histogram"]) == 3
    hamming_csv = (pl.report_dir(trained_home) / "hamming.csv").read_text()
    assert hamming_csv.startswith("distance,count")


def test_eval_requires_inputs(trained_home, cfg_file):
    assert main(["--config", cfg_file, "--home", trained_home, "eval", "fid"]) == 2
    assert main(["--config", cfg_file, "--home", trained_home, "eval",
                 "utility"]) == 2


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


def test_dataset_roundtrip_through_cli_artifact(trained_home, cfg_file):
    cfg = load_config(cfg_file)
    ds = pl.load_data(cfg, trained_home)
    assert len(ds.records) == TINY["dataset"]["n"]
    back = td.load_dataset(pl.dataset_path(trained_home))
    assert back.seed == TINY["seed"]
