"""CLI contracts at smoke scale: stage ordering, exit codes, payload files,
provenance and deterministic checkpoints."""

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from crossgen import diffusion
from crossgen import pipeline as pl
from crossgen import toydata as td
from crossgen.checkpoint import file_checksum, load_checkpoint, save_checkpoint
from crossgen.cli import main, run_intra_study
from crossgen.config import load_config
from crossgen.diffusion import ImageCodec, noise_stream, sample
from crossgen.errors import ArtifactError
from crossgen.evalkit import bleu, intra_study_consistency
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
    with pytest.raises(ValueError, match=r"missing \['out.b'\]"):
        pl.load_ldm(load_config(cfg_file), home, "view_a")


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
    monkeypatch.setattr(diffusion, "sample",
                        lambda *a, **k: draws.append(1) or sample(*a, **k))
    got = run_intra_study(cfg, trained_home, count=4, seed=2)
    assert len(draws) == 8  # two views per record; the cross baseline reuses them
    assert json.dumps(got) == json.dumps(_intra_study_without_reuse(cfg, trained_home, 4, 2))


def test_dataset_roundtrip_through_cli_artifact(trained_home, cfg_file):
    cfg = load_config(cfg_file)
    ds = pl.load_data(cfg, trained_home)
    assert len(ds.records) == TINY["dataset"]["n"]
    back = td.load_dataset(pl.dataset_path(trained_home))
    assert back.seed == TINY["seed"]


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
