"""End-to-end orchestration over an artifact directory.

Stage outputs (dataset, checkpoints, metric reports) live under a home
directory. Each artifact gets a manifest recording its content checksum,
the config hash that produced it and the checksums of its prerequisites;
stage ordering is enforced through these manifests, never timestamps.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from . import toydata as td
from .bridging import PromptEncoders, train_alignment
from .checkpoint import load_checkpoint, save_checkpoint, write_atomic
from .conditioning import combine
from .config import config_hash
from .diffusion import (Denoiser, ImageCodec, TextCodec, make_schedule,
                        noise_stream, sample, train_ldm)
from .errors import ArtifactError, ConfigError, MissingPrerequisiteError
from .evalkit import (FeatureExtractor, bleu, build_classifier,
                      intra_study_consistency, train_classifier, utility_reports)
from .jointgen import build_joint, joint_sample, train_joint
from .rng import stream

JOINT_PAIRS = (("view_a", "view_b"), ("view_a", "report"), ("view_b", "report"))


# ---------------------------------------------------------------------------
# layout and manifests

def dataset_path(home) -> Path:
    return Path(home) / "data" / "toy.xgtd"


def checkpoint_path(home, stage: str) -> Path:
    return Path(home) / "checkpoints" / (stage.replace(":", "_").replace("+", "_") + ".xgck")


def history_path(home, stage: str) -> Path:
    return Path(home) / "history" / (stage.replace(":", "_").replace("+", "_") + ".csv")


def report_dir(home) -> Path:
    return Path(home) / "reports"


def manifest_path(home, stage: str) -> Path:
    return Path(home) / "manifests" / (stage.replace(":", "_").replace("+", "_") + ".json")


def write_manifest(home, stage: str, artifact: Path, cfg_hash: str,
                   prerequisites: dict[str, str], checksum: str,
                   sidecar_checksum: str | None = None) -> None:
    """Record ``artifact`` (and its sidecar) by the checksums its writer
    returned, which hashed the bytes it wrote: nothing is read back."""
    path = manifest_path(home, stage)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"stage": stage, "artifact": artifact.name,
               "checksum": checksum, "config_hash": cfg_hash,
               "prerequisites": prerequisites}
    if sidecar_checksum is not None:
        payload["sidecar_checksum"] = sidecar_checksum
    write_atomic(path, [json.dumps(payload, sort_keys=True, indent=1).encode()])


def read_manifest(home, stage: str, cfg_hash: str) -> dict:
    """The manifest of ``stage``; ArtifactError naming its path if it is not
    JSON, lacks a string ``config_hash`` or ``checksum`` or a
    ``prerequisites`` object, or was written under another config."""
    path = manifest_path(home, stage)
    if not path.exists():
        raise MissingPrerequisiteError(stage)
    try:
        manifest = json.loads(path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"{path}: manifest is not JSON text ({exc})") from exc
    if not (isinstance(manifest, dict) and isinstance(manifest.get("config_hash"), str)
            and isinstance(manifest.get("checksum"), str)
            and isinstance(manifest.get("prerequisites"), dict)):
        raise ArtifactError(f"{path}: manifest is not an object with string 'config_hash' "
                            f"and 'checksum' fields and a 'prerequisites' object")
    if manifest["config_hash"] != cfg_hash:
        raise ArtifactError(
            f"{stage}: artifact was produced under config {manifest['config_hash'][:12]}..., "
            f"the active config hashes to {cfg_hash[:12]}...")
    return manifest


def _load_stage(cfg: dict, home, stage: str, meta_keys=()) -> dict:
    """The verified checkpoint of ``stage`` (see ``load_checkpoint``), with
    its manifest under ``"manifest"`` and its file under ``"path"``;
    ArtifactError naming the file unless it is the one its manifest recorded
    and its metadata has ``meta_keys``."""
    cfg_hash = config_hash(cfg)
    manifest = read_manifest(home, stage, cfg_hash)
    path = checkpoint_path(home, stage)
    if not path.is_file():
        raise ArtifactError(f"{path}: missing, though its manifest exists")
    ck = load_checkpoint(path, stage, cfg_hash)
    if ck["file_checksum"] != manifest["checksum"]:
        raise ArtifactError(f"{path}: content does not match its manifest")
    meta = ck["metadata"]
    missing = [k for k in meta_keys if not isinstance(meta, dict) or k not in meta]
    if missing:
        raise ArtifactError(f"{path}: checkpoint metadata lacks {missing}")
    ck["manifest"], ck["path"] = manifest, path
    return ck


def _restore(target, ck: dict, prefix: str = ""):
    """``target`` (a parameter set or a codec) filled from the arrays of the
    loaded stage ``ck`` under ``prefix``; ArtifactError naming the checkpoint
    and the arrays when they do not match ``target``."""
    try:
        target.load_state_arrays(ck["arrays"], prefix)
    except ValueError as exc:
        raise ArtifactError(f"{ck['path']}: {exc}") from exc
    return target


def _write_stage(cfg: dict, home, stage: str, arrays: dict, metadata: dict,
                 prerequisites, history=None) -> Path:
    """Write a trained stage's history CSV (``history``: header, rows), its
    checkpoint, and its manifest recording each prerequisite stage's checksum."""
    cfg_hash = config_hash(cfg)
    if history is not None:
        _write_csv(history_path(home, stage), history[1], history[0])
    path = checkpoint_path(home, stage)
    path.parent.mkdir(parents=True, exist_ok=True)
    checksum = save_checkpoint(path, stage, cfg_hash, arrays, metadata)
    write_manifest(home, stage, path, cfg_hash,
                   {p: read_manifest(home, p, cfg_hash)["checksum"] for p in prerequisites},
                   checksum)
    return path


def _write_csv(path: Path, rows, header) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, [text.getvalue().encode()])


# ---------------------------------------------------------------------------
# stage: dataset

def run_gen_data(cfg: dict, home, force: bool = False) -> Path:
    path = dataset_path(home)
    if path.exists() and not force:
        raise ConfigError(f"{path} already exists (pass force to overwrite)")
    path.parent.mkdir(parents=True, exist_ok=True)
    ds = td.generate_dataset(cfg["seed"], cfg["dataset"]["n"],
                             cfg["dataset"]["positive_rates"])
    checksum, sidecar_checksum = td.save_dataset(ds, path)
    write_manifest(home, "dataset", path, config_hash(cfg), {}, checksum, sidecar_checksum)
    return path


def load_data(cfg: dict, home) -> td.Dataset:
    manifest = read_manifest(home, "dataset", config_hash(cfg))
    path = dataset_path(home)
    if not path.is_file():
        raise ArtifactError(f"{path}: missing, though its manifest exists")
    raw = path.read_bytes()  # read once: the bytes hashed are the bytes parsed
    if hashlib.sha256(raw).hexdigest() != manifest["checksum"]:
        raise ArtifactError(f"{path}: content does not match its manifest")
    sidecar = td.sidecar_path(path)
    sidecar_raw = sidecar.read_bytes() if sidecar.is_file() else None
    if (sidecar_raw is None
            or hashlib.sha256(sidecar_raw).hexdigest() != manifest.get("sidecar_checksum")):
        raise ArtifactError(f"{sidecar}: split sidecar does not match its manifest")
    return td.load_dataset(path, raw, sidecar_raw)


# ---------------------------------------------------------------------------
# stage: alignment

def run_train_align(cfg: dict, home) -> Path:
    ds = load_data(cfg, home)
    ec = cfg["encoder"]
    encoders = PromptEncoders(dim=ec["dim"], hidden=ec["hidden"],
                              text_embed=ec["text_embed"], seed=cfg["seed"])
    history = train_alignment(ds, encoders, epochs=ec["epochs"],
                              batch_size=ec["batch_size"], lr=ec["lr"],
                              weight_decay=ec["weight_decay"],
                              tau=ec["temperature"], seed=cfg["seed"])
    meta = {"dim": ec["dim"], "hidden": ec["hidden"], "text_embed": ec["text_embed"]}
    return _write_stage(cfg, home, "alignment", encoders.params.state_arrays(), meta,
                        ["dataset"], (("epoch", "pair", "loss"),
                                      [(h["epoch"], h["pair"], h["loss"]) for h in history]))


def load_encoders(cfg: dict, home) -> PromptEncoders:
    ck = _load_stage(cfg, home, "alignment", ("dim", "hidden", "text_embed"))
    meta = ck["metadata"]
    encoders = PromptEncoders(dim=meta["dim"], hidden=meta["hidden"],
                              text_embed=meta["text_embed"], seed=None)
    _restore(encoders.params, ck)
    return encoders


# ---------------------------------------------------------------------------
# stage: per-modality diffusion

def _schedule(cfg):
    d = cfg["diffusion"]
    return make_schedule(d["timesteps"], d["beta_min"], d["beta_max"])


def _codec(cfg: dict, modality: str, seed: int | None):
    """The config's codec for ``modality``, drawn from ``seed`` (zeros if None)."""
    if modality == "report":
        tc = cfg["diffusion"]["text_codec"]
        return TextCodec(seed=seed, latent_dim=tc["latent_dim"], hidden=tc["hidden"])
    return ImageCodec(seed=seed, hidden=cfg["diffusion"]["image_codec"]["hidden"])


def _load_codec(cfg: dict, modality: str, ck: dict):
    return _restore(_codec(cfg, modality, None), ck, "codec.")


def _fit_codec(cfg: dict, home, ds: td.Dataset, modality: str, alignment: str):
    """The stage's codec, stored in its checkpoint so every checkpoint is
    self-contained. Both image stages fit the same ``ImageCodec`` bytes (the
    train views of both modalities, one seed and config), so an image stage
    takes the other image stage's codec when that checkpoint verifies under
    the active config and records the same ``alignment`` checksum (so it saw
    the same dataset file); otherwise it fits the codec itself."""
    train = ds.subset("train")
    if modality == "report":
        fit, data = cfg["diffusion"]["text_codec"], [r.report for r in train]
    else:
        try:
            sibling = _load_stage(cfg, home, "ldm:view_b" if modality == "view_a" else "ldm:view_a")
        except (MissingPrerequisiteError, ArtifactError):
            sibling = None
        if sibling is not None and sibling["manifest"]["prerequisites"].get("alignment") == alignment:
            return _load_codec(cfg, modality, sibling)
        fit = cfg["diffusion"]["image_codec"]
        data = np.stack([r.view_a for r in train] + [r.view_b for r in train])
    codec = _codec(cfg, modality, cfg["seed"])
    codec.fit(data, epochs=fit["epochs"], lr=fit["lr"], seed=cfg["seed"])
    return codec


def run_train_ldm(cfg: dict, home, target: str) -> Path:
    if target not in td.MODALITIES:
        raise ConfigError(f"unknown target modality {target!r}")
    ds = load_data(cfg, home)
    encoders = load_encoders(cfg, home)
    alignment = read_manifest(home, "alignment", config_hash(cfg))["checksum"]
    codec = _fit_codec(cfg, home, ds, target, alignment)
    d = cfg["diffusion"]
    denoiser, history = train_ldm(
        ds, target, encoders, codec, _schedule(cfg), epochs=d["epochs"],
        batch_size=d["batch_size"], lr=d["lr"], weight_decay=d["weight_decay"],
        hidden=d["hidden"], n_blocks=d["blocks"], attn_dim=d["attn_dim"],
        seed=cfg["seed"])
    arrays = {**denoiser.params.state_arrays("denoiser."), **codec.state_arrays("codec.")}
    meta = {"target": target, "latent_dim": codec.latent_dim,
            "cond_dim": encoders.dim, "timesteps": _schedule(cfg).T,
            "hidden": d["hidden"], "blocks": d["blocks"], "attn_dim": d["attn_dim"]}
    return _write_stage(cfg, home, f"ldm:{target}", arrays, meta, ["alignment"],
                        (("epoch", "loss"), list(enumerate(history))))


_LDM_META = ("latent_dim", "cond_dim", "timesteps", "hidden", "blocks", "attn_dim")


def load_ldm(cfg: dict, home, target: str):
    return _ldm_from_checkpoint(cfg, target, _load_stage(cfg, home, f"ldm:{target}", _LDM_META))


def _ldm_from_checkpoint(cfg: dict, target: str, ck: dict):
    meta = ck["metadata"]
    denoiser = Denoiser(meta["latent_dim"], meta["cond_dim"], meta["timesteps"],
                        hidden=meta["hidden"], n_blocks=meta["blocks"],
                        attn_dim=meta["attn_dim"], seed=None)
    _restore(denoiser.params, ck, "denoiser.")
    return denoiser, _load_codec(cfg, target, ck), meta


# ---------------------------------------------------------------------------
# stage: joint coupling

def run_train_joint(cfg: dict, home, pair: tuple[str, str]) -> Path:
    pair = tuple(pair)
    if pair not in JOINT_PAIRS:
        raise ConfigError(f"unknown joint pair {pair!r}; valid: {JOINT_PAIRS}")
    ds = load_data(cfg, home)
    encoders = load_encoders(cfg, home)
    bases, codecs = {}, {}
    for m in pair:
        bases[m], codecs[m], _ = load_ldm(cfg, home, m)
    j = cfg["joint"]
    components, history, base_checksums = train_joint(
        ds, pair, encoders, codecs, bases, _schedule(cfg), epochs=j["epochs"],
        batch_size=j["batch_size"], lr=j["lr"], weight_decay=j["weight_decay"],
        coupling_dim=j["coupling_dim"], proj_hidden=j["proj_hidden"],
        lam=j["contrastive_weight"], tau=j["temperature"], seed=cfg["seed"])
    meta = {"pair": list(pair), "coupling_dim": j["coupling_dim"],
            "proj_hidden": j["proj_hidden"], "base_checksums": base_checksums}
    return _write_stage(cfg, home, f"joint:{pair[0]}+{pair[1]}",
                        components.trainable.state_arrays(), meta,
                        [f"ldm:{m}" for m in pair], (("epoch", "loss"), list(enumerate(history))))


def load_joint(cfg: dict, home, pair: tuple[str, str]):
    """The joint components of ``pair`` and its codecs. Each base is checked
    through the manifest chain: the ldm checkpoint's bytes must be the ones
    the joint manifest recorded as its prerequisite (``_load_stage`` has
    just matched them to the ldm manifest), which covers every byte the
    ``base_checksums`` metadata covers and more, without re-hashing them."""
    pair = tuple(pair)
    stage = f"joint:{pair[0]}+{pair[1]}"
    ck = _load_stage(cfg, home, stage, ("coupling_dim", "proj_hidden"))
    meta = ck["metadata"]
    bases, codecs = {}, {}
    for m in pair:
        base = _load_stage(cfg, home, f"ldm:{m}", _LDM_META)
        if base["manifest"]["checksum"] != ck["manifest"]["prerequisites"].get(f"ldm:{m}"):
            raise ArtifactError(
                f"{stage}: base ldm:{m} is not the checkpoint recorded at joint training time")
        bases[m], codecs[m], _ = _ldm_from_checkpoint(cfg, m, base)
    components = build_joint(pair, bases, coupling_dim=meta["coupling_dim"],
                             proj_hidden=meta["proj_hidden"], seed=None)
    _restore(components.trainable, ck)
    return components, codecs


# ---------------------------------------------------------------------------
# stage: evaluation classifier

def run_train_classifier(cfg: dict, home) -> Path:
    ds = load_data(cfg, home)
    e = cfg["eval"]
    model, report = train_classifier(
        *_xy(ds.subset("train")), *_xy(ds.subset("test")),
        seed=cfg["seed"], epochs=e["classifier_epochs"],
        hidden=tuple(e["classifier_hidden"]))
    meta = {"hidden": list(e["classifier_hidden"]),
            "test_macro_f1": report["f1"]["macro"],
            "test_micro_auroc": report["auroc"]["micro"]}
    return _write_stage(cfg, home, "classifier", model.params.state_arrays(), meta, ["dataset"])


def load_classifier(cfg: dict, home) -> tuple[FeatureExtractor, dict]:
    ck = _load_stage(cfg, home, "classifier", ("hidden",))
    model = build_classifier(td.VIEW_SIZE * td.VIEW_SIZE, ck["metadata"]["hidden"],
                             td.NUM_CONDITIONS, None)
    _restore(model.params, ck)
    return model, ck["metadata"]


# ---------------------------------------------------------------------------
# generation

def save_payload(path, modality: str, payload) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if modality == "report":
        doc = {"modality": modality, "tokens": list(payload)}
    else:
        doc = {"modality": modality, "pixels": np.asarray(payload).tolist()}
    write_atomic(path, [json.dumps(doc).encode()])


def load_payload(path, expect: str | None = None):
    """Read one payload file as (modality, payload); any defect in it, or a
    modality other than ``expect`` (when given), is an ArtifactError."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ArtifactError(f"{path}: cannot read payload file ({exc.strerror})") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"{path}: payload file is not JSON text ({exc})") from exc
    modality = doc.get("modality") if isinstance(doc, dict) else None
    if modality not in td.MODALITIES:
        raise ArtifactError(f"{path}: unknown payload modality {modality!r}")
    if expect is not None and modality != expect:
        raise ArtifactError(f"{path}: holds a {modality!r} payload, not {expect!r}")
    key = "tokens" if modality == "report" else "pixels"
    if key not in doc:
        raise ArtifactError(f"{path}: {modality} payload has no {key!r} key")
    if modality == "report":
        tokens = doc["tokens"]
        if (not isinstance(tokens, list) or len(tokens) > td.MAX_REPORT_LEN
                or not all(isinstance(t, str) and t in td.TOKEN_TO_ID for t in tokens)):
            raise ArtifactError(f"{path}: a report must be a list of 0 to "
                                f"{td.MAX_REPORT_LEN} tokens from the vocabulary")
        return modality, tuple(tokens)
    try:
        pixels = np.asarray(doc["pixels"], dtype=np.float64)
    except (TypeError, ValueError):
        pixels = np.zeros(0)
    if pixels.shape != (td.VIEW_SIZE, td.VIEW_SIZE) or not np.isfinite(pixels).all():
        raise ArtifactError(f"{path}: pixels must be a finite "
                            f"{td.VIEW_SIZE}x{td.VIEW_SIZE} grid, got shape {pixels.shape}")
    return modality, pixels


def generate_samples(cfg: dict, home, prompts: dict, targets: list[str],
                     joint: bool, seed: int, count: int) -> tuple[list[dict], dict]:
    """Generate ``count`` samples for the targets from fixed prompt payloads.

    Returns (samples, provenance): samples is a list of {target: payload},
    provenance records subset, weights, seed and step count.
    """
    if count < 1:
        raise ConfigError(f"count must be at least 1, got {count}")
    if not targets:
        raise ConfigError("generate needs at least one target modality")
    for t in targets:
        if t not in td.MODALITIES:
            raise ConfigError(f"unknown target modality {t!r}")
        if t in prompts:
            raise ConfigError(f"target {t!r} is also a prompt modality")
    if len(set(targets)) < len(targets):
        raise ConfigError(f"a target modality is repeated: {list(targets)}")
    if not prompts:
        raise ConfigError("at least one prompt payload is required")
    if "report" in prompts and not len(prompts["report"]):
        raise ConfigError("an empty report cannot be a prompt: the text encoder "
                          "averages over its tokens")
    encoders = load_encoders(cfg, home)
    subset = sorted(prompts)
    omega, weights = combine([encoders.encode_batch(m, [prompts[m]])[0] for m in subset])
    omega = np.tile(omega, (count, 1))
    schedule = _schedule(cfg)
    sigma_mode = cfg["diffusion"]["sigma_mode"]
    outputs: dict[str, list] = {}
    if joint:
        if len(targets) != 2:
            raise ConfigError("joint generation needs exactly two targets")
        pair = tuple(sorted(targets, key=td.MODALITIES.index))
        components, codecs = load_joint(cfg, home, pair)
        decoded = joint_sample(components, schedule, omega, codecs, seed=seed,
                               sigma_mode=sigma_mode)
        outputs = {m: list(decoded[m]) for m in pair}
        targets = list(pair)
    else:
        for m in targets:
            denoiser, codec, _ = load_ldm(cfg, home, m)
            decoded = sample(denoiser, schedule, omega, codec,
                             noise_stream(seed, m), sigma_mode=sigma_mode)
            outputs[m] = list(decoded)
    samples = [{m: outputs[m][i] for m in targets} for i in range(count)]
    provenance = {"subset": subset, "weights": weights.tolist(),
                  "seed": int(seed), "timesteps": schedule.T,
                  "joint": bool(joint), "targets": list(targets),
                  "config_hash": config_hash(cfg)}
    return samples, provenance


# ---------------------------------------------------------------------------
# evaluation protocols

def _xy(records) -> tuple[np.ndarray, np.ndarray]:
    return np.stack([r.view_a for r in records]), np.stack([r.labels for r in records])


def run_utility(cfg: dict, home, mode: str) -> dict:
    """Synthetic-data utility of ``mode``: classifiers trained on real and
    on synthetic or augmented view_a pools, scored on noised held-out views.

    Synthetic views are drawn from report prompts rendered for chosen label
    vectors, so each synthetic row carries the labels it was prompted with.
    """
    if mode not in ("anonymization", "imbalance", "scarcity"):
        raise ConfigError(f"unknown utility mode {mode!r}")
    u, seed = cfg["eval"]["utility"], cfg["seed"]
    noise = u["pixel_noise"]
    ds = load_data(cfg, home)  # verified for every arm; the imbalance arm draws its own
    if mode == "scarcity":
        bx, by = _xy(ds.subset("train")[:u["scarcity_base"]])
        ks = [int(round(m * len(bx))) for m in u["scarcity_multipliers"]]
        if u["scarcity_pool"] < max(ks):
            raise ConfigError(f"eval.utility.scarcity_pool is {u['scarcity_pool']}, "
                              f"the largest multiplier needs {max(ks)} synthetic rows")
    encoders = load_encoders(cfg, home)
    denoiser, codec, _ = load_ldm(cfg, home, "view_a")

    def synth(labels):
        rng = stream(seed, f"styles:{mode}")
        reports = [td.render_report(lab, int(rng.integers(0, td.NUM_FACTOR_BUCKETS)))
                   for lab in labels]
        return sample(denoiser, _schedule(cfg), encoders.encode_batch("report", reports),
                      codec, noise_stream(seed, f"util:{mode}"),
                      sigma_mode=cfg["diffusion"]["sigma_mode"])

    if mode == "anonymization":
        x, y = _xy(ds.subset("train"))
        real, synthetic = utility_reports([(x, y), (synth(y), y)], _xy(ds.subset("test")),
                                          seed, noise, u["anonymization_epochs"])
        return {"mode": mode, "real": real, "synthetic": synthetic}

    if mode == "imbalance":
        bx, by = _xy(td.generate_subset(seed + 1, u["imbalance_n"], "train",
                                        u["imbalance_base"]))
        pos = by.sum(axis=0)
        rates = np.array(td.DEFAULT_POSITIVE_RATES)
        label_rng = stream(seed, "imbalance-labels")
        aug_labels = []
        for k in range(td.NUM_CONDITIONS):
            for _ in range(max(0, u["imbalance_target"] - int(pos[k]))):
                lab = (label_rng.random(td.NUM_CONDITIONS) < rates).astype(np.uint8)
                lab[k] = 1
                aug_labels.append(lab)
        aug_labels = np.stack(aug_labels)
        augmented = (np.concatenate([bx, synth(aug_labels)]),
                     np.concatenate([by, aug_labels]))
        baseline, augmented = utility_reports([(bx, by), augmented],
                                              _xy(td.generate_subset(
                                                  seed + 1, u["imbalance_n"], "test")),
                                              seed, noise,
                                              u["imbalance_epochs"])
        return {"mode": mode, "baseline": baseline, "augmented": augmented,
                "baseline_positives": pos.tolist(),
                "minority_classes": [int(k) for k in range(td.NUM_CONDITIONS)
                                     if pos[k] < pos.max()]}

    label_rng = stream(seed, "scarcity-labels")
    pool_labels = (label_rng.random((u["scarcity_pool"], td.NUM_CONDITIONS))
                   < 0.5).astype(np.uint8)
    pool_views = synth(pool_labels)
    levels = utility_reports([(np.concatenate([bx, pool_views[:k]]),
                               np.concatenate([by, pool_labels[:k]])) for k in ks],
                             _xy(ds.subset("test")), seed, noise, u["scarcity_epochs"])
    return {"mode": mode, "levels": [
        {"multiplier": float(m), "n_synthetic": k, "report": r}
        for m, k, r in zip(u["scarcity_multipliers"], ks, levels)]}


def run_intra_study(cfg: dict, home, count: int, seed: int) -> dict:
    """Report BLEU between reports generated from the two views of one test
    record (intra-study) and from views of different records (cross-study)."""
    if count < 1:
        raise ConfigError(f"count must be at least 1, got {count}")
    ds = load_data(cfg, home)
    encoders = load_encoders(cfg, home)
    denoiser, codec, _ = load_ldm(cfg, home, "report")
    schedule = _schedule(cfg)
    records = ds.subset("test")[:count]

    # a draw depends only on (record, view, idx): the cross-study baseline
    # below reuses the intra-study draws instead of repeating them
    drawn = {}

    def generate_report(record, view_name, idx):
        key = (record.id, view_name, idx)
        if key not in drawn:
            omega = encoders.encode_batch(
                view_name, np.stack([td.payload(record, view_name)]))
            out = sample(denoiser, schedule, omega, codec,
                         noise_stream(seed + record.id * 7 + idx, "intra"),
                         sigma_mode=cfg["diffusion"]["sigma_mode"])[0]
            drawn[key] = out if out else ("study",)  # BLEU needs non-empty candidates
        return drawn[key]

    intra = intra_study_consistency(generate_report, records, repeats=2)

    # cross-study baseline: pair each record's view_a report with the next
    # record's view_b report
    cross_scores = np.zeros(4)
    for i, rec in enumerate(records):
        other = records[(i + 1) % len(records)]
        cross_scores += np.asarray(bleu(list(generate_report(rec, "view_a", 0)),
                                        [list(generate_report(other, "view_b", 1))], max_n=4))
    cross = (cross_scores / len(records)).tolist()
    return {"intra": intra, "cross_mean_bleu": cross, "count": len(records)}


# ---------------------------------------------------------------------------
# metric report files

def write_metric_report(home, name: str, payload: dict, cfg: dict, seed: int,
                        csv_rows=None, csv_header=None) -> Path:
    out = report_dir(home)
    out.mkdir(parents=True, exist_ok=True)
    doc = {"metric": name, "config_hash": config_hash(cfg), "seed": int(seed)}
    doc.update(payload)
    path = out / f"{name}.json"
    write_atomic(path, [json.dumps(doc, sort_keys=True, indent=1, default=_jsonify).encode()])
    if csv_rows is not None:
        _write_csv(out / f"{name}.csv", csv_rows, csv_header)
    return path


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")
