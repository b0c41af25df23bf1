"""End-to-end orchestration over an artifact directory.

Stage outputs (dataset, checkpoints, metric reports) live under a home
directory. Each artifact gets a manifest recording its content checksum,
the config hash that produced it and the checksums of its prerequisites;
stage ordering is enforced through these manifests, never timestamps.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from . import toydata as td
from .bridging import PromptEncoders, train_alignment
from .checkpoint import (file_checksum, load_checkpoint, save_checkpoint,
                         write_atomic)
from .conditioning import combine
from .config import config_hash
from .diffusion import (Denoiser, ImageCodec, TextCodec, make_schedule,
                        noise_stream, sample, train_ldm)
from .errors import ArtifactError, ConfigError, MissingPrerequisiteError
from .evalkit import FeatureExtractor, build_classifier, train_classifier
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
                   prerequisites: dict[str, str], sidecar: Path | None = None) -> None:
    path = manifest_path(home, stage)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"stage": stage, "artifact": artifact.name,
               "checksum": file_checksum(artifact), "config_hash": cfg_hash,
               "prerequisites": prerequisites}
    if sidecar is not None:
        payload["sidecar_checksum"] = file_checksum(sidecar)
    write_atomic(path, json.dumps(payload, sort_keys=True, indent=1).encode())


def read_manifest(home, stage: str, cfg_hash: str) -> dict:
    path = manifest_path(home, stage)
    if not path.exists():
        raise MissingPrerequisiteError(stage)
    manifest = json.loads(path.read_text())
    if manifest["config_hash"] != cfg_hash:
        raise ArtifactError(
            f"{stage}: artifact was produced under config {manifest['config_hash'][:12]}..., "
            f"the active config hashes to {cfg_hash[:12]}...")
    return manifest


def _load_stage(cfg: dict, home, stage: str) -> dict:
    """The verified checkpoint of ``stage`` (see ``load_checkpoint``), with
    its manifest under ``"manifest"``; ArtifactError unless the file is the
    one its manifest recorded (or the file is gone)."""
    cfg_hash = config_hash(cfg)
    manifest = read_manifest(home, stage, cfg_hash)
    path = checkpoint_path(home, stage)
    if not path.is_file():
        raise ArtifactError(f"{path}: missing, though its manifest exists")
    ck = load_checkpoint(path, stage, cfg_hash)
    if ck["file_checksum"] != manifest["checksum"]:
        raise ArtifactError(f"{path}: content does not match its manifest")
    ck["manifest"] = manifest
    return ck


def _write_history_csv(path: Path, rows, header) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# stage: dataset

def run_gen_data(cfg: dict, home, force: bool = False) -> Path:
    path = dataset_path(home)
    if path.exists() and not force:
        raise ConfigError(f"{path} already exists (pass force to overwrite)")
    path.parent.mkdir(parents=True, exist_ok=True)
    ds = td.generate_dataset(cfg["seed"], cfg["dataset"]["n"],
                             cfg["dataset"]["positive_rates"])
    td.save_dataset(ds, path)
    write_manifest(home, "dataset", path, config_hash(cfg), {},
                   sidecar=td.sidecar_path(path))
    return path


def load_data(cfg: dict, home) -> td.Dataset:
    manifest = read_manifest(home, "dataset", config_hash(cfg))
    path = dataset_path(home)
    if not path.is_file():
        raise ArtifactError(f"{path}: missing, though its manifest exists")
    if file_checksum(path) != manifest["checksum"]:
        raise ArtifactError(f"{path}: content does not match its manifest")
    sidecar = td.sidecar_path(path)
    if not sidecar.exists() or file_checksum(sidecar) != manifest.get("sidecar_checksum"):
        raise ArtifactError(f"{sidecar}: split sidecar does not match its manifest")
    return td.load_dataset(path)


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
    _write_history_csv(history_path(home, "alignment"),
                       [(h["epoch"], h["pair"], h["loss"]) for h in history],
                       ("epoch", "pair", "loss"))
    path = checkpoint_path(home, "alignment")
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = {"dim": ec["dim"], "hidden": ec["hidden"], "text_embed": ec["text_embed"]}
    save_checkpoint(path, "alignment", config_hash(cfg),
                    encoders.params.state_arrays(), meta)
    write_manifest(home, "alignment", path, config_hash(cfg),
                   {"dataset": read_manifest(home, "dataset", config_hash(cfg))["checksum"]})
    return path


def load_encoders(cfg: dict, home) -> PromptEncoders:
    ck = _load_stage(cfg, home, "alignment")
    meta = ck["metadata"]
    encoders = PromptEncoders(dim=meta["dim"], hidden=meta["hidden"],
                              text_embed=meta["text_embed"], seed=None)
    encoders.params.load_state_arrays(ck["arrays"])
    return encoders


# ---------------------------------------------------------------------------
# stage: per-modality diffusion

def _schedule(cfg):
    d = cfg["diffusion"]
    return make_schedule(d["timesteps"], d["beta_min"], d["beta_max"])


def _fit_codec(cfg: dict, home, ds: td.Dataset, modality: str, alignment: str):
    """The stage's codec, stored in its checkpoint so every checkpoint is
    self-contained.

    Both image stages fit one ``ImageCodec`` on the train views of both
    modalities, with the same seed and config, so both fits give the same
    bytes. An image stage therefore takes the codec of the other image
    stage's checkpoint when that checkpoint verifies under the active config
    and records the same ``alignment`` checksum (so it was trained on the
    same dataset file); otherwise it fits the codec itself."""
    d = cfg["diffusion"]
    if modality == "report":
        tc = d["text_codec"]
        codec = TextCodec(seed=cfg["seed"], latent_dim=tc["latent_dim"],
                          hidden=tc["hidden"])
        codec.fit([r.report for r in ds.subset("train")], epochs=tc["epochs"],
                  lr=tc["lr"], seed=cfg["seed"])
        return codec
    try:
        sibling = _load_stage(cfg, home, "ldm:view_b" if modality == "view_a" else "ldm:view_a")
    except (MissingPrerequisiteError, ArtifactError):
        sibling = None
    if sibling is not None and sibling["manifest"]["prerequisites"].get("alignment") == alignment:
        return _codec_from_arrays(cfg, modality, sibling["arrays"], "codec")
    ic = d["image_codec"]
    codec = ImageCodec(seed=cfg["seed"], hidden=ic["hidden"])
    train = ds.subset("train")
    images = np.stack([r.view_a for r in train] + [r.view_b for r in train])
    codec.fit(images, epochs=ic["epochs"], lr=ic["lr"], seed=cfg["seed"])
    return codec


def _codec_arrays(codec, prefix: str) -> dict:
    arrays = {f"{prefix}.param.{k}": v for k, v in codec.params.state_arrays().items()}
    arrays[f"{prefix}.stats.mu"] = codec.mu
    arrays[f"{prefix}.stats.sd"] = codec.sd
    return arrays


def _codec_from_arrays(cfg: dict, modality: str, arrays: dict, prefix: str):
    d = cfg["diffusion"]
    if modality == "report":
        tc = d["text_codec"]
        codec = TextCodec(seed=None, latent_dim=tc["latent_dim"], hidden=tc["hidden"])
    else:
        codec = ImageCodec(seed=None, hidden=d["image_codec"]["hidden"])
    codec.params.load_state_arrays(
        {k[len(prefix) + 7:]: v for k, v in arrays.items()
         if k.startswith(f"{prefix}.param.")})
    codec.mu = arrays[f"{prefix}.stats.mu"]
    codec.sd = arrays[f"{prefix}.stats.sd"]
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
        seed=cfg["seed"], weight_mode=cfg["conditioning"]["weights"])
    stage = f"ldm:{target}"
    _write_history_csv(history_path(home, stage),
                       list(enumerate(history)), ("epoch", "loss"))
    arrays = {f"denoiser.{k}": v for k, v in denoiser.params.state_arrays().items()}
    arrays.update(_codec_arrays(codec, "codec"))
    meta = {"target": target, "latent_dim": codec.latent_dim,
            "cond_dim": encoders.dim, "timesteps": _schedule(cfg).T,
            "hidden": d["hidden"], "blocks": d["blocks"], "attn_dim": d["attn_dim"],
            "denoiser_checksum": denoiser.params.checksum()}
    path = checkpoint_path(home, stage)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(path, stage, config_hash(cfg), arrays, meta)
    write_manifest(home, stage, path, config_hash(cfg), {"alignment": alignment})
    return path


def load_ldm(cfg: dict, home, target: str):
    ck = _load_stage(cfg, home, f"ldm:{target}")
    meta = ck["metadata"]
    denoiser = Denoiser(meta["latent_dim"], meta["cond_dim"], meta["timesteps"],
                        hidden=meta["hidden"], n_blocks=meta["blocks"],
                        attn_dim=meta["attn_dim"], seed=None)
    denoiser.params.load_state_arrays(
        {k[len("denoiser."):]: v for k, v in ck["arrays"].items()
         if k.startswith("denoiser.")})
    codec = _codec_from_arrays(cfg, target, ck["arrays"], "codec")
    return denoiser, codec, meta


# ---------------------------------------------------------------------------
# stage: joint coupling

def run_train_joint(cfg: dict, home, pair: tuple[str, str]) -> Path:
    pair = tuple(pair)
    if pair not in JOINT_PAIRS:
        raise ConfigError(f"unknown joint pair {pair!r}; valid: {JOINT_PAIRS}")
    ds = load_data(cfg, home)
    encoders = load_encoders(cfg, home)
    bases, codecs, base_checksums = {}, {}, {}
    for m in pair:
        bases[m], codecs[m], meta = load_ldm(cfg, home, m)
        base_checksums[m] = bases[m].params.checksum()
    j = cfg["joint"]
    components, history = train_joint(
        ds, pair, encoders, codecs, bases, _schedule(cfg), epochs=j["epochs"],
        batch_size=j["batch_size"], lr=j["lr"], weight_decay=j["weight_decay"],
        coupling_dim=j["coupling_dim"], proj_hidden=j["proj_hidden"],
        lam=j["contrastive_weight"], tau=j["temperature"], seed=cfg["seed"])
    stage = f"joint:{pair[0]}+{pair[1]}"
    _write_history_csv(history_path(home, stage),
                       list(enumerate(history)), ("epoch", "loss"))
    meta = {"pair": list(pair), "coupling_dim": j["coupling_dim"],
            "proj_hidden": j["proj_hidden"], "base_checksums": base_checksums}
    path = checkpoint_path(home, stage)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(path, stage, config_hash(cfg),
                    components.trainable.state_arrays(), meta)
    prereqs = {f"ldm:{m}": read_manifest(home, f"ldm:{m}", config_hash(cfg))["checksum"]
               for m in pair}
    write_manifest(home, stage, path, config_hash(cfg), prereqs)
    return path


def load_joint(cfg: dict, home, pair: tuple[str, str]):
    pair = tuple(pair)
    stage = f"joint:{pair[0]}+{pair[1]}"
    ck = _load_stage(cfg, home, stage)
    meta = ck["metadata"]
    bases, codecs = {}, {}
    for m in pair:
        bases[m], codecs[m], _ = load_ldm(cfg, home, m)
        if bases[m].params.checksum() != meta["base_checksums"][m]:
            raise ArtifactError(
                f"{stage}: base denoiser for {m} does not match the checksum "
                "recorded at joint training time")
    components = build_joint(pair, bases, coupling_dim=meta["coupling_dim"],
                             proj_hidden=meta["proj_hidden"], seed=None)
    components.trainable.load_state_arrays(ck["arrays"])
    return components, codecs


# ---------------------------------------------------------------------------
# stage: evaluation classifier

def run_train_classifier(cfg: dict, home) -> Path:
    ds = load_data(cfg, home)
    train, test = ds.subset("train"), ds.subset("test")
    e = cfg["eval"]
    model, report = train_classifier(
        np.stack([r.view_a for r in train]), np.stack([r.labels for r in train]),
        np.stack([r.view_a for r in test]), np.stack([r.labels for r in test]),
        seed=cfg["seed"], epochs=e["classifier_epochs"],
        hidden=tuple(e["classifier_hidden"]))
    path = checkpoint_path(home, "classifier")
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = {"hidden": list(e["classifier_hidden"]),
            "test_macro_f1": report["f1"]["macro"],
            "test_micro_auroc": report["auroc"]["micro"]}
    save_checkpoint(path, "classifier", config_hash(cfg),
                    model.params.state_arrays(), meta)
    write_manifest(home, "classifier", path, config_hash(cfg),
                   {"dataset": read_manifest(home, "dataset", config_hash(cfg))["checksum"]})
    return path


def load_classifier(cfg: dict, home) -> tuple[FeatureExtractor, dict]:
    ck = _load_stage(cfg, home, "classifier")
    model = build_classifier(td.VIEW_SIZE * td.VIEW_SIZE, ck["metadata"]["hidden"],
                             td.NUM_CONDITIONS, None)
    model.params.load_state_arrays(ck["arrays"])
    model.meta = dict(ck["metadata"])
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
    path.write_text(json.dumps(doc))


def load_payload(path):
    """Read one payload file; any defect in it is an ArtifactError."""
    doc = json.loads(Path(path).read_text())
    modality = doc.get("modality") if isinstance(doc, dict) else None
    if modality not in td.MODALITIES:
        raise ArtifactError(f"{path}: unknown payload modality {modality!r}")
    key = "tokens" if modality == "report" else "pixels"
    if key not in doc:
        raise ArtifactError(f"{path}: {modality} payload has no {key!r} key")
    if modality == "report":
        tokens = doc["tokens"]
        if (not isinstance(tokens, list) or not 0 < len(tokens) <= td.MAX_REPORT_LEN
                or not all(isinstance(t, str) and t in td.TOKEN_TO_ID for t in tokens)):
            raise ArtifactError(f"{path}: a report must be a list of 1 to "
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
    for t in targets:
        if t in prompts:
            raise ConfigError(f"target {t!r} is also a prompt modality")
    encoders = load_encoders(cfg, home)
    if not prompts:
        raise ConfigError("at least one prompt payload is required")
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


def generate_views_from_label_prompts(encoders, denoiser, codec, schedule,
                                      label_rows, seed: int, tag: str,
                                      sigma_mode: str = "beta") -> np.ndarray:
    """Synthesize view_a images for given label vectors by rendering prompt
    reports (random style buckets) and conditioning on their embeddings."""
    rng = stream(seed, f"styles:{tag}")
    reports = [td.render_report(lab, int(rng.integers(0, td.NUM_FACTOR_BUCKETS)))
               for lab in label_rows]
    omega = encoders.encode_batch("report", reports)
    return sample(denoiser, schedule, omega, codec,
                  noise_stream(seed, f"util:{tag}"), sigma_mode=sigma_mode)


# ---------------------------------------------------------------------------
# metric report files

def write_metric_report(home, name: str, payload: dict, cfg: dict, seed: int,
                        csv_rows=None, csv_header=None) -> Path:
    out = report_dir(home)
    out.mkdir(parents=True, exist_ok=True)
    doc = {"metric": name, "config_hash": config_hash(cfg), "seed": int(seed)}
    doc.update(payload)
    path = out / f"{name}.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=1, default=_jsonify))
    if csv_rows is not None:
        with (out / f"{name}.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            if csv_header:
                writer.writerow(csv_header)
            writer.writerows(csv_rows)
    return path


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")
