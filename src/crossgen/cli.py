"""Command-line orchestration: gen-data, train, generate, eval.

Artifacts live under --home (default: $XGEM_HOME or ./xgem_home). Exit
codes: 0 success, 2 configuration or artifact error, 3 missing
prerequisite stage, 4 numeric failure during training.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import pipeline as pl
from . import toydata as td
from .config import load_config
from .errors import (ArtifactError, ConfigError, MissingPrerequisiteError,
                     NumericError)
from .evalkit import (anonymization_experiment, bleu, frechet_distance,
                      hamming_coherence, imbalance_experiment,
                      intra_study_consistency, require_metric_backbone,
                      scarcity_experiment)
from .rng import stream


def default_home() -> str:
    return os.environ.get("XGEM_HOME", "./xgem_home")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossgen",
        description="Toy any-to-any multimodal generation pipeline")
    parser.add_argument("--config", help="JSON config file (defaults used otherwise)")
    parser.add_argument("--home", default=None,
                        help="artifact directory (default: $XGEM_HOME or ./xgem_home)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic dataset")
    p.add_argument("--force", action="store_true", help="overwrite an existing dataset")

    p = sub.add_parser("train", help="run one training stage")
    p.add_argument("stage", choices=["align", "ldm", "joint"])
    p.add_argument("--target", help="target modality for the ldm stage")
    p.add_argument("--pair", nargs=2, metavar=("M1", "M2"),
                   help="modality pair for the joint stage")

    p = sub.add_parser("generate", help="generate payloads from prompt files")
    p.add_argument("--prompt", action="append", default=[],
                   metavar="MODALITY=FILE", help="prompt payload file (repeatable)")
    p.add_argument("--target", action="append", default=[],
                   help="target modality (repeatable)")
    p.add_argument("--joint", action="store_true",
                   help="generate the two targets jointly")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("eval", help="compute a metric report")
    p.add_argument("metric", choices=["fid", "bleu", "cosine", "hamming",
                                      "classify", "utility", "intra-study"])
    p.add_argument("--dir", help="directory of generated samples")
    p.add_argument("--synth-dir", help="directory of generated payloads")
    p.add_argument("--modality", default="view_a")
    p.add_argument("--pair", nargs=2, metavar=("M1", "M2"))
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--mode", choices=["anonymization", "imbalance", "scarcity"])
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        home = Path(args.home or default_home())
        if args.command == "gen-data":
            path = pl.run_gen_data(cfg, home, force=args.force)
            print(f"dataset written to {path}")
        elif args.command == "train":
            _cmd_train(args, cfg, home)
        elif args.command == "generate":
            _cmd_generate(args, cfg, home)
        elif args.command == "eval":
            _cmd_eval(args, cfg, home)
        return 0
    except (ConfigError, ArtifactError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MissingPrerequisiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def _cmd_train(args, cfg, home) -> None:
    if args.stage == "align":
        path = pl.run_train_align(cfg, home)
    elif args.stage == "ldm":
        if not args.target:
            raise ConfigError("train ldm requires --target")
        path = pl.run_train_ldm(cfg, home, args.target)
    else:
        if not args.pair:
            raise ConfigError("train joint requires --pair M1 M2")
        path = pl.run_train_joint(cfg, home, tuple(args.pair))
    print(f"checkpoint written to {path}")


def _cmd_generate(args, cfg, home) -> None:
    prompts = {}
    for spec in args.prompt:
        if "=" not in spec:
            raise ConfigError(f"--prompt expects MODALITY=FILE, got {spec!r}")
        modality, file_ = spec.split("=", 1)
        loaded_modality, payload = pl.load_payload(file_)
        if modality != loaded_modality:
            raise ConfigError(
                f"prompt file {file_} holds {loaded_modality!r}, not {modality!r}")
        prompts[modality] = payload
    if not args.target:
        raise ConfigError("generate requires at least one --target")
    samples, provenance = pl.generate_samples(cfg, home, prompts, args.target,
                                              joint=args.joint, seed=args.seed,
                                              count=args.count)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, sample in enumerate(samples):
        for modality, payload in sample.items():
            pl.save_payload(out / f"sample_{i:03d}.{modality}.json", modality, payload)
    (out / "provenance.json").write_text(json.dumps(provenance, indent=1))
    print(f"wrote {len(samples)} sample(s) to {out}")


def _load_dir_payloads(directory, modality) -> list:
    directory = Path(directory)
    if not directory.is_dir():
        raise ConfigError(f"not a directory: {directory}")
    files = sorted(directory.glob(f"*.{modality}.json"))
    if not files:
        raise ConfigError(f"no *.{modality}.json payloads under {directory}")
    out = []
    for f in files:
        found, payload = pl.load_payload(f)
        if found != modality:
            raise ArtifactError(f"{f}: expected {modality!r} payload")
        out.append(payload)
    return out


def _cmd_eval(args, cfg, home) -> None:
    ds = pl.load_data(cfg, home)
    split = ds.subset(args.split)
    if args.metric == "classify":
        path = pl.run_train_classifier(cfg, home)
        model, meta = pl.load_classifier(cfg, home)
        report = pl.write_metric_report(home, "classify", {"results": meta},
                                        cfg, args.seed)
        print(f"classifier checkpoint {path}; report {report}")
        return

    if args.metric == "fid":
        if not args.synth_dir:
            raise ConfigError("eval fid requires --synth-dir")
        model, meta = pl.load_classifier(cfg, home)
        require_metric_backbone(model, {"f1": {"macro": meta["test_macro_f1"]}})
        synth = np.stack(_load_dir_payloads(args.synth_dir, args.modality))
        real = np.stack([td.payload(r, args.modality) for r in split])
        value = frechet_distance(model.features(real), model.features(synth))
        path = pl.write_metric_report(
            home, f"fid_{args.modality}",
            {"value": value, "n_real": len(real), "n_synth": len(synth)},
            cfg, args.seed)
        print(f"fid={value:.6f}; report {path}")

    elif args.metric == "bleu":
        if not args.synth_dir:
            raise ConfigError("eval bleu requires --synth-dir")
        candidates = _load_dir_payloads(args.synth_dir, "report")
        refs = [list(r.report) for r in split[:len(candidates)]]
        if len(refs) < len(candidates):
            raise ConfigError(f"split {args.split} has fewer records than candidates")
        per_n = np.mean([bleu(list(c), [ref], max_n=4)
                         for c, ref in zip(candidates, refs)], axis=0)
        path = pl.write_metric_report(
            home, "bleu", {"bleu": per_n.tolist(), "n": len(candidates)},
            cfg, args.seed,
            csv_rows=[(i + 1, v) for i, v in enumerate(per_n)],
            csv_header=("n", "bleu"))
        print(f"bleu={per_n.tolist()}; report {path}")

    elif args.metric == "cosine":
        if not args.dir or not args.pair:
            raise ConfigError("eval cosine requires --dir and --pair")
        m1, m2 = args.pair
        encoders = pl.load_encoders(cfg, home)
        a = _load_dir_payloads(args.dir, m1)
        b = _load_dir_payloads(args.dir, m2)
        if len(a) != len(b):
            raise ConfigError("unpaired payload counts for cosine")
        h1 = encoders.encode_batch(m1, np.stack(a) if m1 != "report" else a)
        h2 = encoders.encode_batch(m2, np.stack(b) if m2 != "report" else b)
        cosines = np.sum(h1 * h2, axis=1)
        path = pl.write_metric_report(
            home, f"cosine_{m1}_{m2}",
            {"mean": float(cosines.mean()), "n": len(cosines)},
            cfg, args.seed)
        print(f"cosine mean={cosines.mean():.4f}; report {path}")

    elif args.metric == "hamming":
        if not args.dir:
            raise ConfigError("eval hamming requires --dir")
        model, _ = pl.load_classifier(cfg, home)
        views = np.stack(_load_dir_payloads(args.dir, "view_a"))
        reports = _load_dir_payloads(args.dir, "report")
        if len(views) != len(reports):
            raise ConfigError("unpaired payload counts for hamming")
        out = hamming_coherence(views, reports, model)
        path = pl.write_metric_report(
            home, "hamming",
            {"mean": out["mean"], "mode": out["mode"],
             "histogram": out["histogram"].tolist(), "n": len(reports)},
            cfg, args.seed,
            csv_rows=list(enumerate(out["histogram"].tolist())),
            csv_header=("distance", "count"))
        print(f"hamming mean={out['mean']:.4f} mode={out['mode']}; report {path}")

    elif args.metric == "utility":
        if not args.mode:
            raise ConfigError("eval utility requires --mode")
        result = run_utility(cfg, home, args.mode)
        path = pl.write_metric_report(home, f"utility_{args.mode}", result,
                                      cfg, cfg["seed"])
        print(f"utility {args.mode} done; report {path}")

    elif args.metric == "intra-study":
        result = run_intra_study(cfg, home, count=args.count, seed=args.seed)
        path = pl.write_metric_report(home, "intra_study", result, cfg, args.seed)
        print(f"intra-study bleu={result['intra']['mean_bleu']}; report {path}")


# ---------------------------------------------------------------------------
# heavier eval protocols shared with the acceptance suite

def run_utility(cfg: dict, home, mode: str) -> dict:
    ds = pl.load_data(cfg, home)
    encoders = pl.load_encoders(cfg, home)
    denoiser, codec, _ = pl.load_ldm(cfg, home, "view_a")
    schedule = pl._schedule(cfg)
    u = cfg["eval"]["utility"]
    seed = cfg["seed"]
    train, test = ds.subset("train"), ds.subset("test")
    test_xy = (np.stack([r.view_a for r in test]), np.stack([r.labels for r in test]))

    def synth_from_labels(label_rows, tag):
        return pl.generate_views_from_label_prompts(
            encoders, denoiser, codec, schedule, label_rows, seed, tag,
            sigma_mode=cfg["diffusion"]["sigma_mode"])

    if mode == "anonymization":
        real_xy = (np.stack([r.view_a for r in train]),
                   np.stack([r.labels for r in train]))
        synth_views = synth_from_labels(real_xy[1], "anonymization")
        return anonymization_experiment(
            real_xy, (synth_views, real_xy[1]), test_xy, seed=seed,
            pixel_noise=u["pixel_noise"], epochs=u["anonymization_epochs"])

    if mode == "imbalance":
        ds_imb = td.generate_dataset(seed + 1, u["imbalance_n"])
        tr = ds_imb.subset("train")
        te = ds_imb.subset("test")
        base = tr[:u["imbalance_base"]]
        bx = np.stack([r.view_a for r in base])
        by = np.stack([r.labels for r in base])
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
        aug_views = synth_from_labels(aug_labels, "imbalance")
        result = imbalance_experiment(
            (bx, by),
            (np.concatenate([bx, aug_views]), np.concatenate([by, aug_labels])),
            (np.stack([r.view_a for r in te]), np.stack([r.labels for r in te])),
            seed=seed, pixel_noise=u["pixel_noise"], epochs=u["imbalance_epochs"])
        result["baseline_positives"] = pos.tolist()
        result["minority_classes"] = [int(k) for k in range(td.NUM_CONDITIONS)
                                      if pos[k] < pos.max()]
        return result

    if mode == "scarcity":
        base = train[:u["scarcity_base"]]
        bx = np.stack([r.view_a for r in base])
        by = np.stack([r.labels for r in base])
        label_rng = stream(seed, "scarcity-labels")
        pool_labels = (label_rng.random((u["scarcity_pool"], td.NUM_CONDITIONS))
                       < 0.5).astype(np.uint8)
        pool_views = synth_from_labels(pool_labels, "scarcity")
        return scarcity_experiment(
            (bx, by), (pool_views, pool_labels), u["scarcity_multipliers"],
            test_xy, seed=seed, pixel_noise=u["pixel_noise"],
            epochs=u["scarcity_epochs"])

    raise ConfigError(f"unknown utility mode {mode!r}")


def run_intra_study(cfg: dict, home, count: int, seed: int) -> dict:
    ds = pl.load_data(cfg, home)
    encoders = pl.load_encoders(cfg, home)
    denoiser, codec, _ = pl.load_ldm(cfg, home, "report")
    schedule = pl._schedule(cfg)
    records = ds.subset("test")[:count]

    from .diffusion import noise_stream, sample

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
    n = 0
    for i, rec in enumerate(records):
        other = records[(i + 1) % len(records)]
        a = generate_report(rec, "view_a", 0)
        b = generate_report(other, "view_b", 1)
        if a and b:
            cross_scores += np.asarray(bleu(list(a), [list(b)], max_n=4))
            n += 1
    cross = (cross_scores / max(n, 1)).tolist()
    return {"intra": intra, "cross_mean_bleu": cross, "count": len(records)}


if __name__ == "__main__":
    sys.exit(main())
