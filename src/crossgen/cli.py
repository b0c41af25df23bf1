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
from .checkpoint import write_atomic
from .config import check_seed, load_config
from .errors import (ArtifactError, ConfigError, MissingPrerequisiteError,
                     NumericError)
from .evalkit import (bleu, frechet_distance, hamming_coherence,
                      require_metric_backbone)
from .pipeline import run_intra_study, run_utility


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
    p.add_argument("--modality", default="view_a", choices=["view_a", "view_b"],
                   help="image modality of the fid payloads")
    p.add_argument("--pair", nargs=2, metavar=("M1", "M2"))
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--mode", choices=["anonymization", "imbalance", "scarcity"])
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None:
            check_seed(args.seed, "--seed")
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
    except (ConfigError, ArtifactError, ValueError, OSError) as exc:
        # OSError: the home (or a file under it) cannot be created or written
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
        prompts[modality] = pl.load_payload(file_, modality)[1]
    samples, provenance = pl.generate_samples(cfg, home, prompts, args.target,
                                              joint=args.joint, seed=args.seed,
                                              count=args.count)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, sample in enumerate(samples):
        for modality, payload in sample.items():
            pl.save_payload(out / f"sample_{i:03d}.{modality}.json", modality, payload)
    write_atomic(out / "provenance.json", [json.dumps(provenance, indent=1).encode()])
    print(f"wrote {len(samples)} sample(s) to {out}")


def _load_dir_payloads(directory, modality) -> list:
    directory = Path(directory)
    if not directory.is_dir():
        raise ConfigError(f"not a directory: {directory}")
    files = sorted(directory.glob(f"*.{modality}.json"))
    if not files:
        raise ConfigError(f"no *.{modality}.json payloads under {directory}")
    return [pl.load_payload(f, modality)[1] for f in files]


def _skip_empty_reports(pairs, modalities) -> tuple[list, int]:
    """The pairs in which no report (a member whose modality in
    ``modalities`` is ``report``) is empty, and how many were skipped: the
    text encoder averages over a report's tokens and BLEU over its n-grams,
    so neither reads an empty one."""
    kept = [p for p in pairs
            if all(m != "report" or len(x) for m, x in zip(modalities, p))]
    if not kept:
        raise ConfigError(f"all {len(pairs)} pairs hold an empty report")
    return kept, len(pairs) - len(kept)


def _cmd_eval(args, cfg, home) -> None:
    if args.metric == "classify":
        path = pl.run_train_classifier(cfg, home)
        model, meta = pl.load_classifier(cfg, home)
        report = pl.write_metric_report(home, "classify", {"results": meta},
                                        cfg, cfg["seed"])
        print(f"classifier checkpoint {path}; report {report}")
        return

    if args.metric == "fid":
        if not args.synth_dir:
            raise ConfigError("eval fid requires --synth-dir")
        model, meta = pl.load_classifier(cfg, home)
        require_metric_backbone(model, {"f1": {"macro": meta["test_macro_f1"]}})
        synth = np.stack(_load_dir_payloads(args.synth_dir, args.modality))
        split = pl.load_data(cfg, home).subset(args.split)
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
        split = pl.load_data(cfg, home).subset(args.split)
        refs = [list(r.report) for r in split[:len(candidates)]]
        if len(refs) < len(candidates):
            raise ConfigError(f"split {args.split} has fewer records than candidates")
        pairs, skipped = _skip_empty_reports(list(zip(candidates, refs)), ("report",))
        per_n = np.mean([bleu(list(c), [ref], max_n=4) for c, ref in pairs], axis=0)
        path = pl.write_metric_report(
            home, "bleu", {"bleu": per_n.tolist(), "n": len(pairs),
                           "n_skipped_empty": skipped},
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
        pairs, skipped = _skip_empty_reports(list(zip(a, b)), (m1, m2))
        a, b = (list(column) for column in zip(*pairs))
        h1 = encoders.encode_batch(m1, np.stack(a) if m1 != "report" else a)
        h2 = encoders.encode_batch(m2, np.stack(b) if m2 != "report" else b)
        cosines = np.sum(h1 * h2, axis=1)
        path = pl.write_metric_report(
            home, f"cosine_{m1}_{m2}",
            {"mean": float(cosines.mean()), "n": len(cosines),
             "n_skipped_empty": skipped},
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


if __name__ == "__main__":
    sys.exit(main())
