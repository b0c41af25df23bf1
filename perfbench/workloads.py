"""The three benchmark workloads: train, generate and evaluate.

Every workload builds its inputs from the seed, sets up (timed, repeated,
median reported), measures its own kind of work, then checks the outputs.
All calls into crossgen go through module attributes (``pl.run_train_ldm``,
never a name bound at import), so the tracer's rebinding sees every call.

``run`` returns ``(result, info, tracer)``: ``result`` has the keys the
benchmark prints as its last line; ``info`` holds digests, per-stage times
and values reported for information only; ``tracer`` holds the spans of a
traced run.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
import resource
import shutil
import statistics
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from crossgen import bridging, checkpoint, cli, config, diffusion, evalkit, jointgen
from crossgen import pipeline as pl
from crossgen import toydata as td

from clock import Clock
from tracer import Tracer

# end-to-end metrics, emitted by every workload: name -> unit. ``work_s`` is
# one pass of the workload's measured work and ``samples_per_s`` its
# generation throughput at T=100 (see README.md for each workload's
# definition). The finer figures (gen_request_p50_s, utility_s, align_top1,
# ...) are in the info line.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_s": "s",
    "samples_per_s": "samples/s",
}

# (config section path, key) of every training stage's epoch count
EPOCH_KEYS = ((("encoder",), "epochs"), (("diffusion",), "epochs"),
              (("diffusion", "image_codec"), "epochs"),
              (("diffusion", "text_codec"), "epochs"), (("joint",), "epochs"),
              (("eval",), "classifier_epochs"))

# model and data widths small enough for the self-check to run in seconds
TINY_CONFIG = {
    "dataset": {"n": 140, "positive_rates": [0.5] * 5},
    "encoder": {"dim": 8, "hidden": 16, "text_embed": 8, "batch_size": 32},
    "diffusion": {"timesteps": 8, "hidden": 16, "blocks": 1, "attn_dim": 8,
                  "batch_size": 32,
                  "image_codec": {"hidden": 16},
                  "text_codec": {"latent_dim": 8, "hidden": 16}},
    "joint": {"coupling_dim": 4, "proj_hidden": 8, "batch_size": 32},
    "eval": {"sample_count": 24, "retrieval_batch": 8, "bootstrap": 4,
             "classifier_hidden": [24, 8],
             "utility": {"anonymization_epochs": 2, "imbalance_n": 200,
                         "imbalance_base": 60, "imbalance_target": 20,
                         "imbalance_epochs": 2, "scarcity_base": 20,
                         "scarcity_pool": 40, "scarcity_epochs": 2}},
}


@dataclass(frozen=True)
class Size:
    """How much work one run does. ``FULL`` is the benchmark; ``TINY`` is
    for the self-check."""
    config: dict = field(default_factory=dict)  # overrides under the seed
    train_epoch_factor: float = 0.05  # measured train pipeline, share of default epochs
    setup_repeats: int = 3
    warmup_repeats: int = 9           # train set-up: tiny warm-up pipelines
    min_pipelines: int = 2            # train: at least this many, timed stage by stage
    sample_repeats: int = 5           # train: timed draws of the label-F1 samples
    requests: int = 102               # generate: requests per pass, in blocks of 3
    generate_dataset_n: int = 600     # generate: set-up dataset size (prompts only)
    request_count: int = 8            # samples per generate request
    intra_count: int = 10             # evaluate: records in the intra-study


# passes of the generate workload over the same requests (a traced run
# makes one untraced and one traced pass)
GENERATE_PASSES = 2

FULL = Size()
TINY = Size(config=TINY_CONFIG, train_epoch_factor=1.0, min_pipelines=1, setup_repeats=2,
            warmup_repeats=2, requests=6, generate_dataset_n=140, request_count=2,
            intra_count=2)


# ---------------------------------------------------------------------------
# bookkeeping

class Ledger:
    """Operations attempted and failed; a failed check or an exception
    counts once against the operation it belongs to."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, label, fn, *args, **kwargs):
        """Run one operation; return its value, or None if it raised."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            self.failures.append(f"{label}: {traceback.format_exc(limit=4)}")
            return None

    def check(self, label, ok: bool, detail="") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{label}: check failed {detail}".rstrip())
        return ok


class Workdir:
    """Fresh artifact homes under one directory inside the checkout."""

    def __init__(self, root: Path):
        self.root = root
        self.count = 0

    def fresh(self) -> Path:
        self.count += 1
        home = self.root / f"home{self.count}"
        shutil.rmtree(home, ignore_errors=True)
        home.mkdir(parents=True)
        return home

    def drop(self, home: Path) -> None:
        shutil.rmtree(home, ignore_errors=True)


def _set(tree: dict, path, key, value) -> None:
    for part in path:
        tree = tree.setdefault(part, {})
    tree[key] = value


def _get(tree: dict, path, key):
    for part in path:
        tree = tree[part]
    return tree[key]


def make_config(seed: int, size: Size, epoch_factor: float) -> dict:
    """Resolved config: the size's overrides, the run seed, and every
    stage's default epoch count scaled by ``epoch_factor`` (at least 1)."""
    overrides = copy.deepcopy(size.config)
    overrides["seed"] = int(seed) % (2 ** 31)
    for path, key in EPOCH_KEYS:
        default = _get(config.DEFAULTS, path, key)
        _set(overrides, path, key, max(1, round(default * epoch_factor)))
    return config.load_config(overrides)


def make_schedule(cfg: dict):
    d = cfg["diffusion"]
    return diffusion.make_schedule(d["timesteps"], d["beta_min"], d["beta_max"])


def train_pipeline(cfg: dict, home: Path, clock: Clock | None = None) -> None:
    """gen-data, align, ldm x3, joint x3, classifier: the staged pipeline,
    each stage a unit of ``clock`` when one is given."""
    stages = [("gen-data", lambda: pl.run_gen_data(cfg, home)),
              ("align", lambda: pl.run_train_align(cfg, home))]
    stages += [(f"ldm:{m}", lambda m=m: pl.run_train_ldm(cfg, home, m))
               for m in td.MODALITIES]
    stages += [(f"joint:{a}+{b}", lambda p=(a, b): pl.run_train_joint(cfg, home, p))
               for a, b in pl.JOINT_PAIRS]
    stages.append(("classifier", lambda: pl.run_train_classifier(cfg, home)))
    for name, run in stages:
        if clock is None:
            run()
        else:
            clock.measure(name, run)


def timed_setups(clock: Clock, repeats: int, build):
    """Run ``build()`` ``repeats`` times as clock unit ``setup``; return the
    last result."""
    for _ in range(repeats):
        result = clock.measure("setup", build)
    return result


def time_metrics(clock: Clock, estimate) -> tuple[dict, dict]:
    """``estimate(times)`` in reference seconds and in raw wall seconds.
    Returns the end-to-end metrics among the reference values, and for the
    info line the other reference values (``ref_s``) and all raw ones."""
    ref, raw = estimate(clock.ref), estimate(clock.raw)
    metrics = {k: metric(k, v) for k, v in ref.items() if k in END_TO_END}
    return metrics, {"ref_s": {k: v for k, v in ref.items() if k not in END_TO_END},
                     "raw_s": {k: round(v, 6) for k, v in raw.items()}}


def artifact_digest(home: Path) -> str:
    """SHA-256 over every artifact file under ``home``, by relative path."""
    h = hashlib.sha256()
    for path in sorted(p for p in home.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(home)).encode())
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def payload_bytes(modality: str, payload) -> bytes:
    if modality == "report":
        return "\x1f".join(payload).encode() + b"\x1e"
    return np.ascontiguousarray(payload, dtype="<f8").tobytes()


def metric(name: str, value: float) -> dict:
    return {"value": float(value), "unit": END_TO_END[name]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _held_out(ds) -> list:
    return ds.subset("val") + ds.subset("test")


# ---------------------------------------------------------------------------
# train

def _history_finite(home: Path) -> bool:
    for path in (home / "history").glob("*.csv"):
        with path.open() as fh:
            for row in csv.DictReader(fh):
                if not math.isfinite(float(row["loss"])):
                    return False
    return True


def _manifests_verify(cfg: dict, home: Path) -> bool:
    """Every manifest names an artifact whose bytes match its checksum, and
    every checkpoint loads with its trailing SHA-256 verified."""
    manifests = sorted((home / "manifests").glob("*.json"))
    for path in manifests:
        doc = json.loads(path.read_text())
        artifact = (pl.dataset_path(home) if doc["stage"] == "dataset"
                    else pl.checkpoint_path(home, doc["stage"]))
        if checkpoint.file_checksum(artifact) != doc["checksum"]:
            return False
        if doc["stage"] != "dataset":
            checkpoint.load_checkpoint(artifact, doc["stage"], config.config_hash(cfg))
    return len(manifests) == 9


def label_samples(cfg: dict, home: Path, seed: int, ledger: Ledger, clock: Clock | None,
                  repeats: int):
    """Report-prompted view_a samples of the held-out prompts, drawn
    ``repeats`` times (each a unit ``sample`` of ``clock`` when one is
    given); every draw must give identical bytes. Returns (prompts, views)."""
    prompts = _held_out(pl.load_data(cfg, home))[:cfg["eval"]["sample_count"]]
    encoders = pl.load_encoders(cfg, home)
    denoiser, codec, _ = pl.load_ldm(cfg, home, "view_a")
    omega = encoders.encode_batch("report", [r.report for r in prompts])

    def draw():
        return diffusion.sample(denoiser, make_schedule(cfg), omega, codec,
                                diffusion.noise_stream(seed, "bench-label-f1"),
                                sigma_mode=cfg["diffusion"]["sigma_mode"])

    draws = [draw() if clock is None else clock.measure("sample", draw)
             for _ in range(repeats)]
    ledger.check("repeated sampling gives identical bytes",
                 all(np.array_equal(d, draws[0]) for d in draws[1:]))
    return prompts, draws[0]


def label_f1(cfg: dict, home: Path, seed: int, prompts, views) -> tuple[float, float]:
    """Classifier macro-F1 of the samples against their prompts' labels, and
    against a shuffle of those labels (chance)."""
    model, _ = pl.load_classifier(cfg, home)
    scores = model.scores(views)
    labels = np.stack([r.labels for r in prompts])
    shuffled = labels[np.random.default_rng(seed).permutation(len(labels))]
    return (evalkit.classification_report(scores, labels)["f1"]["macro"],
            evalkit.classification_report(scores, shuffled)["f1"]["macro"])


def train_quality(cfg: dict, home: Path, ledger: Ledger, clock: Clock | None, repeats: int):
    """Retrieval top-1 on the test split and the generation label F1."""
    records = pl.load_data(cfg, home).subset("test")
    retrieval = bridging.retrieval_eval(pl.load_encoders(cfg, home), records,
                                        batch_size=cfg["eval"]["retrieval_batch"],
                                        seed=cfg["seed"])
    prompts, views = label_samples(cfg, home, cfg["seed"], ledger, clock, repeats)
    return (retrieval, *label_f1(cfg, home, cfg["seed"], prompts, views))


def run_train(seed, seconds, trace, size, work: Workdir):
    ledger, clock = Ledger(), Clock()
    cfg = make_config(seed, size, size.train_epoch_factor)
    warm_cfg = make_config(seed, replace(size, config=TINY_CONFIG), 0.0)

    def warm_up():
        home = work.fresh()
        train_pipeline(warm_cfg, home)
        work.drop(home)

    timed_setups(clock, size.warmup_repeats, warm_up)

    home, digests, tracer, untraced = None, [], None, None
    start = perf_counter()
    while (len(digests) < (1 if trace else size.min_pipelines)
           or (not trace and perf_counter() - start < seconds)):
        if home is not None:
            work.drop(home)
        home = work.fresh()
        t0 = perf_counter()
        ledger.op("train pipeline", train_pipeline, cfg, home, None if trace else clock)
        untraced = perf_counter() - t0
        digests.append(artifact_digest(home))
    if trace:
        work.drop(home)
        home = work.fresh()
        with Tracer() as tracer:
            ledger.op("train pipeline (traced)", train_pipeline, cfg, home)

    ledger.check("losses finite", bool(ledger.op("read losses", _history_finite, home)))
    ledger.check("manifests verify", bool(ledger.op("verify", _manifests_verify, cfg, home)))
    # a failed quality evaluation reports 0.0 and counts as a failed operation
    retrieval, f1, f1_chance = (
        ledger.op("quality", train_quality, cfg, home, ledger, None if trace else clock,
                  1 if trace else size.sample_repeats) or ({"mean": 0.0}, 0.0, 0.0))
    top1 = retrieval["mean"]
    ledger.check("align_top1 above chance", top1 > 1.0 / cfg["eval"]["retrieval_batch"],
                 f"{top1}")
    ledger.check("gen_label_f1 above shuffled-label chance", f1 > f1_chance,
                 f"{f1} vs {f1_chance}")

    def estimate(times):
        # interference only adds time: each stage at its fastest pipeline,
        # the identical draws of samples at the fastest draw
        stages = [v for k, v in times.items() if k not in ("setup", "sample")]
        draw_s = min(times.get("sample", [math.inf]))  # none if the quality step failed
        return {"setup_s": statistics.median(times["setup"]),
                "work_s": sum(min(v) for v in stages),
                "samples_per_s": cfg["eval"]["sample_count"] / draw_s}

    metrics, timings = time_metrics(clock, estimate) if not trace else ({}, {})
    info = {"digest": digests[-1], "identical_artifacts": len(set(digests)) == 1,
            "pipelines": len(digests), **timings, "clock": clock.summary(),
            "stage_ref_s": {k: [round(x, 4) for x in v] for k, v in clock.ref.items()},
            "align_top1": top1, "align_pairs": {k: v for k, v in retrieval.items() if "|" in k},
            "gen_label_f1": f1, "gen_label_f1_chance": f1_chance}
    return ledger, metrics, info, tracer, untraced


# ---------------------------------------------------------------------------
# generate

def setup_pipeline(seed, size, work: Workdir, clock: Clock, dataset_n: int | None = None):
    """Train the set-up pipeline ``setup_repeats`` times; keep the last."""
    if dataset_n is not None:
        size = replace(size, config={**size.config, "dataset": {
            **size.config.get("dataset", {}), "n": dataset_n}})
    cfg = make_config(seed, size, 0.0)  # one epoch per stage
    homes = []

    def build():
        if homes:
            work.drop(homes.pop())
        homes.append(work.fresh())
        train_pipeline(cfg, homes[-1])
        return homes[-1]

    return cfg, timed_setups(clock, size.setup_repeats, build)


def plan_requests(seed: int, held: list, n_blocks: int) -> list[dict]:
    """Blocks of three requests: two single-target, then one joint. Prompts
    are one or two modalities of a held-out record picked by the seed."""
    rng = np.random.default_rng([seed, 1])
    out = []
    for _ in range(n_blocks):
        for joint in (False, False, True):
            record = held[int(rng.integers(len(held)))]
            if joint:
                prompt_ms = [td.MODALITIES[int(rng.integers(3))]]
                targets = [m for m in td.MODALITIES if m not in prompt_ms]
            else:
                targets = [td.MODALITIES[int(rng.integers(3))]]
                others = [m for m in td.MODALITIES if m not in targets]
                k = int(rng.integers(1, 3))
                prompt_ms = sorted(rng.choice(others, size=k, replace=False).tolist())
            out.append({"prompts": {m: td.payload(record, m) for m in prompt_ms},
                        "targets": targets, "joint": joint,
                        "seed": int(rng.integers(0, 2 ** 31))})
    return out


def check_generation(ledger: Ledger, req: dict, samples, provenance, count: int) -> None:
    """Shapes, pixel range, vocabulary and provenance of one request."""
    views, tokens = [], []
    ok_keys = len(samples) == count and all(
        set(s) == set(req["targets"]) for s in samples)
    for s in samples:
        for m, p in s.items():
            (tokens if m == "report" else views).append(p)
    ok_views = all(np.shape(v) == (td.VIEW_SIZE, td.VIEW_SIZE)
                   and np.all(np.isfinite(v)) and np.all((v >= 0.0) & (v <= 1.0))
                   for v in views)
    ok_tokens = all(len(r) <= td.MAX_REPORT_LEN and all(t in td.VOCAB for t in r)
                    for r in tokens)
    w = np.asarray(provenance["weights"], dtype=np.float64)
    ok_simplex = (provenance["subset"] == sorted(req["prompts"])
                  and w.shape == (len(req["prompts"]),)
                  and np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-9)
    ledger.check("payload keys and count", ok_keys)
    ledger.check("pixels finite in [0,1] with view shape", ok_views)
    ledger.check("tokens in VOCAB", ok_tokens)
    ledger.check("provenance weights on the simplex", ok_simplex)


def request_digest(samples, provenance) -> bytes:
    h = hashlib.sha256(json.dumps(provenance, sort_keys=True).encode())
    for s in samples:
        for m in sorted(s):
            h.update(payload_bytes(m, s[m]))
    return h.digest()


def issue(cfg, home, req, count):
    return pl.generate_samples(cfg, home, req["prompts"], req["targets"],
                               joint=req["joint"], seed=req["seed"], count=count)


def run_generate(seed, seconds, trace, size, work: Workdir):
    ledger, clock = Ledger(), Clock()
    cfg, home = setup_pipeline(seed, size, work, clock, size.generate_dataset_n)
    held = _held_out(pl.load_data(cfg, home))
    plan = plan_requests(seed, held, n_blocks=size.requests // 3)

    def serve(timed: bool):
        """One pass of the plan by one closed-loop client: each request is
        sent when the previous one has returned."""
        digests = []
        for i, req in enumerate(plan):
            if timed:
                out = clock.measure(i, ledger.op, "generate request", issue, cfg, home,
                                    req, size.request_count)
            else:
                out = ledger.op("generate request", issue, cfg, home, req, size.request_count)
            digests.append(None if out is None else request_digest(*out))
            if out is not None:
                check_generation(ledger, req, *out, size.request_count)
        return digests

    # Passes repeat the same (request, seed) sequence, which must give
    # identical bytes. Interference only adds time, so each request's
    # latency is its fastest pass.
    passes, tracer, untraced = [], None, None
    start = perf_counter()
    while (len(passes) < GENERATE_PASSES
           or (not trace and perf_counter() - start < seconds)):
        if trace and passes:
            with Tracer() as tracer:
                passes.append(serve(timed=False))
        else:
            t0 = perf_counter()
            passes.append(serve(timed=not trace))
            untraced = perf_counter() - t0
    first = passes[0]
    for digests in passes[1:]:
        ledger.check("repeated (request, seed) gives identical bytes",
                     None not in first and digests == first)

    def estimate(times):
        lat = [min(times[i]) for i in range(len(plan))]
        single = statistics.median([x for i, x in enumerate(lat) if i % 3 != 2])
        joint = statistics.median(lat[2::3])
        return {"setup_s": statistics.median(times["setup"]),
                "work_s": sum(lat),
                # samples over the typical time of one block of the mix
                # (two single-target requests, one joint)
                "samples_per_s": 3 * size.request_count / (2 * single + joint),
                "gen_request_p50_s": statistics.median(lat),
                "gen_request_p90_s": statistics.quantiles(lat, n=10)[-1],
                "single_p50_s": single, "joint_p50_s": joint}

    metrics, timings = time_metrics(clock, estimate) if not trace else ({}, {})
    info = {"digest": hashlib.sha256(b"".join(d or b"" for d in first)).hexdigest(),
            "requests": len(plan), "passes": len(passes), **timings,
            "clock": clock.summary()}
    return ledger, metrics, info, tracer, untraced


# ---------------------------------------------------------------------------
# evaluate

# joint generation tasks of criteria 8-9: prompt modality -> generated pair
JOINT_TASKS = {"report": ("view_a", "view_b"), "view_b": ("view_a", "report"),
               "view_a": ("view_b", "report")}


def _in_unit(x) -> bool:
    return x is None or (0.0 <= x <= 1.0)


def _report_ok(report: dict) -> bool:
    au, f1 = report["auroc"], report["f1"]
    values = au["per_class"] + [au["micro"], au["macro"], au["weighted"]]
    values += f1["per_class"] + [f1["micro"], f1["macro"], f1["weighted"]]
    return all(_in_unit(v) for v in values)


def _utility_reports(mode: str, result: dict) -> list[dict]:
    if mode == "anonymization":
        return [result["real"], result["synthetic"]]
    if mode == "imbalance":
        return [result["baseline"], result["augmented"]]
    return [lv["report"] for lv in result["levels"]]


def battery(cfg, home, size: Size, ledger: Ledger, clock: Clock | None) -> dict:
    """The evaluation battery on one set-up pipeline; returns information
    values. Each phase is a unit of ``clock`` when one is given
    (``pool:single`` and ``pool:joint`` get one time per pool)."""
    seed = cfg["seed"]

    def timed(phase, fn, *args, **kwargs):
        if clock is None:
            return fn(*args, **kwargs)
        return clock.measure(phase, fn, *args, **kwargs)

    def load():
        ds = pl.load_data(cfg, home)
        return (ds, pl.load_encoders(cfg, home), pl.load_classifier(cfg, home)[0],
                pl.load_ldm(cfg, home, "view_a")[:2])

    ds, encoders, model, (den, codec) = timed("load", load)
    prompts = _held_out(ds)[:cfg["eval"]["sample_count"]]
    test = ds.subset("test")
    schedule = make_schedule(cfg)
    sigma = cfg["diffusion"]["sigma_mode"]
    digest = hashlib.sha256()

    def omega(modality):
        return encoders.encode_batch(
            modality, [r.report for r in prompts] if modality == "report"
            else np.stack([td.payload(r, modality) for r in prompts]))

    def single_pool(om, name):
        return diffusion.sample(den, schedule, om, codec,
                                diffusion.noise_stream(seed, f"pool-{name}"), sigma_mode=sigma)

    def joint_pool(prompt_m):
        components, codecs = pl.load_joint(cfg, home, JOINT_TASKS[prompt_m])
        return jointgen.joint_sample(components, schedule, omega(prompt_m), codecs,
                                     seed=seed + td.MODALITIES.index(prompt_m),
                                     sigma_mode=sigma)

    # generation pools, 500 rows each at the default config: three
    # single-target (criterion 7) interleaved with three joint (criterion 8),
    # so that a slow spell on the machine rarely hits two pools of one kind
    h_b, h_t = omega("view_b"), omega("report")
    pools, joint = {}, {}
    for (name, om), prompt_m in zip((("text", h_t), ("single", h_b), ("two", (h_b + h_t) / 2.0)),
                                    JOINT_TASKS):
        pools[name] = timed("pool:single", single_pool, om, name)
        joint[prompt_m] = timed("pool:joint", joint_pool, prompt_m)
    for name in sorted(pools):
        digest.update(payload_bytes("view", pools[name]))
    for prompt_m in sorted(joint):
        for m in sorted(joint[prompt_m]):
            for p in joint[prompt_m][m]:
                digest.update(payload_bytes(m, p))

    out = timed("metrics", pool_metrics, cfg, ledger, model, encoders, prompts, test,
                pools, joint)
    out["digest"] = digest.hexdigest()

    intra = ledger.op("intra-study", timed, "intra", cli.run_intra_study, cfg, home,
                      count=size.intra_count, seed=seed)
    if intra is not None:
        ledger.check("intra-study BLEU in [0,1]",
                     all(_in_unit(v) for v in intra["intra"]["mean_bleu"]
                         + intra["cross_mean_bleu"]))
        out["intra_bleu"] = intra["intra"]["mean_bleu"]

    for mode in ("anonymization", "imbalance", "scarcity"):
        result = ledger.op(f"utility {mode}", timed, f"utility:{mode}",
                           cli.run_utility, cfg, home, mode)
        if result is None:
            continue
        ledger.check(f"utility {mode}: AUROC and F1 in [0,1]",
                     all(_report_ok(r) for r in _utility_reports(mode, result)))
        if mode == "scarcity":
            # criterion 11 reads this trend; reported, never gated
            out["scarcity_micro_f1"] = {
                lv["multiplier"]: lv["report"]["f1"]["micro"] for lv in result["levels"]}
    return out


def pool_metrics(cfg, ledger, model, encoders, prompts, test, pools, joint) -> dict:
    """FID with the paired bootstrap, cosine, Hamming and BLEU on the pools."""
    seed = cfg["seed"]
    out = {}
    # Frechet distance with the paired bootstrap
    real = model.features(np.stack([r.view_a for r in test]))
    feats = {k: model.features(v) for k, v in pools.items()}
    fid = {k: evalkit.frechet_distance(real, feats[k]) for k in ("single", "two")}
    fid_self = evalkit.frechet_distance(real, real)
    boot = evalkit.paired_bootstrap_frechet(feats["single"], feats["two"], real,
                                            n_boot=cfg["eval"]["bootstrap"], seed=seed)
    ledger.check("FID >= 0", all(v >= 0.0 for v in fid.values()), f"{fid}")
    ledger.check("FID(real, real) ~ 0", abs(fid_self) < 1e-6, f"{fid_self}")
    ledger.check("bootstrap fraction in [0,1]", _in_unit(boot["fraction_b_not_worse"]))
    out.update(fid=fid, fid_bootstrap=boot["fraction_b_not_worse"])

    # Generated reports can be empty. Neither the text encoder (it divides by
    # the report length) nor BLEU accepts one, so cosine and BLEU skip the
    # rows with an empty report and the count is reported instead.
    def non_empty(prompt_m):
        return [i for i, r in enumerate(joint[prompt_m].get("report", [None] * len(prompts)))
                if r is None or len(r)]

    def encode(modality, payloads):
        return encoders.encode_batch(
            modality, payloads if modality == "report" else np.stack(payloads))

    # cosine alignment of the joint pairs in the shared space
    cosines, empty = {}, {}
    for prompt_m, (m1, m2) in JOINT_TASKS.items():
        keep = non_empty(prompt_m)
        empty[prompt_m] = len(prompts) - len(keep)
        if keep:
            h1 = encode(m1, [joint[prompt_m][m1][i] for i in keep])
            h2 = encode(m2, [joint[prompt_m][m2][i] for i in keep])
            cosines[prompt_m] = float(np.mean(np.sum(h1 * h2, axis=1)))
    ledger.check("cosine in [-1,1]", all(abs(c) <= 1.0 + 1e-9 for c in cosines.values()))
    out.update(cosine=cosines, empty_reports=empty)

    # Hamming coherence of the view_b -> (view_a, report) pool (criterion 9)
    pay = joint["view_b"]
    ham = evalkit.hamming_coherence(np.stack(pay["view_a"]), pay["report"], model)
    ledger.check("hamming mean in [0, C]", 0.0 <= ham["mean"] <= td.NUM_CONDITIONS)
    out["hamming_mean"] = ham["mean"]

    # BLEU of generated reports against their prompt records' reports
    scores = [evalkit.bleu(list(joint[prompt_m]["report"][i]), [list(prompts[i].report)],
                           max_n=4)
              for prompt_m in ("view_a", "view_b") for i in non_empty(prompt_m)]
    ledger.check("BLEU in [0,1]", all(_in_unit(v) for v in np.ravel(scores)))
    out["bleu"] = np.mean(scores, axis=0).tolist() if scores else []

    return out


def run_evaluate(seed, seconds, trace, size, work: Workdir):
    ledger, clock = Ledger(), Clock()
    cfg, home = setup_pipeline(seed, size, work, clock)
    info, tracer, untraced, batteries = {}, None, None, 0
    start = perf_counter()
    while not batteries or (not trace and perf_counter() - start < seconds):
        batteries += 1
        t0 = perf_counter()
        info = ledger.op("evaluation battery", battery, cfg, home, size, ledger,
                         None if trace else clock) or info
        untraced = perf_counter() - t0
    if trace:
        with Tracer() as tracer:
            ledger.op("evaluation battery (traced)", battery, cfg, home, size, ledger, None)

    def estimate(times):
        # Interference only adds time, so a phase repeated by more than one
        # battery is taken at its fastest; each kind of pool at the median
        # of its three pools, times three.
        pool_s = sum(3 * statistics.median(times.get(f"pool:{kind}", [0.0]))
                     for kind in ("single", "joint"))
        utility_s = sum(min(v) for k, v in times.items() if k.startswith("utility:"))
        rows = 6 * cfg["eval"]["sample_count"]
        return {"setup_s": statistics.median(times["setup"]),
                "work_s": pool_s + utility_s + sum(min(times.get(k, [0.0]))
                                                   for k in ("load", "metrics", "intra")),
                "samples_per_s": rows / pool_s if pool_s else 0.0,
                "utility_s": utility_s}

    metrics, timings = time_metrics(clock, estimate) if not trace else ({}, {})
    info.update(batteries=batteries, **timings, clock=clock.summary(),
                phase_ref_s={k: [round(x, 4) for x in v] for k, v in clock.ref.items()})
    return ledger, metrics, info, tracer, untraced


WORKLOADS = {"train": run_train, "generate": run_generate, "evaluate": run_evaluate}


# ---------------------------------------------------------------------------
# per-layer metrics from a traced run

PER_LAYER_SPANS = {
    # span name -> fields reported
    "tensor.backward": ("calls", "self_s"),
    "nn.adamw_step": ("calls", "self_s"),
    "toydata.generate_dataset": ("self_s",),
    "toydata.save_dataset": ("self_s",),
    "toydata.load_dataset": ("self_s",),
    "bridging.train_alignment": ("self_s",),
    "bridging.encode_batch": ("calls", "self_s", "rows"),
    "conditioning.draw_conditioning_batch": ("calls", "self_s"),
    "diffusion.codec_fit": ("calls", "self_s"),
    "diffusion.codec_encode": ("calls", "self_s", "rows"),
    "diffusion.codec_decode": ("self_s",),
    "diffusion.denoiser_forward": ("calls", "self_s"),
    "diffusion.train_ldm": ("self_s",),
    "diffusion.sample_latents": ("self_s",),
    "jointgen.train_joint": ("self_s",),
    "jointgen.coupled_pair_loss": ("self_s",),
    "jointgen.joint_sample": ("self_s",),
    "jointgen.project": ("self_s",),
    "checkpoint.save_checkpoint": ("calls", "self_s", "bytes"),
    "checkpoint.load_checkpoint": ("calls", "self_s", "bytes"),
    "checkpoint.file_checksum": ("calls", "self_s"),
    "evalkit.train_classifier": ("calls", "self_s"),
    "evalkit.frechet_distance": ("calls", "self_s"),
    "evalkit.bleu": ("calls", "self_s"),
    "pipeline.run_train_align": ("s",),
    "pipeline.run_train_ldm": ("s",),
    "pipeline.run_train_joint": ("s",),
    "pipeline.run_train_classifier": ("s",),
    "pipeline.generate_samples": ("s",),
    "config.config_hash": ("calls",),
    "cli.run_utility": ("s",),
    "cli.run_intra_study": ("s",),
}
FIELD_UNITS = {"calls": "count", "self_s": "s", "s": "s", "rows": "count", "bytes": "bytes"}


def tape_ops() -> list[str]:
    from crossgen import tensor
    return sorted(tensor.PRIMITIVE_OPS)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit."""
    units = {f"{span}.{f}": FIELD_UNITS[f]
             for span, fields in PER_LAYER_SPANS.items() for f in fields}
    units["pipeline.self_s"] = "s"
    units["tensor.tape_nodes"] = "count"
    units.update({f"tensor.tape_nodes.{op}": "count" for op in tape_ops()})
    units.update({"trace.wall_s": "s", "trace.self_sum_s": "s",
                  "trace.overhead_s": "s", "bench.self_s": "s"})
    return units


def per_layer_metrics(tracer: Tracer, untraced_s: float) -> dict:
    summary = tracer.summary()
    units = per_layer_units()
    values = {}
    for span, fields in PER_LAYER_SPANS.items():
        entry = summary.get(span, {})
        for f in fields:
            values[f"{span}.{f}"] = entry.get(f, 0)
    values["pipeline.self_s"] = sum(e["self_s"] for k, e in summary.items()
                                    if k.startswith("pipeline."))
    values["tensor.tape_nodes"] = sum(tracer.ops.values())
    for op in tape_ops():
        values[f"tensor.tape_nodes.{op}"] = tracer.ops.get(op, 0)
    values["trace.wall_s"] = tracer.wall_s
    values["trace.self_sum_s"] = sum(e["self_s"] for e in summary.values())
    values["trace.overhead_s"] = tracer.wall_s - untraced_s
    values["bench.self_s"] = summary["bench"]["self_s"]
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def run(workload: str, seed: int, seconds: float, trace: bool, size: Size,
        workdir: Path):
    """Run one workload; return (result, info, tracer)."""
    work = Workdir(workdir)
    ledger, metrics, info, tracer, untraced = WORKLOADS[workload](
        seed, seconds, trace, size, work)
    if trace:
        metrics = per_layer_metrics(tracer, untraced)
        info["untraced_s"] = untraced
    else:
        metrics["peak_rss_mb"] = metric("peak_rss_mb", peak_rss_mb())
    info["failures"] = ledger.failures
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    return result, info, tracer
