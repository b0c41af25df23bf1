"""Acceptance suite: every numbered criterion at its stated tolerance.

The module-scoped fixtures train the full default-config pipeline once and
share it across criteria. Run with ``pytest tests/test_acceptance.py -s``
to see one PASS/FAIL line per criterion as it completes.
"""

import json
import math
import time
import zlib

import mpmath
import numpy as np
import pytest
import scipy.linalg
from scipy import stats

from crossgen import pipeline as pl
from crossgen import tensor as T
from crossgen import toydata as td
from crossgen.bridging import (PromptEncoders, infonce_loss, loss_trend_ok,
                               retrieval_eval, symmetric_loss)
from crossgen.checkpoint import file_checksum
from crossgen.cli import main, run_utility
from crossgen.conditioning import SubsetSampler, combine, draw_conditioning_batch
from crossgen.config import config_hash, load_config
from crossgen.diffusion import (Denoiser, make_schedule, noise_prediction_loss,
                                noise_stream, q_sample, sample)
from crossgen.evalkit import (bleu, build_classifier, classification_report,
                              frechet_distance, gaussian_frechet, hamming_coherence,
                              intra_study_consistency, paired_bootstrap_frechet)
from crossgen.jointgen import build_joint, coupled_pair_loss, joint_sample
from crossgen.nn import ParameterSet, mlp_bce_loss
from crossgen.rng import stream

from test_tensor import PRIMITIVE_CASES  # noqa: E402  (shared grad-check battery)

# the module trains the full default pipeline; `pytest -m "not slow"` skips it
pytestmark = pytest.mark.slow


def _criterion(n, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    line = f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'}: {name}{tail}"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# shared trained pipeline

@pytest.fixture(scope="module")
def cfg():
    return load_config()


@pytest.fixture(scope="module")
def home(tmp_path_factory, cfg):
    root = tmp_path_factory.mktemp("accept_home")
    pl.run_gen_data(cfg, root)
    pl.run_train_align(cfg, root)
    for modality in td.MODALITIES:
        pl.run_train_ldm(cfg, root, modality)
    for pair in pl.JOINT_PAIRS:
        pl.run_train_joint(cfg, root, pair)
    pl.run_train_classifier(cfg, root)
    return root


@pytest.fixture(scope="module")
def world(cfg, home):
    ds = pl.load_data(cfg, home)
    encoders = pl.load_encoders(cfg, home)
    ldms = {m: pl.load_ldm(cfg, home, m) for m in td.MODALITIES}
    joints = {pair: pl.load_joint(cfg, home, pair) for pair in pl.JOINT_PAIRS}
    classifier, cls_meta = pl.load_classifier(cfg, home)
    return {
        "ds": ds,
        "encoders": encoders,
        "ldms": ldms,
        "joints": joints,
        "classifier": classifier,
        "classifier_meta": cls_meta,
        "schedule": pl._schedule(cfg),
    }


@pytest.fixture(scope="module")
def prompts(cfg, world):
    ds = world["ds"]
    held = ds.subset("val") + ds.subset("test")
    return held[:cfg["eval"]["sample_count"]]


def _omega(world, modality, records):
    encoders = world["encoders"]
    if modality == "report":
        return encoders.encode_batch("report", [r.report for r in records])
    return encoders.encode_batch(
        modality, np.stack([td.payload(r, modality) for r in records]))


@pytest.fixture(scope="module")
def single_target_pools(cfg, world, prompts):
    """view_a pools for criterion 7: text-only, view_b-only, view_b + text."""
    schedule = world["schedule"]
    den, codec, _ = world["ldms"]["view_a"]
    h_b = _omega(world, "view_b", prompts)
    h_t = _omega(world, "report", prompts)
    pools = {
        "text": sample(den, schedule, h_t, codec, noise_stream(11, "pool-text")),
        "single": sample(den, schedule, h_b, codec, noise_stream(11, "pool-single")),
        "two": sample(den, schedule, (h_b + h_t) / 2.0, codec,
                      noise_stream(11, "pool-two")),
    }
    return pools


#: generation tasks: prompt modality -> jointly generated pair
JOINT_TASKS = {
    "report": ("view_a", "view_b"),
    "view_b": ("view_a", "report"),
    "view_a": ("view_b", "report"),
}


@pytest.fixture(scope="module")
def joint_pools(cfg, world, prompts):
    """Joint and independent generations for each task configuration."""
    schedule = world["schedule"]
    out = {}
    for prompt_m, pair in JOINT_TASKS.items():
        omega = _omega(world, prompt_m, prompts)
        components, codecs = world["joints"][pair]
        seed = 500 + td.MODALITIES.index(prompt_m)
        joint = joint_sample(components, schedule, omega, codecs, seed=seed)
        indep = {}
        for m in pair:
            den, codec, _ = world["ldms"][m]
            indep[m] = sample(den, schedule, omega, codec, noise_stream(seed, m))
        out[prompt_m] = {"pair": pair, "joint": joint, "indep": indep}
    return out


def _mean_cosine(world, pair, payloads):
    h_i = world["encoders"].encode_batch(
        pair[0], payloads[pair[0]] if pair[0] == "report"
        else np.stack(payloads[pair[0]]))
    h_j = world["encoders"].encode_batch(
        pair[1], payloads[pair[1]] if pair[1] == "report"
        else np.stack(payloads[pair[1]]))
    return float(np.mean(np.sum(h_i * h_j, axis=1)))


# ---------------------------------------------------------------------------
# criterion 1: autodiff soundness

def test_criterion_01_autodiff_soundness():
    t0 = time.monotonic()
    configs = 0
    worst = 0.0

    def check(fn, x, label):
        nonlocal configs, worst
        err = T.grad_check(fn, x)
        worst = max(worst, err)
        configs += 1
        assert err < 1e-5, f"{label}: grad-check error {err}"

    # every registered primitive over random small shapes
    for name, build in sorted(PRIMITIVE_CASES.items()):
        for trial in range(4):
            # crc32, not hash(): str hashes are salted per process
            rng = np.random.default_rng(zlib.crc32(f"{name}|{trial}|acc".encode()))
            x = T.Tensor(rng.normal(size=(int(rng.integers(2, 5)),
                                          int(rng.integers(2, 5)))))
            check(lambda t: T.tsum(T.mul(build(t, np.random.default_rng(trial)),
                                         build(t, np.random.default_rng(trial)))),
                  x, name)

    # full denoiser path (about 500 parameters)
    den = Denoiser(latent_dim=6, cond_dim=4, T_steps=10, hidden=8, n_blocks=1,
                   attn_dim=4, seed=51)
    rng = np.random.default_rng(52)
    z_t, t_arr = rng.standard_normal((3, 6)), np.array([1, 5, 10])
    om, eps = rng.standard_normal((3, 4)), rng.standard_normal((3, 6))
    n_params = sum(p.size for _, p in den.params.items())
    for pname, p in den.params.items():
        check(lambda _p: noise_prediction_loss(den.forward(z_t, t_arr, om), eps),
              p, f"denoiser.{pname}")

    # the classifier's fused loss node, which its training records
    clf = build_classifier(6, (5, 4), 3, stream(55, "classifier-init"))
    crng = np.random.default_rng(56)  # its own: the paths below keep their draws
    xs, tg = crng.standard_normal((4, 6)), (crng.random((4, 3)) < 0.5).astype(float)
    for pname, p in clf.params.items():
        check(lambda _p: mlp_bce_loss(clf.layers, xs, tg), p, f"classifier.{pname}")

    # InfoNCE path
    other = T.Tensor(rng.normal(size=(4, 6)))
    for trial in range(3):
        x = T.Tensor(rng.normal(size=(4, 6)))
        check(lambda t: symmetric_loss(T.l2_normalize(t), T.l2_normalize(other), 0.5),
              x, "infonce")

    # projection and coupled-denoiser paths
    bases = {"view_a": den,
             "report": Denoiser(latent_dim=5, cond_dim=4, T_steps=10, hidden=8,
                                n_blocks=1, attn_dim=4, seed=53)}
    for b in bases.values():
        b.params.freeze()
    comps = build_joint(("view_a", "report"), bases, coupling_dim=4,
                        proj_hidden=6, seed=54)
    for name in comps.trainable.names():
        if name.endswith("wo.w"):
            comps.trainable[name].data[...] = rng.normal(0, 0.05, comps.trainable[name].shape)
    z_pair = {"view_a": rng.standard_normal((3, 6)),
              "report": rng.standard_normal((3, 5))}
    eps_pair = {"view_a": rng.standard_normal((3, 6)),
                "report": rng.standard_normal((3, 5))}

    def coupled_loss(_p):
        return coupled_pair_loss(comps, z_pair, t_arr, eps_pair, om,
                                 lam=0.1, tau=0.5)

    for name in ["proj.view_a.l1.w", "proj.view_a.l2.w", "proj.report.l1.w",
                 "proj.report.l2.w", "couple.view_a.block0.wo.w",
                 "couple.view_a.block0.wv.w", "couple.report.block0.wo.w",
                 "couple.report.block0.wv.w"]:
        check(coupled_loss, comps.trainable[name], name)
    for b in bases.values():
        b.params.unfreeze()

    # the fused denoiser node's inputs: the latents and the prompts, and the
    # partner of a two-block coupled node over a frozen base, read at both sites
    frng = np.random.default_rng(57)  # its own: the paths above keep their draws
    z_in, om_in = T.Tensor(frng.standard_normal((3, 6))), T.Tensor(frng.standard_normal((3, 4)))
    check(lambda z: noise_prediction_loss(den.forward(z, t_arr, om_in), eps), z_in,
          "denoiser.latents")
    check(lambda om: noise_prediction_loss(den.forward(z_in, t_arr, om), eps), om_in,
          "denoiser.prompts")
    two = Denoiser(latent_dim=6, cond_dim=4, T_steps=10, hidden=8, n_blocks=2,
                   attn_dim=4, seed=58)
    two.params.freeze()
    sites = build_joint(("view_a", "report"), {"view_a": two, "report": bases["report"]},
                        coupling_dim=4, proj_hidden=6, seed=59).sites["view_a"]
    for _, wo in sites:  # live couplings: wo starts at zero
        wo.w.data[...] = frng.normal(0, 0.3, wo.w.shape)
    partner = T.Tensor(frng.standard_normal((3, 4)))
    check(lambda p: noise_prediction_loss(two.forward(z_in.data, t_arr, om, sites, p), eps),
          partner, "coupled.partner")
    two.params.unfreeze()

    elapsed = time.monotonic() - t0
    _criterion(1, "autodiff soundness",
               configs >= 100 and worst < 1e-5 and elapsed < 120,
               f"{configs} configs, worst {worst:.2e}, denoiser params "
               f"{n_params}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: InfoNCE closed forms

def test_criterion_02_infonce_closed_forms():
    single = infonce_loss(T.Tensor([[1.0, 0.0]]), T.Tensor([[1.0, 0.0]]), 1.0).item()
    same = infonce_loss(T.Tensor([[1.0, 0.0], [1.0, 0.0]]),
                        T.Tensor([[1.0, 0.0], [1.0, 0.0]]), 1.0).item()
    ortho = infonce_loss(T.Tensor([[1.0, 0.0], [0.0, 1.0]]),
                         T.Tensor([[1.0, 0.0], [0.0, 1.0]]), 1.0).item()
    ok = (single == 0.0
          and abs(same - math.log(2.0)) < 1e-9
          and abs(ortho - math.log(1.0 + math.exp(-1.0))) < 1e-9)
    _criterion(2, "InfoNCE closed forms", ok,
               f"B=1 {single}, ln2 err {abs(same - math.log(2)):.1e}, "
               f"ln(1+1/e) err {abs(ortho - math.log(1 + math.exp(-1))):.1e}")


# ---------------------------------------------------------------------------
# criterion 3: subset sampler uniformity

def test_criterion_03_sampler_uniformity():
    sampler = SubsetSampler(["view_b", "report"], stream(33, "acceptance"))
    n = 100_000
    counts = {}
    for _ in range(n):
        s = sampler.sample_subset()
        counts[s] = counts.get(s, 0) + 1
    freqs = np.array([counts.get(k, 0) / n for k in
                      [("view_b",), ("report",), ("view_b", "report")]])
    chi2 = sum((c - n / 3) ** 2 / (n / 3) for c in counts.values())
    p = stats.chi2.sf(chi2, df=2)
    ok = len(counts) == 3 and np.all(np.abs(freqs - 1 / 3) <= 0.01) and p > 0.001
    _criterion(3, "subset sampler uniformity", ok,
               f"freqs {np.round(freqs, 4).tolist()}, chi2 p {p:.3f}")


# ---------------------------------------------------------------------------
# criterion 4: conditioning simplex

def _unit_rows(rng, shape):
    x = rng.normal(size=shape)
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def test_criterion_04_conditioning_simplex():
    # both weight paths the program runs: combine's uniform weights (a
    # generate request) and the weight rows of the batched training draw
    rng = np.random.default_rng(44)
    ks = rng.integers(1, 4, size=10_000)
    worst_sum, worst_combo = 0.0, 0.0
    for k in ks:
        vecs = _unit_rows(rng, (k, 16))
        omega, weights = combine(vecs)
        worst_sum = max(worst_sum, abs(weights.sum() - 1.0))
        expected = sum(w * v for w, v in zip(weights, vecs))
        worst_combo = max(worst_combo, float(np.max(np.abs(omega - expected))))
        assert np.all(weights >= 0)
    for k in (1, 2, 3):  # as many batched rows per k as combine drew
        sampler = SubsetSampler([f"m{j}" for j in range(k)], stream(44, f"simplex:{k}"))
        embs = {m: _unit_rows(rng, (int(np.sum(ks == k)), 16)) for m in sampler.available}
        omega, weights = draw_conditioning_batch(sampler, embs)
        worst_sum = max(worst_sum, float(np.max(np.abs(weights.sum(axis=1) - 1.0))))
        expected = sum(weights[:, j:j + 1] * embs[m] for j, m in enumerate(sampler.available))
        worst_combo = max(worst_combo, float(np.max(np.abs(omega - expected))))
        assert np.all(weights >= 0)
    ok = worst_sum <= 1e-12 and worst_combo <= 1e-12
    _criterion(4, "conditioning simplex", ok,
               f"worst weight-sum err {worst_sum:.1e}, worst combo err {worst_combo:.1e}")


# ---------------------------------------------------------------------------
# criterion 5: diffusion forward marginals

def test_criterion_05_forward_marginals():
    s = make_schedule(100, 1e-3, 0.2)
    rng = stream(55, "marginals")
    n, z0 = 20_000, 1.7
    ok = True
    details = []
    for t in (1, 50, 100):
        eps = rng.standard_normal(n)
        zt = q_sample(np.full(n, z0), np.full(n, t), eps, s)
        ab = s.alpha_bars[t - 1]
        mean_err = abs(zt.mean() - math.sqrt(ab) * z0)
        mean_tol = 3 * math.sqrt(1 - ab) / math.sqrt(n)
        var_err = abs(zt.var(ddof=1) - (1 - ab))
        var_tol = 3 * (1 - ab) * math.sqrt(2 / (n - 1))
        ok = ok and mean_err < mean_tol and var_err < var_tol
        details.append(f"t={t}: mean {mean_err:.2e}<{mean_tol:.2e}")

    s1000 = make_schedule(1000, 1e-4, 0.02)
    with mpmath.workdps(50):
        prod = mpmath.mpf(1)
        for i in range(1000):
            beta = mpmath.mpf("1e-4") + (mpmath.mpf("0.02") - mpmath.mpf("1e-4")) * i / 999
            prod *= 1 - beta
        oracle = float(prod)
    ab_err = abs(s1000.alpha_bars[-1] - oracle)
    ok = ok and ab_err < 1e-12
    _criterion(5, "diffusion forward marginals", ok,
               "; ".join(details) + f"; abar_T err {ab_err:.1e}")


# ---------------------------------------------------------------------------
# criterion 6: alignment quality

def test_criterion_06_alignment_quality(cfg, world):
    test_records = world["ds"].subset("test")
    batch = cfg["eval"]["retrieval_batch"]
    trained = retrieval_eval(world["encoders"], test_records, batch_size=batch, seed=66)
    pair_accs = {k: v for k, v in trained.items()
                 if k not in ("mean", "queries_per_pair")}

    untrained = retrieval_eval(PromptEncoders(dim=8, hidden=16, seed=991),
                               test_records, batch_size=batch, seed=66)
    p = 1.0 / batch
    sigma = math.sqrt(p * (1 - p) / untrained["queries_per_pair"])
    # the binomial-chance model applies to the image-text pairs; an untrained
    # image encoder still passes raw pixel correlations between the two views
    # of one record, so view_a|view_b is only required to sit near chance
    base_ok = (all(abs(untrained[k] - p) < 3 * sigma + 1e-9
                   for k in ("view_a|report", "view_b|report"))
               and untrained["view_a|view_b"] < 0.1)
    ok = all(v >= 0.90 for v in pair_accs.values()) and base_ok
    _criterion(6, "alignment retrieval quality", ok,
               f"top-1 {dict((k, round(v, 3)) for k, v in pair_accs.items())}, "
               f"untrained mean {untrained['mean']:.4f} vs chance {p:.4f}")


# ---------------------------------------------------------------------------
# criterion 7: factual correctness and multi-prompt FID trend

def test_criterion_07_factual_and_fid_trend(cfg, world, prompts, single_target_pools):
    classifier = world["classifier"]
    labels = np.stack([r.labels for r in prompts])
    agree = classification_report(
        classifier.scores(single_target_pools["text"]), labels)
    macro = agree["f1"]["macro"]

    real_feats = classifier.features(
        np.stack([r.view_a for r in world["ds"].subset("test")]))
    f_single = frechet_distance(real_feats,
                                classifier.features(single_target_pools["single"]))
    f_two = frechet_distance(real_feats,
                             classifier.features(single_target_pools["two"]))
    boot = paired_bootstrap_frechet(
        classifier.features(single_target_pools["single"]),
        classifier.features(single_target_pools["two"]),
        real_feats, n_boot=cfg["eval"]["bootstrap"], seed=77)
    ok = (macro >= 0.8 and f_two <= f_single
          and boot["fraction_b_not_worse"] >= 0.95)
    _criterion(7, "factual correctness + multi-prompt FID trend", ok,
               f"macro-F1 {macro:.3f}, FID two {f_two:.2f} <= single {f_single:.2f}, "
               f"bootstrap {boot['fraction_b_not_worse']:.3f}")


# ---------------------------------------------------------------------------
# criterion 8: joint alignment dominance

def test_criterion_08_joint_cosine_dominance(world, joint_pools):
    ok = True
    details = []
    for prompt_m, entry in joint_pools.items():
        pair = entry["pair"]
        cj = _mean_cosine(world, pair, entry["joint"])
        ci = _mean_cosine(world, pair, entry["indep"])
        ok = ok and (cj > ci)
        details.append(f"{prompt_m}->{'+'.join(pair)}: {cj:.3f} vs {ci:.3f}")
    _criterion(8, "joint cosine alignment dominance", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 9: hamming coherence

def test_criterion_09_hamming_coherence(world, joint_pools):
    entry = joint_pools["view_b"]  # L -> F+T: the (view_a, report) pair
    classifier = world["classifier"]
    joint = hamming_coherence(np.stack(entry["joint"]["view_a"]),
                              entry["joint"]["report"], classifier)
    indep = hamming_coherence(np.stack(entry["indep"]["view_a"]),
                              entry["indep"]["report"], classifier)
    ok = joint["mode"] == 0 and joint["mean"] < indep["mean"]
    _criterion(9, "hamming coherence trend", ok,
               f"joint mean {joint['mean']:.3f} mode {joint['mode']} "
               f"hist {joint['histogram'].tolist()} vs indep mean {indep['mean']:.3f}")


# ---------------------------------------------------------------------------
# criterion 10: metric oracles

def test_criterion_10_metric_oracles():
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        mu1, mu2 = rng.normal(size=dim), rng.normal(size=dim)
        a1 = rng.normal(size=(dim, dim))
        a2 = rng.normal(size=(dim, dim))
        s1 = a1 @ a1.T + 0.5 * np.eye(dim)
        s2 = a2 @ a2.T + 0.5 * np.eye(dim)
        ours = gaussian_frechet(mu1, s1, mu2, s2)
        covmean = scipy.linalg.sqrtm(s1 @ s2)
        if np.iscomplexobj(covmean):
            covmean = covmean.real
        oracle = float((mu1 - mu2) @ (mu1 - mu2) + np.trace(s1) + np.trace(s2)
                       - 2.0 * np.trace(covmean))
        worst = max(worst, abs(ours - oracle))
    x = rng.normal(size=(60, 4))
    identical = frechet_distance(x, x)

    hand = bleu(["a", "b", "c", "d"], [["a", "b", "c", "e"]], max_n=2)
    identity = bleu(list("abcdef"), [list("abcdef")])
    ok = (worst < 1e-6 and identical < 1e-6
          and hand[0] == 0.75
          and abs(hand[1] - math.sqrt(0.75 * 2 / 3)) < 1e-12
          and identity == [1.0, 1.0, 1.0, 1.0])
    _criterion(10, "metric oracles", ok,
               f"FD oracle worst {worst:.1e}, identical {identical:.1e}, "
               f"BLEU hand {np.round(hand, 6).tolist()}")


# ---------------------------------------------------------------------------
# criterion 11: utility trends

def test_criterion_11_utility_trends(cfg, home):
    anon = run_utility(cfg, home, "anonymization")
    gap = abs(anon["real"]["auroc"]["micro"] - anon["synthetic"]["auroc"]["micro"])
    anon_ok = gap <= 0.05

    imb = run_utility(cfg, home, "imbalance")
    base_f1 = imb["baseline"]["f1"]["per_class"]
    aug_f1 = imb["augmented"]["f1"]["per_class"]
    minority = imb["minority_classes"]
    imb_ok = all(aug_f1[k] >= base_f1[k] for k in minority)

    scar = run_utility(cfg, home, "scarcity")
    f1s = [lv["report"]["f1"]["micro"] for lv in scar["levels"]]
    scar_ok = all(f1s[i + 1] >= f1s[i] for i in range(len(f1s) - 1))

    ok = anon_ok and imb_ok and scar_ok
    _criterion(11, "utility trends", ok,
               f"anon gap {gap:.4f}; imbalance minority "
               f"{[f'{base_f1[k]:.2f}->{aug_f1[k]:.2f}' for k in minority]}; "
               f"scarcity {['%.4f' % v for v in f1s]}")


# ---------------------------------------------------------------------------
# criterion 12: determinism and freeze

REDUCED = {
    "seed": 3,
    "dataset": {"n": 140, "positive_rates": [0.5] * 5},
    "encoder": {"dim": 8, "hidden": 16, "text_embed": 8, "epochs": 2,
                "batch_size": 32},
    "diffusion": {"timesteps": 8, "hidden": 16, "blocks": 1, "attn_dim": 8,
                  "epochs": 2, "batch_size": 32,
                  "image_codec": {"hidden": 16, "epochs": 3, "lr": 3e-3},
                  "text_codec": {"latent_dim": 8, "hidden": 16, "epochs": 3,
                                 "lr": 3e-3}},
    "joint": {"coupling_dim": 4, "proj_hidden": 8, "epochs": 1,
              "batch_size": 32},
    "eval": {"sample_count": 4, "classifier_epochs": 40,
             "classifier_hidden": [48, 16]},
}


def _reduced_run(root):
    cfg = load_config(REDUCED)
    pl.run_gen_data(cfg, root)
    pl.run_train_align(cfg, root)
    for m in ("view_a", "report"):
        pl.run_train_ldm(cfg, root, m)
    pl.run_train_joint(cfg, root, ("view_a", "report"))
    pl.run_train_classifier(cfg, root)
    ds = pl.load_data(cfg, root)
    samples, provenance = pl.generate_samples(
        cfg, root, {"view_b": ds.records[0].view_b}, ["view_a", "report"],
        joint=True, seed=12, count=3)
    model, _ = pl.load_classifier(cfg, root)
    ham = hamming_coherence(np.stack([s["view_a"] for s in samples]),
                            [s["report"] for s in samples], model)
    pl.write_metric_report(root, "hamming", {
        "mean": ham["mean"], "mode": ham["mode"],
        "histogram": ham["histogram"].tolist(), "n": len(samples),
        "provenance": provenance}, cfg, 12)
    artifacts = [pl.dataset_path(root), pl.checkpoint_path(root, "alignment"),
                 pl.checkpoint_path(root, "ldm:view_a"),
                 pl.checkpoint_path(root, "ldm:report"),
                 pl.checkpoint_path(root, "joint:view_a+report"),
                 pl.checkpoint_path(root, "classifier"),
                 pl.report_dir(root) / "hamming.json"]
    return {p.name: p.read_bytes() for p in artifacts}


def test_criterion_12_determinism_and_freeze(tmp_path_factory, cfg, home, world):
    run1 = _reduced_run(tmp_path_factory.mktemp("det1"))
    run2 = _reduced_run(tmp_path_factory.mktemp("det2"))
    identical = {name: run1[name] == run2[name] for name in run1}
    det_ok = all(identical.values())

    freeze_ok = True
    for pair in pl.JOINT_PAIRS:
        stage = f"joint:{pair[0]}+{pair[1]}"
        from crossgen.checkpoint import load_checkpoint
        ck = load_checkpoint(pl.checkpoint_path(home, stage), stage,
                             config_hash(cfg))
        for m in pair:
            base, _, _ = world["ldms"][m]
            freeze_ok = freeze_ok and (
                base.params.checksum() == ck["metadata"]["base_checksums"][m])

    ok = det_ok and freeze_ok
    _criterion(12, "determinism and freeze", ok,
               f"bit-identical {sorted(k for k, v in identical.items())}, "
               f"freeze {'ok' if freeze_ok else 'VIOLATED'}")


# ---------------------------------------------------------------------------
# supplementary pipeline-health checks tied to spec examples

def test_pipeline_training_curves(home):
    import csv as _csv
    with pl.history_path(home, "alignment").open() as fh:
        rows = list(_csv.DictReader(fh))
    history = [{"epoch": int(r["epoch"]), "pair": r["pair"],
                "loss": float(r["loss"])} for r in rows]
    assert loss_trend_ok(history), "alignment loss trend regressed"

    for m in td.MODALITIES:
        with pl.history_path(home, f"ldm:{m}").open() as fh:
            losses = [float(r["loss"]) for r in _csv.DictReader(fh)]
        assert losses[-1] < 0.5 * losses[0], f"ldm:{m} loss ratio {losses[-1]/losses[0]:.2f}"

    for pair in pl.JOINT_PAIRS:
        with pl.history_path(home, f"joint:{pair[0]}+{pair[1]}").open() as fh:
            losses = [float(r["loss"]) for r in _csv.DictReader(fh)]
        assert losses[-1] < losses[0], f"joint {pair} loss did not improve"


def test_backbone_gate_satisfied(world):
    assert world["classifier_meta"]["test_macro_f1"] >= 0.9


def test_intra_study_consistency_trend(cfg, world):
    """Reports generated from the two views of one study agree more than
    reports from different studies."""
    schedule = world["schedule"]
    den, codec, _ = world["ldms"]["report"]
    encoders = world["encoders"]
    records = world["ds"].subset("test")[:40]

    def generate_report(record, view_name, idx):
        omega = encoders.encode_batch(
            view_name, np.stack([td.payload(record, view_name)]))
        out = sample(den, schedule, omega, codec,
                     noise_stream(1700 + record.id * 3 + idx, "intra"))[0]
        return out if out else ("study",)

    intra = intra_study_consistency(generate_report, records, repeats=2)
    cross_scores = []
    for i, rec in enumerate(records):
        other = records[(i + 1) % len(records)]
        a = generate_report(rec, "view_a", 0)
        b = generate_report(other, "view_b", 1)
        cross_scores.append(bleu(list(a), [list(b)], max_n=1)[0])
    cross_b1 = float(np.mean(cross_scores))
    intra_b1 = intra["mean_bleu"][0]
    print(f"[extra] intra-study BLEU-1 {intra_b1:.3f} vs cross {cross_b1:.3f}")
    assert intra_b1 > cross_b1
