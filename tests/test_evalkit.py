"""Metric oracles: Frechet vs scipy sqrtm, BLEU hand counts, rank AUROC."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from crossgen import evalkit as ek
from crossgen import tensor as T
from crossgen import toydata as td
from crossgen.errors import NumericError
from crossgen.nn import AdamWState, mlp, mlp_apply, mlp_bce_loss, train_epoch
from crossgen.rng import stream


def random_spd(rng, dim):
    a = rng.normal(size=(dim, dim))
    return a @ a.T + 0.5 * np.eye(dim)


# ---------------------------------------------------------------------------
# Frechet distance

def scipy_frechet_oracle(mu1, s1, mu2, s2):
    covmean = scipy.linalg.sqrtm(s1 @ s2)
    if np.iscomplexobj(covmean):
        covmean = covmean.real
    diff = mu1 - mu2
    return float(diff @ diff + np.trace(s1) + np.trace(s2) - 2.0 * np.trace(covmean))


def test_gaussian_frechet_matches_scipy_oracle():
    rng = np.random.default_rng(0)
    for trial in range(20):
        dim = int(rng.integers(2, 6))
        mu1, mu2 = rng.normal(size=dim), rng.normal(size=dim)
        s1, s2 = random_spd(rng, dim), random_spd(rng, dim)
        ours = ek.gaussian_frechet(mu1, s1, mu2, s2)
        oracle = scipy_frechet_oracle(mu1, s1, mu2, s2)
        assert abs(ours - oracle) < 1e-6, f"trial {trial}: {ours} vs {oracle}"


def test_frechet_identical_sets_zero():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(50, 4))
    assert ek.frechet_distance(x, x) < 1e-6


def test_frechet_symmetry():
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=(60, 5)), 0.5 + rng.normal(size=(60, 5))
    assert abs(ek.frechet_distance(a, b) - ek.frechet_distance(b, a)) < 1e-9


def test_frechet_equal_covariance_shift():
    # N(0, I) vs N(mu, I): distance ~ ||mu||^2 within Monte-Carlo slack
    rng = np.random.default_rng(3)
    mu = np.array([1.0, -0.5, 0.25])
    a = rng.normal(size=(4000, 3))
    b = rng.normal(size=(4000, 3)) + mu
    d = ek.frechet_distance(a, b)
    assert abs(d - mu @ mu) < 0.05


def test_frechet_requires_enough_samples():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        ek.frechet_distance(rng.normal(size=(4, 4)), rng.normal(size=(10, 4)))


def test_frechet_nonnegative_random_pairs():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.normal(size=(40, 3)) * rng.uniform(0.5, 2.0)
        b = rng.normal(size=(40, 3)) + rng.normal(size=3)
        assert ek.frechet_distance(a, b) >= 0.0


# ---------------------------------------------------------------------------
# BLEU

def test_bleu_identity_candidate():
    cand = list("abcdefg")
    scores = ek.bleu(cand, [cand])
    assert scores == [1.0, 1.0, 1.0, 1.0]


def test_bleu_zero_overlap():
    assert ek.bleu(["x", "y"], [["a", "b"]], max_n=1)[0] == 0.0


def test_bleu_hand_computed_four_token_case():
    # candidate "a b c d" vs reference "a b c e":
    # p1 = 3/4, p2 = 2/3, BLEU-2 = sqrt(p1 * p2)
    scores = ek.bleu(["a", "b", "c", "d"], [["a", "b", "c", "e"]], max_n=2)
    assert scores[0] == pytest.approx(0.75, abs=1e-12)
    assert scores[1] == pytest.approx(math.sqrt(0.75 * (2.0 / 3.0)), abs=1e-12)


def test_bleu_brevity_penalty():
    # candidate strictly shorter than the only reference
    scores = ek.bleu(["a", "b"], [["a", "b", "c", "d"]], max_n=1)
    assert scores[0] == pytest.approx(math.exp(1 - 4 / 2) * 1.0, abs=1e-12)


def test_bleu_errors():
    with pytest.raises(ValueError):
        ek.bleu([], [["a"]])
    with pytest.raises(ValueError):
        ek.bleu(["a"], [])


def test_bleu_bounded_and_monotone_on_toy_reports():
    rng = np.random.default_rng(6)
    for _ in range(50):
        labels = (rng.random(5) < 0.5).astype(np.uint8)
        cand = list(td.render_report(labels, int(rng.integers(0, 1000))))
        ref = list(td.render_report(labels, int(rng.integers(0, 1000))))
        scores = ek.bleu(cand, [ref])
        for n in range(4):
            assert 0.0 <= scores[n] <= 1.0
        for n in range(1, 4):
            assert scores[n] <= scores[n - 1] + 1e-12


# ---------------------------------------------------------------------------
# hamming

def test_hamming_distance_basic():
    assert ek.hamming_distance([1, 0, 1, 0, 0], [1, 0, 1, 0, 0]) == 0
    assert ek.hamming_distance([1, 1, 1, 0, 0], [0, 0, 0, 0, 0]) == 3
    a, b = np.array([1, 0, 1, 1, 0]), np.array([0, 0, 1, 0, 1])
    assert ek.hamming_distance(a, b) == ek.hamming_distance(b, a)


# ---------------------------------------------------------------------------
# AUROC / classification report

def test_auroc_perfect_and_chance():
    assert ek.auroc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    assert ek.auroc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0
    assert ek.auroc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5
    assert ek.auroc([0.5, 0.4], [1, 1]) is None


def test_auroc_matches_pair_counting_oracle():
    rng = np.random.default_rng(7)
    scores = rng.normal(size=40)
    labels = (rng.random(40) < 0.4).astype(int)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    oracle = wins / (len(pos) * len(neg))
    assert ek.auroc(scores, labels) == pytest.approx(oracle, abs=1e-12)


def test_classification_report_structure():
    rng = np.random.default_rng(8)
    scores = rng.random((30, 5))
    labels = (rng.random((30, 5)) < 0.5).astype(np.uint8)
    rep = ek.classification_report(scores, labels)
    assert set(rep) >= {"auroc", "f1", "support"}
    assert len(rep["f1"]["per_class"]) == 5
    assert 0.0 <= rep["f1"]["micro"] <= 1.0


def test_classifier_oracle_features_reach_auroc_one():
    # labels leaked into the inputs: the sanity ceiling
    rng = np.random.default_rng(9)
    labels = (rng.random((200, 5)) < 0.5).astype(np.uint8)
    views = np.zeros((200, 16, 16))
    views[:, 0, :5] = labels
    model, report = ek.train_classifier(views[:150], labels[:150],
                                        views[150:], labels[150:],
                                        seed=0, epochs=30)
    assert report["auroc"]["micro"] == pytest.approx(1.0, abs=1e-9)


def test_classifier_rejects_single_class_training_set():
    views = np.zeros((20, 16, 16))
    labels = np.tile(np.array([1, 0, 0, 0, 0], dtype=np.uint8), (20, 1))
    with pytest.raises(ValueError, match="single-class"):
        ek.train_classifier(views, labels, views, labels)


def test_classifier_stops_on_non_finite_loss():
    rng = np.random.default_rng(4)
    views = rng.random((40, 16, 16))
    labels = (rng.random((40, 5)) < 0.5).astype(np.uint8)
    views[7, 3, 3] = np.nan
    with pytest.raises(NumericError, match="classifier"):
        ek.train_classifier(views, labels, views, labels, epochs=1)


def test_classifier_same_seed_identical_metrics():
    ds = td.generate_dataset(seed=10, n=120, positive_rates=[0.5] * 5)
    views = np.stack([r.view_a for r in ds.records])
    labels = np.stack([r.labels for r in ds.records])
    r1 = ek.train_classifier(views[:80], labels[:80], views[80:], labels[80:],
                             seed=3, epochs=5)[1]
    r2 = ek.train_classifier(views[:80], labels[:80], views[80:], labels[80:],
                             seed=3, epochs=5)[1]
    assert r1 == r2


# ---------------------------------------------------------------------------
# the classifier's loss against its per-primitive tape path

def tape_loss(model, flat, labels):
    """The per-primitive reference of the classifier's batch loss: the tape's
    SiLU stack (``mlp``), then ``bce_with_logits`` and ``tmean``."""
    return T.tmean(T.bce_with_logits(mlp(model.layers, T.Tensor(flat)), labels))


def _grads(model, loss_fn):
    model.params.zero_grad()
    loss = loss_fn()
    T.backward(loss)
    T.reset_tape()
    return loss.data.tobytes(), {name: (p.grad.shape, p.grad.tobytes())
                                 for name, p in model.params.items()}


@pytest.mark.parametrize("rows", [1, 37, 64])
def test_fused_loss_gives_the_tape_paths_loss_and_gradients_bytes(rows):
    model = ek.build_classifier(256, (64, 32), 5, stream(3, "classifier-init"))
    rng = np.random.default_rng(rows)
    flat = rng.random((rows, 256))
    flat[-1] *= 1e4  # a row far out on both sides of every layer
    labels = (rng.random((rows, 5)) < 0.5).astype(np.float64)
    # the extreme row takes the overflow branch of the SiLU logistic, and a
    # logit below -700 that of the BCE gradient's logistic
    pre = model.layers[0].apply(flat)
    assert pre.min() < -710.0 and mlp_apply(model.layers, flat).min() < -700.0
    want = _grads(model, lambda: tape_loss(model, flat, labels))
    got = _grads(model, lambda: mlp_bce_loss(model.layers, flat, labels))
    assert got == want


def _tape_train_classifier(views, labels, seed, epochs):
    """``train_classifier``'s training loop with the reference loss."""
    flat = views.reshape(len(views), -1)
    model = ek.build_classifier(flat.shape[1], (64, 32), labels.shape[1],
                                stream(seed, "classifier-init"))
    order, state = stream(seed, "classifier-batches"), AdamWState()
    for _ in range(epochs):
        train_epoch(model.params, state, order, len(flat), 64,
                    lambda idx: tape_loss(model, flat[idx], labels[idx]),
                    "classifier", 3e-3, 1e-4)
    return model


def test_trained_classifier_has_the_tape_paths_bytes():
    ds = td.generate_dataset(seed=10, n=150, positive_rates=[0.5] * 5)
    views = np.stack([r.view_a for r in ds.records])
    labels = np.stack([r.labels for r in ds.records]).astype(np.float64)
    model, _ = ek.train_classifier(views, labels, views[:20], labels[:20], seed=3, epochs=3)
    # 150 rows at batch 64 leave a ragged last batch of 22 rows
    want = _tape_train_classifier(views, labels, seed=3, epochs=3)
    assert model.params.checksum() == want.params.checksum()


def test_scores_saturate_at_a_very_negative_logit_without_an_overflow_warning():
    model = ek.build_classifier(4, (3, 2), 2, stream(0, "classifier-init"))
    model.params["out.b"].data[...] = [-1000.0, 0.0]
    views = np.random.default_rng(0).random((6, 2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scores = model.scores(views)
    logits = model.logits(views)
    assert np.all(logits[:, 0] < -900.0) and np.all(scores[:, 0] == 0.0)
    with np.errstate(over="ignore"):  # the logistic formula, bit for bit
        assert scores.tobytes() == (1.0 / (1.0 + np.exp(-logits))).tobytes()
    np.testing.assert_array_equal(model.predict(views)[:, 0], 0)


def test_metric_backbone_gate():
    fake_report = {"f1": {"macro": 0.5}}
    with pytest.raises(ValueError, match="backbone"):
        ek.require_metric_backbone(None, fake_report)


# ---------------------------------------------------------------------------
# utility experiment plumbing

def _label_coded_pool(rng, n):
    labels = (rng.random((n, 5)) < 0.5).astype(np.uint8)
    views = np.zeros((n, 16, 16))
    views[:, 0, :5] = labels
    views += rng.normal(0, 0.01, size=views.shape)
    return views, labels


def test_anonymization_degenerate_same_pool_identical_metrics():
    rng = np.random.default_rng(11)
    pool = _label_coded_pool(rng, 100)
    test = _label_coded_pool(rng, 60)
    real, synthetic = ek.utility_reports([pool, pool], test, seed=1, pixel_noise=0.2,
                                         epochs=5)
    assert real == synthetic


# ---------------------------------------------------------------------------
# intra-study consistency

def test_intra_study_deterministic_generator_bleu_one():
    fixed = ("routine", "study", "alpha", "marker", "stable")

    def gen(record, view, idx):
        return fixed

    out = ek.intra_study_consistency(gen, records=[object(), object()], repeats=2)
    assert out["mean_bleu"] == [1.0, 1.0, 1.0, 1.0]


def test_intra_study_requires_two_repeats():
    with pytest.raises(ValueError):
        ek.intra_study_consistency(lambda *a: ("x",), records=[object()], repeats=1)


def test_intra_study_null_model_close_to_cross():
    # unconditioned random reports: intra ~ cross within noise
    rng = np.random.default_rng(13)

    def random_report(record, view, idx):
        labels = (rng.random(5) < 0.5).astype(np.uint8)
        return td.render_report(labels, int(rng.integers(0, 1000)))

    records = [object()] * 40
    intra = ek.intra_study_consistency(random_report, records, repeats=2)["mean_bleu"][0]
    cross_scores = []
    for _ in range(40):
        a = random_report(None, None, 0)
        b = random_report(None, None, 0)
        cross_scores.extend(ek.bleu(list(a), [list(b)], max_n=1))
    cross = float(np.mean(cross_scores))
    assert abs(intra - cross) < 0.1
