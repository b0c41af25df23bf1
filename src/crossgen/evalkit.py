"""Evaluation battery: Frechet feature distance, BLEU, Hamming coherence,
the multi-label MLP classifier used both as a task model and as the
feature backbone, and the training and scoring of synthetic-data utility
arms."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .nn import (AdamWState, Linear, ParameterSet, mlp_apply, mlp_bce_loss, silu_apply,
                 train_epoch)
from .rng import stream
from .toydata import NUM_CONDITIONS, rule_label_text

# ---------------------------------------------------------------------------
# Frechet distance

def gaussian_frechet(mu1, sigma1, mu2, sigma2) -> float:
    """Squared Wasserstein-2 distance between two Gaussians.

    The matrix square root comes from an eigendecomposition of the
    symmetrized product, with tiny negative eigenvalues clipped to zero.
    """
    mu1, mu2 = np.asarray(mu1, dtype=np.float64), np.asarray(mu2, dtype=np.float64)
    s1 = np.asarray(sigma1, dtype=np.float64)
    s2 = np.asarray(sigma2, dtype=np.float64)
    diff = mu1 - mu2
    w, u = np.linalg.eigh((s1 + s1.T) / 2.0)
    s1h = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.T
    m = s1h @ s2 @ s1h
    wm = np.linalg.eigvalsh((m + m.T) / 2.0)
    tr_sqrt = np.sqrt(np.clip(wm, 0.0, None)).sum()
    val = float(diff @ diff + np.trace(s1) + np.trace(s2) - 2.0 * tr_sqrt)
    return max(val, 0.0)


def frechet_distance(features_real: np.ndarray, features_synth: np.ndarray,
                     reg: float = 1e-6) -> float:
    """Frechet distance between Gaussians fitted to two feature samples."""
    a = np.asarray(features_real, dtype=np.float64)
    b = np.asarray(features_synth, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"feature arrays must be 2D with equal width: {a.shape} vs {b.shape}")
    f = a.shape[1]
    if a.shape[0] < f + 1 or b.shape[0] < f + 1:
        raise ValueError(f"need at least {f + 1} samples per side, got {a.shape[0]} and {b.shape[0]}")
    eye = reg * np.eye(f)
    mu1, s1 = a.mean(axis=0), np.cov(a, rowvar=False) + eye
    mu2, s2 = b.mean(axis=0), np.cov(b, rowvar=False) + eye
    return gaussian_frechet(mu1, s1, mu2, s2)


# ---------------------------------------------------------------------------
# BLEU

def _ngrams(tokens, n):
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def bleu(candidate, references, max_n: int = 4) -> list[float]:
    """BLEU-1..BLEU-max_n with clipped modified precision, geometric mean
    and the closest-reference-length brevity penalty. No smoothing."""
    cand = list(candidate)
    refs = [list(r) for r in references]
    if not cand:
        raise ValueError("bleu: empty candidate")
    if not refs:
        raise ValueError("bleu: empty reference set")
    if not 1 <= max_n <= 4:
        raise ValueError(f"bleu: max_n {max_n} outside 1..4")

    c = len(cand)
    r = min((len(ref) for ref in refs), key=lambda rl: (abs(rl - c), rl))
    bp = 1.0 if c > r else math.exp(1.0 - r / c)

    precisions: list[float | None] = []
    for n in range(1, max_n + 1):
        counts = Counter(_ngrams(cand, n))
        total = sum(counts.values())
        if total == 0:
            precisions.append(None)
            continue
        max_counts: dict = {}
        for ref in refs:
            ref_counts = Counter(_ngrams(ref, n))
            for g in counts:
                max_counts[g] = max(max_counts.get(g, 0), ref_counts[g])
        clipped = sum(min(cnt, max_counts[g]) for g, cnt in counts.items())
        precisions.append(clipped / total)

    scores = []
    for n in range(1, max_n + 1):
        head = precisions[:n]
        if any(p is None or p == 0.0 for p in head):
            scores.append(0.0)
        else:
            scores.append(bp * math.exp(sum(math.log(p) for p in head) / n))
    return scores


# ---------------------------------------------------------------------------
# Hamming coherence

def hamming_distance(labels_i, labels_j) -> int:
    a = np.asarray(labels_i).astype(np.uint8)
    b = np.asarray(labels_j).astype(np.uint8)
    if a.shape != b.shape:
        raise ValueError(f"label vectors differ in shape: {a.shape} vs {b.shape}")
    return int((a != b).sum())


def hamming_coherence(views, reports, classifier) -> dict:
    """Label disagreement between generated (view, report) pairs.

    Views are labeled by the trained classifier, reports by the rule
    labeler; returns the distance histogram over 0..C and its mean.
    """
    view_labels = classifier.predict(np.asarray(views))
    report_labels = np.stack([rule_label_text(r) for r in reports])
    distances = np.array([
        hamming_distance(a, b) for a, b in zip(view_labels, report_labels)
    ])
    hist = np.bincount(distances, minlength=NUM_CONDITIONS + 1)
    return {
        "distances": distances,
        "histogram": hist,
        "mean": float(distances.mean()),
        "mode": int(np.argmax(hist)),
    }


# ---------------------------------------------------------------------------
# rank statistics

def _average_ranks(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="mergesort")
    ranks = np.empty(len(x), dtype=np.float64)
    sx = x[order]
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def auroc(scores, labels) -> float | None:
    """Exact rank-based (Mann-Whitney) AUROC; None if one class is absent."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = _average_ranks(scores)
    u = ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _f1(tp, fp, fn) -> float:
    denom = 2 * tp + fp + fn
    return float(2 * tp / denom) if denom else 0.0


def classification_report(scores: np.ndarray, labels: np.ndarray,
                          threshold: float = 0.5) -> dict:
    """Per-class and micro/macro/weighted AUROC and F1 for multi-label data.

    Classes without both outcomes in ``labels`` get None AUROC and are
    excluded from the macro/weighted averages.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(np.uint8)
    n_classes = labels.shape[1]
    preds = (scores >= threshold).astype(np.uint8)

    per_auroc, per_f1, support = [], [], []
    for k in range(n_classes):
        per_auroc.append(auroc(scores[:, k], labels[:, k]))
        tp = int(((preds[:, k] == 1) & (labels[:, k] == 1)).sum())
        fp = int(((preds[:, k] == 1) & (labels[:, k] == 0)).sum())
        fn = int(((preds[:, k] == 0) & (labels[:, k] == 1)).sum())
        per_f1.append(_f1(tp, fp, fn))
        support.append(int(labels[:, k].sum()))

    defined = [k for k in range(n_classes) if per_auroc[k] is not None]
    w = np.array([support[k] for k in defined], dtype=np.float64)
    auroc_block = {
        "per_class": per_auroc,
        "micro": auroc(scores.reshape(-1), labels.reshape(-1)),
        "macro": float(np.mean([per_auroc[k] for k in defined])) if defined else None,
        "weighted": (float(np.sum(w * [per_auroc[k] for k in defined]) / w.sum())
                     if defined and w.sum() else None),
    }
    tp = int(((preds == 1) & (labels == 1)).sum())
    fp = int(((preds == 1) & (labels == 0)).sum())
    fn = int(((preds == 0) & (labels == 1)).sum())
    sup = np.array(support, dtype=np.float64)
    f1_block = {
        "per_class": per_f1,
        "micro": _f1(tp, fp, fn),
        "macro": float(np.mean(per_f1)),
        "weighted": (float(np.sum(sup * per_f1) / sup.sum()) if sup.sum() else 0.0),
    }
    return {"auroc": auroc_block, "f1": f1_block, "support": support,
            "n_samples": int(labels.shape[0])}


# ---------------------------------------------------------------------------
# classifier / feature backbone

@dataclass
class FeatureExtractor:
    """Small MLP over views; its penultimate layer provides FID features."""

    params: ParameterSet
    layers: tuple[Linear, Linear, Linear]  # l1, l2, out over ``params``

    def features(self, views: np.ndarray) -> np.ndarray:
        """The penultimate activations, silu(l2(silu(l1(x)))), without a tape."""
        flat = np.asarray(views, dtype=np.float64).reshape(len(views), -1)
        h = mlp_apply(self.layers[:2], flat)
        return silu_apply(h, out=h)

    def logits(self, views: np.ndarray) -> np.ndarray:
        return self.layers[2].apply(self.features(views))

    def scores(self, views: np.ndarray) -> np.ndarray:
        return T.sigmoid(self.logits(views)).data  # a constant: nothing records

    def predict(self, views: np.ndarray) -> np.ndarray:
        return (self.scores(views) >= 0.5).astype(np.uint8)


def build_classifier(n_in: int, hidden: tuple[int, int], n_out: int,
                     rng: np.random.Generator | None) -> FeatureExtractor:
    """The classifier's ``l1``/``l2``/``out`` layers, drawn from ``rng`` (zeros
    without drawing when it is None, for a checkpoint load to fill)."""
    params = ParameterSet()
    layers = (Linear(params, "l1", n_in, hidden[0], rng),
              Linear(params, "l2", hidden[0], hidden[1], rng),
              Linear(params, "out", hidden[1], n_out, rng))
    return FeatureExtractor(params, layers)


def train_classifier(train_views, train_labels, test_views, test_labels,
                     seed: int = 0, epochs: int = 40, batch_size: int = 64,
                     lr: float = 3e-3, weight_decay: float = 1e-4,
                     hidden: tuple[int, int] = (64, 32)) -> tuple[FeatureExtractor, dict]:
    """Train the multi-label view classifier and report held-out metrics."""
    views = np.asarray(train_views, dtype=np.float64)
    labels = np.asarray(train_labels, dtype=np.float64)
    if len(views) != len(labels) or len(views) == 0:
        raise ValueError("empty or mismatched training set")
    if np.all(labels == labels[0]):
        raise ValueError("single-class training set: every label vector is identical")

    flat = views.reshape(len(views), -1)
    model = build_classifier(flat.shape[1], hidden, labels.shape[1],
                             stream(seed, "classifier-init"))

    def batch_loss(idx):
        return mlp_bce_loss(model.layers, flat[idx], labels[idx])

    order_rng, state = stream(seed, "classifier-batches"), AdamWState()
    for _ in range(epochs):
        train_epoch(model.params, state, order_rng, len(flat), batch_size,
                    batch_loss, "classifier", lr, weight_decay)

    report = classification_report(model.scores(np.asarray(test_views)),
                                   np.asarray(test_labels))
    return model, report


def require_metric_backbone(model: FeatureExtractor, report: dict,
                            min_macro_f1: float = 0.9) -> FeatureExtractor:
    """Gate a classifier before it may back the Frechet metric."""
    macro = report["f1"]["macro"]
    if macro < min_macro_f1:
        raise ValueError(
            f"classifier macro-F1 {macro:.3f} below the {min_macro_f1} backbone threshold")
    return model


# ---------------------------------------------------------------------------
# utility experiments

def _noisy(views: np.ndarray, sigma: float, seed: int, tag: str) -> np.ndarray:
    """Seeded observation noise that makes the toy classification task hard
    enough to leave headroom for augmentation trends.

    Noise streams are keyed by (seed, tag) only, so two experiment arms get
    identical corruption on any shared prefix of their pools: the paired
    comparison stays controlled, and identical pools stay identical.
    """
    if sigma <= 0.0:
        return views
    rng = stream(seed, f"pixel-noise:{tag}")
    return np.clip(views + rng.normal(0.0, sigma, size=views.shape), 0.0, 1.0)


def utility_reports(arms, test, seed: int, pixel_noise: float, epochs: int) -> list[dict]:
    """Train one classifier per ``(views, labels)`` arm, all with the same
    settings, and report each on the same noised ``test`` pool."""
    test_views = _noisy(test[0], pixel_noise, seed, "test")
    return [train_classifier(_noisy(views, pixel_noise, seed, "train"), labels,
                             test_views, test[1], seed=seed, epochs=epochs)[1]
            for views, labels in arms]


# ---------------------------------------------------------------------------
# intra-study consistency

def intra_study_consistency(generate_report, records, repeats: int = 2,
                            max_n: int = 4) -> dict:
    """Mean pairwise BLEU between reports generated from different views of
    the same record.

    ``generate_report(record, view_name, repeat_index)`` must return a token
    sequence; views cycle (view_a, view_b, view_a, ...) across repeats.
    """
    if repeats < 2:
        raise ValueError(f"repeats {repeats} < 2")
    view_cycle = ("view_a", "view_b")
    per_n = np.zeros(max_n)
    pairs = 0
    for rec in records:
        reports = [list(generate_report(rec, view_cycle[i % 2], i)) for i in range(repeats)]
        for i in range(repeats):
            for j in range(repeats):
                if i == j:
                    continue
                per_n += np.asarray(bleu(reports[i], [reports[j]], max_n=max_n))
                pairs += 1
    return {"mean_bleu": (per_n / pairs).tolist(), "pairs": pairs}


# ---------------------------------------------------------------------------
# paired bootstrap for Frechet comparisons

def paired_bootstrap_frechet(features_a: np.ndarray, features_b: np.ndarray,
                             features_real: np.ndarray, n_boot: int = 200,
                             seed: int = 0) -> dict:
    """Fraction of paired bootstrap replicates where pool B's Frechet
    distance to the real features is <= pool A's.

    The same resample indices are applied to both generated pools (paired
    design); the real side is resampled independently per replicate.
    """
    a = np.asarray(features_a)
    b = np.asarray(features_b)
    real = np.asarray(features_real)
    if len(a) != len(b):
        raise ValueError("paired bootstrap requires equal-size generated pools")
    rng = stream(seed, "bootstrap")
    wins = 0
    for _ in range(n_boot):
        idx = rng.integers(0, len(a), size=len(a))
        ridx = rng.integers(0, len(real), size=len(real))
        fa = frechet_distance(real[ridx], a[idx])
        fb = frechet_distance(real[ridx], b[idx])
        if fb <= fa:
            wins += 1
    return {"fraction_b_not_worse": wins / n_boot, "n_boot": n_boot,
            "point_a": frechet_distance(real, a), "point_b": frechet_distance(real, b)}
