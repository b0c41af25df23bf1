"""Shared latent space construction: modality-specific prompt encoders
trained pairwise with the symmetric InfoNCE objective.

One image encoder serves both rendered views; a separate text encoder
handles token reports. All embeddings are L2-normalized before any
contrastive use, and similarity is the plain dot product.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import tensor as T
from .nn import (AdamWState, Linear, ParameterSet, init_normal, mean_token_embedding,
                 mean_token_embedding_apply, mlp, mlp_apply, token_ids, train_epoch)
from .rng import stream
from .toydata import VIEW_SIZE, VOCAB, Dataset, payload_batch

#: round-robin pair schedule for alignment training
PAIR_SCHEDULE = (("view_a", "report"), ("view_b", "report"), ("view_a", "view_b"))


class ImagePromptEncoder:
    """Flatten -> two hidden SiLU layers -> d, unit-normalized."""

    def __init__(self, params: ParameterSet, prefix: str, dim: int,
                 hidden: int, rng: np.random.Generator):
        n_in = VIEW_SIZE * VIEW_SIZE
        self.layers = (Linear(params, f"{prefix}.l1", n_in, hidden, rng),
                       Linear(params, f"{prefix}.l2", hidden, hidden, rng),
                       Linear(params, f"{prefix}.out", hidden, dim, rng))

    @staticmethod
    def _flat(views) -> np.ndarray:
        views = np.asarray(views, dtype=np.float64)
        if views.ndim != 3 or views.shape[1:] != (VIEW_SIZE, VIEW_SIZE):
            raise ValueError(f"image payload batch must be (B, {VIEW_SIZE}, {VIEW_SIZE}), got {views.shape}")
        return views.reshape(len(views), -1)

    def forward(self, views: np.ndarray) -> T.Tensor:
        return mlp(self.layers, T.Tensor(self._flat(views)), unit=True)

    def apply(self, views: np.ndarray) -> np.ndarray:
        return mlp_apply(self.layers, self._flat(views), unit=True)


class TextPromptEncoder:
    """Masked token-embedding mean -> two hidden SiLU layers -> d, unit-normalized."""

    def __init__(self, params: ParameterSet, prefix: str, dim: int,
                 hidden: int, embed_dim: int, rng: np.random.Generator):
        self.table = params.add(f"{prefix}.embed",
                                T.Tensor(init_normal(rng, 0.5, (len(VOCAB), embed_dim))))
        self.layers = (Linear(params, f"{prefix}.l1", embed_dim, hidden, rng),
                       Linear(params, f"{prefix}.l2", hidden, hidden, rng),
                       Linear(params, f"{prefix}.out", hidden, dim, rng))

    def forward(self, reports) -> T.Tensor:
        x = mean_token_embedding(self.table, *token_ids(reports))
        return mlp(self.layers, x, unit=True)

    def apply(self, reports) -> np.ndarray:
        x = mean_token_embedding_apply(self.table, *token_ids(reports))
        return mlp_apply(self.layers, x, unit=True)


class PromptEncoders:
    """Bundle of the shared image encoder and the text encoder.

    ``seed=None`` allocates zero tensors without drawing, for encoders that
    a checkpoint load fills."""

    def __init__(self, dim: int = 32, hidden: int = 128, text_embed: int = 32,
                 seed: int | None = 0):
        self.params = ParameterSet()
        rng = None if seed is None else stream(seed, "encoder-init")
        self.image = ImagePromptEncoder(self.params, "image", dim, hidden, rng)
        self.text = TextPromptEncoder(self.params, "text", dim, hidden, text_embed, rng)
        self.dim = dim

    def _encoder_for(self, modality: str):
        if modality in ("view_a", "view_b"):
            return self.image
        if modality == "report":
            return self.text
        raise ValueError(f"unknown modality {modality!r}")

    def forward_batch(self, modality: str, payloads) -> T.Tensor:
        """Differentiable batch encoding (training path)."""
        return self._encoder_for(modality).forward(payloads)

    def encode_batch(self, modality: str, payloads) -> np.ndarray:
        """``forward_batch``'s bytes as a bare array, without a tape."""
        return self._encoder_for(modality).apply(payloads)


# ---------------------------------------------------------------------------
# contrastive losses

def infonce_loss(h_a: T.Tensor, h_b: T.Tensor, tau: float) -> T.Tensor:
    """Mean over the batch of -log softmax similarity of matching rows,
    with the other rows of h_b as in-batch negatives."""
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    if h_a.shape != h_b.shape or h_a.data.ndim != 2 or h_a.shape[0] == 0:
        raise ValueError(f"embedding batches must match and be non-empty: {h_a.shape} vs {h_b.shape}")
    b = h_a.shape[0]
    logits = T.mul(T.matmul(h_a, T.transpose(h_b)), T.Tensor(1.0 / tau))
    logp = T.log_softmax(logits)
    diag = T.tsum(T.mul(logp, T.Tensor(np.eye(b))), axis=1)
    return T.neg(T.tmean(diag))


def symmetric_loss(h_a: T.Tensor, h_b: T.Tensor, tau: float) -> T.Tensor:
    return T.add(infonce_loss(h_a, h_b, tau), infonce_loss(h_b, h_a, tau))


# ---------------------------------------------------------------------------
# training and retrieval evaluation

def train_alignment(dataset: Dataset, encoders: PromptEncoders, epochs: int,
                    batch_size: int = 64, lr: float = 1e-3,
                    weight_decay: float = 1e-4, tau: float = 0.07,
                    seed: int = 0) -> list[dict]:
    """Iterative pairwise contrastive training over the train split."""
    train = dataset.subset("train")
    if not train:
        raise ValueError("empty dataset")
    order_rng = stream(seed, "align-batches")
    state = AdamWState()

    def batch_loss(idx, pair):
        batch = [train[i] for i in idx]
        h_a = encoders.forward_batch(pair[0], payload_batch(batch, pair[0]))
        h_b = encoders.forward_batch(pair[1], payload_batch(batch, pair[1]))
        return symmetric_loss(h_a, h_b, tau)

    return [{"epoch": epoch, "pair": f"{pair[0]}|{pair[1]}",
             "loss": train_epoch(encoders.params, state, order_rng, len(train),
                                 batch_size, partial(batch_loss, pair=pair),
                                 "alignment", lr, weight_decay, min_rows=2,
                                 fill_missing=True)}
            for epoch in range(epochs) for pair in PAIR_SCHEDULE]


def loss_trend_ok(history: list[dict]) -> bool:
    """Mean loss over the last 10% of epochs must not exceed the previous 10%."""
    if not history:
        return True
    epochs = sorted({h["epoch"] for h in history})
    k = max(1, len(epochs) // 10)
    last = [h["loss"] for h in history if h["epoch"] in epochs[-k:]]
    prev = [h["loss"] for h in history if h["epoch"] in epochs[-2 * k:-k]]
    if not prev:
        return True
    return float(np.mean(last)) <= float(np.mean(prev)) + 1e-9


def retrieval_eval(encoders, records, batch_size: int = 64, seed: int = 0,
                   modalities=("view_a", "view_b", "report")) -> dict:
    """Top-1 cross-modal retrieval accuracy among batches of candidates.

    For each batch and each ordered modality pair, a query matches if its
    true counterpart has the highest dot-product similarity. Results are
    averaged over both directions of each pair.
    """
    if batch_size < 2:
        raise ValueError(f"batch size {batch_size} < 2")
    if batch_size > len(records):
        raise ValueError(f"batch size {batch_size} exceeds split size {len(records)}")
    perm = stream(seed, "retrieval").permutation(len(records))
    n_batches = len(records) // batch_size
    correct = {p: 0 for p in _unordered_pairs(modalities)}
    total = 0
    for b in range(n_batches):
        idx = perm[b * batch_size:(b + 1) * batch_size]
        batch = [records[i] for i in idx]
        embs = {m: encoders.encode_batch(m, payload_batch(batch, m)) for m in modalities}
        total += batch_size
        for m1, m2 in correct:
            sims = embs[m1] @ embs[m2].T
            correct[(m1, m2)] += int((sims.argmax(axis=1) == np.arange(batch_size)).sum())
            correct[(m1, m2)] += int((sims.argmax(axis=0) == np.arange(batch_size)).sum())
    out = {f"{m1}|{m2}": correct[(m1, m2)] / (2 * total) for m1, m2 in correct}
    out["mean"] = float(np.mean(list(out.values())))
    out["queries_per_pair"] = 2 * total
    return out


def _unordered_pairs(modalities):
    ms = list(modalities)
    return [(ms[i], ms[j]) for i in range(len(ms)) for j in range(i + 1, len(ms))]
