"""Multi-prompt conditioning: uniform non-empty subset selection over the
available prompt modalities and convex combination of their shared
embeddings into a single conditioning vector."""

from __future__ import annotations

import numpy as np


class SubsetSampler:
    """Draws uniformly among the 2^k - 1 non-empty subsets of k modalities."""

    def __init__(self, available, rng: np.random.Generator):
        self.available = tuple(available)
        if not self.available:
            raise ValueError("subset sampler needs at least one available modality")
        self.rng = rng

    def sample_subset(self) -> tuple[str, ...]:
        k = len(self.available)
        mask = int(self.rng.integers(1, 2 ** k))
        return tuple(m for i, m in enumerate(self.available) if (mask >> i) & 1)


def combine(vectors) -> tuple[np.ndarray, np.ndarray]:
    """omega = sum_j alpha_j h_j with the uniform weights alpha_j = 1 / k.

    ``vectors`` holds the k shared embeddings h_j, as a non-empty sequence
    or a (k, d) array. Returns (omega, weights).
    """
    if not len(vectors):
        raise ValueError("combine requires a non-empty subset")
    vectors = np.stack(list(vectors))
    w = np.full(len(vectors), 1.0 / len(vectors))
    return w @ vectors, w


def draw_conditioning_batch(sampler: SubsetSampler, embeddings: dict):
    """Combine a batch's precomputed prompt embeddings into omega.

    ``embeddings`` maps each modality of ``sampler.available`` to its (B, d)
    shared embeddings, row i for record i of the batch; the training stages
    encode them once per stage and index them per batch. The random stream
    is the one a per-record loop of ``sample_subset`` and ``combine`` draws:
    one ``integers(1, 2**k, size=B)`` call draws every row's subset mask
    (for PCG64 the same values and generator state as B scalar draws) and a
    table maps each mask to its uniform weights. Each row of omega has the
    bits of the vector-matrix product ``combine`` computes: the product runs
    over every available modality, with zero weight outside the row's
    subset, and the test against ``combine`` checks that this keeps its bits
    for k <= 3.

    Returns (omega of shape (B, d), weights of shape (B, k)): column j of
    ``weights`` is the weight of ``sampler.available[j]`` in each row.
    """
    stacked = np.stack([embeddings[m] for m in sampler.available], axis=1)
    if not len(stacked):
        raise ValueError("empty batch")
    k = len(sampler.available)
    weights = _uniform_weight_table(k)[sampler.rng.integers(1, 2 ** k, size=len(stacked))]
    return (weights[:, None, :] @ stacked)[:, 0, :], weights


def _uniform_weight_table(k: int) -> np.ndarray:
    """Row ``mask`` holds 1 / popcount(mask) on the mask's bits (the weights
    ``combine`` gives that subset) and 0 elsewhere; row 0 is zero."""
    bits = (np.arange(2 ** k)[:, None] >> np.arange(k)) & 1
    return np.where(bits, 1.0 / np.maximum(bits.sum(axis=1, keepdims=True), 1), 0.0)
