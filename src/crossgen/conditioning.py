"""Multi-prompt conditioning: uniform non-empty subset selection over the
available prompt modalities and convex combination of their shared
embeddings into a single conditioning vector."""

from __future__ import annotations

import numpy as np


class SubsetSampler:
    """Draws uniformly among the 2^k - 1 non-empty subsets of k modalities."""

    def __init__(self, available, rng: np.random.Generator,
                 weight_mode: str = "uniform"):
        self.available = tuple(available)
        if not self.available:
            raise ValueError("subset sampler needs at least one available modality")
        if weight_mode not in ("uniform", "dirichlet"):
            raise ValueError(f"unknown weight mode {weight_mode!r}")
        self.rng = rng
        self.weight_mode = weight_mode

    def sample_subset(self) -> tuple[str, ...]:
        k = len(self.available)
        mask = int(self.rng.integers(1, 2 ** k))
        return tuple(m for i, m in enumerate(self.available) if (mask >> i) & 1)

    def sample_weights(self, size: int) -> np.ndarray:
        if self.weight_mode == "dirichlet":
            return self.rng.dirichlet(np.ones(size))
        return np.full(size, 1.0 / size)


def combine(vectors, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """omega = sum_j alpha_j h_j with alpha on the probability simplex.

    ``vectors`` holds the k shared embeddings h_j, as a non-empty sequence
    or a (k, d) array; weights default to uniform. Returns (omega, weights).
    """
    if not len(vectors):
        raise ValueError("combine requires a non-empty subset")
    vectors = np.stack(list(vectors))
    k = len(vectors)
    if weights is None:
        w = np.full(k, 1.0 / k)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (k,):
            raise ValueError(f"got {w.shape[0] if w.ndim else 0} weights for {k} embeddings")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {w.sum()!r}, not 1")
    return w @ vectors, w


def draw_conditioning_batch(sampler: SubsetSampler, embeddings: dict,
                            target: str):
    """Combine a batch's precomputed prompt embeddings into omega.

    ``embeddings`` maps each modality of ``sampler.available`` to its (B, d)
    shared embeddings, row i for record i of the batch; the training loops
    encode them once per stage and index them per batch. The random stream
    is the one a per-record loop over ``combine`` draws: in uniform mode one
    ``integers(1, 2**k, size=B)`` call draws every row's subset mask (for
    PCG64 the same values and generator state as B scalar draws) and a table
    maps each mask to its weights; in Dirichlet mode each row in turn draws
    a subset, then its weights. Each row of omega has the bits of the
    vector-matrix product ``combine`` computes. In uniform mode the product
    runs over every available modality, with zero weight outside the row's
    subset; the test against ``combine`` checks that this keeps its bits for
    k <= 3.

    Returns (omega of shape (B, d), weights of shape (B, k)): column j of
    ``weights`` is the weight of ``sampler.available[j]`` in each row.
    """
    if target in sampler.available:
        raise ValueError(f"target {target!r} cannot also be a conditioning modality")
    stacked = np.stack([embeddings[m] for m in sampler.available], axis=1)
    if not len(stacked):
        raise ValueError("empty batch")
    if sampler.weight_mode == "uniform":
        k = len(sampler.available)
        weights = _uniform_weight_table(k)[sampler.rng.integers(1, 2 ** k, size=len(stacked))]
        return (weights[:, None, :] @ stacked)[:, 0, :], weights
    weights = np.zeros(stacked.shape[:2])
    omega = np.empty((len(stacked), stacked.shape[2]))
    for i, row in enumerate(weights):
        cols = [sampler.available.index(m) for m in sampler.sample_subset()]
        row[cols] = sampler.sample_weights(len(cols))
        # combine's product over the subset alone: a zero weight between two
        # Dirichlet weights changes the bits of the full-width product
        omega[i] = row[cols] @ stacked[i, cols]
    return omega, weights


def _uniform_weight_table(k: int) -> np.ndarray:
    """Row ``mask`` holds 1 / popcount(mask) on the mask's bits (the
    ``sample_weights`` value of that subset) and 0 elsewhere; row 0 is zero."""
    bits = (np.arange(2 ** k)[:, None] >> np.arange(k)) & 1
    return np.where(bits, 1.0 / np.maximum(bits.sum(axis=1, keepdims=True), 1), 0.0)
