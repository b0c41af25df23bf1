"""Subset sampler uniformity and the conditioning simplex contract."""

import numpy as np
import pytest
from scipy import stats

from crossgen import toydata as td
from crossgen.bridging import PromptEncoders
from crossgen.conditioning import SubsetSampler, combine, draw_conditioning_batch
from crossgen.rng import stream


def _batch_embeddings(records, enc, modalities):
    return {m: enc.encode_batch(m, td.payload_batch(records, m)) for m in modalities}


def test_sampler_requires_nonempty():
    with pytest.raises(ValueError):
        SubsetSampler([], stream(0, "x"))


def test_singleton_always_returned():
    sampler = SubsetSampler(["report"], stream(1, "s"))
    for _ in range(50):
        assert sampler.sample_subset() == ("report",)


def test_k2_uniform_over_three_subsets():
    sampler = SubsetSampler(["view_b", "report"], stream(2, "s"))
    n = 100_000
    counts = {}
    for _ in range(n):
        s = sampler.sample_subset()
        counts[s] = counts.get(s, 0) + 1
    assert len(counts) == 3
    freqs = np.array([c / n for c in counts.values()])
    np.testing.assert_allclose(freqs, 1.0 / 3, atol=0.01)
    chi2 = sum((c - n / 3) ** 2 / (n / 3) for c in counts.values())
    assert stats.chi2.sf(chi2, df=2) > 0.001


@pytest.mark.parametrize("k", [1, 2, 3])
def test_uniformity_chi_square_all_k(k):
    sampler = SubsetSampler([f"m{i}" for i in range(k)], stream(3, f"s{k}"))
    n = 30_000
    counts = {}
    for _ in range(n):
        s = sampler.sample_subset()
        counts[s] = counts.get(s, 0) + 1
    n_subsets = 2 ** k - 1
    assert len(counts) == n_subsets
    if n_subsets > 1:
        chi2 = sum((c - n / n_subsets) ** 2 / (n / n_subsets) for c in counts.values())
        assert stats.chi2.sf(chi2, df=n_subsets - 1) > 0.001


def test_sampler_deterministic_sequence():
    s1 = SubsetSampler(["a", "b"], stream(7, "cond"))
    s2 = SubsetSampler(["a", "b"], stream(7, "cond"))
    seq1 = [s1.sample_subset() for _ in range(1000)]
    seq2 = [s2.sample_subset() for _ in range(1000)]
    assert seq1 == seq2


def test_combine_singleton_exact():
    e = np.array([[0.3, -0.4, 0.5]])
    omega, weights = combine(e)
    np.testing.assert_array_equal(omega, e[0])
    np.testing.assert_array_equal(weights, [1.0])


def test_combine_mean_of_two():
    e = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    omega, weights = combine(e)
    np.testing.assert_allclose(omega, [0.5, 0.5], atol=0)
    np.testing.assert_array_equal(weights, [0.5, 0.5])


def test_combine_rejects_an_empty_subset():
    with pytest.raises(ValueError, match="non-empty"):
        combine([])


def test_combine_simplex_invariants_random():
    rng = np.random.default_rng(4)
    for _ in range(10_000):
        k = int(rng.integers(1, 4))
        vecs = rng.normal(size=(k, 8))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        omega, weights = combine(vecs)
        assert abs(weights.sum() - 1.0) <= 1e-12
        assert np.all(weights == 1.0 / k)
        np.testing.assert_allclose(omega, vecs.mean(axis=0), atol=1e-12)
        # convex hull of the unit ball
        assert np.linalg.norm(omega) <= 1.0 + 1e-12


def test_draw_conditioning_singleton_equals_encode():
    ds = td.generate_dataset(seed=5, n=12, positive_rates=[0.5] * 5)
    enc = PromptEncoders(dim=8, hidden=16, seed=5)
    sampler = SubsetSampler(["report"], stream(5, "draw"))
    embs = _batch_embeddings(ds.records[:1], enc, sampler.available)
    omega, weights = draw_conditioning_batch(sampler, embs)
    np.testing.assert_array_equal(omega[0], enc.encode_batch("report", [ds.records[0].report])[0])
    np.testing.assert_array_equal(weights, [[1.0]])


def test_generation_task_shares_at_k2():
    # each specific prompt configuration appears ~1/3 of the time
    sampler = SubsetSampler(["view_b", "report"], stream(6, "tasks"))
    counts = {("view_b",): 0, ("report",): 0, ("view_b", "report"): 0}
    n = 30_000
    for _ in range(n):
        counts[sampler.sample_subset()] += 1
    for c in counts.values():
        assert abs(c / n - 1.0 / 3) < 0.02


def test_draw_conditioning_batch_matches_invariants():
    ds = td.generate_dataset(seed=7, n=20, positive_rates=[0.5] * 5)
    enc = PromptEncoders(dim=8, hidden=16, seed=7)
    sampler = SubsetSampler(["view_b", "report"], stream(7, "batch"))
    embs = _batch_embeddings(ds.records, enc, sampler.available)
    omega, weights = draw_conditioning_batch(sampler, embs)
    assert omega.shape == (20, 8)
    assert weights.shape == (20, 2)
    assert np.all(weights >= 0) and np.all(weights.sum(axis=1) > 0)
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(omega, embs["view_b"] * weights[:, :1]
                               + embs["report"] * weights[:, 1:], atol=1e-15)


@pytest.mark.parametrize("available", [("view_b", "report"), ("report",),
                                       ("view_a", "view_b", "report")])
def test_draw_conditioning_batch_equals_per_record_combine(available):
    # two consecutive batches of odd size: the second starts from the stream
    # state the first left, as in a training epoch
    ds = td.generate_dataset(seed=9, n=300, positive_rates=[0.5] * 5)
    enc = PromptEncoders(dim=32, hidden=128, text_embed=32, seed=9)
    embs = _batch_embeddings(ds.records, enc, available)
    sampler = SubsetSampler(available, stream(9, "draw"))
    reference = SubsetSampler(available, stream(9, "draw"))
    for lo, hi in ((0, 151), (151, 300)):
        omega, weights = draw_conditioning_batch(
            sampler, {m: e[lo:hi] for m, e in embs.items()})
        assert omega.shape == (hi - lo, 32) and weights.shape == (hi - lo, len(available))
        for i in range(hi - lo):
            subset = reference.sample_subset()
            ref_omega, ref_weights = combine([embs[m][lo + i] for m in subset])
            assert omega[i].tobytes() == ref_omega.tobytes(), (lo, i)
            for m, w in zip(subset, ref_weights):
                assert weights[i, available.index(m)] == w
            assert np.count_nonzero(weights[i]) == len(subset)
        assert sampler.rng.bit_generator.state == reference.rng.bit_generator.state


def test_draw_conditioning_batch_rejects_an_empty_batch():
    sampler = SubsetSampler(["view_b", "report"], stream(5, "draw"))
    with pytest.raises(ValueError, match="empty"):
        draw_conditioning_batch(sampler, {m: np.zeros((0, 4)) for m in sampler.available})
