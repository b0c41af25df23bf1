"""InfoNCE closed forms, encoder contracts and retrieval mechanics."""

import math

import numpy as np
import pytest

from crossgen import tensor as T
from crossgen import toydata as td
from crossgen.errors import NumericError
from crossgen.bridging import (PromptEncoders, infonce_loss, loss_trend_ok,
                               retrieval_eval, symmetric_loss, train_alignment)


@pytest.fixture(autouse=True)
def _fresh_tape():
    T.reset_tape()
    yield
    T.reset_tape()


def tensor_rows(rows):
    return T.Tensor(np.asarray(rows, dtype=np.float64))


def test_infonce_single_pair_is_zero():
    h = tensor_rows([[1.0, 0.0]])
    assert infonce_loss(h, h, tau=1.0).item() == pytest.approx(0.0, abs=1e-12)


def test_infonce_identical_embeddings_ln2():
    # B=2, all four embeddings identical, tau=1 -> ln 2
    h = tensor_rows([[1.0, 0.0], [1.0, 0.0]])
    loss = infonce_loss(h, h, tau=1.0)
    assert loss.item() == pytest.approx(math.log(2.0), abs=1e-9)


def test_infonce_orthonormal_closed_form():
    # B=2 with e1, e2 on both sides, tau=1 -> ln(1 + e^-1)
    h = tensor_rows([[1.0, 0.0], [0.0, 1.0]])
    loss = infonce_loss(h, h, tau=1.0)
    assert loss.item() == pytest.approx(math.log(1.0 + math.exp(-1.0)), abs=1e-9)


def test_symmetric_loss_orthonormal_and_symmetry():
    rng = np.random.default_rng(0)
    e = tensor_rows([[1.0, 0.0], [0.0, 1.0]])
    assert symmetric_loss(e, e, tau=1.0).item() == pytest.approx(
        2.0 * math.log(1.0 + math.exp(-1.0)), abs=1e-9)
    a = T.l2_normalize(T.Tensor(rng.normal(size=(4, 8))))
    b = T.l2_normalize(T.Tensor(rng.normal(size=(4, 8))))
    assert symmetric_loss(a, b, 0.3).item() == pytest.approx(
        symmetric_loss(b, a, 0.3).item(), abs=1e-12)


def test_infonce_nonnegative_and_errors():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = T.l2_normalize(T.Tensor(rng.normal(size=(5, 6))))
        b = T.l2_normalize(T.Tensor(rng.normal(size=(5, 6))))
        assert infonce_loss(a, b, 0.5).item() >= 0.0
    with pytest.raises(ValueError):
        infonce_loss(tensor_rows([[1.0]]), tensor_rows([[1.0]]), tau=0.0)
    with pytest.raises(ValueError):
        infonce_loss(T.Tensor(np.zeros((0, 4))), T.Tensor(np.zeros((0, 4))), tau=1.0)


def test_tau_preserves_per_row_loss_ranking_b2():
    # B=2: each row's loss is monotone in its single similarity gap, so the
    # ranking of per-row losses cannot depend on the temperature.
    rng = np.random.default_rng(2)

    def per_row_losses(h_a, h_b, tau):
        sims = h_a @ h_b.T / tau
        shifted = sims - sims.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return -np.diag(logp)

    for _ in range(25):
        h_a = T.l2_normalize(T.Tensor(rng.normal(size=(2, 8)))).data
        h_b = T.l2_normalize(T.Tensor(rng.normal(size=(2, 8)))).data
        r1 = np.argsort(per_row_losses(h_a, h_b, 0.05))
        r2 = np.argsort(per_row_losses(h_a, h_b, 1.0))
        np.testing.assert_array_equal(r1, r2)


def test_symmetric_loss_grad_check():
    rng = np.random.default_rng(3)
    other = T.Tensor(rng.normal(size=(3, 4)))

    def f(x):
        return symmetric_loss(T.l2_normalize(x), T.l2_normalize(other), 0.5)

    err = T.grad_check(f, T.Tensor(rng.normal(size=(3, 4))))
    assert err < 1e-5


def test_encode_unit_norm_and_deterministic():
    enc = PromptEncoders(dim=16, hidden=32, seed=4)
    ds = td.generate_dataset(seed=4, n=12, positive_rates=[0.5] * 5)
    for modality in ("view_a", "view_b", "report"):
        e1 = enc.encode_batch(modality, [td.payload(ds.records[0], modality)])
        e2 = enc.encode_batch(modality, [td.payload(ds.records[0], modality)])
        assert e1.shape == (1, 16)
        assert abs(np.linalg.norm(e1[0]) - 1.0) < 1e-9
        np.testing.assert_array_equal(e1, e2)


def test_encode_rejects_wrong_payload():
    enc = PromptEncoders(dim=8, hidden=16, seed=5)
    with pytest.raises(ValueError):
        enc.forward_batch("view_a", np.zeros((2, 4, 4)))
    with pytest.raises(ValueError):
        enc.forward_batch("report", ["not-a-token-sequence"])
    with pytest.raises(ValueError):
        enc.encode_batch("volume", np.zeros((1, 16, 16)))


def test_encoder_forward_matches_scalar_loop_oracle():
    # independent re-evaluation of the image path with python loops
    enc = PromptEncoders(dim=4, hidden=8, seed=6)
    view = np.random.default_rng(7).uniform(0, 1, size=(16, 16))
    got = enc.encode_batch("view_a", view[None])[0]

    p = enc.params
    x = view.reshape(-1)

    def lin(v, w, b):
        out = np.zeros(w.shape[1])
        for j in range(w.shape[1]):
            acc = b[j]
            for i in range(w.shape[0]):
                acc += v[i] * w[i, j]
            out[j] = acc
        return out

    def silu(v):
        return np.array([u / (1.0 + np.exp(-u)) for u in v])

    h = silu(lin(x, p["image.l1.w"].data, p["image.l1.b"].data))
    h = silu(lin(h, p["image.l2.w"].data, p["image.l2.b"].data))
    o = lin(h, p["image.out.w"].data, p["image.out.b"].data)
    expected = o / np.sqrt((o * o).sum() + 1e-12)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_train_alignment_zero_epochs_and_determinism():
    ds = td.generate_dataset(seed=8, n=40, positive_rates=[0.5] * 5)
    enc = PromptEncoders(dim=8, hidden=16, seed=8)
    before = enc.params.checksum()
    assert train_alignment(ds, enc, epochs=0, seed=1) == []
    assert enc.params.checksum() == before

    h1 = train_alignment(ds, PromptEncoders(dim=8, hidden=16, seed=8),
                         epochs=2, batch_size=16, seed=1)
    h2 = train_alignment(ds, PromptEncoders(dim=8, hidden=16, seed=8),
                         epochs=2, batch_size=16, seed=1)
    assert h1 == h2


def test_train_alignment_empty_dataset_errors():
    ds = td.generate_dataset(seed=8, n=40)
    ds.split["train"] = np.array([], dtype=np.int64)
    with pytest.raises(ValueError, match="empty"):
        train_alignment(ds, PromptEncoders(dim=8, hidden=16, seed=0), epochs=1)


def test_train_alignment_with_one_row_batches_errors_instead_of_skipping_every_step():
    ds = td.generate_dataset(seed=1, n=20)
    encoders = PromptEncoders(dim=8, hidden=16, seed=1)
    before = encoders.params.checksum()
    with pytest.raises(ValueError, match="alignment"):
        train_alignment(ds, encoders, epochs=1, batch_size=1)
    assert encoders.params.checksum() == before


def test_train_alignment_stops_on_non_finite_loss():
    ds = td.generate_dataset(seed=8, n=40)
    ds.records[ds.split["train"][0]].view_a[0, 0] = np.nan
    encoders = PromptEncoders(dim=8, hidden=16, seed=0)
    before = encoders.params.checksum()
    with pytest.raises(NumericError, match="alignment"):
        train_alignment(ds, encoders, epochs=1, batch_size=64)
    assert encoders.params.checksum() == before


class _OneHotOracle:
    """Maps payloads back to their record index via an identity table."""

    def __init__(self, records, n):
        self.n = n
        self.table = {}
        for i, rec in enumerate(records):
            self.table[rec.view_a.tobytes()] = i
            self.table[rec.view_b.tobytes()] = i
            self.table[tuple(rec.report)] = i

    def encode_batch(self, modality, payloads):
        out = np.zeros((len(payloads), self.n))
        for row, p in enumerate(payloads):
            key = p.tobytes() if isinstance(p, np.ndarray) else tuple(p)
            out[row, self.table[key]] = 1.0
        return out


def test_retrieval_oracle_encoder_perfect():
    ds = td.generate_dataset(seed=9, n=24, positive_rates=[0.5] * 5)
    oracle = _OneHotOracle(ds.records, len(ds.records))
    out = retrieval_eval(oracle, ds.records, batch_size=8, seed=0)
    assert out["mean"] == 1.0


def test_retrieval_untrained_near_chance():
    ds = td.generate_dataset(seed=10, n=256, positive_rates=[0.5] * 5)
    enc = PromptEncoders(dim=16, hidden=32, seed=123)
    out = retrieval_eval(enc, ds.records, batch_size=64, seed=0)
    # binomial baseline: p = 1/64 over 2 * 256 queries per direction pair.
    # The view_a|view_b pair is excluded: both views of a record share raw
    # pixel statistics, so even an untrained encoder sits above chance there.
    p = 1.0 / 64
    sigma = math.sqrt(p * (1 - p) / out["queries_per_pair"])
    for key in ("view_a|report", "view_b|report"):
        assert abs(out[key] - p) < 3 * sigma + 1e-9, f"{key}: {out[key]}"
    assert out["view_a|view_b"] < 0.1


def test_retrieval_eval_rejects_bad_batch():
    ds = td.generate_dataset(seed=11, n=20)
    enc = PromptEncoders(dim=8, hidden=16, seed=0)
    with pytest.raises(ValueError):
        retrieval_eval(enc, ds.records, batch_size=1)
    with pytest.raises(ValueError):
        retrieval_eval(enc, ds.records, batch_size=50)


def test_loss_trend_helper():
    hist = [{"epoch": e, "pair": "x|y", "loss": 1.0 / (e + 1)} for e in range(20)]
    assert loss_trend_ok(hist)
    hist_bad = [{"epoch": e, "pair": "x|y", "loss": float(e)} for e in range(20)]
    assert not loss_trend_ok(hist_bad)
