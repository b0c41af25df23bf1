"""Schedule oracles, forward-corruption marginals, codec round trips,
denoiser gradients and ancestral sampling."""

import mpmath
import numpy as np
import pytest

from crossgen import tensor as T
from crossgen import toydata as td
from crossgen.bridging import PromptEncoders
from crossgen.conditioning import SubsetSampler
from crossgen.config import load_config
from crossgen.diffusion import (Denoiser, DiffusionSchedule, ImageCodec,
                                TextCodec, denoise_loss, make_schedule,
                                noise_prediction_loss, q_sample, sample,
                                sample_latents, train_ldm)
from crossgen.errors import NumericError
from crossgen.rng import stream


@pytest.fixture(autouse=True)
def _fresh_tape():
    T.reset_tape()
    yield
    T.reset_tape()


# ---------------------------------------------------------------------------
# schedule

def test_schedule_constant_beta_direct_product():
    s = make_schedule(2, 0.1, 0.1)
    np.testing.assert_allclose(s.alpha_bars, [0.9, 0.81], atol=1e-15)


def test_schedule_t1000_matches_high_precision_product():
    s = make_schedule(1000, 1e-4, 0.02)
    with mpmath.workdps(50):
        betas = [mpmath.mpf("1e-4") + (mpmath.mpf("0.02") - mpmath.mpf("1e-4"))
                 * i / 999 for i in range(1000)]
        prod = mpmath.mpf(1)
        for b in betas:
            prod *= (1 - b)
        oracle = float(prod)
    assert abs(s.alpha_bars[-1] - oracle) < 1e-12
    assert oracle == pytest.approx(4.0e-5, rel=0.02)


def test_schedule_monotonic_property_random_configs():
    rng = np.random.default_rng(0)
    for _ in range(50):
        t_steps = int(rng.integers(2, 300))
        lo = float(rng.uniform(1e-5, 0.05))
        hi = float(rng.uniform(lo, 0.5))
        s = make_schedule(t_steps, lo, hi)
        assert np.all(np.diff(s.alpha_bars) < 0)
        assert np.all(np.diff(s.betas) >= 0)
        recur = np.concatenate([[s.alphas[0]], s.alpha_bars[:-1] * s.alphas[1:]])
        np.testing.assert_allclose(recur, s.alpha_bars, atol=1e-12)


def test_schedule_rejects_bad_bounds():
    with pytest.raises(ValueError):
        make_schedule(1, 0.1, 0.2)
    with pytest.raises(ValueError):
        make_schedule(10, 0.0, 0.2)
    with pytest.raises(ValueError):
        make_schedule(10, 0.3, 0.2)
    with pytest.raises(ValueError):
        make_schedule(10, 0.1, 1.0)


# ---------------------------------------------------------------------------
# forward corruption

def test_q_sample_zero_noise_exact():
    s = make_schedule(10, 0.01, 0.1)
    z0 = np.array([[1.0, -2.0, 0.5]])
    out = q_sample(z0, np.array([4]), np.zeros_like(z0), s)
    np.testing.assert_allclose(out, np.sqrt(s.alpha_bars[3]) * z0, atol=1e-15)


def test_q_sample_near_identity_at_tiny_beta():
    s = make_schedule(10, 1e-6, 1e-5)
    z0 = np.ones((1, 4))
    eps = np.full((1, 4), 2.0)
    out = q_sample(z0, np.array([1]), eps, s)
    bound = np.sqrt(1.0 - s.alpha_bars[0]) * np.abs(eps)
    assert np.all(np.abs(out - z0) <= bound + 1e-9)


def test_q_sample_variance_matches_monte_carlo():
    s = make_schedule(100, 1e-3, 0.2)
    rng = stream(0, "qsample-test")
    n = 10_000
    z0 = rng.standard_normal((n, 1))
    for t in (1, 50, 100):
        eps = rng.standard_normal((n, 1))
        zt = q_sample(z0, np.full(n, t), eps, s)
        var = zt.var()
        sigma_var = np.sqrt(2.0 / (n - 1))  # sd of the variance of n normals
        assert abs(var - 1.0) < 3 * sigma_var, f"t={t}: var {var}"


def test_q_sample_rejects_bad_timestep():
    s = make_schedule(10, 0.01, 0.1)
    with pytest.raises(ValueError):
        q_sample(np.zeros((1, 2)), np.array([0]), np.zeros((1, 2)), s)
    with pytest.raises(ValueError):
        q_sample(np.zeros((1, 2)), np.array([11]), np.zeros((1, 2)), s)


# ---------------------------------------------------------------------------
# codecs

@pytest.fixture(scope="module")
def toy_train():
    ds = td.generate_dataset(seed=31, n=600, positive_rates=[0.5] * 5)
    return ds


def test_image_codec_round_trip(toy_train):
    codec = ImageCodec(seed=1, hidden=48)
    train = toy_train.subset("train")
    images = np.stack([r.view_a for r in train] + [r.view_b for r in train])
    held = np.stack([r.view_a for r in toy_train.subset("test")])
    codec.fit(images, epochs=80, seed=1)
    assert codec.encode(held).shape == (len(held), 64)
    assert codec.reconstruction_mse(held) < 5e-3


def test_text_codec_round_trip(toy_train):
    codec = TextCodec(seed=2, latent_dim=32, hidden=128)
    reports = [r.report for r in toy_train.subset("train")]
    held = [r.report for r in toy_train.subset("test")]
    codec.fit(reports, epochs=120, seed=2)
    assert codec.token_accuracy(held) > 0.95


def test_image_codec_fit_stops_on_non_finite_loss(toy_train):
    codec = ImageCodec(seed=1, hidden=8)
    before = codec.params.checksum()
    images = np.stack([r.view_a for r in toy_train.subset("train")[:40]])
    images[3, 2, 2] = np.nan
    with pytest.raises(NumericError, match="image codec"):
        codec.fit(images, epochs=1, batch_size=64, seed=1)
    assert codec.params.checksum() == before


def test_text_codec_fit_stops_on_non_finite_loss(toy_train):
    codec = TextCodec(seed=2, latent_dim=8, hidden=8)
    codec.table.data[:, 0] = np.nan
    with pytest.raises(NumericError, match="text codec"):
        codec.fit([r.report for r in toy_train.subset("train")[:40]], epochs=1, seed=2)


# ---------------------------------------------------------------------------
# loss

def test_loss_zero_for_oracle_prediction():
    rng = np.random.default_rng(1)
    eps = rng.standard_normal((8, 16))
    loss = noise_prediction_loss(T.Tensor(eps), eps)
    assert loss.item() == 0.0


def test_loss_for_zero_prediction_near_latent_dim():
    rng = stream(3, "zero-pred")
    dim, n = 32, 4000
    eps = rng.standard_normal((n, dim))
    loss = noise_prediction_loss(T.Tensor(np.zeros((n, dim))), eps)
    sigma = np.sqrt(2.0 * dim / n)  # sd of mean of chi-square(dim) draws
    assert abs(loss.item() - dim) < 3 * sigma


def test_loss_invariant_to_batch_order():
    rng = np.random.default_rng(2)
    eps = rng.standard_normal((10, 8))
    pred = rng.standard_normal((10, 8))
    l1 = noise_prediction_loss(T.Tensor(pred), eps).item()
    perm = rng.permutation(10)
    l2 = noise_prediction_loss(T.Tensor(pred[perm]), eps[perm]).item()
    assert l1 == pytest.approx(l2, abs=1e-12)


def test_denoiser_grad_check():
    den = Denoiser(latent_dim=6, cond_dim=4, T_steps=10, hidden=8, n_blocks=1,
                   attn_dim=4, seed=5)
    rng = np.random.default_rng(6)
    z_t = rng.standard_normal((3, 6))
    t = np.array([2, 9, 5])
    omega = rng.standard_normal((3, 4))
    eps = rng.standard_normal((3, 6))

    checked = 0
    for name, p in den.params.items():
        err = T.grad_check(
            lambda _p: noise_prediction_loss(den.forward(z_t, t, omega), eps), p)
        assert err < 1e-5, f"{name}: {err}"
        checked += 1
    assert checked == len(den.params.names())


def test_denoiser_init_replays_the_attention_draw_order():
    # each block once also held query/key projections; their draws are
    # still consumed, so every surviving tensor keeps its initial values
    latent, cond, steps, hidden, attn = 6, 5, 10, 8, 4
    rng = stream(13, "denoiser-init")
    expected = {}

    def linear(name, n_in, n_out):
        expected[f"{name}.w"] = rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_in, n_out))
        expected[f"{name}.b"] = np.zeros(n_out)

    linear("in", latent, hidden)
    expected["time.embed"] = rng.normal(0.0, 0.02, (steps, hidden))
    for i in range(2):
        linear(f"block{i}.fc1", hidden, hidden)
        linear(f"block{i}.fc2", hidden, hidden)
        linear(f"block{i}.attn.wq", hidden, attn)
        linear(f"block{i}.attn.wk", cond, attn)
        linear(f"block{i}.attn.wv", cond, attn)
        linear(f"block{i}.attn.wo", attn, hidden)
    linear("out", hidden, latent)
    survivors = {k: v for k, v in expected.items() if ".wq." not in k and ".wk." not in k}
    den = Denoiser(latent, cond, steps, hidden=hidden, n_blocks=2, attn_dim=attn, seed=13)
    assert den.params.names() == sorted(survivors)
    for name, value in survivors.items():
        np.testing.assert_array_equal(den.params[name].data, value, err_msg=name)


def test_default_report_denoiser_size():
    cfg = load_config()
    d = cfg["diffusion"]
    den = Denoiser(d["text_codec"]["latent_dim"], cfg["encoder"]["dim"],
                   d["timesteps"], hidden=d["hidden"], n_blocks=d["blocks"],
                   attn_dim=d["attn_dim"])
    assert den.params.num_values() == 194_720
    assert not [n for n in den.params.names() if ".wq." in n or ".wk." in n]


def test_denoise_loss_rejects_empty_batch():
    enc = PromptEncoders(dim=8, hidden=16, seed=0)
    with pytest.raises(ValueError, match="empty"):
        denoise_loss([], "view_a", enc, None, None, None,
                     make_schedule(10, 0.01, 0.1), stream(0, "x"))


# ---------------------------------------------------------------------------
# sampling

class _FixedInitRng:
    """standard_normal returns a preset array once, then zeros."""

    def __init__(self, first):
        self.first = np.asarray(first, dtype=np.float64)
        self.used = False

    def standard_normal(self, shape):
        if not self.used:
            self.used = True
            assert self.first.shape == tuple(shape)
            return self.first.copy()
        return np.zeros(shape)


def test_single_step_inversion_with_oracle_denoiser():
    # degenerate T=1 schedule built directly (the factory requires T >= 2)
    s = DiffusionSchedule(betas=np.array([0.1]), alphas=np.array([0.9]),
                          alpha_bars=np.array([0.9]))
    rng = np.random.default_rng(7)
    z0 = rng.standard_normal((2, 5))
    eps = rng.standard_normal((2, 5))
    z1 = q_sample(z0, np.array([1, 1]), eps, s)

    def oracle(z, t, omega):
        return T.Tensor(eps)

    out = sample_latents(oracle, s, np.zeros((2, 3)), _FixedInitRng(z1), latent_dim=5)
    np.testing.assert_allclose(out, z0, atol=1e-12)


def test_sampling_deterministic_given_seed():
    den = Denoiser(latent_dim=6, cond_dim=4, T_steps=20, hidden=8, n_blocks=1,
                   attn_dim=4, seed=8)
    s = make_schedule(20, 1e-3, 0.2)
    omega = np.random.default_rng(9).standard_normal((3, 4))
    a = sample_latents(den, s, omega, stream(1, "sample"), 6)
    b = sample_latents(den, s, omega, stream(1, "sample"), 6)
    np.testing.assert_array_equal(a, b)


def _reference_reverse(eps_fn, s, z, rng, sigma_mode):
    """The reverse process written out step by step, nothing hoisted."""
    for t in range(s.T, 0, -1):
        with T.no_grad():
            eps_hat = eps_fn(z, np.full(len(z), t, dtype=np.int64)).data
        ab, alpha, beta = s.alpha_bars[t - 1], s.alphas[t - 1], s.betas[t - 1]
        mean = (z - beta / np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(alpha)
        if t == 1:
            return mean
        if sigma_mode == "beta":
            sigma = np.sqrt(beta)
        else:
            sigma = np.sqrt(beta * (1.0 - s.alpha_bars[t - 2]) / (1.0 - ab))
        z = mean + sigma * rng.standard_normal(z.shape)


@pytest.mark.parametrize("sigma_mode", ["beta", "alpha_bar_ratio"])
def test_sample_latents_matches_per_step_forward_reference(sigma_mode, monkeypatch):
    den = Denoiser(latent_dim=6, cond_dim=4, T_steps=12, hidden=16, n_blocks=2,
                   attn_dim=5, seed=21)
    s = make_schedule(12, 1e-3, 0.2)
    omega = np.random.default_rng(22).standard_normal((5, 4))
    rng = stream(3, "ref")
    ref = _reference_reverse(lambda z, t: den.forward(z, t, omega), s,
                             rng.standard_normal((5, 6)), rng, sigma_mode)
    calls = []
    forward = Denoiser.forward
    monkeypatch.setattr(Denoiser, "forward",
                        lambda self, *a, **k: calls.append(1) or forward(self, *a, **k))
    out = sample_latents(den, s, omega, stream(3, "ref"), 6, sigma_mode=sigma_mode)
    np.testing.assert_array_equal(out, ref)
    assert len(calls) == s.T  # one forward per reverse step


def test_sample_decodes_via_codec(toy_train):
    codec = ImageCodec(seed=3)
    images = np.stack([r.view_a for r in toy_train.subset("train")[:100]])
    codec.fit(images, epochs=10, seed=3)
    den = Denoiser(latent_dim=codec.latent_dim, cond_dim=4, T_steps=10,
                   hidden=8, n_blocks=1, attn_dim=4, seed=9)
    s = make_schedule(10, 1e-3, 0.2)
    out = sample(den, s, np.zeros((2, 4)), codec, stream(2, "dec"))
    assert out.shape == (2, 16, 16)
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_sigma_mode_validated():
    den = Denoiser(latent_dim=4, cond_dim=4, T_steps=5, hidden=8, n_blocks=1,
                   attn_dim=4, seed=10)
    s = make_schedule(5, 1e-3, 0.2)
    with pytest.raises(ValueError, match="sigma"):
        sample_latents(den, s, np.zeros((1, 4)), stream(0, "s"), 4, sigma_mode="weird")


# ---------------------------------------------------------------------------
# training

def test_train_ldm_zero_epochs_and_determinism(toy_train):
    enc = PromptEncoders(dim=8, hidden=16, seed=11)
    codec = ImageCodec(seed=11)
    images = np.stack([r.view_a for r in toy_train.subset("train")[:100]])
    codec.fit(images, epochs=5, seed=11)
    s = make_schedule(10, 1e-3, 0.2)

    den0, hist0 = train_ldm(toy_train, "view_a", enc, codec, s, epochs=0, seed=4)
    assert hist0 == []

    _, h1 = train_ldm(toy_train, "view_a", enc, codec, s, epochs=2,
                      batch_size=64, hidden=16, n_blocks=1, attn_dim=8, seed=4)
    _, h2 = train_ldm(toy_train, "view_a", enc, codec, s, epochs=2,
                      batch_size=64, hidden=16, n_blocks=1, attn_dim=8, seed=4)
    assert h1 == h2
    assert h1[-1] < h1[0]
