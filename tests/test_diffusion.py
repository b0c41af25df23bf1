"""Schedule oracles, forward-corruption marginals, codec round trips,
denoiser gradients and ancestral sampling."""

import sys
import threading
from functools import partial

import mpmath
import numpy as np
import pytest

from crossgen import diffusion
from crossgen import tensor as T
from crossgen import toydata as td
from crossgen.bridging import PromptEncoders
from crossgen.conditioning import SubsetSampler
from crossgen.config import load_config
from crossgen.diffusion import (THREAD_MIN_ROWS, Denoiser, DiffusionSchedule, ImageCodec,
                                TextCodec, encode_records,
                                make_schedule, noise_prediction_loss, q_sample,
                                reverse_steps, reverse_update, sample, sample_latents,
                                train_ldm)
from crossgen.errors import NumericError, ShapeError
from crossgen.rng import stream
from denoiser_reference import reference_forward


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
    assert token_accuracy(codec, held) > 0.95


def token_accuracy(codec, reports) -> float:
    """Share of positions, over the longer of each reference and its decoded
    round trip, that hold the same token."""
    decoded = codec.decode(codec.encode(reports))
    total = match = 0
    for ref, got in zip(reports, decoded):
        total += max(len(ref), len(got))
        match += sum(a == b for a, b in zip(ref, got))
    return match / total if total else 1.0


def _fitted_codecs(toy_train):
    train = toy_train.subset("train")[:40]
    image = ImageCodec(seed=1, hidden=8)
    image.fit(np.stack([r.view_a for r in train]), epochs=1, seed=1)
    text = TextCodec(seed=2, latent_dim=8, hidden=8)
    text.fit([r.report for r in train], epochs=1, seed=2)
    return ((image, ImageCodec(seed=None, hidden=8), np.stack([r.view_b for r in train])),
            (text, TextCodec(seed=None, latent_dim=8, hidden=8), [r.report for r in train]))


def test_codec_state_round_trips_under_a_prefix(toy_train):
    for codec, fresh, data in _fitted_codecs(toy_train):
        saved = codec.state_arrays("codec.")
        assert sorted(saved) == sorted(
            [f"codec.param.{k}" for k in codec.params.names()] + ["codec.stats.mu",
                                                                  "codec.stats.sd"])
        assert saved["codec.stats.sd"].tobytes() == codec.sd.tobytes()
        fresh.load_state_arrays({**saved, "denoiser.out.b": np.zeros(3)}, "codec.")
        assert fresh.encode(data).tobytes() == codec.encode(data).tobytes()
        got, want = fresh.decode(codec.encode(data)), codec.decode(codec.encode(data))
        assert got == want if isinstance(want, list) else got.tobytes() == want.tobytes()


CODEC_STATE_DEFECTS = {
    "no_mu": lambda a: a.pop("stats.mu"),
    "no_sd": lambda a: a.pop("stats.sd"),
    "stray_stat": lambda a: a.update({"stats.var": np.ones(3)}),
    "stray_name": lambda a: a.update({"extra": np.ones(3)}),
    "short_mu": lambda a: a.update({"stats.mu": np.ones(3)}),
    "no_param": lambda a: a.pop("param.dec1.b"),
}


@pytest.mark.parametrize("case", sorted(CODEC_STATE_DEFECTS))
def test_codec_state_load_takes_exactly_its_names(toy_train, case):
    for codec, fresh, _ in _fitted_codecs(toy_train):
        arrays = codec.state_arrays()
        CODEC_STATE_DEFECTS[case](arrays)
        with pytest.raises(ValueError):
            fresh.load_state_arrays(arrays)
        assert not fresh.mu.any() and not fresh.params["dec1.b"].data.any()


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


@pytest.mark.parametrize("n_blocks", [0, -1])
def test_a_denoiser_needs_a_block(n_blocks):
    # the blocks alone read the timestep and the prompt
    with pytest.raises(ValueError, match="at least one block"):
        Denoiser(latent_dim=3, cond_dim=2, T_steps=10, hidden=4, n_blocks=n_blocks)


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
    assert sum(p.size for _, p in den.params.items()) == 194_720
    assert not [n for n in den.params.names() if ".wq." in n or ".wk." in n]


def _default_denoiser(latent_dim, seed):
    cfg = load_config()
    d = cfg["diffusion"]
    return Denoiser(latent_dim, cfg["encoder"]["dim"], d["timesteps"], hidden=d["hidden"],
                    n_blocks=d["blocks"], attn_dim=d["attn_dim"], seed=seed)


@pytest.mark.parametrize("batch", [8, 500])
def test_default_width_forward_without_a_tape_equals_the_recorded_forward(batch):
    # a frozen denoiser (a joint stage's base) records nothing, with the bytes
    # of the recording forward at per-row timesteps
    den = _default_denoiser(ImageCodec.latent_dim, seed=3)
    rng = np.random.default_rng(batch)
    z = rng.standard_normal((batch, den.latent_dim))
    omega = rng.standard_normal((batch, den.cond_dim))
    t = rng.integers(1, den.T_steps + 1, size=batch)
    live = den.forward(z, t, omega)
    assert live.requires_grad and len(T.tape()) > 0
    T.reset_tape()
    den.params.freeze()
    bare = den.forward(z, t, omega)
    assert len(T.tape()) == 0 and not bare.requires_grad
    assert bare.data.tobytes() == live.data.tobytes()


def _snapshot(*arrays, params):
    return [a.tobytes() for a in arrays], params.checksum()


@pytest.mark.parametrize("rows, edges", [
    pytest.param(1, (), id="1"),
    pytest.param(1, ("below -700",), id="1-overflow"),
    pytest.param(1, ("nan",), id="1-nan"),
    pytest.param(8, ("below -700", "nan"), id="8-overflow-nan"),
    pytest.param(129, ("below -700", "nan"), id="129-overflow-nan"),
])
def test_array_step_gives_the_bytes_of_the_recorded_forward(rows, edges, silu_edges):
    den = _default_denoiser(ImageCodec.latent_dim, seed=3)
    rng = np.random.default_rng(rows)
    z = rng.standard_normal((rows, den.latent_dim))
    omega = rng.standard_normal((rows, den.cond_dim))
    t = int(rng.integers(1, den.T_steps + 1))
    for row, edge in enumerate(edges):
        if edge == "nan":
            z[row, 3] = np.nan
        else:  # a conditioning term of about 1e5 drives fc2's pre-activations there
            omega[row] *= 1e5
    live = reference_forward(den, z, np.full(rows, t), omega)
    assert live.requires_grad and len(T.tape()) > 0
    T.reset_tape()
    cond = den.array_condition(omega)
    before = _snapshot(z, omega, *cond, params=den.params)
    silu_edges.clear()
    eps = den.array_forward(cond, den.T_steps)
    first, again = eps(z, t), eps(z, t)
    assert first.tobytes() == again.tobytes() == live.data.tobytes()
    assert {e for e in ("below -700", "nan") if silu_edges[e]} == set(edges)
    assert _snapshot(z, omega, *cond, params=den.params) == before
    assert len(T.tape()) == 0


def test_the_array_step_checks_the_draws_timesteps_once():
    den = Denoiser(latent_dim=3, cond_dim=2, T_steps=10, hidden=4, n_blocks=1,
                   attn_dim=2, seed=1)
    cond = den.array_condition(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="timestep out of range 1..10"):
        den.array_forward(cond, 11)
    with pytest.raises(ValueError, match="timestep out of range 1..10"):
        sample_latents(den, make_schedule(11, 1e-3, 0.2), np.zeros((2, 2)), stream(0, "s"))
    assert den.array_forward(cond, 10)(np.zeros((2, 3)), 10).shape == (2, 3)


@pytest.mark.parametrize("t", [0, 11, -3, [1, 0], [10, 11], [[4, 12]]])
def test_denoiser_rejects_out_of_range_timesteps(t):
    den = Denoiser(latent_dim=3, cond_dim=2, T_steps=10, hidden=4, n_blocks=1,
                   attn_dim=2, seed=1)
    z, omega = np.zeros((2, 3)), np.zeros((2, 2))
    with pytest.raises(ValueError, match="timestep out of range 1..10"):
        den.forward(z, t, omega)
    assert den.forward(z, [1, 10], omega).shape == (2, 3)  # both ends are in range


@pytest.mark.parametrize("z_shape, t, omega_shape", [
    ((2, 3), [1, 2], (1, 2)),     # one prompt row for two latents
    ((2, 3), [4], (2, 2)),        # one timestep for two rows
    ((3,), [1], (1, 2)),          # a latent that is not a row
])
def test_denoiser_rejects_rows_that_do_not_pair_up(z_shape, t, omega_shape):
    den = Denoiser(latent_dim=3, cond_dim=2, T_steps=10, hidden=4, n_blocks=1,
                   attn_dim=2, seed=1)
    with pytest.raises(ShapeError, match="denoiser"):
        den.forward(np.zeros(z_shape), t, np.zeros(omega_shape))


# ---------------------------------------------------------------------------
# the fused training node against the per-primitive reference

def _grad_bytes(params, loss_fn, inputs=()):
    """The loss's bytes and those of every gradient of ``params`` and of the
    tensors ``inputs`` after one backward of ``loss_fn()``."""
    params.zero_grad()
    for x in inputs:
        x.grad = None
    loss = loss_fn()
    T.backward(loss)
    T.reset_tape()
    return (loss.data.tobytes(),
            {name: p.grad if p.grad is None else p.grad.tobytes() for name, p in params.items()},
            [x.grad.tobytes() for x in inputs])


#: 56 rows is a stage's tail batch (1,400 train rows mod 64)
FUSED_ROWS = [1, 8, 56, 64]


@pytest.mark.parametrize("rows", FUSED_ROWS)
def test_the_fused_node_gives_the_per_primitive_loss_and_gradient_bytes(rows, silu_edges):
    den = _default_denoiser(ImageCodec.latent_dim, seed=3)
    rng = np.random.default_rng(rows)
    z, eps = rng.standard_normal((2, rows, den.latent_dim))
    omega = rng.standard_normal((rows, den.cond_dim))
    t = rng.integers(1, den.T_steps + 1, size=rows)
    omega[0] *= 1e5  # row 0 drives fc2's pre-activations below -700
    want = _grad_bytes(den.params, lambda: noise_prediction_loss(
        reference_forward(den, z, t, omega), eps))
    silu_edges.clear()
    got = _grad_bytes(den.params, lambda: noise_prediction_loss(den.forward(z, t, omega), eps))
    assert silu_edges["below -700"]  # the fused forward took silu's overflow branch
    assert got == want


@pytest.mark.parametrize("frozen", [False, True])
def test_the_fused_node_gives_the_latents_and_prompts_gradient_bytes(frozen):
    den = _default_denoiser(ImageCodec.latent_dim, seed=4)
    rng = np.random.default_rng(9)
    z = T.Tensor(rng.standard_normal((8, den.latent_dim)), requires_grad=True)
    omega = T.Tensor(rng.standard_normal((8, den.cond_dim)), requires_grad=True)
    eps = rng.standard_normal((8, den.latent_dim))
    t = rng.integers(1, den.T_steps + 1, size=8)
    if frozen:
        den.params.freeze()  # the inputs' gradients alone
    want, got = (_grad_bytes(den.params, lambda f=f: noise_prediction_loss(f(z, t, omega), eps),
                             (z, omega))
                 for f in (partial(reference_forward, den), den.forward))
    assert got == want


def test_one_ldm_training_step_records_the_denoiser_node_and_the_loss_nodes(
        toy_train, monkeypatch):
    # the tracer rebinds Denoiser.forward by name: it stays a method of the class
    assert "forward" in Denoiser.__dict__
    from crossgen import nn
    tapes, backward = [], T.backward

    def spy(loss):
        tapes.append([node.op for node in T.tape().nodes])
        backward(loss)

    monkeypatch.setattr(nn, "backward", spy)
    enc = PromptEncoders(dim=8, hidden=16, seed=14)
    codec = TextCodec(seed=14, latent_dim=8, hidden=16)
    train_ldm(toy_train, "report", enc, codec, make_schedule(10, 1e-3, 0.2), epochs=1,
              batch_size=64, hidden=16, n_blocks=2, attn_dim=8, seed=14)
    assert len(tapes) == -(-len(toy_train.subset("train")) // 64)
    assert all(ops == ["denoiser", "sub", "mul", "sum", "mean"] for ops in tapes)


# ---------------------------------------------------------------------------
# sampling

def test_single_step_inversion_with_oracle_denoiser():
    # degenerate T=1 schedule built directly (the factory requires T >= 2)
    s = DiffusionSchedule(betas=np.array([0.1]), alphas=np.array([0.9]),
                          alpha_bars=np.array([0.9]))
    rng = np.random.default_rng(7)
    z0 = rng.standard_normal((2, 5))
    eps = rng.standard_normal((2, 5))
    z1 = q_sample(z0, np.array([1, 1]), eps, s)
    # the last reverse step, given the true noise, adds none and inverts q_sample
    out = reverse_update(z1, eps, reverse_steps(s)[0], None)
    np.testing.assert_allclose(out, z0, atol=1e-12)


def test_sampling_deterministic_given_seed():
    den = Denoiser(latent_dim=6, cond_dim=4, T_steps=20, hidden=8, n_blocks=1,
                   attn_dim=4, seed=8)
    s = make_schedule(20, 1e-3, 0.2)
    omega = np.random.default_rng(9).standard_normal((3, 4))
    a = sample_latents(den, s, omega, stream(1, "sample"))
    b = sample_latents(den, s, omega, stream(1, "sample"))
    np.testing.assert_array_equal(a, b)


def _reference_reverse(eps_fn, s, z, rng, sigma_mode):
    """The reverse process written out step by step, nothing hoisted."""
    for t in range(s.T, 0, -1):
        eps_hat = eps_fn(z, np.full(len(z), t, dtype=np.int64)).data
        T.reset_tape()  # the recording forward is the reference; drop its nodes
        ab, alpha, beta = s.alpha_bars[t - 1], s.alphas[t - 1], s.betas[t - 1]
        mean = (z - beta / np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(alpha)
        if t == 1:
            return mean
        if sigma_mode == "beta":
            sigma = np.sqrt(beta)
        else:
            sigma = np.sqrt(beta * (1.0 - s.alpha_bars[t - 2]) / (1.0 - ab))
        z = mean + sigma * rng.standard_normal(z.shape)


def _default_width_denoiser(T_steps):
    """The default config's denoiser widths over a short schedule."""
    return Denoiser(latent_dim=64, cond_dim=32, T_steps=T_steps, hidden=192, n_blocks=2,
                    attn_dim=32, seed=21)


def _sample_on_threads(*args, **kwargs):
    """sample_latents(*args, **kwargs) with threads switching as often as the
    interpreter can."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        return sample_latents(*args, **kwargs)
    finally:
        sys.setswitchinterval(interval)


SPLIT = 2 * THREAD_MIN_ROWS  # the fewest rows a draw splits at


@pytest.mark.parametrize("sigma_mode, batch", [
    pytest.param("beta", 5, id="beta"),
    pytest.param("alpha_bar_ratio", 5, id="alpha_bar_ratio"),
    pytest.param("beta", SPLIT, id="beta-split"),
    pytest.param("alpha_bar_ratio", SPLIT, id="alpha_bar_ratio-split"),
])
def test_sample_latents_matches_per_step_forward_reference(sigma_mode, batch, two_cpus,
                                                           step_threads):
    den = _default_width_denoiser(12)
    s = make_schedule(12, 1e-3, 0.2)
    omega = np.random.default_rng(22).standard_normal((batch, den.cond_dim))
    rng = stream(3, "ref")
    # the whole batch in every Tensor forward: a split draw must give each row its bits
    ref = _reference_reverse(lambda z, t: reference_forward(den, z, t, omega), s,
                             rng.standard_normal((batch, den.latent_dim)), rng, sigma_mode)
    out = _sample_on_threads(den, s, omega, stream(3, "ref"), sigma_mode=sigma_mode)
    np.testing.assert_array_equal(out, ref)
    # one prediction per reverse step, or one per half and step on two threads
    parts = 2 if batch >= SPLIT else 1
    assert len(step_threads) == parts * s.T
    assert threading.get_ident() in step_threads and len(set(step_threads)) == parts


def test_a_split_draw_gives_the_bytes_of_a_one_cpu_draw(monkeypatch, step_threads):
    den = _default_width_denoiser(8)
    s = make_schedule(8, 1e-3, 0.2)
    omega = np.random.default_rng(5).standard_normal((SPLIT + 1, den.cond_dim))  # odd
    draws = {}
    for cpus in (1, 2):
        monkeypatch.setattr(diffusion, "_cpus", lambda: cpus)
        step_threads.clear()
        draws[cpus] = _sample_on_threads(den, s, omega, stream(6, "n"))
        assert len(set(step_threads)) == cpus
    assert draws[1].tobytes() == draws[2].tobytes()


def test_consecutive_draws_of_other_row_counts_give_the_bytes_of_fresh_draws(two_cpus):
    s = make_schedule(6, 1e-3, 0.2)
    den = _default_width_denoiser(6)
    omega = np.random.default_rng(4).standard_normal((SPLIT + 1, den.cond_dim))
    sizes = (SPLIT + 1, 5, 1, SPLIT, 5)  # split and inline draws, in turn
    draws = [sample_latents(den, s, omega[:n], stream(8, "n")) for n in sizes]
    for n, got in zip(sizes, draws):
        fresh = sample_latents(_default_width_denoiser(6), s, omega[:n], stream(8, "n"))
        assert got.tobytes() == fresh.tobytes()


def test_an_error_in_the_worker_half_propagates_with_grad_mode_restored(monkeypatch,
                                                                       two_cpus):
    den = _default_width_denoiser(8)
    s = make_schedule(8, 1e-3, 0.2)
    omega = np.zeros((SPLIT, den.cond_dim))
    caller, raised_on = threading.get_ident(), []
    array_forward = Denoiser.array_forward

    def fail_on_worker(self, *args, **kwargs):
        eps = array_forward(self, *args, **kwargs)

        def call(*a, **k):
            if threading.get_ident() != caller:
                raised_on.append(threading.get_ident())
                raise FloatingPointError("worker half failed")
            return eps(*a, **k)

        return call

    monkeypatch.setattr(Denoiser, "array_forward", fail_on_worker)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="worker half failed"):
        sample_latents(den, s, omega, stream(0, "s"))
    assert raised_on
    assert all(p.requires_grad for _, p in den.params.items())
    assert len(T.tape()) == 0
    assert threading.active_count() == before


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
        sample_latents(den, s, np.zeros((1, 4)), stream(0, "s"), sigma_mode="weird")


# ---------------------------------------------------------------------------
# training

def test_stage_encodes_equal_a_per_batch_encode_of_a_permuted_batch():
    # default widths and batch size, so BLAS sees the shapes of training
    cfg = load_config()
    d = cfg["diffusion"]
    train = td.generate_dataset(seed=21, n=400, positive_rates=[0.5] * 5).subset("train")
    enc = PromptEncoders(dim=cfg["encoder"]["dim"], hidden=cfg["encoder"]["hidden"],
                         text_embed=cfg["encoder"]["text_embed"], seed=21)
    image_codec = ImageCodec(seed=21, hidden=d["image_codec"]["hidden"])
    text_codec = TextCodec(seed=21, latent_dim=d["text_codec"]["latent_dim"],
                           hidden=d["text_codec"]["hidden"])
    rng = np.random.default_rng(21)
    for codec in (image_codec, text_codec):
        codec.mu = rng.normal(size=codec.latent_dim)
        codec.sd = rng.uniform(0.5, 2.0, size=codec.latent_dim)
    encodes = [(partial(enc.encode_batch, m), m) for m in td.MODALITIES]
    encodes += [(image_codec.encode, "view_a"), (image_codec.encode, "view_b"),
                (text_codec.encode, "report")]
    bs = d["batch_size"]
    perm = rng.permutation(len(train))
    for encode, m in encodes:
        stage = encode_records(encode, train, m, bs)
        assert stage.shape[0] == len(train)
        for lo in range(0, len(train), bs):
            idx = perm[lo:lo + bs]
            batch = encode(td.payload_batch([train[i] for i in idx], m))
            assert stage[idx].tobytes() == batch.tobytes(), (m, lo)


def _count_calls(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_train_ldm_matches_per_batch_encode_reference(toy_train):
    """The stage-level encodes and the fused denoiser node train the same
    denoiser, bit for bit, as encoding each batch's records inside the loop,
    combining per record and recording the forward one primitive at a time."""
    from crossgen.conditioning import combine
    from crossgen.nn import AdamWState, adamw_step
    enc = PromptEncoders(dim=8, hidden=16, seed=12)
    codec = ImageCodec(seed=12)
    codec.fit(np.stack([r.view_b for r in toy_train.subset("train")[:60]]), epochs=2,
              seed=12)
    s = make_schedule(10, 1e-3, 0.2)
    kw = dict(batch_size=32, hidden=16, n_blocks=1, attn_dim=8, seed=5)
    den, hist = train_ldm(toy_train, "view_b", enc, codec, s, epochs=2, **kw)

    train = toy_train.subset("train")
    ref = Denoiser(codec.latent_dim, enc.dim, s.T, hidden=16, n_blocks=1, attn_dim=8,
                   seed=5)
    sampler = SubsetSampler(["view_a", "report"], stream(5, "subset:view_b"))
    noise_rng = stream(5, "train-noise:view_b")
    order = stream(5, "train-batches:view_b")
    state = AdamWState()
    ref_hist = []
    for _ in range(2):
        perm = order.permutation(len(train))
        losses = []
        for lo in range(0, len(train), 32):
            batch = [train[i] for i in perm[lo:lo + 32]]
            z0 = codec.encode(td.payload_batch(batch, "view_b"))
            t = noise_rng.integers(1, s.T + 1, size=len(batch))
            eps = noise_rng.standard_normal(z0.shape)
            embs = {m: enc.encode_batch(m, td.payload_batch(batch, m))
                    for m in sampler.available}
            omega = []
            for i in range(len(batch)):
                subset = sampler.sample_subset()
                omega.append(combine([embs[m][i] for m in subset])[0])
            loss = noise_prediction_loss(
                reference_forward(ref, q_sample(z0, t, eps, s), t, np.stack(omega)), eps)
            losses.append(loss.item())
            ref.params.zero_grad()
            T.backward(loss)
            adamw_step(ref.params, state, lr=2e-3, weight_decay=1e-4)
            T.reset_tape()
        ref_hist.append(float(np.mean(losses)))
    assert hist == ref_hist
    assert den.params.checksum() == ref.params.checksum()


def test_train_ldm_encodes_once_per_stage(toy_train, monkeypatch):
    enc = PromptEncoders(dim=8, hidden=16, seed=13)
    codec = TextCodec(seed=13, latent_dim=8, hidden=16)
    s = make_schedule(10, 1e-3, 0.2)
    runs = []
    for epochs in (1, 3):
        counts = {}
        with monkeypatch.context() as mp:
            _count_calls(mp, PromptEncoders, "encode_batch", counts)
            _count_calls(mp, TextCodec, "encode", counts)
            train_ldm(toy_train, "report", enc, codec, s, epochs=epochs,
                      batch_size=64, hidden=16, n_blocks=1, attn_dim=8, seed=13)
        runs.append(counts)
    chunks = -(-len(toy_train.subset("train")) // 64)
    assert runs[0] == runs[1] == {"encode_batch": 2 * chunks, "encode": chunks}


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
