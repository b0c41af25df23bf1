"""Coupling freeze contract, degenerate-coupling equivalence and gradients."""

import numpy as np
import pytest

from crossgen import tensor as T
from crossgen import toydata as td
from crossgen.bridging import PromptEncoders, train_alignment
from crossgen.diffusion import (Denoiser, ImageCodec, TextCodec, make_schedule,
                                noise_stream, sample, train_ldm)
from crossgen.jointgen import (ProjectionEncoder, build_joint,
                               coupled_pair_loss, joint_sample, train_joint,
                               zero_couplings)
from crossgen.nn import ParameterSet
from crossgen.rng import stream


@pytest.fixture(autouse=True)
def _fresh_tape():
    T.reset_tape()
    yield
    T.reset_tape()


@pytest.fixture(scope="module")
def small_world():
    """Tiny trained-ish world shared by the joint tests."""
    ds = td.generate_dataset(seed=41, n=120, positive_rates=[0.5] * 5)
    enc = PromptEncoders(dim=8, hidden=16, seed=41)
    train_alignment(ds, enc, epochs=2, batch_size=32, seed=41)
    train = ds.subset("train")
    img_codec = ImageCodec(seed=41)
    img_codec.fit(np.stack([r.view_a for r in train] + [r.view_b for r in train]),
                  epochs=8, seed=41)
    txt_codec = TextCodec(seed=41)
    txt_codec.fit([r.report for r in train], epochs=8, seed=41)
    codecs = {"view_a": img_codec, "view_b": img_codec, "report": txt_codec}
    sched = make_schedule(10, 1e-3, 0.2)
    bases = {}
    for m in ("view_a", "report"):
        bases[m], _ = train_ldm(ds, m, enc, codecs[m], sched, epochs=2,
                                batch_size=32, hidden=16, n_blocks=2,
                                attn_dim=8, seed=41)
    return ds, enc, codecs, sched, bases


def test_projection_unit_norm_and_oracle_forward():
    params = ParameterSet()
    rng = stream(0, "proj-test")
    proj = ProjectionEncoder(params, "p", latent_dim=6, coupling_dim=4,
                             hidden=5, rng=rng)
    z = np.random.default_rng(1).standard_normal((7, 6))
    out = proj.project(z)
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), np.ones(7), atol=1e-9)
    np.testing.assert_array_equal(out, proj.project(z))

    # independent scalar-loop re-evaluation of one row
    x = z[0]
    w1, b1 = params["p.l1.w"].data, params["p.l1.b"].data
    w2, b2 = params["p.l2.w"].data, params["p.l2.b"].data
    pre = np.array([sum(x[i] * w1[i, j] for i in range(6)) + b1[j] for j in range(5)])
    act = pre / (1.0 + np.exp(-pre))
    o = np.array([sum(act[i] * w2[i, j] for i in range(5)) + b2[j] for j in range(4)])
    expected = o / np.sqrt((o * o).sum() + 1e-12)
    np.testing.assert_allclose(out[0], expected, atol=1e-12)


def test_projection_rejects_wrong_width():
    params = ParameterSet()
    proj = ProjectionEncoder(params, "p", 6, 4, 5, stream(0, "x"))
    with pytest.raises(ValueError):
        proj.project(np.zeros((2, 5)))


def test_build_joint_replays_the_attention_draw_order():
    # each adapter once also held query/key projections; their draws are
    # still consumed, so every surviving tensor keeps its initial values
    bases = {"view_a": Denoiser(6, 5, 10, hidden=8, n_blocks=2, attn_dim=4, seed=1),
             "report": Denoiser(4, 5, 10, hidden=8, n_blocks=2, attn_dim=4, seed=2)}
    comps = build_joint(("view_a", "report"), bases, coupling_dim=3,
                        proj_hidden=7, seed=21)
    rng = stream(21, "joint-init:view_a+report")
    expected = {}

    def linear(name, n_in, n_out, zero_init=False):
        expected[f"{name}.w"] = (np.zeros((n_in, n_out)) if zero_init else
                                 rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_in, n_out)))
        expected[f"{name}.b"] = np.zeros(n_out)

    for m in ("view_a", "report"):
        linear(f"proj.{m}.l1", bases[m].latent_dim, 7)
        linear(f"proj.{m}.l2", 7, 3)
    for m in ("view_a", "report"):
        for i in range(2):
            linear(f"couple.{m}.block{i}.wq", 8, 4)
            linear(f"couple.{m}.block{i}.wk", 3, 4)
            linear(f"couple.{m}.block{i}.wv", 3, 4)
            linear(f"couple.{m}.block{i}.wo", 4, 8, zero_init=True)
    survivors = {k: v for k, v in expected.items() if ".wq." not in k and ".wk." not in k}
    assert comps.trainable.names() == sorted(survivors)
    for name, value in survivors.items():
        np.testing.assert_array_equal(comps.trainable[name].data, value, err_msg=name)


def test_zero_couplings_reduce_to_base_losses(small_world):
    ds, enc, codecs, sched, bases = small_world
    pair = ("view_a", "report")
    comps = build_joint(pair, bases, coupling_dim=4, proj_hidden=8, seed=1)
    rng = np.random.default_rng(2)
    batch = ds.subset("train")[:8]
    from crossgen.diffusion import noise_prediction_loss, q_sample
    from crossgen.toydata import payload_batch
    t = np.full(8, 5)
    z_t, eps = {}, {}
    for m in pair:
        z0 = codecs[m].encode(payload_batch(batch, m))
        eps[m] = rng.standard_normal(z0.shape)
        z_t[m] = q_sample(z0, t, eps[m], sched)
    omega = rng.standard_normal((8, enc.dim))

    # adapters start zero-initialized on the output side
    joint = coupled_pair_loss(comps, z_t, {m: t for m in pair}, eps, omega,
                              lam=0.0, tau=1.0)
    base_sum = (noise_prediction_loss(bases[pair[0]].forward(z_t[pair[0]], t, omega), eps[pair[0]]).item()
                + noise_prediction_loss(bases[pair[1]].forward(z_t[pair[1]], t, omega), eps[pair[1]]).item())
    assert joint.item() == pytest.approx(base_sum, abs=1e-12)


def test_coupled_loss_rejects_mismatched_t(small_world):
    ds, enc, codecs, sched, bases = small_world
    pair = ("view_a", "report")
    comps = build_joint(pair, bases, coupling_dim=4, proj_hidden=8, seed=1)
    z_t = {"view_a": np.zeros((2, 64)), "report": np.zeros((2, 32))}
    t = {"view_a": np.array([3, 3]), "report": np.array([3, 4])}
    eps = {m: np.zeros_like(z_t[m]) for m in pair}
    with pytest.raises(ValueError, match="timestep"):
        coupled_pair_loss(comps, z_t, t, eps, np.zeros((2, enc.dim)))


def test_gradients_flow_only_into_trainable(small_world):
    ds, enc, codecs, sched, bases = small_world
    pair = ("view_a", "report")
    for m in pair:
        bases[m].params.freeze()
    try:
        comps = build_joint(pair, bases, coupling_dim=4, proj_hidden=8, seed=2)
        rng = np.random.default_rng(3)
        batch = ds.subset("train")[:6]
        from crossgen.diffusion import q_sample
        from crossgen.toydata import payload_batch
        t = np.full(6, 4)
        z_t, eps = {}, {}
        for m in pair:
            z0 = codecs[m].encode(payload_batch(batch, m))
            eps[m] = rng.standard_normal(z0.shape)
            z_t[m] = q_sample(z0, t, eps[m], sched)
        omega = rng.standard_normal((6, enc.dim))
        loss = coupled_pair_loss(comps, z_t, {m: t for m in pair}, eps, omega)
        comps.trainable.zero_grad()
        for m in pair:
            bases[m].params.zero_grad()
        T.backward(loss)
        for m in pair:
            for name, p in bases[m].params.items():
                assert p.grad is None, f"base {m}.{name} received a gradient"
        touched = [n for n, p in comps.trainable.items() if p.grad is not None]
        assert any(n.startswith("proj.") for n in touched)
        assert any(n.startswith("couple.") for n in touched)
    finally:
        for m in pair:
            bases[m].params.unfreeze()


def test_coupled_path_grad_check(small_world):
    ds, enc, codecs, sched, bases = small_world
    pair = ("view_a", "report")
    for m in pair:
        bases[m].params.freeze()
    try:
        comps = build_joint(pair, bases, coupling_dim=4, proj_hidden=8, seed=3)
        # force nonzero couplings so every adapter weight matters
        r = np.random.default_rng(4)
        for name in comps.trainable.names():
            if name.endswith("wo.w"):
                comps.trainable[name].data[...] = r.normal(0, 0.05, comps.trainable[name].shape)
        batch = ds.subset("train")[:4]
        from crossgen.diffusion import q_sample
        from crossgen.toydata import payload_batch
        t = np.full(4, 3)
        z_t, eps = {}, {}
        for m in pair:
            z0 = codecs[m].encode(payload_batch(batch, m))
            eps[m] = r.standard_normal(z0.shape)
            z_t[m] = q_sample(z0, t, eps[m], sched)
        omega = r.standard_normal((4, enc.dim))

        def f(_p):
            return coupled_pair_loss(comps, z_t, {m: t for m in pair}, eps, omega)

        for name in ["proj.view_a.l1.w", "proj.report.l2.w",
                     "couple.view_a.block0.wo.w", "couple.report.block1.wv.w"]:
            err = T.grad_check(f, comps.trainable[name])
            assert err < 1e-5, f"{name}: {err}"
    finally:
        for m in pair:
            bases[m].params.unfreeze()


def test_train_joint_freeze_and_determinism(small_world):
    ds, enc, codecs, sched, bases = small_world
    pair = ("view_a", "report")
    before = {m: bases[m].params.checksum() for m in pair}
    comps1, h1 = train_joint(ds, pair, enc, codecs, bases, sched, epochs=2,
                             batch_size=32, coupling_dim=4, proj_hidden=8, seed=5)
    after = {m: bases[m].params.checksum() for m in pair}
    assert before == after
    assert h1[-1] < h1[0] * 1.5  # finite and not exploding
    _, h2 = train_joint(ds, pair, enc, codecs, bases, sched, epochs=2,
                        batch_size=32, coupling_dim=4, proj_hidden=8, seed=5)
    assert h1 == h2


def test_zeroed_coupling_matches_independent_sampling(small_world):
    ds, enc, codecs, sched, bases = small_world
    pair = ("view_a", "report")
    comps = build_joint(pair, bases, coupling_dim=4, proj_hidden=8, seed=6)
    zero_couplings(comps)
    omega = np.random.default_rng(7).standard_normal((3, enc.dim))
    joint = joint_sample(comps, sched, omega, codecs, seed=99)
    for m in pair:
        solo = sample(bases[m], sched, omega, codecs[m], noise_stream(99, m))
        if m == "report":
            assert joint[m] == solo
        else:
            np.testing.assert_array_equal(joint[m], solo)


def test_joint_sample_deterministic(small_world):
    ds, enc, codecs, sched, bases = small_world
    pair = ("view_a", "report")
    comps, _ = train_joint(ds, pair, enc, codecs, bases, sched, epochs=1,
                           batch_size=32, coupling_dim=4, proj_hidden=8, seed=8)
    omega = np.random.default_rng(9).standard_normal((2, enc.dim))
    out1 = joint_sample(comps, sched, omega, codecs, seed=5)
    out2 = joint_sample(comps, sched, omega, codecs, seed=5)
    np.testing.assert_array_equal(out1["view_a"], out2["view_a"])
    assert out1["report"] == out2["report"]


def test_joint_sample_matches_per_step_coupled_forward_reference(small_world, monkeypatch):
    ds, enc, codecs, sched, bases = small_world
    pair = ("view_a", "report")
    comps, _ = train_joint(ds, pair, enc, codecs, bases, sched, epochs=1,
                           batch_size=32, coupling_dim=4, proj_hidden=8, seed=12)
    omega = np.random.default_rng(13).standard_normal((4, enc.dim))
    # the lockstep reverse process written out, nothing hoisted
    rngs = {m: noise_stream(17, m) for m in pair}
    z = {m: rngs[m].standard_normal((4, bases[m].latent_dim)) for m in pair}
    for t in range(sched.T, 0, -1):
        t_arr = np.full(4, t, dtype=np.int64)
        proj = {m: comps.projections[m].project(z[m]) for m in pair}
        with T.no_grad():
            eps = {m: comps.coupled[m].forward(z[m], t_arr, omega, proj[o]).data
                   for m, o in zip(pair, pair[::-1])}
        ab, alpha, beta = sched.alpha_bars[t - 1], sched.alphas[t - 1], sched.betas[t - 1]
        for m in pair:
            mean = (z[m] - beta / np.sqrt(1.0 - ab) * eps[m]) / np.sqrt(alpha)
            z[m] = mean + np.sqrt(beta) * rngs[m].standard_normal(z[m].shape) if t > 1 else mean
    calls = []
    forward = Denoiser.forward
    monkeypatch.setattr(Denoiser, "forward",
                        lambda self, *a, **k: calls.append(1) or forward(self, *a, **k))
    out = joint_sample(comps, sched, omega, codecs, seed=17)
    np.testing.assert_array_equal(out["view_a"], codecs["view_a"].decode(z["view_a"]))
    assert out["report"] == codecs["report"].decode(z["report"])
    assert len(calls) == 2 * sched.T  # one forward per stream and step
