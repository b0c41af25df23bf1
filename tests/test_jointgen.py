"""Coupling freeze contract, degenerate-coupling equivalence and gradients."""

import sys
import threading

import numpy as np
import pytest

from crossgen import tensor as T
from crossgen import toydata as td
from crossgen.bridging import PromptEncoders, train_alignment
from crossgen.config import load_config
from crossgen.diffusion import (THREAD_MIN_ROWS, Denoiser, ImageCodec, TextCodec,
                                make_schedule, noise_stream, sample, train_ldm)
from crossgen.jointgen import (ProjectionEncoder, build_joint,
                               coupled_pair_loss, joint_sample, train_joint)
from crossgen.nn import ParameterSet
from crossgen.rng import stream
from denoiser_reference import reference_forward


def zero_couplings(components) -> None:
    """Zero every adapter so joint sampling degenerates to independence."""
    for name in components.trainable.names():
        if name.startswith("couple."):
            components.trainable[name].data[...] = 0.0


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


def _default_width_joint(rng):
    """Default-width bases and joint components with live couplings."""
    cfg = load_config()
    d, j = cfg["diffusion"], cfg["joint"]
    latent = {"view_a": ImageCodec.latent_dim, "report": d["text_codec"]["latent_dim"]}
    bases = {m: Denoiser(latent[m], cfg["encoder"]["dim"], d["timesteps"], hidden=d["hidden"],
                         n_blocks=d["blocks"], attn_dim=d["attn_dim"], seed=i)
             for i, m in enumerate(latent)}
    comps = build_joint(("view_a", "report"), bases, coupling_dim=j["coupling_dim"],
                        proj_hidden=j["proj_hidden"], seed=5)
    for _, p in comps.trainable.items():  # the adapters' wo start at zero
        p.data[...] = rng.normal(0.0, 0.3, p.shape)
    return comps, latent


@pytest.mark.parametrize("rows", [1, 8, 129])
def test_coupled_array_step_and_projection_give_the_recorded_forwards_bytes(rows,
                                                                           silu_edges):
    rng = np.random.default_rng(rows)
    comps, latent = _default_width_joint(rng)
    omega = rng.standard_normal((rows, comps.bases["view_a"].cond_dim))
    z = {m: rng.standard_normal((rows, latent[m])) for m in latent}
    t = int(rng.integers(1, comps.bases["view_a"].T_steps + 1))
    # row 0 reaches silu's overflow branch in the projections and the
    # denoisers; row 1, where there is one, holds a NaN
    omega[0] *= 1e5
    for m in z:
        z[m][0] *= 1e4
        z[m][1:2, 2] = np.nan
    pairs = (("view_a", "report"), ("report", "view_a"))
    proj = {m: comps.projections[m].forward(z[m]) for m in z}
    live = [reference_forward(comps.bases[m], z[m], np.full(rows, t), omega, comps.sites[m],
                              proj[o])
            for m, o in pairs]
    assert all(x.requires_grad for x in [*proj.values(), *live]) and len(T.tape()) > 0
    T.reset_tape()
    silu_edges.clear()
    proj_a = {m: comps.projections[m].project(z[m]) for m in z}
    assert [proj_a[m].tobytes() for m in z] == [proj[m].data.tobytes() for m in z]
    eps = []
    for m, o in pairs:
        cond = comps.bases[m].array_condition(omega)
        step = comps.bases[m].array_forward(cond, comps.bases[m].T_steps, comps.sites[m])
        eps.append(step(z[m], t, proj_a[o]))
    assert [e.tobytes() for e in eps] == [x.data.tobytes() for x in live]
    assert silu_edges["below -700"] and bool(silu_edges["nan"]) == (rows > 1)
    assert len(T.tape()) == 0


@pytest.mark.parametrize("batch", [8, 500])
def test_default_width_coupled_forwards_without_a_tape_equal_the_recorded_ones(batch):
    rng = np.random.default_rng(batch)
    comps, latent = _default_width_joint(rng)
    base = comps.bases["view_a"]
    omega = rng.standard_normal((batch, base.cond_dim))
    t = rng.integers(1, base.T_steps + 1, size=batch)
    z = {m: rng.standard_normal((batch, latent[m])) for m in latent}

    def forwards():
        proj = {m: comps.projections[m].forward(z[m]) for m in z}
        eps = [comps.bases[m].forward(z[m], t, omega, comps.sites[m], proj[o])
               for m, o in (("view_a", "report"), ("report", "view_a"))]
        return [x.data.tobytes() for x in [*proj.values(), *eps]]

    live = forwards()
    assert len(T.tape()) > 0
    T.reset_tape()
    for params in (comps.trainable, *(b.params for b in comps.bases.values())):
        params.freeze()  # frozen components record nothing
    bare = forwards()
    assert len(T.tape()) == 0 and bare == live
    assert comps.projections["report"].project(z["report"]).tobytes() == bare[1]


@pytest.mark.parametrize("rows", [1, 8, 56, 64])  # 56: a stage's tail batch
def test_the_fused_coupled_nodes_give_the_per_primitive_loss_and_gradient_bytes(
        rows, monkeypatch, silu_edges):
    rng = np.random.default_rng(rows)
    comps, latent = _default_width_joint(rng)
    base = comps.bases["view_a"]
    omega = rng.standard_normal((rows, base.cond_dim))
    t = rng.integers(1, base.T_steps + 1, size=rows)
    z = {m: rng.standard_normal((rows, latent[m])) for m in latent}
    eps = {m: rng.standard_normal((rows, latent[m])) for m in latent}
    omega[0] *= 1e5  # row 0 takes silu's overflow branch in both denoisers
    for b in comps.bases.values():
        b.params.freeze()  # as in train_joint

    def grads():
        comps.trainable.zero_grad()
        loss = coupled_pair_loss(comps, z, t, eps, omega, lam=0.1, tau=0.07)
        T.backward(loss)
        T.reset_tape()
        return loss.data.tobytes(), {n: p.grad.tobytes() for n, p in comps.trainable.items()}

    silu_edges.clear()
    got = grads()
    assert silu_edges["below -700"]
    # each partner projection gets the contrastive gradient, then block 1's
    # site's, then block 0's: the fused nodes must add them in that order
    with monkeypatch.context() as mp:
        mp.setattr(Denoiser, "forward", reference_forward)
        want = grads()
    assert got == want


def test_one_joint_training_step_records_two_denoiser_nodes_over_frozen_bases(
        small_world, monkeypatch):
    ds, enc, codecs, sched, bases = small_world
    from crossgen import nn
    steps, backward, kernel = [], T.backward, T.layer_norm_grad_kernel
    norm_grads = []

    def spy(loss):
        steps.append([node.op for node in T.tape().nodes].count("denoiser"))
        norm_grads.clear()
        backward(loss)
        steps[-1] = (steps[-1], len(norm_grads))

    def counted(*args):
        norm_grads.append(args)
        return kernel(*args)

    monkeypatch.setattr(nn, "backward", spy)
    monkeypatch.setattr(T, "layer_norm_grad_kernel", counted)
    train_joint(ds, ("view_a", "report"), enc, codecs, bases, sched, epochs=1,
                batch_size=32, coupling_dim=4, proj_hidden=8, seed=9)
    # two denoiser nodes per step; a frozen base's backward stops at block
    # 0's site, so each of the two-block bases normalises block 1 alone
    assert steps and set(steps) == {(2, 2)}


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
    joint = coupled_pair_loss(comps, z_t, t, eps, omega,
                              lam=0.0, tau=1.0)
    base_sum = (noise_prediction_loss(bases[pair[0]].forward(z_t[pair[0]], t, omega), eps[pair[0]]).item()
                + noise_prediction_loss(bases[pair[1]].forward(z_t[pair[1]], t, omega), eps[pair[1]]).item())
    assert joint.item() == pytest.approx(base_sum, abs=1e-12)


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
        loss = coupled_pair_loss(comps, z_t, t, eps, omega)
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
            return coupled_pair_loss(comps, z_t, t, eps, omega)

        for name in ["proj.view_a.l1.w", "proj.report.l2.w",
                     "couple.view_a.block0.wo.w", "couple.report.block1.wv.w"]:
            err = T.grad_check(f, comps.trainable[name])
            assert err < 1e-5, f"{name}: {err}"
    finally:
        for m in pair:
            bases[m].params.unfreeze()


def test_train_joint_matches_per_batch_encode_reference(small_world):
    """The stage-level encodes and the fused coupled nodes train the same
    couplings, bit for bit, as encoding each batch's records inside the loop,
    combining per record and recording the forwards one primitive at a time."""
    from crossgen.bridging import symmetric_loss
    from crossgen.conditioning import SubsetSampler, combine
    from crossgen.diffusion import noise_prediction_loss, q_sample
    from crossgen.nn import AdamWState, adamw_step
    ds, enc, codecs, sched, bases = small_world
    pair = m_i, m_j = ("report", "view_a")
    comps, hist, _ = train_joint(ds, pair, enc, codecs, bases, sched, epochs=2,
                                 batch_size=32, coupling_dim=4, proj_hidden=8,
                                 lam=0.1, tau=0.07, seed=7)

    train = ds.subset("train")
    for m in pair:
        bases[m].params.freeze()
    try:
        ref = build_joint(pair, bases, coupling_dim=4, proj_hidden=8, seed=7)
        sampler = SubsetSampler(["view_b"], stream(7, f"subset:{m_i}+{m_j}"))
        noise_rng = stream(7, f"train-noise:{m_i}+{m_j}")
        order = stream(7, f"train-batches:{m_i}+{m_j}")
        state = AdamWState()
        ref_hist = []
        for _ in range(2):
            perm = order.permutation(len(train))
            losses = []
            for lo in range(0, len(train), 32):
                batch = [train[i] for i in perm[lo:lo + 32]]
                if len(batch) < 2:
                    continue
                t = noise_rng.integers(1, sched.T + 1, size=len(batch))
                z_t, eps = {}, {}
                for m in pair:
                    z0 = codecs[m].encode(td.payload_batch(batch, m))
                    eps[m] = noise_rng.standard_normal(z0.shape)
                    z_t[m] = q_sample(z0, t, eps[m], sched)
                embs = {m: enc.encode_batch(m, td.payload_batch(batch, m))
                        for m in sampler.available}
                omega = []
                for i in range(len(batch)):
                    subset = sampler.sample_subset()
                    omega.append(combine([embs[m][i] for m in subset])[0])
                omega = np.stack(omega)
                p = {m: ref.projections[m].forward(z_t[m]) for m in pair}
                loss_i = noise_prediction_loss(reference_forward(
                    ref.bases[m_i], z_t[m_i], t, omega, ref.sites[m_i], p[m_j]), eps[m_i])
                loss_j = noise_prediction_loss(reference_forward(
                    ref.bases[m_j], z_t[m_j], t, omega, ref.sites[m_j], p[m_i]), eps[m_j])
                loss = T.add(T.add(loss_i, loss_j),
                             T.mul(symmetric_loss(p[m_i], p[m_j], 0.07), T.Tensor(0.1)))
                losses.append(loss.item())
                ref.trainable.zero_grad()
                T.backward(loss)
                adamw_step(ref.trainable, state, lr=1e-3, weight_decay=1e-4)
                T.reset_tape()
            ref_hist.append(float(np.mean(losses)))
    finally:
        for m in pair:
            bases[m].params.unfreeze()
    assert hist == ref_hist
    assert comps.trainable.checksum() == ref.trainable.checksum()


def test_train_joint_freeze_and_determinism(small_world):
    ds, enc, codecs, sched, bases = small_world
    pair = ("view_a", "report")
    before = {m: bases[m].params.checksum() for m in pair}
    comps1, h1, checksums = train_joint(ds, pair, enc, codecs, bases, sched, epochs=2,
                                        batch_size=32, coupling_dim=4, proj_hidden=8,
                                        seed=5)
    after = {m: bases[m].params.checksum() for m in pair}
    assert before == after == checksums
    assert h1[-1] < h1[0] * 1.5  # finite and not exploding
    _, h2, _ = train_joint(ds, pair, enc, codecs, bases, sched, epochs=2,
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
    comps, _, _ = train_joint(ds, pair, enc, codecs, bases, sched, epochs=1,
                              batch_size=32, coupling_dim=4, proj_hidden=8, seed=8)
    omega = np.random.default_rng(9).standard_normal((2, enc.dim))
    out1 = joint_sample(comps, sched, omega, codecs, seed=5)
    out2 = joint_sample(comps, sched, omega, codecs, seed=5)
    np.testing.assert_array_equal(out1["view_a"], out2["view_a"])
    assert out1["report"] == out2["report"]


@pytest.mark.parametrize("batch", [4, THREAD_MIN_ROWS])
def test_joint_sample_matches_per_step_coupled_forward_reference(small_world, two_cpus,
                                                                 step_threads, batch):
    ds, enc, codecs, sched, bases = small_world
    pair = ("view_a", "report")
    comps, _, _ = train_joint(ds, pair, enc, codecs, bases, sched, epochs=1,
                              batch_size=32, coupling_dim=4, proj_hidden=8, seed=12)
    omega = np.random.default_rng(13).standard_normal((batch, enc.dim))
    # the lockstep reverse process written out through the Tensor forwards,
    # nothing hoisted
    rngs = {m: noise_stream(17, m) for m in pair}
    z = {m: rngs[m].standard_normal((batch, bases[m].latent_dim)) for m in pair}
    for t in range(sched.T, 0, -1):
        t_arr = np.full(batch, t, dtype=np.int64)
        proj = {m: comps.projections[m].forward(z[m]).data for m in pair}
        eps = {m: reference_forward(comps.bases[m], z[m], t_arr, omega, comps.sites[m],
                                    proj[o]).data
               for m, o in zip(pair, pair[::-1])}
        T.reset_tape()  # the recording forwards are the reference; drop their nodes
        ab, alpha, beta = sched.alpha_bars[t - 1], sched.alphas[t - 1], sched.betas[t - 1]
        for m in pair:
            mean = (z[m] - beta / np.sqrt(1.0 - ab) * eps[m]) / np.sqrt(alpha)
            z[m] = mean + np.sqrt(beta) * rngs[m].standard_normal(z[m].shape) if t > 1 else mean
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        out = joint_sample(comps, sched, omega, codecs, seed=17)
    finally:
        sys.setswitchinterval(interval)
    np.testing.assert_array_equal(out["view_a"], codecs["view_a"].decode(z["view_a"]))
    assert out["report"] == codecs["report"].decode(z["report"])
    assert len(step_threads) == 2 * sched.T  # one prediction per stream and step
    # the second stream runs on a worker from THREAD_MIN_ROWS rows on
    expected = 2 if batch >= THREAD_MIN_ROWS else 1
    assert len(set(step_threads)) == expected


def test_consecutive_joint_draws_of_other_row_counts_give_the_bytes_of_fresh_draws(
        small_world, two_cpus):
    ds, enc, codecs, sched, bases = small_world
    pair = ("view_a", "report")

    def fresh_components():
        fresh = {}
        for m in pair:  # new denoiser objects holding the same weights
            fresh[m] = Denoiser(bases[m].latent_dim, bases[m].cond_dim, bases[m].T_steps,
                                hidden=bases[m].hidden, n_blocks=bases[m].n_blocks,
                                attn_dim=bases[m].attn_dim, seed=None)
            fresh[m].params.load_state_arrays(bases[m].params.state_arrays())
        comps = build_joint(pair, fresh, coupling_dim=4, proj_hidden=8, seed=6)
        for name, p in comps.trainable.items():  # live couplings
            p.data[...] = stream(6, name).normal(0.0, 0.3, p.shape)
        return comps

    comps = fresh_components()
    omega = np.random.default_rng(3).standard_normal((THREAD_MIN_ROWS, enc.dim))
    sizes = (THREAD_MIN_ROWS, 3, 1, THREAD_MIN_ROWS)  # threaded and inline draws
    draws = [joint_sample(comps, sched, omega[:n], codecs, seed=4) for n in sizes]
    for n, got in zip(sizes, draws):
        fresh = joint_sample(fresh_components(), sched, omega[:n], codecs, seed=4)
        assert got["view_a"].tobytes() == fresh["view_a"].tobytes()
        assert got["report"] == fresh["report"]


def _joint_world(small_world):
    ds, enc, codecs, sched, bases = small_world
    comps = build_joint(("view_a", "report"), bases, coupling_dim=4, proj_hidden=8, seed=6)
    omega = np.random.default_rng(3).standard_normal((THREAD_MIN_ROWS, enc.dim))
    return comps, sched, omega, codecs


def test_threaded_joint_sample_leaves_grad_mode_tape_and_threads_as_it_found_them(
        small_world, two_cpus):
    comps, sched, omega, codecs = _joint_world(small_world)
    before = threading.active_count()
    joint_sample(comps, sched, omega, codecs, seed=4)
    assert all(p.requires_grad for _, p in comps.trainable.items())
    assert len(T.tape()) == 0
    assert threading.active_count() == before


def test_an_error_in_the_worker_stream_propagates_with_grad_mode_restored(
        small_world, monkeypatch, two_cpus):
    comps, sched, omega, codecs = _joint_world(small_world)
    worker_stream = comps.pair[1]  # the calling thread steps the first stream
    raised_on = []

    def fail(*args, **kwargs):
        raised_on.append(threading.get_ident())
        raise FloatingPointError("worker stream failed")

    array_forward = Denoiser.array_forward

    def hooked(self, *args):  # the worker stream's base predicts through fail
        return fail if self is comps.bases[worker_stream] else array_forward(self, *args)

    monkeypatch.setattr(Denoiser, "array_forward", hooked)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="worker stream failed"):
        joint_sample(comps, sched, omega, codecs, seed=4)
    assert raised_on and raised_on[0] != threading.get_ident()
    assert all(p.requires_grad for _, p in comps.trainable.items())
    assert threading.active_count() == before
