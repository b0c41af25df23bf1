"""Every inference entry point runs on bare arrays, records nothing, and
gives its tape forward's bytes.

Training records on the tape (``nn.mlp``, the modules' ``forward``, the
fused nodes ``nn.mlp_bce_loss`` and ``Denoiser.forward``);
inference reads the same ``Linear`` stacks through ``nn.mlp_apply`` and the
array kernels of ``tensor``. Each case below pairs an entry point with its
tape forward and checks, at 1, 8 and 500 rows, that the two give the same
bytes and that the array call writes into no operand and no parameter.
The codecs have no forward of their own outside training, so their tape
reference is the same call with ``diffusion``'s array interpreters swapped
for the tape ones. The denoisers' reference is the per-primitive tape
forward of ``denoiser_reference``, which training's fused node is pinned
against in ``test_diffusion`` and ``test_jointgen``, as are the samplers'
whole reverse loops."""

import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from crossgen import diffusion, nn
from crossgen import tensor as T
from crossgen import toydata as td
from crossgen.bridging import PromptEncoders
from crossgen.config import load_config
from crossgen.diffusion import Denoiser, ImageCodec, TextCodec
from crossgen.evalkit import build_classifier
from crossgen.jointgen import build_joint
from crossgen.nn import (Linear, ParameterSet, mean_token_embedding, mean_token_embedding_apply,
                         mlp, mlp_apply, silu_apply)
from crossgen.rng import stream
from denoiser_reference import condition, reference_forward

CFG = load_config()
D, J, E = CFG["diffusion"], CFG["joint"], CFG["encoder"]


@pytest.fixture(autouse=True)
def _fresh_tape():
    T.reset_tape()
    yield
    T.reset_tape()


def _denoiser(latent_dim, seed):
    return Denoiser(latent_dim, E["dim"], D["timesteps"], hidden=D["hidden"],
                    n_blocks=D["blocks"], attn_dim=D["attn_dim"], seed=seed)


def _reports(rng, rows):
    words = td.VOCAB[1:]  # id 0 is the pad token
    return [tuple(words[i] for i in rng.integers(0, len(words), rng.integers(1, 33)))
            for _ in range(rows)]


def _on_tape(call, *args):
    """``call(*args)`` with ``diffusion``'s array interpreters replaced by the
    tape ones."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diffusion, "mlp_apply",
                   lambda layers, x, unit=False: mlp(layers, T.Tensor(x), unit).data)
        mp.setattr(diffusion, "mean_token_embedding_apply",
                   lambda table, ids, lengths: mean_token_embedding(table, ids, lengths).data)
        return call(*args)


# Each case returns (pairs, operands, params): pairs of (array call, tape
# call), the arrays the calls read, and the parameter sets they use.

def _encoder_case(rng, rows):
    enc = PromptEncoders(dim=E["dim"], hidden=E["hidden"], text_embed=E["text_embed"], seed=3)
    views = rng.random((rows, td.VIEW_SIZE, td.VIEW_SIZE))
    reports = _reports(rng, rows)
    pairs = [(lambda m=m, p=p: enc.encode_batch(m, p),
              lambda m=m, p=p: enc.forward_batch(m, p).data)
             for m, p in (("view_a", views), ("report", reports))]
    return pairs, [views], [enc.params]


def _codec_case(rng, rows):
    image = ImageCodec(seed=3, hidden=D["image_codec"]["hidden"])
    text = TextCodec(seed=3, latent_dim=D["text_codec"]["latent_dim"],
                     hidden=D["text_codec"]["hidden"])
    for codec in (image, text):
        codec.mu = rng.normal(0.0, 0.1, codec.latent_dim)
        codec.sd = rng.uniform(0.5, 2.0, codec.latent_dim)
    views = rng.random((rows, td.VIEW_SIZE, td.VIEW_SIZE))
    reports = _reports(rng, rows)
    z_image = rng.standard_normal((rows, image.latent_dim))
    z_text = rng.standard_normal((rows, text.latent_dim))
    calls = [(image.encode, views), (image.decode, z_image),
             (text.encode, reports), (text.decode, z_text)]
    pairs = [(lambda c=c, a=a: c(a), lambda c=c, a=a: _on_tape(c, a)) for c, a in calls]
    operands = [views, z_image, z_text, image.mu, image.sd, text.mu, text.sd]
    return pairs, operands, [image.params, text.params]


def _classifier_case(rng, rows):
    model = build_classifier(td.VIEW_SIZE * td.VIEW_SIZE, tuple(CFG["eval"]["classifier_hidden"]),
                             td.NUM_CONDITIONS, stream(3, "classifier-init"))
    views = rng.random((rows, td.VIEW_SIZE, td.VIEW_SIZE))
    flat = T.Tensor(views.reshape(rows, -1))
    pairs = [(lambda: model.features(views),
              lambda: T.silu(mlp(model.layers[:2], flat)).data),
             (lambda: model.logits(views), lambda: mlp(model.layers, flat).data),
             (lambda: model.scores(views), lambda: T.sigmoid(mlp(model.layers, flat)).data)]
    return pairs, [views], [model.params]


def _denoiser_case(rng, rows):
    den = _denoiser(ImageCodec.latent_dim, seed=3)
    omega = rng.standard_normal((rows, den.cond_dim))
    z = rng.standard_normal((rows, den.latent_dim))
    t = int(rng.integers(1, den.T_steps + 1))
    pairs = [(lambda: den.array_condition(omega),
              lambda: [c.data for c in condition(den, omega)]),
             (lambda: den.array_forward(den.array_condition(omega), den.T_steps)(z, t),
              lambda: reference_forward(den, z, np.full(rows, t), omega).data)]
    return pairs, [omega, z], [den.params]


def _coupled_case(rng, rows):
    latent = {"view_a": ImageCodec.latent_dim, "report": D["text_codec"]["latent_dim"]}
    bases = {m: _denoiser(latent[m], seed=i) for i, m in enumerate(latent)}
    comps = build_joint(("view_a", "report"), bases, coupling_dim=J["coupling_dim"],
                        proj_hidden=J["proj_hidden"], seed=5)
    for _, p in comps.trainable.items():  # live couplings: the adapters' wo start at zero
        p.data[...] = rng.normal(0.0, 0.3, p.shape)
    z = {m: rng.standard_normal((rows, latent[m])) for m in latent}
    omega = rng.standard_normal((rows, E["dim"]))
    t = int(rng.integers(1, D["timesteps"] + 1))
    base, sites = bases["view_a"], comps.sites["view_a"]
    partner = comps.projections["report"].project(z["report"])
    pairs = [(lambda m=m: comps.projections[m].project(z[m]),
              lambda m=m: comps.projections[m].forward(z[m]).data) for m in z]
    pairs.append((lambda: base.array_forward(base.array_condition(omega), D["timesteps"],
                                             sites)(z["view_a"], t, partner),
                  lambda: reference_forward(base, z["view_a"], np.full(rows, t), omega,
                                            sites, partner).data))
    params = [comps.trainable, *(b.params for b in bases.values())]
    return pairs, [*z.values(), omega, partner], params


CASES = {
    "classifier": _classifier_case,
    "codecs": _codec_case,
    "coupled": _coupled_case,
    "denoiser": _denoiser_case,
    "prompt_encoders": _encoder_case,
}


def _snapshot(operands, params):
    return [a.tobytes() for a in operands], [p.checksum() for p in params]


def _as_bytes(out):
    if isinstance(out, np.ndarray):
        return out.dtype, out.shape, out.tobytes()
    return [_as_bytes(x) for x in out] if isinstance(out, list) else out


@pytest.mark.parametrize("rows", [1, 8, 500])
@pytest.mark.parametrize("case", sorted(CASES))
def test_no_grad_output_equals_the_taped_output_and_leaves_operands_untouched(case, rows):
    pairs, operands, params = CASES[case](np.random.default_rng(rows), rows)
    before = _snapshot(operands, params)
    for array_call, tape_call in pairs:
        bare = array_call()
        assert len(T.tape()) == 0
        assert _snapshot(operands, params) == before
        taped = tape_call()
        assert len(T.tape()) > 0  # the reference ran on the tape
        T.reset_tape()
        assert _as_bytes(bare) == _as_bytes(taped)


def test_mlp_apply_frees_each_layer_output_once_it_has_been_through_the_silu(monkeypatch):
    params, rng = ParameterSet(), np.random.default_rng(0)
    layers = tuple(Linear(params, f"l{i}", 6, 6, rng) for i in range(4))
    products = []
    apply = Linear.apply

    def spy(self, x, out=None):
        # the SiLU ran in place: the last product is this layer's input, and
        # every product older than it is gone before this one is made
        assert all(ref() is None for ref in products[:-1])
        assert not products or products[-1]() is x
        y = apply(self, x, out)
        products.append(weakref.ref(y))
        return y

    monkeypatch.setattr(Linear, "apply", spy)
    y = mlp_apply(layers, rng.standard_normal((5, 6)))
    assert len(products) == 4 and products[-1]() is y


# ---------------------------------------------------------------------------
# the blocked array passes: one-shot bytes, block-sized temporaries

def _one_shot_silu(h):
    # the one-shot reference: the whole logistic in one full-size scratch
    s = np.empty_like(h)
    return T.silu_kernel(h, s, s)[0]


def _rows_per_block(width):
    return nn.BLOCK_VALUES // width


#: 1 row, exactly one block, and several blocks plus a remainder
BLOCKINGS = {"one_row": lambda b: 1, "one_block": lambda b: b,
             "blocks_and_a_remainder": lambda b: 3 * b + 17}


@pytest.mark.parametrize("blocking", sorted(BLOCKINGS))
def test_blocked_silu_gives_the_one_shot_bytes_fresh_and_in_place(blocking):
    rows = BLOCKINGS[blocking](_rows_per_block(48))
    h = np.random.default_rng(rows).normal(0.0, 4.0, (rows, 48))
    h[0, 3] = -1000.0   # exp(-x) overflows: the kernel's guarded branch
    h[-1, 5] = -np.inf  # in the last block: the limit -0.0, not NaN
    ref, operand = _one_shot_silu(h), h.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fresh = silu_apply(h)
        assert h.tobytes() == operand  # out=None leaves the operand alone
        in_place = silu_apply(h, out=h)
    assert in_place is h
    assert fresh.tobytes() == ref.tobytes() == h.tobytes()
    assert h[-1, 5] == 0.0 and np.signbit(h[-1, 5])


def _traced_peak(call):
    """The peak bytes that ``call()`` allocates above what it started with."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_mlp_apply_holds_one_full_size_activation_beside_its_input_and_a_scratch():
    width = 64
    rows = BLOCKINGS["blocks_and_a_remainder"](_rows_per_block(width))
    params, rng = ParameterSet(), np.random.default_rng(0)
    layers = (Linear(params, "l0", 8, width, rng), Linear(params, "l1", width, width, rng),
              Linear(params, "l2", width, width, rng), Linear(params, "out", width, 4, rng))
    x = rng.normal(size=(rows, 8))
    activation, scratch = rows * width * 8, nn.BLOCK_VALUES * 8
    # each layer holds its input and its product; the SiLU adds one block
    peak = _traced_peak(lambda: mlp_apply(layers, x))
    assert 2 * activation <= peak < 2 * activation + scratch + activation // 4


# ---------------------------------------------------------------------------
# the codec statistics pass: row blocks above OpenBLAS's small-matrix bound

def _one_shot_stats(codec, data):
    lat = codec.encode_raw(data)
    return lat.mean(axis=0), np.maximum(lat.std(axis=0), 1e-6)


@pytest.mark.parametrize("n", [1401, 2100, 2800, 4000])
def test_blocked_image_statistics_give_the_one_shot_bytes(n):
    codec = ImageCodec(seed=4, hidden=D["image_codec"]["hidden"])
    images = np.random.default_rng(n).random((n, td.VIEW_SIZE, td.VIEW_SIZE))
    assert len(nn.row_blocks(n, codec._stats_rows())) > 1
    mu, sd = _one_shot_stats(codec, images)
    codec._fit_stats(images)
    assert codec.mu.tobytes() == mu.tobytes() and codec.sd.tobytes() == sd.tobytes()


def test_blocked_text_statistics_give_the_one_shot_bytes():
    t = D["text_codec"]
    codec = TextCodec(seed=5, latent_dim=t["latent_dim"], hidden=t["hidden"])
    reports = [r.report for r in td.generate_dataset(6, 2000).subset("train")]
    assert len(reports) == 1400 and len(nn.row_blocks(1400, codec._stats_rows())) > 1
    mu, sd = _one_shot_stats(codec, reports)
    codec._fit_stats(reports)
    assert codec.mu.tobytes() == mu.tobytes() and codec.sd.tobytes() == sd.tobytes()


def test_gemm_block_rows_put_every_product_past_twice_the_bound():
    codec = ImageCodec(seed=None, hidden=D["image_codec"]["hidden"])
    rows = nn.gemm_block_rows(codec.encoder)
    sizes = [layer.w.data.size for layer in codec.encoder]
    assert min(rows * s for s in sizes) >= 2 * nn.SMALL_GEMM_MNK
    assert min((rows - 1) * s for s in sizes) < 2 * nn.SMALL_GEMM_MNK
    # 10,417 patch rows of the 48 -> 4 product: 652 images of 16 patches
    assert (rows, codec._stats_rows()) == (10_417, 652)


@pytest.mark.parametrize("n, least", [(0, 5), (1, 5), (9, 5), (10, 5), (11, 5),
                                      (1303, 652), (1304, 652), (2800, 652), (4000, 652)])
def test_row_blocks_cover_each_row_once_in_near_equal_blocks_of_at_least_the_minimum(n, least):
    blocks = nn.row_blocks(n, least)
    assert np.array_equal(np.concatenate([np.arange(n)[b] for b in blocks]), np.arange(n))
    sizes = [b.stop - b.start for b in blocks]
    assert max(sizes) - min(sizes) <= 1
    assert len(blocks) == 1 if n < 2 * least else min(sizes) >= least


def test_image_statistics_pass_holds_no_whole_split_activation():
    hidden = D["image_codec"]["hidden"]
    codec = ImageCodec(seed=4, hidden=hidden)
    images = np.random.default_rng(0).random((2800, td.VIEW_SIZE, td.VIEW_SIZE))
    activation = len(images) * (td.VIEW_SIZE // ImageCodec.PATCH) ** 2 * hidden * 8
    assert activation == 44_800 * 48 * 8
    assert _traced_peak(lambda: codec._fit_stats(images)) < activation
