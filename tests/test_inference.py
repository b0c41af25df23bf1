"""Every inference entry point runs on bare arrays, records nothing, and
gives its tape forward's bytes.

Training records on the tape (``nn.mlp``, the modules' ``forward``);
inference reads the same ``Linear`` stacks through ``nn.mlp_apply`` and the
array kernels of ``tensor``. Each case below pairs an entry point with its
tape forward and checks, at 1, 8 and 500 rows, that the two give the same
bytes and that the array call writes into no operand and no parameter.
The codecs have no forward of their own outside training, so their tape
reference is the same call with ``diffusion``'s array interpreters swapped
for the tape ones. The samplers' array step is pinned against the recorded
forwards in ``test_diffusion`` and ``test_jointgen``."""

import weakref

import numpy as np
import pytest

from crossgen import diffusion
from crossgen import tensor as T
from crossgen import toydata as td
from crossgen.bridging import PromptEncoders
from crossgen.config import load_config
from crossgen.diffusion import Denoiser, ImageCodec, TextCodec
from crossgen.evalkit import build_classifier
from crossgen.jointgen import build_joint
from crossgen.nn import Linear, ParameterSet, mean_token_embedding, mlp, mlp_apply
from crossgen.rng import stream

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
             (lambda: model.logits(views), lambda: model.forward(flat.data).data),
             (lambda: model.scores(views), lambda: T.sigmoid(model.forward(flat.data)).data)]
    return pairs, [views], [model.params]


def _denoiser_case(rng, rows):
    den = _denoiser(ImageCodec.latent_dim, seed=3)
    omega = rng.standard_normal((rows, den.cond_dim))
    pairs = [(lambda: den.array_condition(omega),
              lambda: [c.data for c in den.condition(omega)])]
    return pairs, [omega], [den.params]


def _coupled_case(rng, rows):
    latent = {"view_a": ImageCodec.latent_dim, "report": D["text_codec"]["latent_dim"]}
    bases = {m: _denoiser(latent[m], seed=i) for i, m in enumerate(latent)}
    comps = build_joint(("view_a", "report"), bases, coupling_dim=J["coupling_dim"],
                        proj_hidden=J["proj_hidden"], seed=5)
    z = {m: rng.standard_normal((rows, latent[m])) for m in latent}
    pairs = [(lambda m=m: comps.projections[m].project(z[m]),
              lambda m=m: comps.projections[m].forward(z[m]).data) for m in z]
    return pairs, list(z.values()), [comps.trainable]


CASES = {
    "classifier": _classifier_case,
    "codecs": _codec_case,
    "coupled_projection": _coupled_case,
    "denoiser_condition": _denoiser_case,
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
        # every earlier layer's product is gone before this one is made
        assert all(ref() is None for ref in products)
        y = apply(self, x, out)
        products.append(weakref.ref(y))
        return y

    monkeypatch.setattr(Linear, "apply", spy)
    y = mlp_apply(layers, rng.standard_normal((5, 6)))
    assert len(products) == 4 and products[-1]() is y
