"""Every module's inference output without a tape equals its output with the
tape on, byte for byte, and no-grad calls leave their operands untouched.

Under ``no_grad`` a ``Linear`` adds its bias into its own fresh product and
``silu``/``layer_norm`` work in buffers they allocated, so these tests also
pin that no such write reaches an input array or a parameter. The samplers'
array step, and the conditioning terms it reuses on every step of a draw,
are pinned the same way in ``test_diffusion`` and ``test_jointgen``."""

import contextlib

import numpy as np
import pytest

from crossgen import tensor as T
from crossgen import toydata as td
from crossgen.bridging import PromptEncoders
from crossgen.config import load_config
from crossgen.diffusion import Denoiser, ImageCodec, TextCodec
from crossgen.evalkit import build_classifier
from crossgen.jointgen import build_joint
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


def _reports(rng, batch):
    words = td.VOCAB[1:]  # id 0 is the pad token
    return [tuple(words[i] for i in rng.integers(0, len(words), rng.integers(1, 33)))
            for _ in range(batch)]


def _denoiser_case(rng, batch):
    den = _denoiser(ImageCodec.latent_dim, seed=3)
    z = rng.standard_normal((batch, den.latent_dim))
    omega = rng.standard_normal((batch, den.cond_dim))
    t = rng.integers(1, den.T_steps + 1, size=(2, batch))

    def run():
        return [den.forward(z, t_k, omega).data for t_k in t]

    return run, [z, omega, t], [den.params]


def _coupled_case(rng, batch):
    latent = {"view_a": ImageCodec.latent_dim, "report": D["text_codec"]["latent_dim"]}
    bases = {m: _denoiser(latent[m], seed=i) for i, m in enumerate(latent)}
    comps = build_joint(("view_a", "report"), bases, coupling_dim=J["coupling_dim"],
                        proj_hidden=J["proj_hidden"], seed=5)
    for _, p in comps.trainable.items():  # live couplings: the adapters' wo start at zero
        p.data[...] = rng.normal(0.0, 0.3, p.shape)
    omega = rng.standard_normal((batch, E["dim"]))
    t = rng.integers(1, D["timesteps"] + 1, size=(2, batch))
    z = {m: rng.standard_normal((batch, latent[m])) for m in latent}

    def run():
        proj = {m: comps.projections[m].project(z[m]) for m in z}
        return [*proj.values(),
                *(comps.coupled[m].forward(z[m], t_k, omega, proj[o]).data
                  for t_k in t for m, o in (("view_a", "report"), ("report", "view_a")))]

    params = [comps.trainable, *(b.params for b in bases.values())]
    return run, [omega, t, *z.values()], params


def _codec_case(rng, batch):
    image = ImageCodec(seed=3, hidden=D["image_codec"]["hidden"])
    text = TextCodec(seed=3, latent_dim=D["text_codec"]["latent_dim"],
                     hidden=D["text_codec"]["hidden"])
    for codec in (image, text):
        codec.mu = rng.normal(0.0, 0.1, codec.latent_dim)
        codec.sd = rng.uniform(0.5, 2.0, codec.latent_dim)
    views = rng.random((batch, td.VIEW_SIZE, td.VIEW_SIZE))
    z_image = rng.standard_normal((batch, image.latent_dim))
    z_text = rng.standard_normal((batch, text.latent_dim))

    def run():
        return [image.encode(views), image.decode(z_image), text.decode(z_text)]

    operands = [views, z_image, z_text, image.mu, image.sd, text.mu, text.sd]
    return run, operands, [image.params, text.params]


def _encoder_case(rng, batch):
    enc = PromptEncoders(dim=E["dim"], hidden=E["hidden"], text_embed=E["text_embed"], seed=3)
    views = rng.random((batch, td.VIEW_SIZE, td.VIEW_SIZE))
    reports = _reports(rng, batch)

    def run():
        return [enc.encode_batch("view_a", views), enc.encode_batch("report", reports)]

    return run, [views], [enc.params]


def _classifier_case(rng, batch):
    model = build_classifier(td.VIEW_SIZE * td.VIEW_SIZE, tuple(CFG["eval"]["classifier_hidden"]),
                             td.NUM_CONDITIONS, stream(3, "classifier-init"))
    views = rng.random((batch, td.VIEW_SIZE, td.VIEW_SIZE))

    def run():
        return [model.features(views), model.logits(views), model.scores(views)]

    return run, [views], [model.params]


CASES = {
    "denoiser_cond": _denoiser_case,
    "coupled_and_projection": _coupled_case,
    "codecs": _codec_case,
    "prompt_encoders": _encoder_case,
    "classifier": _classifier_case,
}


def _snapshot(operands, params):
    return [a.tobytes() for a in operands], [p.checksum() for p in params]


@pytest.mark.parametrize("batch", [8, 500])
@pytest.mark.parametrize("case", sorted(CASES))
def test_no_grad_output_equals_the_taped_output_and_leaves_operands_untouched(
        case, batch, monkeypatch):
    run, operands, params = CASES[case](np.random.default_rng(batch), batch)
    before = _snapshot(operands, params)
    with T.no_grad():
        bare = run()
    assert len(T.tape()) == 0
    assert _snapshot(operands, params) == before
    # with no_grad a no-op, the same public calls record their tape
    monkeypatch.setattr(T, "no_grad", contextlib.nullcontext)
    taped = run()
    assert len(T.tape()) > 0

    def as_bytes(outputs):
        return [x.tobytes() if isinstance(x, np.ndarray) else x for x in outputs]

    assert as_bytes(bare) == as_bytes(taped)
