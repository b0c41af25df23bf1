"""Per-modality conditional denoising diffusion: linear noise schedule,
forward corruption, modality codecs, the conditioned denoiser network,
training on the noise-prediction objective and ancestral sampling."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import tensor as T
from .conditioning import SubsetSampler, draw_conditioning_batch
from .errors import ShapeError
from .nn import (BLOCK_VALUES, AdamWState, Linear, ParameterSet, gemm_block_rows,
                 init_normal, linear_grad, mean_token_embedding, mean_token_embedding_apply,
                 mlp, mlp_apply, row_blocks, token_ids, train_epoch)
from .rng import stream
from .toydata import MAX_REPORT_LEN, MODALITIES, VIEW_SIZE, VOCAB, payload_batch

# ---------------------------------------------------------------------------
# noise schedule

@dataclass
class DiffusionSchedule:
    """Precomputed beta_t, alpha_t = 1 - beta_t and their running product."""
    betas: np.ndarray
    alphas: np.ndarray
    alpha_bars: np.ndarray

    @property
    def T(self) -> int:
        return len(self.betas)

    def validate(self) -> None:
        b = self.betas
        if np.any(b <= 0) or np.any(b >= 1) or np.any(np.diff(b) < 0):
            raise ValueError("betas must be nondecreasing inside (0, 1)")
        if np.any(np.diff(self.alpha_bars) >= 0):
            raise ValueError("alpha_bars must be strictly decreasing")
        recur = np.empty_like(self.alpha_bars)
        recur[0] = self.alphas[0]
        recur[1:] = self.alpha_bars[:-1] * self.alphas[1:]
        if np.max(np.abs(recur - self.alpha_bars)) > 1e-12:
            raise ValueError("alpha_bars do not satisfy the running-product recurrence")


def make_schedule(T_steps: int, beta_min: float = 1e-3, beta_max: float = 0.2) -> DiffusionSchedule:
    """Linear beta interpolation over T steps."""
    if T_steps < 2:
        raise ValueError(f"schedule needs T >= 2, got {T_steps}")
    if not (0.0 < beta_min <= beta_max < 1.0):
        raise ValueError(f"need 0 < beta_min <= beta_max < 1, got [{beta_min}, {beta_max}]")
    betas = np.linspace(beta_min, beta_max, T_steps)
    alphas = 1.0 - betas
    schedule = DiffusionSchedule(betas, alphas, np.cumprod(alphas))
    schedule.validate()
    return schedule


def q_sample(z0: np.ndarray, t, eps: np.ndarray, schedule: DiffusionSchedule) -> np.ndarray:
    """Forward corruption z_t = sqrt(abar_t) z0 + sqrt(1 - abar_t) eps."""
    z0 = np.asarray(z0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != z0.shape:
        raise ValueError(f"noise shape {eps.shape} != latent shape {z0.shape}")
    t = np.asarray(t)
    if np.any(t < 1) or np.any(t > schedule.T):
        raise ValueError(f"timestep out of range 1..{schedule.T}")
    ab = schedule.alpha_bars[t - 1]
    if z0.ndim == 2 and ab.ndim == 1:
        ab = ab[:, None]
    return np.sqrt(ab) * z0 + np.sqrt(1.0 - ab) * eps


# ---------------------------------------------------------------------------
# modality codecs

class _Codec:
    """What both codecs share: latents standardised by the train-set mean
    ``mu`` and scale ``sd`` that ``fit`` records, and saved state holding
    each parameter as ``param.<name>`` and those as ``stats.mu``/``stats.sd``.
    ``fit``, ``encode`` and ``decode`` stay on each codec for the tracer.
    Each codec names in ``_stats_rows`` the fewest items a row block of its
    statistics pass may hold and still give every row its one-shot bits."""

    def __init__(self):
        self.params = ParameterSet()
        self.mu, self.sd = np.zeros(self.latent_dim), np.ones(self.latent_dim)

    def _fit_stats(self, data) -> None:
        # row blocks hold no whole-split activation, and the latents match
        # one ``encode_raw`` over the whole split byte for byte
        lat = np.concatenate([self.encode_raw(data[block])
                              for block in row_blocks(len(data), self._stats_rows())])
        self.mu, self.sd = lat.mean(axis=0), np.maximum(lat.std(axis=0), 1e-6)

    def _standardise(self, lat: np.ndarray) -> np.ndarray:
        return (lat - self.mu) / self.sd

    def state_arrays(self, prefix: str = "") -> dict[str, np.ndarray]:
        return {**self.params.state_arrays(prefix + "param."),
                prefix + "stats.mu": self.mu.copy(), prefix + "stats.sd": self.sd.copy()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray], prefix: str = "") -> None:
        """Restore ``state_arrays(prefix)``; ValueError unless the arrays
        under ``prefix`` have exactly its names and statistics shapes."""
        names = sorted(k for k in arrays if k.startswith(prefix))
        stats = [arrays.get(prefix + "stats.mu"), arrays.get(prefix + "stats.sd")]
        if sum(k.startswith(prefix + "param.") for k in names) + 2 != len(names) or any(
                a is None or a.shape != (self.latent_dim,) for a in stats):
            raise ValueError(f"codec state arrays {names}: need {prefix}param.* and "
                             f"{prefix}stats.mu, {prefix}stats.sd of shape ({self.latent_dim},)")
        self.params.load_state_arrays(arrays, prefix + "param.")
        self.mu, self.sd = stats


class ImageCodec(_Codec):
    """Patch autoencoder: 16 patches of 4x4 pixels, each mapped to 4 latent
    dims by a shared MLP (4x downsampling, 64-dim latent overall).
    ``seed=None`` builds zero tensors without drawing, for a checkpoint load."""

    PATCH = 4
    latent_dim = (VIEW_SIZE // PATCH) ** 2 * PATCH  # 16 patches x 4 dims

    def __init__(self, seed: int | None = 0, hidden: int = 32):
        super().__init__()
        rng = None if seed is None else stream(seed, "image-codec-init")
        px = self.PATCH * self.PATCH
        per_patch = self.PATCH
        self.encoder = (Linear(self.params, "enc1", px, hidden, rng),
                        Linear(self.params, "enc2", hidden, per_patch, rng))
        self.decoder = (Linear(self.params, "dec1", per_patch, hidden, rng),
                        Linear(self.params, "dec2", hidden, px, rng))

    @staticmethod
    def _patchify(images: np.ndarray) -> np.ndarray:
        p = ImageCodec.PATCH
        g = VIEW_SIZE // p
        b = len(images)
        x = images.reshape(b, g, p, g, p).transpose(0, 1, 3, 2, 4)
        return x.reshape(b * g * g, p * p)

    @staticmethod
    def _unpatchify(patches: np.ndarray, batch: int) -> np.ndarray:
        p = ImageCodec.PATCH
        g = VIEW_SIZE // p
        x = patches.reshape(batch, g, g, p, p).transpose(0, 1, 3, 2, 4)
        return x.reshape(batch, VIEW_SIZE, VIEW_SIZE)

    def fit(self, images: np.ndarray, epochs: int = 60, batch_size: int = 64,
            lr: float = 3e-3, weight_decay: float = 0.0, seed: int = 0) -> list[float]:
        images = np.asarray(images, dtype=np.float64)

        def batch_loss(idx):
            patches = T.Tensor(self._patchify(images[idx]))
            diff = T.sub(mlp(self.decoder, mlp(self.encoder, patches)), patches)
            return T.tmean(T.mul(diff, diff))

        order, state = stream(seed, "image-codec-batches"), AdamWState()
        history = [train_epoch(self.params, state, order, len(images), batch_size,
                               batch_loss, "image codec", lr, weight_decay)
                   for _ in range(epochs)]
        self._fit_stats(images)
        return history

    def _stats_rows(self) -> int:
        # images whose patch rows take every encoder product past the bound
        return -(-gemm_block_rows(self.encoder) // (VIEW_SIZE // self.PATCH) ** 2)

    def encode_raw(self, images: np.ndarray) -> np.ndarray:
        images = np.asarray(images, dtype=np.float64)
        codes = mlp_apply(self.encoder, self._patchify(images))
        return codes.reshape(len(images), self.latent_dim)

    def encode(self, images: np.ndarray) -> np.ndarray:
        return self._standardise(self.encode_raw(images))

    def decode(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64) * self.sd + self.mu
        b = len(z)
        codes = z.reshape(b * (VIEW_SIZE // self.PATCH) ** 2, self.PATCH)
        patches = mlp_apply(self.decoder, codes)
        return np.clip(self._unpatchify(patches, b), 0.0, 1.0)

    def reconstruction_mse(self, images: np.ndarray) -> float:
        recon = self.decode(self.encode(images))
        return float(np.mean((recon - np.asarray(images)) ** 2))


class TextCodec(_Codec):
    """Token-embedding average encoder plus a decoder head that predicts
    token logits for every report position. ``seed=None`` builds zero
    tensors without drawing, for a checkpoint load."""

    def __init__(self, seed: int | None = 0, latent_dim: int = 32, hidden: int = 64):
        self.latent_dim = latent_dim
        super().__init__()
        rng = None if seed is None else stream(seed, "text-codec-init")
        self.table = self.params.add(
            "embed", T.Tensor(init_normal(rng, 0.5, (len(VOCAB), latent_dim))))
        self.decoder = (Linear(self.params, "dec1", latent_dim, hidden, rng),
                        Linear(self.params, "dec2", hidden, MAX_REPORT_LEN * len(VOCAB), rng))

    def fit(self, reports, epochs: int = 60, batch_size: int = 64,
            lr: float = 3e-3, weight_decay: float = 0.0, seed: int = 0) -> list[float]:
        v = len(VOCAB)
        reports = list(reports)
        all_ids, all_lengths = token_ids(reports)

        def batch_loss(idx):
            ids = all_ids[idx]
            rows = len(idx) * MAX_REPORT_LEN
            onehot = np.zeros((rows, v))
            onehot[np.arange(rows), ids.reshape(-1)] = 1.0
            latent = mean_token_embedding(self.table, ids, all_lengths[idx])
            logits = T.reshape(mlp(self.decoder, latent), (rows, v))
            logp = T.log_softmax(logits)
            return T.neg(T.tmean(T.tsum(T.mul(logp, T.Tensor(onehot)), axis=1)))

        order, state = stream(seed, "text-codec-batches"), AdamWState()
        history = [train_epoch(self.params, state, order, len(reports), batch_size,
                               batch_loss, "text codec", lr, weight_decay)
                   for _ in range(epochs)]
        self._fit_stats(reports)
        return history

    def _stats_rows(self) -> int:
        # the pass calls no BLAS, so any block keeps the bits; one holds a
        # (rows, MAX_REPORT_LEN, latent_dim) gather of BLOCK_VALUES values
        return max(1, BLOCK_VALUES // (MAX_REPORT_LEN * self.latent_dim))

    def encode_raw(self, reports) -> np.ndarray:
        return mean_token_embedding_apply(self.table, *token_ids(list(reports)))

    def encode(self, reports) -> np.ndarray:
        return self._standardise(self.encode_raw(reports))

    def decode(self, z: np.ndarray) -> list[tuple[str, ...]]:
        z = np.asarray(z, dtype=np.float64) * self.sd + self.mu
        logits = mlp_apply(self.decoder, z).reshape(len(z), MAX_REPORT_LEN, len(VOCAB))
        out = []
        for row in logits.argmax(axis=-1):
            tokens = []
            for tok_id in row:
                if tok_id == 0:  # pad marks the end
                    break
                tokens.append(VOCAB[tok_id])
            out.append(tuple(tokens))
        return out


# ---------------------------------------------------------------------------
# conditioned denoiser

def block_step(h: np.ndarray, temb: np.ndarray, c: np.ndarray, e: np.ndarray | None,
               fc1: Linear, fc2: Linear, bufs: tuple) -> tuple:
    """One residual block of the denoiser on arrays, written once for the
    training node and the samplers' step: the stream ``h`` becomes, in place,
    h + silu(fc2(silu(fc1(layer_norm(h) + temb)) + c + e)), by the
    operations of the per-primitive tape forward in its order.

    ``e`` is the block's coupling term wo(wv(partner)), left out when None.
    ``bufs`` = (xhat, u, a1, s1, v, a2, s2, y, stat) are the arrays the step
    writes, in that order: each (rows, hidden) but ``stat``, (rows, 1). The
    samplers alias them over four arrays and keep nothing; the training node
    passes fresh ones and keeps them for its backward. Returns the layer
    norm's inverse scale and the x each ``silu_kernel`` returned."""
    xhat, u, a1, s1, v, a2, s2, y, stat = bufs
    inv = T.layer_norm_kernel(h, out=xhat, sq=a1, stat=stat)[1]
    np.add(xhat, temb, out=u)
    x1 = T.silu_kernel(fc1.apply(u, out=a1), s1, v)[1]
    np.add(v, c, out=v)
    if e is not None:
        np.add(v, e, out=v)
    x2 = T.silu_kernel(fc2.apply(v, out=a2), s2, y)[1]
    np.add(h, y, out=h)  # r + silu(fc2(.)), in the tape's order
    return inv, x1, x2


class Denoiser:
    """Residual fully connected blocks with a per-block additive timestep
    embedding and one conditioning site per block. The site reads omega as a
    single key/value token; cross-attention onto one key is exactly the
    learned linear map wo(wv(omega)) (width ``attn_dim``), computed as such.
    omega is fixed for a whole reverse draw, so the samplers compute each
    block's term once per draw (``array_condition``) and reuse it on every
    step.

    ``seed=None`` allocates zero tensors without drawing, for a denoiser
    that a checkpoint load fills."""

    def __init__(self, latent_dim: int, cond_dim: int, T_steps: int,
                 hidden: int = 96, n_blocks: int = 2, attn_dim: int = 32,
                 seed: int | None = 0):
        if n_blocks < 1:  # the blocks alone read the timestep and the prompt
            raise ValueError(f"a denoiser needs at least one block, got {n_blocks}")
        self.latent_dim = latent_dim
        self.cond_dim = cond_dim
        self.T_steps = T_steps
        self.hidden = hidden
        self.n_blocks = n_blocks
        self.attn_dim = attn_dim
        self.params = ParameterSet()
        rng = None if seed is None else stream(seed, "denoiser-init")
        p = self.params
        self.in_proj = Linear(p, "in", latent_dim, hidden, rng)
        self.time_table = p.add("time.embed", T.Tensor(init_normal(rng, 0.02, (T_steps, hidden))))
        self.blocks = []
        for i in range(n_blocks):
            fc1 = Linear(p, f"block{i}.fc1", hidden, hidden, rng)
            fc2 = Linear(p, f"block{i}.fc2", hidden, hidden, rng)
            # retired query/key projections: draw and discard, so later inits match
            if rng is not None:
                for n_in in (hidden, cond_dim):
                    Linear(ParameterSet(), "retired", n_in, attn_dim, rng)
            self.blocks.append({
                "fc1": fc1, "fc2": fc2,
                "wv": Linear(p, f"block{i}.attn.wv", cond_dim, attn_dim, rng),
                "wo": Linear(p, f"block{i}.attn.wo", attn_dim, hidden, rng),
            })
        self.out_proj = Linear(p, "out", hidden, latent_dim, rng)

    def array_condition(self, omega: np.ndarray) -> list[np.ndarray]:
        """Each block's conditioning term wo(wv(omega)) on arrays, in block
        order: the arrays a reverse draw passes to ``array_forward``."""
        omega = np.asarray(omega, dtype=np.float64)
        return [block["wo"].apply(block["wv"].apply(omega)) for block in self.blocks]

    def forward(self, z, t, omega, sites=(), partner=None) -> T.Tensor:
        """Predict the noise for latents z at (1-based) timesteps t under the
        prompts omega, z and omega matrices with one row per timestep
        (ShapeError otherwise): the path training records, as one tape node
        over the parameters, with the bytes of the per-primitive tape
        forward. Its forward is ``block_step`` with every block's arrays
        kept; its backward runs the tape's rules in reverse block order
        through ``tensor``'s kernels and ``nn.linear_grad``.

        ``sites`` holds one coupling site (wv, wo) per block (see
        ``jointgen.build_joint``): block i then adds wo(wv(partner)) after
        its conditioning site, and the node also takes those layers'
        parameters and ``partner``, once per site, the last block's first,
        so its gradients add in the tape's order. With the base frozen (and
        z and omega constants) the backward stops at block 0's site.
        """
        z_t, om = (x if isinstance(x, T.Tensor) else T.Tensor(x) for x in (z, omega))
        t = np.asarray(t, dtype=np.int64).reshape(-1)
        steps = t.tolist()  # min/max over a list beat numpy's at this size
        if steps and (min(steps) < 1 or max(steps) > self.T_steps):
            raise ValueError(f"timestep out of range 1..{self.T_steps}")
        if not (z_t.data.ndim == om.data.ndim == 2 and len(z_t.data) == len(om.data) == len(t)):
            raise ShapeError("denoiser", z_t.shape, t.shape, om.shape)
        ids = t - 1
        keys = [block["wv"].apply(om.data) for block in self.blocks]
        cond = [block["wo"].apply(k) for block, k in zip(self.blocks, keys)]
        p = T.Tensor(partner) if sites and not isinstance(partner, T.Tensor) else partner
        site_keys = [wv.apply(p.data) for wv, _ in sites]
        terms = [wo.apply(k) for (_, wo), k in zip(sites, site_keys)]
        temb = self.time_table.data[ids]
        h = self.in_proj.apply(z_t.data)
        y = np.empty_like(h)
        acts = []
        for i, block in enumerate(self.blocks):
            bufs = (*(np.empty_like(h) for _ in range(7)), y, np.empty((len(h), 1)))
            acts.append((bufs, *block_step(h, temb, cond[i], terms[i] if sites else None,
                                           block["fc1"], block["fc2"], bufs)))
        out = self.out_proj.apply(h)

        layers = [self.in_proj, self.out_proj, *(block[k] for block in self.blocks
                                                 for k in ("fc1", "fc2", "wv", "wo"))]
        base = [z_t, om, self.time_table, *(x for layer in layers for x in (layer.w, layer.b))]
        deep = any(x.requires_grad for x in base)  # a gradient beyond the sites'
        params = [x for layer in layers + [layer for site in sites for layer in site]
                  for x in (layer.w, layer.b)]

        def bw(g):
            grads = {}

            def back(layer, x, g, input_grad=True):
                gx, grads[layer.w], grads[layer.b] = linear_grad(layer, x, g, input_grad)
                return gx

            g_h = back(self.out_proj, h, g)
            g_om = g_temb = None
            g_partner = []
            for i in reversed(range(self.n_blocks)):
                block = self.blocks[i]
                (xhat, u, _, s1, v, _, s2, _, _), inv, x1, x2 = acts[i]
                g_v = back(block["fc2"], v, T.silu_grad_kernel(x2, s2, g_h))
                if sites:
                    wv, wo = sites[i]
                    g_partner.append(back(wv, p.data, back(wo, site_keys[i], g_v),
                                          p.requires_grad))
                if not (deep or i):
                    break  # nothing before block 0's site wants a gradient
                g_u = back(block["fc1"], u, T.silu_grad_kernel(x1, s1, g_v))
                if deep:
                    g_k = back(block["wv"], om.data, back(block["wo"], keys[i], g_v),
                               om.requires_grad)
                    if g_k is not None:
                        g_om = g_k if g_om is None else g_om + g_k
                    g_temb = g_u if g_temb is None else g_temb + g_u
                g_x = T.layer_norm_grad_kernel(xhat, inv, g_u)
                g_x += g_h  # the residual's gradient
                g_h = g_x
            g_z = g_table = None
            if deep:
                g_z = back(self.in_proj, z_t.data, g_h, z_t.requires_grad)
                if self.time_table.requires_grad:
                    g_table = T.embedding_grad_kernel(self.time_table.shape, ids, g_temb)
            return (g_z, g_om, g_table, *(grads.get(x) for x in params), *g_partner)

        return T.record("denoiser", (z_t, om, self.time_table, *params, *[p] * len(sites)),
                        out, bw)

    def array_forward(self, cond: list[np.ndarray], t_max: int, sites=()):
        """``forward`` without a tape, on bare arrays, for the rows of one
        reverse draw that ``cond`` holds: returns ``eps(z, t, partner=None)``,
        the noise prediction for latents z (one per row) all at timestep t,
        with the coupling ``sites`` (as in ``forward``) reading ``partner``.

        ``cond`` holds those rows' terms of ``array_condition(omega)``.
        ``t_max`` is the largest timestep the draw will pass (its schedule's
        T), checked here once instead of on every call (ValueError as in
        ``forward``). Each block is ``block_step`` over four (rows, hidden)
        activation arrays and one (rows, 1) statistics array; with sites, a
        fifth (rows, hidden) array takes each block's wo(wv(partner)) before
        the block. They live as long as the returned function, so they go
        when the draw ends; each thread of a draw needs its own. The output
        has ``forward``'s bytes (the timestep row broadcasts where
        ``forward`` adds a copy of it per row).
        """
        if t_max > self.T_steps:
            raise ValueError(f"timestep out of range 1..{self.T_steps}")
        rows = cond[0].shape[0]
        h, x, a, s = (np.empty((rows, self.hidden)) for _ in range(4))
        bufs = (x, x, a, s, s, a, x, x, np.empty((rows, 1)))
        e = np.empty((rows, self.hidden)) if sites else None
        table = self.time_table.data
        blocks = [(block["fc1"], block["fc2"]) for block in self.blocks]

        def eps(z: np.ndarray, t: int, partner: np.ndarray | None = None) -> np.ndarray:
            self.in_proj.apply(z, out=h)
            for i, (fc1, fc2) in enumerate(blocks):
                if sites:
                    wv, wo = sites[i]
                    wo.apply(wv.apply(partner), out=e)
                block_step(h, table[t - 1], cond[i], e, fc1, fc2, bufs)
            return self.out_proj.apply(h)

        return eps


# ---------------------------------------------------------------------------
# training objective

def noise_prediction_loss(eps_hat: T.Tensor, eps: np.ndarray) -> T.Tensor:
    """Mean over the batch of the squared L2 norm of the prediction error."""
    diff = T.sub(eps_hat, T.Tensor(np.asarray(eps, dtype=np.float64)))
    return T.tmean(T.tsum(T.mul(diff, diff), axis=1))


def encode_records(encode, records, modality: str, batch_size: int) -> np.ndarray:
    """``encode`` over the ``modality`` payloads of ``records``, one call per
    ``batch_size`` records, rows stacked in record order.

    A training stage encodes its frozen inputs once this way and indexes
    the rows per batch. Chunks of a training batch's size keep each BLAS
    call at the row count of a per-batch encode, so every row has the bits
    a per-batch encode gives it; one call over all records can make
    OpenBLAS pick another gemm kernel and move the last bit.
    """
    return np.concatenate([encode(payload_batch(records[lo:lo + batch_size], modality))
                           for lo in range(0, len(records), batch_size)])


def stage_batches(dataset, targets, encoders, codecs: dict, schedule: DiffusionSchedule,
                  batch_size: int, seed: int):
    """The frozen inputs and the random draws of a multi-prompt training
    stage for ``targets``: one modality for an LDM stage, a pair for a joint
    stage, each conditioned on a random subset of the other modalities.

    The codecs and the prompt encoders are frozen for the stage: each
    target's codec latents and each other modality's shared embeddings are
    encoded once over the train split (``encode_records``) and each batch
    indexes them. The streams are ``subset:``, ``train-noise:`` and
    ``train-batches:`` plus the targets joined with ``+``.

    Returns ``(n, order, draw)``: the train-split size, the batch-order
    stream and ``draw(idx) -> (t, z_t, eps, omega)``, which takes one
    timestep per row (shared by the targets), then each target's noise in
    target order, and last omega; ``z_t`` and ``eps`` map each target to
    its rows.
    """
    train = dataset.subset("train")
    if not train:
        raise ValueError("empty dataset")
    name = "+".join(targets)
    sampler = SubsetSampler([m for m in MODALITIES if m not in targets],
                            stream(seed, f"subset:{name}"))
    noise_rng = stream(seed, f"train-noise:{name}")
    z0 = {m: encode_records(codecs[m].encode, train, m, batch_size) for m in targets}
    prompts = {m: encode_records(partial(encoders.encode_batch, m), train, m, batch_size)
               for m in sampler.available}

    def draw(idx):
        t = noise_rng.integers(1, schedule.T + 1, size=len(idx))
        eps = {m: noise_rng.standard_normal((len(idx), z0[m].shape[1])) for m in targets}
        z_t = {m: q_sample(z0[m][idx], t, eps[m], schedule) for m in targets}
        omega, _ = draw_conditioning_batch(sampler, {m: h[idx] for m, h in prompts.items()})
        return t, z_t, eps, omega

    return len(train), stream(seed, f"train-batches:{name}"), draw


def train_ldm(dataset, target: str, encoders, codec, schedule: DiffusionSchedule,
              epochs: int, batch_size: int = 64, lr: float = 2e-3,
              weight_decay: float = 1e-4, hidden: int = 96, n_blocks: int = 2,
              attn_dim: int = 32, seed: int = 0) -> tuple[Denoiser, list[float]]:
    """Train one conditional generator for ``target`` under multi-prompt
    conditioning drawn from the other two modalities, on the frozen inputs
    and draws of ``stage_batches``."""
    n, order, draw = stage_batches(dataset, (target,), encoders, {target: codec},
                                   schedule, batch_size, seed)
    denoiser = Denoiser(codec.latent_dim, encoders.dim, schedule.T,
                        hidden=hidden, n_blocks=n_blocks, attn_dim=attn_dim,
                        seed=seed)
    state = AdamWState()

    def batch_loss(idx):
        t, z_t, eps, omega = draw(idx)
        return noise_prediction_loss(denoiser.forward(z_t[target], t, omega), eps[target])

    history = [train_epoch(denoiser.params, state, order, n, batch_size,
                           batch_loss, f"diffusion ({target})", lr, weight_decay)
               for _ in range(epochs)]
    return denoiser, history


# ---------------------------------------------------------------------------
# ancestral sampling

def noise_stream(seed: int, modality: str) -> np.random.Generator:
    return stream(seed, f"diffusion-noise:{modality}")


def reverse_steps(schedule: DiffusionSchedule, sigma_mode: str = "beta") -> list[tuple]:
    """``(t, beta_t / sqrt(1 - abar_t), sqrt(alpha_t), sigma_t)`` for t = T..1,
    vectorised over the schedule: elementwise IEEE operations give the bits a
    per-step scalar evaluation gives. sigma_t is sqrt(beta_t) or the ratio form."""
    if sigma_mode not in ("beta", "alpha_bar_ratio"):
        raise ValueError(f"unknown sigma mode {sigma_mode!r}")
    betas, abars = schedule.betas, schedule.alpha_bars
    if sigma_mode == "beta":
        sigma = np.sqrt(betas)
    else:  # sigma_1 is never used; abar_0 = 1 makes it 0
        sigma = np.sqrt(betas * (1.0 - np.concatenate(([1.0], abars[:-1]))) / (1.0 - abars))
    steps = zip(range(1, schedule.T + 1), (betas / np.sqrt(1.0 - abars)).tolist(),
                np.sqrt(schedule.alphas).tolist(), sigma.tolist())
    return list(steps)[::-1]


def reverse_update(z: np.ndarray, eps_hat: np.ndarray, step: tuple,
                   noise: np.ndarray | None) -> np.ndarray:
    """One ancestral step z_t -> z_{t-1} with the ``noise`` drawn for it
    (``step_noise``); the last (t = 1) adds none."""
    t, coef, root_alpha, sigma = step
    z = (z - coef * eps_hat) / root_alpha
    return z + sigma * noise if t > 1 else z


def step_noise(rng: np.random.Generator, shape: tuple, step: tuple) -> np.ndarray | None:
    """The noise ``reverse_update`` adds at ``step``; the last step draws none."""
    return rng.standard_normal(shape) if step[0] > 1 else None


#: rows each thread of a reverse loop must get before the loop spreads over
#: two threads: the crossover, below which the per-step handoff costs more
#: than the overlap gains. A joint draw puts its second stream (all rows) on
#: the worker, a single-target draw the second half of its rows. Default
#: widths on 2 vCPUs with BLAS at 1 thread, threaded against inline: a joint
#: draw took 2.3x as long at 8 rows, 1.1x at 48, 0.9-1.0x at 64 and 0.6-0.7x
#: at 500; a single draw split in halves (medians of 5, two rounds) 0.9-1.3x
#: at 128 rows, 0.76-0.85x at 160, 0.73-0.81x at 300 and 0.7x at 500.
THREAD_MIN_ROWS = 64


def _cpus() -> int:
    """CPUs this process may run on (all of them where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def step_pool(rows_per_thread: int):
    """A one-worker pool, to use as a context, when each of two threads
    would get ``THREAD_MIN_ROWS`` rows and this process has two CPUs; a
    context that yields None otherwise. Leaving it joins the worker, on an
    exception too."""
    threaded = rows_per_thread >= THREAD_MIN_ROWS and _cpus() >= 2
    return ThreadPoolExecutor(1) if threaded else nullcontext()


def sample_latents(denoiser: Denoiser, schedule: DiffusionSchedule, omega: np.ndarray,
                   rng: np.random.Generator, sigma_mode: str = "beta") -> np.ndarray:
    """Reverse process from pure noise; joint sampling takes the same step
    (``reverse_update``).

    The conditioning terms are computed once for the draw, and each step's
    noise prediction is ``Denoiser.array_forward``, which gives
    ``Denoiser.forward``'s bytes without building a tensor per operation.
    The step noise scale is sqrt(beta_t) by default, or the
    alpha-bar-ratio variant (``reverse_steps``).

    From ``2 * THREAD_MIN_ROWS`` rows on, with at least two CPUs, one worker
    thread steps the second half of the rows while the calling thread steps
    the first (numpy releases the GIL in their GEMMs and ufunc loops). The
    calling thread computes the conditioning and draws each step's noise
    for the whole batch, in the order an unsplit draw does. Every op of a
    step is row-wise, and OpenBLAS gives each row of these products the same
    bits at half the rows, so the output is the same either way.
    """
    steps = reverse_steps(schedule, sigma_mode)
    omega = np.atleast_2d(np.asarray(omega, dtype=np.float64))
    b = len(omega)
    with step_pool(b // 2) as pool:
        cond = denoiser.array_condition(omega)
        z = rng.standard_normal((b, denoiser.latent_dim))
        rows = [slice(0, b)] if pool is None else [slice(0, b // 2), slice(b // 2, b)]
        eps = [denoiser.array_forward([c[r] for c in cond], schedule.T) for r in rows]

        def advance(k, z_k, step, noise):  # one step of the rows in rows[k]
            return reverse_update(z_k, eps[k](z_k, step[0]), step,
                                  None if noise is None else noise[rows[k]])

        zs = [z[r] for r in rows]
        for step in steps:
            noise = step_noise(rng, z.shape, step)
            if pool is None:
                zs = [advance(0, zs[0], step, noise)]
            else:
                future = pool.submit(advance, 1, zs[1], step, noise)
                # result() re-raises the worker's exception; zs is rebound
                # only once both halves have finished the step
                zs = [advance(0, zs[0], step, noise), future.result()]
    return np.concatenate(zs)


def sample(denoiser: Denoiser, schedule: DiffusionSchedule, omega, codec,
           rng: np.random.Generator, sigma_mode: str = "beta"):
    """Generate decoded payloads for a batch of conditioning vectors."""
    z0 = sample_latents(denoiser, schedule, omega, rng, sigma_mode=sigma_mode)
    return codec.decode(z0)
