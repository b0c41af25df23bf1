"""Per-modality conditional denoising diffusion: linear noise schedule,
forward corruption, modality codecs, the conditioned denoiser network,
training on the noise-prediction objective and ancestral sampling."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import tensor as T
from .conditioning import SubsetSampler, draw_conditioning_batch
from .nn import (AdamWState, Linear, ParameterSet, init_normal,
                 mean_token_embedding, token_ids, train_epoch)
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

class ImageCodec:
    """Patch autoencoder: 16 patches of 4x4 pixels, each mapped to 4 latent
    dims by a shared MLP (4x downsampling, 64-dim latent overall).
    ``seed=None`` builds zero tensors without drawing, for a checkpoint load."""

    PATCH = 4
    latent_dim = (VIEW_SIZE // PATCH) ** 2 * PATCH  # 16 patches x 4 dims

    def __init__(self, seed: int | None = 0, hidden: int = 32):
        self.params = ParameterSet()
        rng = None if seed is None else stream(seed, "image-codec-init")
        px = self.PATCH * self.PATCH
        per_patch = self.PATCH
        self.enc1 = Linear(self.params, "enc1", px, hidden, rng)
        self.enc2 = Linear(self.params, "enc2", hidden, per_patch, rng)
        self.dec1 = Linear(self.params, "dec1", per_patch, hidden, rng)
        self.dec2 = Linear(self.params, "dec2", hidden, px, rng)
        self.mu = np.zeros(self.latent_dim)
        self.sd = np.ones(self.latent_dim)
        self.meta: dict = {}

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

    def _encode_t(self, patches: T.Tensor) -> T.Tensor:
        return self.enc2(T.silu(self.enc1(patches)))

    def _decode_t(self, codes: T.Tensor) -> T.Tensor:
        return self.dec2(T.silu(self.dec1(codes)))

    def fit(self, images: np.ndarray, epochs: int = 60, batch_size: int = 64,
            lr: float = 3e-3, weight_decay: float = 0.0, seed: int = 0) -> list[float]:
        images = np.asarray(images, dtype=np.float64)

        def batch_loss(idx):
            patches = T.Tensor(self._patchify(images[idx]))
            diff = T.sub(self._decode_t(self._encode_t(patches)), patches)
            return T.tmean(T.mul(diff, diff))

        order, state = stream(seed, "image-codec-batches"), AdamWState()
        history = [train_epoch(self.params, state, order, len(images), batch_size,
                               batch_loss, "image codec", lr, weight_decay)
                   for _ in range(epochs)]
        lat = self.encode_raw(images)
        self.mu = lat.mean(axis=0)
        self.sd = np.maximum(lat.std(axis=0), 1e-6)
        self.meta["reconstruction_mse"] = history[-1] if history else None
        return history

    def encode_raw(self, images: np.ndarray) -> np.ndarray:
        images = np.asarray(images, dtype=np.float64)
        with T.no_grad():
            codes = self._encode_t(T.Tensor(self._patchify(images))).data
        return codes.reshape(len(images), self.latent_dim)

    def encode(self, images: np.ndarray) -> np.ndarray:
        return (self.encode_raw(images) - self.mu) / self.sd

    def decode(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64) * self.sd + self.mu
        b = len(z)
        codes = z.reshape(b * (VIEW_SIZE // self.PATCH) ** 2, self.PATCH)
        with T.no_grad():
            patches = self._decode_t(T.Tensor(codes)).data
        return np.clip(self._unpatchify(patches, b), 0.0, 1.0)

    def reconstruction_mse(self, images: np.ndarray) -> float:
        recon = self.decode(self.encode(images))
        return float(np.mean((recon - np.asarray(images)) ** 2))


class TextCodec:
    """Token-embedding average encoder plus a decoder head that predicts
    token logits for every report position. ``seed=None`` builds zero
    tensors without drawing, for a checkpoint load."""

    def __init__(self, seed: int | None = 0, latent_dim: int = 32, hidden: int = 64):
        self.params = ParameterSet()
        rng = None if seed is None else stream(seed, "text-codec-init")
        self.latent_dim = latent_dim
        self.table = self.params.add(
            "embed", T.Tensor(init_normal(rng, 0.5, (len(VOCAB), latent_dim))))
        self.dec1 = Linear(self.params, "dec1", latent_dim, hidden, rng)
        self.dec2 = Linear(self.params, "dec2", hidden, MAX_REPORT_LEN * len(VOCAB), rng)
        self.mu = np.zeros(latent_dim)
        self.sd = np.ones(latent_dim)
        self.meta: dict = {}

    def _logits_t(self, latent: T.Tensor) -> T.Tensor:
        return self.dec2(T.silu(self.dec1(latent)))

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
            logits = T.reshape(self._logits_t(latent), (rows, v))
            logp = T.log_softmax(logits)
            return T.neg(T.tmean(T.tsum(T.mul(logp, T.Tensor(onehot)), axis=1)))

        order, state = stream(seed, "text-codec-batches"), AdamWState()
        history = [train_epoch(self.params, state, order, len(reports), batch_size,
                               batch_loss, "text codec", lr, weight_decay)
                   for _ in range(epochs)]
        lat = self.encode_raw(reports)
        self.mu = lat.mean(axis=0)
        self.sd = np.maximum(lat.std(axis=0), 1e-6)
        self.meta["reconstruction_nll"] = history[-1] if history else None
        return history

    def encode_raw(self, reports) -> np.ndarray:
        with T.no_grad():
            return mean_token_embedding(self.table, *token_ids(list(reports))).data

    def encode(self, reports) -> np.ndarray:
        return (self.encode_raw(reports) - self.mu) / self.sd

    def decode(self, z: np.ndarray) -> list[tuple[str, ...]]:
        z = np.asarray(z, dtype=np.float64) * self.sd + self.mu
        with T.no_grad():
            logits = self._logits_t(T.Tensor(z)).data
        logits = logits.reshape(len(z), MAX_REPORT_LEN, len(VOCAB))
        out = []
        for row in logits.argmax(axis=-1):
            tokens = []
            for tok_id in row:
                if tok_id == 0:  # pad marks the end
                    break
                tokens.append(VOCAB[tok_id])
            out.append(tuple(tokens))
        return out

    def token_accuracy(self, reports) -> float:
        decoded = self.decode(self.encode(reports))
        total = match = 0
        for ref, got in zip(reports, decoded):
            total += max(len(ref), len(got))
            match += sum(a == b for a, b in zip(ref, got))
        return match / total if total else 1.0


# ---------------------------------------------------------------------------
# conditioned denoiser

class Denoiser:
    """Residual fully connected blocks with a per-block additive timestep
    embedding and one conditioning site per block. The site reads omega as a
    single key/value token; cross-attention onto one key is exactly the
    learned linear map wo(wv(omega)) (width ``attn_dim``), computed as such.
    omega is fixed for a whole reverse draw, so the samplers compute each
    block's term once per draw (``condition``) and reuse it on every step.

    ``seed=None`` allocates zero tensors without drawing, for a denoiser
    that a checkpoint load fills."""

    def __init__(self, latent_dim: int, cond_dim: int, T_steps: int,
                 hidden: int = 96, n_blocks: int = 2, attn_dim: int = 32,
                 seed: int | None = 0):
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

    def condition(self, omega) -> list[T.Tensor]:
        """Each block's conditioning term wo(wv(omega)), in block order."""
        om = omega if isinstance(omega, T.Tensor) else T.Tensor(omega)
        return [block["wo"](block["wv"](om)) for block in self.blocks]

    def forward(self, z, t, omega, extra_site=None, cond=None) -> T.Tensor:
        """Predict the noise for latents z at (1-based) timesteps t.

        ``cond``, the list ``condition(omega)`` returned, stands in for omega
        when given, so a reverse loop computes it once per draw.
        ``extra_site(block_index)`` lets a coupling wrapper inject an
        additional additive term after the conditioning site.
        """
        z_t = z if isinstance(z, T.Tensor) else T.Tensor(z)
        t = np.asarray(t, dtype=np.int64).reshape(-1)
        steps = t.tolist()  # min/max over a list beat numpy's at this size
        if steps and (min(steps) < 1 or max(steps) > self.T_steps):
            raise ValueError(f"timestep out of range 1..{self.T_steps}")
        if cond is None:
            cond = self.condition(omega)
        temb = T.embedding(self.time_table, t - 1)
        h = self.in_proj(z_t)
        for i, block in enumerate(self.blocks):
            r = h
            h = T.layer_norm(h)
            h = T.add(h, temb)
            h = T.silu(block["fc1"](h))
            h = T.add(h, cond[i])
            if extra_site is not None:
                h = T.add(h, extra_site(i))
            h = T.silu(block["fc2"](h))
            h = T.add(r, h)
        return self.out_proj(h)


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


def denoise_loss(z0: np.ndarray, prompts: dict, target: str, sampler,
                 denoiser: Denoiser, schedule: DiffusionSchedule,
                 noise_rng: np.random.Generator) -> T.Tensor:
    """Loss of one multi-prompt training batch, from its codec latents
    ``z0`` and its shared embeddings ``prompts`` per available modality."""
    if not len(z0):
        raise ValueError("empty batch")
    t = noise_rng.integers(1, schedule.T + 1, size=len(z0))
    eps = noise_rng.standard_normal(z0.shape)
    z_t = q_sample(z0, t, eps, schedule)
    omega, _ = draw_conditioning_batch(sampler, prompts, target)
    eps_hat = denoiser.forward(z_t, t, omega)
    return noise_prediction_loss(eps_hat, eps)


def train_ldm(dataset, target: str, encoders, codec, schedule: DiffusionSchedule,
              epochs: int, batch_size: int = 64, lr: float = 2e-3,
              weight_decay: float = 1e-4, hidden: int = 96, n_blocks: int = 2,
              attn_dim: int = 32, seed: int = 0,
              weight_mode: str = "uniform") -> tuple[Denoiser, list[float]]:
    """Train one conditional generator for ``target`` under multi-prompt
    conditioning drawn from the other two modalities.

    The codec and the prompt encoders are frozen for the stage: the codec
    latents of every train record and their shared embeddings for each
    conditioning modality are encoded once (``encode_records``) and each
    batch indexes them."""
    train = dataset.subset("train")
    if not train:
        raise ValueError("empty dataset")
    available = [m for m in MODALITIES if m != target]
    denoiser = Denoiser(codec.latent_dim, encoders.dim, schedule.T,
                        hidden=hidden, n_blocks=n_blocks, attn_dim=attn_dim,
                        seed=seed)
    sampler = SubsetSampler(available, stream(seed, f"subset:{target}"), weight_mode)
    noise_rng = stream(seed, f"train-noise:{target}")
    order = stream(seed, f"train-batches:{target}")
    z0 = encode_records(codec.encode, train, target, batch_size)
    prompts = {m: encode_records(partial(encoders.encode_batch, m), train, m, batch_size)
               for m in available}
    state = AdamWState()

    def batch_loss(idx):
        return denoise_loss(z0[idx], {m: h[idx] for m, h in prompts.items()},
                            target, sampler, denoiser, schedule, noise_rng)

    history = [train_epoch(denoiser.params, state, order, len(train), batch_size,
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
                   rng: np.random.Generator) -> np.ndarray:
    """One ancestral step z_t -> z_{t-1}; the last (t = 1) adds no noise."""
    t, coef, root_alpha, sigma = step
    z = (z - coef * eps_hat) / root_alpha
    return z + sigma * rng.standard_normal(z.shape) if t > 1 else z


def sample_latents(eps_model, schedule: DiffusionSchedule, omega: np.ndarray,
                   rng: np.random.Generator, latent_dim: int,
                   sigma_mode: str = "beta") -> np.ndarray:
    """Reverse process from pure noise; joint sampling takes the same step
    (``reverse_update``).

    ``eps_model(z, t, omega)`` returns the predicted noise tensor. A
    ``Denoiser`` computes its conditioning terms once for the draw and
    reuses them on every step. The step noise scale is sqrt(beta_t) by
    default, or the alpha-bar-ratio variant (``reverse_steps``).
    """
    steps = reverse_steps(schedule, sigma_mode)
    omega = np.atleast_2d(np.asarray(omega, dtype=np.float64))
    b = len(omega)
    with T.no_grad():
        cond = eps_model.condition(omega) if isinstance(eps_model, Denoiser) else None
        z = rng.standard_normal((b, latent_dim))
        for step in steps:
            t_arr = np.full(b, step[0], dtype=np.int64)
            eps_hat = (eps_model(z, t_arr, omega) if cond is None
                       else eps_model.forward(z, t_arr, omega, cond=cond))
            eps_hat = eps_hat.data if isinstance(eps_hat, T.Tensor) else np.asarray(eps_hat)
            z = reverse_update(z, eps_hat, step, rng)
    return z


def sample(denoiser: Denoiser, schedule: DiffusionSchedule, omega, codec,
           rng: np.random.Generator, sigma_mode: str = "beta"):
    """Generate decoded payloads for a batch of conditioning vectors."""
    z0 = sample_latents(denoiser, schedule, omega, rng, denoiser.latent_dim,
                        sigma_mode=sigma_mode)
    return codec.decode(z0)
