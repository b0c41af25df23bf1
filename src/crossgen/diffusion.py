"""Per-modality conditional denoising diffusion: linear noise schedule,
forward corruption, modality codecs, the conditioned denoiser network,
training on the noise-prediction objective and ancestral sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .nn import (AdamWState, Linear, ParameterSet, adamw_step, finite_loss,
                 init_normal)
from .rng import stream
from .toydata import (MAX_REPORT_LEN, VIEW_SIZE, VOCAB, payload_batch,
                      report_to_ids)

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
        order = stream(seed, "image-codec-batches")
        state = AdamWState()
        history = []
        for _ in range(epochs):
            perm = order.permutation(len(images))
            losses = []
            for lo in range(0, len(images), batch_size):
                batch = images[perm[lo:lo + batch_size]]
                patches = T.Tensor(self._patchify(batch))
                recon = self._decode_t(self._encode_t(patches))
                diff = T.sub(recon, patches)
                loss = T.tmean(T.mul(diff, diff))
                losses.append(finite_loss(loss, "image codec"))
                self.params.zero_grad()
                T.backward(loss)
                adamw_step(self.params, state, lr=lr, weight_decay=weight_decay)
                T.reset_tape()
            history.append(float(np.mean(losses)))
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

    def _encode_t(self, reports) -> T.Tensor:
        ids = np.stack([report_to_ids(r) for r in reports])
        weights = np.zeros((len(reports), MAX_REPORT_LEN, self.latent_dim))
        for i, r in enumerate(reports):
            weights[i, :len(r), :] = 1.0 / len(r)
        emb = T.embedding(self.table, ids)
        return T.tsum(T.mul(emb, T.Tensor(weights)), axis=1)

    def _logits_t(self, latent: T.Tensor) -> T.Tensor:
        return self.dec2(T.silu(self.dec1(latent)))

    def fit(self, reports, epochs: int = 60, batch_size: int = 64,
            lr: float = 3e-3, weight_decay: float = 0.0, seed: int = 0) -> list[float]:
        order = stream(seed, "text-codec-batches")
        state = AdamWState()
        v = len(VOCAB)
        history = []
        reports = list(reports)
        for _ in range(epochs):
            perm = order.permutation(len(reports))
            losses = []
            for lo in range(0, len(reports), batch_size):
                batch = [reports[i] for i in perm[lo:lo + batch_size]]
                ids = np.stack([report_to_ids(r) for r in batch])
                onehot = np.zeros((len(batch) * MAX_REPORT_LEN, v))
                onehot[np.arange(len(batch) * MAX_REPORT_LEN), ids.reshape(-1)] = 1.0
                latent = self._encode_t(batch)
                logits = T.reshape(self._logits_t(latent), (len(batch) * MAX_REPORT_LEN, v))
                logp = T.log_softmax(logits)
                loss = T.neg(T.tmean(T.tsum(T.mul(logp, T.Tensor(onehot)), axis=1)))
                losses.append(finite_loss(loss, "text codec"))
                self.params.zero_grad()
                T.backward(loss)
                adamw_step(self.params, state, lr=lr, weight_decay=weight_decay)
                T.reset_tape()
            history.append(float(np.mean(losses)))
        lat = self.encode_raw(reports)
        self.mu = lat.mean(axis=0)
        self.sd = np.maximum(lat.std(axis=0), 1e-6)
        self.meta["reconstruction_nll"] = history[-1] if history else None
        return history

    def encode_raw(self, reports) -> np.ndarray:
        with T.no_grad():
            return self._encode_t(list(reports)).data

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


def codec_for(modality: str, image_codec: ImageCodec, text_codec: TextCodec):
    return text_codec if modality == "report" else image_codec


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
        om = omega if isinstance(omega, T.Tensor) else T.Tensor(np.asarray(omega, dtype=np.float64))
        return [block["wo"](block["wv"](om)) for block in self.blocks]

    def forward(self, z, t, omega, extra_site=None, cond=None) -> T.Tensor:
        """Predict the noise for latents z at (1-based) timesteps t.

        ``cond``, the list ``condition(omega)`` returned, stands in for omega
        when given, so a reverse loop computes it once per draw.
        ``extra_site(block_index)`` lets a coupling wrapper inject an
        additional additive term after the conditioning site.
        """
        z_t = z if isinstance(z, T.Tensor) else T.Tensor(np.asarray(z, dtype=np.float64))
        t = np.atleast_1d(np.asarray(t, dtype=np.int64))
        if np.any(t < 1) or np.any(t > self.T_steps):
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


def denoise_loss(records, target: str, encoders, sampler, denoiser: Denoiser,
                 codec, schedule: DiffusionSchedule,
                 noise_rng: np.random.Generator) -> T.Tensor:
    """Assemble one multi-prompt training batch and return its loss."""
    from .conditioning import draw_conditioning_batch
    if not records:
        raise ValueError("empty batch")
    z0 = codec.encode(payload_batch(records, target))
    t = noise_rng.integers(1, schedule.T + 1, size=len(records))
    eps = noise_rng.standard_normal(z0.shape)
    z_t = q_sample(z0, t, eps, schedule)
    with T.no_grad():
        omega, _ = draw_conditioning_batch(sampler, encoders, records, target)
    eps_hat = denoiser.forward(z_t, t, omega)
    return noise_prediction_loss(eps_hat, eps)


def train_ldm(dataset, target: str, encoders, codec, schedule: DiffusionSchedule,
              epochs: int, batch_size: int = 64, lr: float = 2e-3,
              weight_decay: float = 1e-4, hidden: int = 96, n_blocks: int = 2,
              attn_dim: int = 32, seed: int = 0,
              weight_mode: str = "uniform") -> tuple[Denoiser, list[float]]:
    """Train one conditional generator for ``target`` under multi-prompt
    conditioning drawn from the other two modalities."""
    from .conditioning import SubsetSampler
    from .toydata import MODALITIES
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
    state = AdamWState()
    history = []
    for _ in range(epochs):
        perm = order.permutation(len(train))
        losses = []
        for lo in range(0, len(train), batch_size):
            batch = [train[i] for i in perm[lo:lo + batch_size]]
            loss = denoise_loss(batch, target, encoders, sampler, denoiser,
                                codec, schedule, noise_rng)
            losses.append(finite_loss(loss, f"diffusion ({target})"))
            denoiser.params.zero_grad()
            T.backward(loss)
            adamw_step(denoiser.params, state, lr=lr, weight_decay=weight_decay)
            T.reset_tape()
        history.append(float(np.mean(losses)))
    return denoiser, history


# ---------------------------------------------------------------------------
# ancestral sampling

def noise_stream(seed: int, modality: str) -> np.random.Generator:
    return stream(seed, f"diffusion-noise:{modality}")


def sample_latents(eps_model, schedule: DiffusionSchedule, omega: np.ndarray,
                   rng: np.random.Generator, latent_dim: int,
                   sigma_mode: str = "beta") -> np.ndarray:
    """Reverse process from pure noise, shared by single and joint sampling.

    ``eps_model(z, t, omega)`` returns the predicted noise tensor. A
    ``Denoiser`` computes its conditioning terms once for the draw and
    reuses them on every step. The step noise scale is sqrt(beta_t) by
    default, or the alpha-bar-ratio variant.
    """
    if sigma_mode not in ("beta", "alpha_bar_ratio"):
        raise ValueError(f"unknown sigma mode {sigma_mode!r}")
    omega = np.atleast_2d(np.asarray(omega, dtype=np.float64))
    b = len(omega)
    cond = None
    if isinstance(eps_model, Denoiser):
        with T.no_grad():
            cond = eps_model.condition(omega)
    z = rng.standard_normal((b, latent_dim))
    for t in range(schedule.T, 0, -1):
        t_arr = np.full(b, t, dtype=np.int64)
        with T.no_grad():
            eps_hat = (eps_model(z, t_arr, omega) if cond is None
                       else eps_model.forward(z, t_arr, omega, cond=cond))
        eps_hat = eps_hat.data if isinstance(eps_hat, T.Tensor) else np.asarray(eps_hat)
        ab = schedule.alpha_bars[t - 1]
        alpha = schedule.alphas[t - 1]
        beta = schedule.betas[t - 1]
        mean = (z - beta / np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(alpha)
        if t > 1:
            if sigma_mode == "beta":
                sigma = np.sqrt(beta)
            else:
                sigma = np.sqrt(beta * (1.0 - schedule.alpha_bars[t - 2]) / (1.0 - ab))
            z = mean + sigma * rng.standard_normal(z.shape)
        else:
            z = mean
    return z


def sample(denoiser: Denoiser, schedule: DiffusionSchedule, omega, codec,
           rng: np.random.Generator, sigma_mode: str = "beta"):
    """Generate decoded payloads for a batch of conditioning vectors."""
    z0 = sample_latents(denoiser, schedule, omega, rng, denoiser.latent_dim,
                        sigma_mode=sigma_mode)
    return codec.decode(z0)
