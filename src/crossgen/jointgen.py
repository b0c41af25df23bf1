"""Coupled joint generation: frozen per-modality diffusion backbones plus
trainable projection encoders and coupling adapters that let two concurrent
reverse processes condition on each other's latent state. Each adapter is
one-token cross-attention onto the partner's projected latent, computed in
its exact form: the learned linear map wo(wv(partner))."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .bridging import symmetric_loss
from .conditioning import SubsetSampler, draw_conditioning_batch
from .diffusion import (Denoiser, DiffusionSchedule, noise_prediction_loss,
                        noise_stream, q_sample)
from .errors import NumericError
from .nn import AdamWState, Linear, ParameterSet, adamw_step, finite_loss
from .rng import stream
from .toydata import MODALITIES, payload_batch


class ProjectionEncoder:
    """Two-layer MLP from a diffusion latent into the unit-norm coupling space."""

    def __init__(self, params: ParameterSet, prefix: str, latent_dim: int,
                 coupling_dim: int, hidden: int, rng: np.random.Generator):
        self.l1 = Linear(params, f"{prefix}.l1", latent_dim, hidden, rng)
        self.l2 = Linear(params, f"{prefix}.l2", hidden, coupling_dim, rng)
        self.latent_dim = latent_dim
        self.coupling_dim = coupling_dim

    def forward(self, z) -> T.Tensor:
        z_t = z if isinstance(z, T.Tensor) else T.Tensor(np.asarray(z, dtype=np.float64))
        if z_t.shape[-1] != self.latent_dim:
            raise ValueError(f"latent width {z_t.shape[-1]} != {self.latent_dim}")
        return T.l2_normalize(self.l2(T.silu(self.l1(z_t))))

    def project(self, z: np.ndarray) -> np.ndarray:
        with T.no_grad():
            return self.forward(z).data


class CoupledDenoiser:
    """A frozen base denoiser plus one coupling site per block, the linear map
    wo(wv(partner)) of the partner trajectory's projected latent. The adapter
    output projections start at zero, so an untrained coupling reproduces
    the base exactly."""

    def __init__(self, base: Denoiser, params: ParameterSet, prefix: str,
                 coupling_dim: int, rng: np.random.Generator | None):
        self.base = base
        self.coupling_dim = coupling_dim
        self.adapters = []
        attn = base.attn_dim
        for i in range(base.n_blocks):
            # retired query/key projections: draw and discard, so later inits match
            if rng is not None:
                for n_in in (base.hidden, coupling_dim):
                    Linear(ParameterSet(), "retired", n_in, attn, rng)
            self.adapters.append({
                "wv": Linear(params, f"{prefix}.block{i}.wv", coupling_dim, attn, rng),
                "wo": Linear(params, f"{prefix}.block{i}.wo", attn, base.hidden, rng,
                             zero_init=True),
            })

    def _site(self, i: int, partner: T.Tensor) -> T.Tensor:
        ad = self.adapters[i]
        return ad["wo"](ad["wv"](partner))

    def forward(self, z, t, omega, partner, cond=None) -> T.Tensor:
        """The base forward plus the coupling sites; ``cond`` is the base's
        ``condition(omega)``, computed once per draw by the sampler."""
        p = partner if isinstance(partner, T.Tensor) else T.Tensor(np.asarray(partner, dtype=np.float64))
        return self.base.forward(z, t, omega, extra_site=lambda i: self._site(i, p),
                                 cond=cond)


@dataclass
class JointComponents:
    """Everything stage three trains for one ordered modality pair."""
    pair: tuple[str, str]
    coupled: dict[str, CoupledDenoiser]
    projections: dict[str, ProjectionEncoder]
    trainable: ParameterSet


def build_joint(pair: tuple[str, str], bases: dict[str, Denoiser],
                coupling_dim: int = 16, proj_hidden: int = 32,
                seed: int | None = 0) -> JointComponents:
    """Projections and couplings for ``pair``; ``seed=None`` allocates zero
    tensors without drawing, for components that a checkpoint load fills."""
    m_i, m_j = pair
    params = ParameterSet()
    rng = None if seed is None else stream(seed, f"joint-init:{m_i}+{m_j}")
    projections = {
        m: ProjectionEncoder(params, f"proj.{m}", bases[m].latent_dim,
                             coupling_dim, proj_hidden, rng)
        for m in pair
    }
    coupled = {
        m_i: CoupledDenoiser(bases[m_i], params, f"couple.{m_i}", coupling_dim, rng),
        m_j: CoupledDenoiser(bases[m_j], params, f"couple.{m_j}", coupling_dim, rng),
    }
    return JointComponents(pair=(m_i, m_j), coupled=coupled,
                           projections=projections, trainable=params)


def coupled_pair_loss(components: JointComponents, z_t: dict, t: dict,
                      eps: dict, omega: np.ndarray, lam: float = 0.1,
                      tau: float = 0.07) -> T.Tensor:
    """Sum of the two coupled noise-prediction losses plus lam times the
    symmetric InfoNCE between the projected latents. Both trajectories must
    sit at the same timesteps."""
    m_i, m_j = components.pair
    if np.any(np.asarray(t[m_i]) != np.asarray(t[m_j])):
        raise ValueError("coupled trajectories must share the same timestep")
    p = {m: components.projections[m].forward(z_t[m]) for m in components.pair}
    loss_i = noise_prediction_loss(
        components.coupled[m_i].forward(z_t[m_i], t[m_i], omega, p[m_j]), eps[m_i])
    loss_j = noise_prediction_loss(
        components.coupled[m_j].forward(z_t[m_j], t[m_j], omega, p[m_i]), eps[m_j])
    contrast = symmetric_loss(p[m_i], p[m_j], tau)
    return T.add(T.add(loss_i, loss_j), T.mul(contrast, T.Tensor(float(lam))))


def train_joint(dataset, pair: tuple[str, str], encoders, codecs: dict,
                bases: dict[str, Denoiser], schedule: DiffusionSchedule,
                epochs: int, batch_size: int = 64, lr: float = 1e-3,
                weight_decay: float = 1e-4, coupling_dim: int = 16,
                proj_hidden: int = 32, lam: float = 0.1, tau: float = 0.07,
                seed: int = 0) -> tuple[JointComponents, list[float]]:
    """Train projections and couplings for one target pair; the base
    denoisers are frozen and verified unchanged."""
    train = dataset.subset("train")
    if not train:
        raise ValueError("empty dataset")
    m_i, m_j = pair
    others = [m for m in MODALITIES if m not in pair]
    before = {m: bases[m].params.checksum() for m in pair}
    for m in pair:
        bases[m].params.freeze()
    try:
        components = build_joint(pair, bases, coupling_dim=coupling_dim,
                                 proj_hidden=proj_hidden, seed=seed)
        sampler = SubsetSampler(others, stream(seed, f"subset:{m_i}+{m_j}"))
        noise_rng = stream(seed, f"train-noise:{m_i}+{m_j}")
        order = stream(seed, f"train-batches:{m_i}+{m_j}")
        state = AdamWState()
        history = []
        for _ in range(epochs):
            perm = order.permutation(len(train))
            losses = []
            for lo in range(0, len(train), batch_size):
                batch = [train[i] for i in perm[lo:lo + batch_size]]
                if len(batch) < 2:
                    continue
                t_shared = noise_rng.integers(1, schedule.T + 1, size=len(batch))
                z_t, t_map, eps_map = {}, {}, {}
                for m in pair:
                    z0 = codecs[m].encode(payload_batch(batch, m))
                    e = noise_rng.standard_normal(z0.shape)
                    z_t[m] = q_sample(z0, t_shared, e, schedule)
                    t_map[m] = t_shared
                    eps_map[m] = e
                with T.no_grad():
                    omega, _ = draw_conditioning_batch(sampler, encoders, batch,
                                                       target=m_i)
                loss = coupled_pair_loss(components, z_t, t_map, eps_map, omega,
                                         lam=lam, tau=tau)
                losses.append(finite_loss(loss, f"joint ({m_i}+{m_j})"))
                components.trainable.zero_grad()
                T.backward(loss)
                adamw_step(components.trainable, state, lr=lr,
                           weight_decay=weight_decay)
                T.reset_tape()
            history.append(float(np.mean(losses)))
    finally:
        for m in pair:
            bases[m].params.unfreeze()
    after = {m: bases[m].params.checksum() for m in pair}
    if after != before:
        raise NumericError("joint training modified a frozen base denoiser")
    return components, history


def joint_sample(components: JointComponents, schedule: DiffusionSchedule,
                 omega, codecs: dict, seed: int,
                 sigma_mode: str = "beta") -> dict:
    """Advance both reverse processes in lockstep over t = T..1.

    Each base denoiser's conditioning terms are computed once for the draw.
    At every step each denoiser's coupling sites map the partner's current
    latent, projected once and shared, through their linear wo(wv(.)). Noise streams are
    per modality and match what independent sampling with the same seed
    would draw, so zeroed couplings reproduce independent generation."""
    m_i, m_j = components.pair
    omega = np.atleast_2d(np.asarray(omega, dtype=np.float64))
    b = len(omega)
    with T.no_grad():
        cond = {m: components.coupled[m].base.condition(omega) for m in components.pair}
    rngs = {m: noise_stream(seed, m) for m in components.pair}
    z = {m: rngs[m].standard_normal((b, components.coupled[m].base.latent_dim))
         for m in components.pair}
    if sigma_mode not in ("beta", "alpha_bar_ratio"):
        raise ValueError(f"unknown sigma mode {sigma_mode!r}")
    for t in range(schedule.T, 0, -1):
        t_arr = np.full(b, t, dtype=np.int64)
        proj = {m: components.projections[m].project(z[m]) for m in components.pair}
        with T.no_grad():
            eps_hat = {
                m_i: components.coupled[m_i].forward(z[m_i], t_arr, omega, proj[m_j],
                                                     cond=cond[m_i]).data,
                m_j: components.coupled[m_j].forward(z[m_j], t_arr, omega, proj[m_i],
                                                     cond=cond[m_j]).data,
            }
        ab = schedule.alpha_bars[t - 1]
        alpha = schedule.alphas[t - 1]
        beta = schedule.betas[t - 1]
        if sigma_mode == "beta":
            sigma = np.sqrt(beta)
        else:
            sigma = np.sqrt(beta * (1.0 - (schedule.alpha_bars[t - 2] if t > 1 else 1.0))
                            / (1.0 - ab))
        for m in components.pair:
            mean = (z[m] - beta / np.sqrt(1.0 - ab) * eps_hat[m]) / np.sqrt(alpha)
            z[m] = mean + sigma * rngs[m].standard_normal(z[m].shape) if t > 1 else mean
    return {m: codecs[m].decode(z[m]) for m in components.pair}


def zero_couplings(components: JointComponents) -> None:
    """Zero every adapter so joint sampling degenerates to independence."""
    for name in components.trainable.names():
        if name.startswith("couple."):
            components.trainable[name].data[...] = 0.0
