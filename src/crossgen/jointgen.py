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
from .diffusion import (Denoiser, DiffusionSchedule, noise_prediction_loss,
                        noise_stream, reverse_steps, reverse_update, stage_batches,
                        step_noise, step_pool)
from .errors import NumericError
from .nn import AdamWState, Linear, ParameterSet, mlp, mlp_apply, train_epoch
from .rng import stream


class ProjectionEncoder:
    """Two-layer MLP from a diffusion latent into the unit-norm coupling space."""

    def __init__(self, params: ParameterSet, prefix: str, latent_dim: int,
                 coupling_dim: int, hidden: int, rng: np.random.Generator):
        self.layers = (Linear(params, f"{prefix}.l1", latent_dim, hidden, rng),
                       Linear(params, f"{prefix}.l2", hidden, coupling_dim, rng))
        self.latent_dim = latent_dim

    def _check_width(self, z: np.ndarray) -> None:
        if z.shape[-1] != self.latent_dim:
            raise ValueError(f"latent width {z.shape[-1]} != {self.latent_dim}")

    def forward(self, z) -> T.Tensor:
        z_t = z if isinstance(z, T.Tensor) else T.Tensor(z)
        self._check_width(z_t.data)
        return mlp(self.layers, z_t, unit=True)

    def project(self, z: np.ndarray) -> np.ndarray:
        """``forward``'s bytes without a tape, on a bare array."""
        z = np.asarray(z, dtype=np.float64)
        self._check_width(z)
        return mlp_apply(self.layers, z, unit=True)


@dataclass
class JointComponents:
    """Everything stage three trains for one ordered modality pair, and the
    frozen bases it couples. ``sites[m]`` holds one (wv, wo) per block of
    ``bases[m]``: the map wo(wv(partner)) of the partner's projected latent,
    wo zero at init, so an untrained coupling reproduces the base exactly."""
    pair: tuple[str, str]
    bases: dict[str, Denoiser]
    sites: dict[str, list[tuple[Linear, Linear]]]
    projections: dict[str, ProjectionEncoder]
    trainable: ParameterSet


def build_joint(pair: tuple[str, str], bases: dict[str, Denoiser],
                coupling_dim: int = 16, proj_hidden: int = 32,
                seed: int | None = 0) -> JointComponents:
    """Projections and coupling sites for ``pair``; ``seed=None`` allocates
    zero tensors without drawing, for components that a checkpoint load fills."""
    m_i, m_j = pair
    params = ParameterSet()
    rng = None if seed is None else stream(seed, f"joint-init:{m_i}+{m_j}")
    projections = {
        m: ProjectionEncoder(params, f"proj.{m}", bases[m].latent_dim,
                             coupling_dim, proj_hidden, rng)
        for m in pair
    }
    sites = {m: [] for m in pair}
    for m in pair:
        base = bases[m]
        for i in range(base.n_blocks):
            # retired query/key projections: draw and discard, so later inits match
            if rng is not None:
                for n_in in (base.hidden, coupling_dim):
                    Linear(ParameterSet(), "retired", n_in, base.attn_dim, rng)
            sites[m].append((
                Linear(params, f"couple.{m}.block{i}.wv", coupling_dim, base.attn_dim, rng),
                Linear(params, f"couple.{m}.block{i}.wo", base.attn_dim, base.hidden, rng,
                       zero_init=True)))
    return JointComponents(pair=(m_i, m_j), bases={m: bases[m] for m in pair},
                           sites=sites, projections=projections, trainable=params)


def coupled_pair_loss(components: JointComponents, z_t: dict, t: np.ndarray,
                      eps: dict, omega: np.ndarray, lam: float = 0.1,
                      tau: float = 0.07) -> T.Tensor:
    """Sum of the two coupled noise-prediction losses plus lam times the
    symmetric InfoNCE between the projected latents. Both trajectories sit
    at the timesteps ``t``."""
    m_i, m_j = components.pair
    bases, sites = components.bases, components.sites
    p = {m: components.projections[m].forward(z_t[m]) for m in components.pair}
    loss_i = noise_prediction_loss(
        bases[m_i].forward(z_t[m_i], t, omega, sites[m_i], p[m_j]), eps[m_i])
    loss_j = noise_prediction_loss(
        bases[m_j].forward(z_t[m_j], t, omega, sites[m_j], p[m_i]), eps[m_j])
    contrast = symmetric_loss(p[m_i], p[m_j], tau)
    return T.add(T.add(loss_i, loss_j), T.mul(contrast, T.Tensor(float(lam))))


def train_joint(dataset, pair: tuple[str, str], encoders, codecs: dict,
                bases: dict[str, Denoiser], schedule: DiffusionSchedule,
                epochs: int, batch_size: int = 64, lr: float = 1e-3,
                weight_decay: float = 1e-4, coupling_dim: int = 16,
                proj_hidden: int = 32, lam: float = 0.1, tau: float = 0.07,
                seed: int = 0) -> tuple[JointComponents, list[float], dict[str, str]]:
    """Train projections and couplings for one target pair on the frozen
    inputs and draws of ``diffusion.stage_batches``; the base denoisers are
    frozen and verified unchanged. Returns the components, the loss history
    and each base's ``params.checksum()``, the same before and after
    training."""
    n, order, draw = stage_batches(dataset, pair, encoders, codecs, schedule,
                                   batch_size, seed)
    before = {m: bases[m].params.checksum() for m in pair}
    for m in pair:
        bases[m].params.freeze()
    try:
        components = build_joint(pair, bases, coupling_dim=coupling_dim,
                                 proj_hidden=proj_hidden, seed=seed)
        state = AdamWState()

        def batch_loss(idx):
            t, z_t, eps, omega = draw(idx)
            return coupled_pair_loss(components, z_t, t, eps, omega, lam=lam, tau=tau)

        history = [train_epoch(components.trainable, state, order, n, batch_size,
                               batch_loss, f"joint ({'+'.join(pair)})", lr,
                               weight_decay, min_rows=2)
                   for _ in range(epochs)]
    finally:
        for m in pair:
            bases[m].params.unfreeze()
    after = {m: bases[m].params.checksum() for m in pair}
    if after != before:
        raise NumericError("joint training modified a frozen base denoiser")
    return components, history, before


def joint_sample(components: JointComponents, schedule: DiffusionSchedule,
                 omega, codecs: dict, seed: int,
                 sigma_mode: str = "beta") -> dict:
    """Advance both reverse processes in lockstep over t = T..1.

    Each base denoiser's conditioning terms are computed once for the draw.
    At every step each denoiser's coupling sites map the partner's current
    latent, projected once and shared, through their linear wo(wv(.)), and
    each stream takes the ``reverse_update`` step of single sampling. The
    noise predictions are ``Denoiser.array_forward`` with the sites and the
    projections ``ProjectionEncoder.project``, both with the bytes of their
    tape forwards. Noise streams are per modality and match what independent
    sampling with the same seed would draw, so zeroed couplings reproduce
    independent generation.

    Within a step the two streams share nothing they write, so from
    ``diffusion.THREAD_MIN_ROWS`` rows on, with at least two CPUs, the second
    stream steps on one worker thread while the calling thread steps the
    first (numpy releases the GIL in their GEMMs and ufunc loops), when
    ``diffusion.step_pool`` gives a worker. Each stream issues the same numpy
    calls either way, so the output is the same."""
    pair = m_i, m_j = components.pair
    bases, sites = components.bases, components.sites
    steps = reverse_steps(schedule, sigma_mode)
    omega = np.atleast_2d(np.asarray(omega, dtype=np.float64))
    b = len(omega)
    rngs = {m: noise_stream(seed, m) for m in pair}
    z = {m: rngs[m].standard_normal((b, bases[m].latent_dim)) for m in pair}
    with step_pool(b) as pool:  # each thread steps one stream's b rows
        eps = {m: bases[m].array_forward(bases[m].array_condition(omega), schedule.T, sites[m])
               for m in pair}

        def advance(m, z_m, step, partner_proj):  # one stream's step
            return reverse_update(z_m, eps[m](z_m, step[0], partner_proj), step,
                                  step_noise(rngs[m], z_m.shape, step))

        for step in steps:
            proj = {m: components.projections[m].project(z[m]) for m in pair}
            if pool is None:
                z = {m_i: advance(m_i, z[m_i], step, proj[m_j]),
                     m_j: advance(m_j, z[m_j], step, proj[m_i])}
            else:
                future = pool.submit(advance, m_j, z[m_j], step, proj[m_i])
                z_i = advance(m_i, z[m_i], step, proj[m_j])
                # result() re-raises the worker's exception; z is rebound
                # only once both streams have finished the step
                z = {m_i: z_i, m_j: future.result()}
    return {m: codecs[m].decode(z[m]) for m in pair}
