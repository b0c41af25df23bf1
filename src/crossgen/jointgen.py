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


class CoupledDenoiser:
    """A frozen base denoiser plus one coupling site per block, the linear map
    wo(wv(partner)) of the partner trajectory's projected latent. The adapter
    output projections start at zero, so an untrained coupling reproduces
    the base exactly."""

    def __init__(self, base: Denoiser, params: ParameterSet, prefix: str,
                 coupling_dim: int, rng: np.random.Generator | None):
        self.base = base
        self.sites = []  # (wv, wo) per block
        attn = base.attn_dim
        for i in range(base.n_blocks):
            # retired query/key projections: draw and discard, so later inits match
            if rng is not None:
                for n_in in (base.hidden, coupling_dim):
                    Linear(ParameterSet(), "retired", n_in, attn, rng)
            self.sites.append((
                Linear(params, f"{prefix}.block{i}.wv", coupling_dim, attn, rng),
                Linear(params, f"{prefix}.block{i}.wo", attn, base.hidden, rng,
                       zero_init=True)))

    def forward(self, z, t, omega, partner) -> T.Tensor:
        """The base forward plus the coupling sites, as one tape node over
        the base's and the sites' parameters and the partner
        (``Denoiser.forward``)."""
        return self.base.forward(z, t, omega, self.sites, partner)

    def array_forward(self, cond: list[np.ndarray], t_max: int):
        """``forward`` without a tape, on bare arrays, with its bytes (see
        ``Denoiser.array_forward``): returns ``eps(z, t, partner)`` for the
        partner trajectory's projected latent."""
        eps = self.base.array_forward(cond, t_max)
        sites = self.sites

        def coupled(z, t, partner):
            def site(i, buf):  # wo(wv(partner)), wo's product written into buf
                wv, wo = sites[i]
                return wo.apply(wv.apply(partner), out=buf)

            return eps(z, t, site)

        return coupled


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


def coupled_pair_loss(components: JointComponents, z_t: dict, t: np.ndarray,
                      eps: dict, omega: np.ndarray, lam: float = 0.1,
                      tau: float = 0.07) -> T.Tensor:
    """Sum of the two coupled noise-prediction losses plus lam times the
    symmetric InfoNCE between the projected latents. Both trajectories sit
    at the timesteps ``t``."""
    m_i, m_j = components.pair
    p = {m: components.projections[m].forward(z_t[m]) for m in components.pair}
    loss_i = noise_prediction_loss(
        components.coupled[m_i].forward(z_t[m_i], t, omega, p[m_j]), eps[m_i])
    loss_j = noise_prediction_loss(
        components.coupled[m_j].forward(z_t[m_j], t, omega, p[m_i]), eps[m_j])
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
    noise predictions are ``CoupledDenoiser.array_forward`` and the
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
    steps = reverse_steps(schedule, sigma_mode)
    omega = np.atleast_2d(np.asarray(omega, dtype=np.float64))
    b = len(omega)
    rngs = {m: noise_stream(seed, m) for m in pair}
    z = {m: rngs[m].standard_normal((b, components.coupled[m].base.latent_dim)) for m in pair}
    with step_pool(b) as pool:  # each thread steps one stream's b rows
        eps = {m: components.coupled[m].array_forward(
                   components.coupled[m].base.array_condition(omega), schedule.T)
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
