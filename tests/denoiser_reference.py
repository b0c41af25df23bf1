"""The denoiser's per-primitive tape forward: the reference oracle that the
fused training node (``Denoiser.forward``) and the samplers' array step
(``Denoiser.array_forward``) are pinned against, byte for byte.

Each operation records its own primitive node, about 33 at two blocks, in
the order the fused node's backward replays in reverse."""

import numpy as np

from crossgen import tensor as T


def condition(den, omega) -> list:
    """Each block's conditioning term wo(wv(omega)) on the tape, in block order."""
    om = omega if isinstance(omega, T.Tensor) else T.Tensor(omega)
    return [block["wo"](block["wv"](om)) for block in den.blocks]


def reference_forward(den, z, t, omega, sites=(), partner=None) -> T.Tensor:
    """``den.forward(z, t, omega, sites, partner)`` one primitive at a time:
    block i adds wo(wv(partner)) after its conditioning site for the
    coupling site ``sites[i]`` = (wv, wo) of ``jointgen.build_joint``."""
    z_t = z if isinstance(z, T.Tensor) else T.Tensor(z)
    t = np.asarray(t, dtype=np.int64).reshape(-1)
    p = T.Tensor(partner) if sites and not isinstance(partner, T.Tensor) else partner
    cond = condition(den, omega)
    temb = T.embedding(den.time_table, t - 1)
    h = den.in_proj(z_t)
    for i, block in enumerate(den.blocks):
        r = h
        h = T.add(T.layer_norm(h), temb)
        h = T.add(T.silu(block["fc1"](h)), cond[i])
        if sites:
            wv, wo = sites[i]
            h = T.add(h, wo(wv(p)))
        h = T.add(r, T.silu(block["fc2"](h)))
    return den.out_proj(h)
