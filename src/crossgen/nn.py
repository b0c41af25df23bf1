"""Parameter containers, small layers and the AdamW update rule."""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .errors import NumericError
from . import tensor as T
from .tensor import (Tensor, add, backward, embedding, l2_normalize, matmul, mul,
                     reset_tape, silu, tsum)
from .toydata import report_to_ids


class ParameterSet:
    """Named trainable tensors with deterministic (lexicographic) iteration."""

    def __init__(self):
        self._entries: dict[str, Tensor] = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._entries:
            raise ValueError(f"duplicate parameter name: {name}")
        tensor.requires_grad = True
        self._entries[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> list[str]:
        return sorted(self._entries)

    def items(self):
        for name in self.names():
            yield name, self._entries[name]

    def zero_grad(self) -> None:
        for _, t in self.items():
            t.grad = None

    def freeze(self) -> None:
        for _, t in self.items():
            t.requires_grad = False

    def unfreeze(self) -> None:
        for _, t in self.items():
            t.requires_grad = True

    def checksum(self) -> str:
        """SHA-256 over names, shapes and raw little-endian values."""
        h = hashlib.sha256()
        for name, t in self.items():
            h.update(name.encode())
            h.update(np.asarray(t.shape, dtype="<i8").tobytes())
            h.update(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
        return h.hexdigest()

    def state_arrays(self, prefix: str = "") -> dict[str, np.ndarray]:
        return {prefix + name: t.data.copy() for name, t in self.items()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray], prefix: str = "") -> None:
        """Fill every tensor from the arrays named ``prefix<name>``, which
        must name exactly the parameters of this set (ValueError otherwise)."""
        arrays = {k[len(prefix):]: v for k, v in arrays.items() if k.startswith(prefix)}
        missing = sorted(set(self._entries) - set(arrays))
        unexpected = sorted(set(arrays) - set(self._entries))
        if missing or unexpected:
            raise ValueError(f"state arrays do not match the parameters: "
                             f"missing {missing}, unexpected {unexpected}")
        for name, t in self.items():
            src = arrays[name]
            if src.shape != t.data.shape:
                raise ValueError(f"parameter {name}: shape {src.shape} != {t.data.shape}")
            t.data[...] = src


def init_normal(rng: np.random.Generator | None, std: float, shape) -> np.ndarray:
    """Normal(0, std) initial values, or zeros drawn from no stream when
    ``rng`` is None (a module built only to be filled from a checkpoint)."""
    if rng is None:
        return np.zeros(shape)
    return rng.normal(0.0, std, size=shape)


class Linear:
    """Affine map registered under ``<name>.w`` / ``<name>.b``; ``rng=None``
    allocates zeros without drawing."""

    def __init__(self, params: ParameterSet, name: str, n_in: int, n_out: int,
                 rng: np.random.Generator | None, zero_init: bool = False):
        w = init_normal(None if zero_init else rng, 1.0 / np.sqrt(n_in), (n_in, n_out))
        self.w = params.add(f"{name}.w", Tensor(w))
        self.b = params.add(f"{name}.b", Tensor(np.zeros(n_out)))

    def __call__(self, x: Tensor) -> Tensor:
        return add(matmul(x, self.w), self.b)

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``self(x)``'s arithmetic on a bare array, without a tape: the
        product written into ``out`` (fresh when None), then the bias."""
        y = np.matmul(x, self.w.data, out=out)
        y += self.b.data
        return y


def linear_grad(layer: Linear, x: np.ndarray, g: np.ndarray, input_grad: bool = True):
    """The tape's backward of ``layer(x)`` on arrays, for fused nodes: for
    the output gradient ``g``, (g @ w.T, x.T @ g, the bias gradient), each
    None where it is not wanted (the input's without ``input_grad``, a
    parameter's when it does not require a gradient)."""
    gx = g @ layer.w.data.T if input_grad else None
    gw = x.T @ g if layer.w.requires_grad else None
    if not layer.b.requires_grad:
        return gx, gw, None
    # add's rule sums the bias gradient over rows only when there are
    # several, so a single row keeps its -0.0s
    return gx, gw, g.sum(axis=0) if len(g) > 1 else g[0]


def mlp(layers, x: Tensor, unit: bool = False) -> Tensor:
    """The SiLU stack ``layers`` (a sequence of ``Linear``) on the tape: SiLU
    after every layer but the last, then unit rows when ``unit``."""
    for layer in layers[:-1]:
        x = silu(layer(x))
    y = layers[-1](x)
    return l2_normalize(y) if unit else y


#: values per row block of ``silu_apply``: a float64 block is 512 KiB,
#: sized to stay in L2. Elementwise work keeps its bits in any block; a
#: matmul over such small blocks does not (see ``SMALL_GEMM_MNK``).
BLOCK_VALUES = 2 ** 16

#: OpenBLAS runs a product with M*N*K at most this on its small-matrix
#: kernels, where a row's bits can depend on the row count M; above it a
#: row keeps its bits in any block. Measured: row blocks of a
#: (44800, 48) @ (48, 4) product give the one-shot bits at 5,300 rows and
#: more, and other bits at 5,000 rows and fewer.
SMALL_GEMM_MNK = 10 ** 6


def _block_rows(shape) -> int:
    """Rows of an array of ``shape`` that fit in one block (at least one)."""
    return max(1, BLOCK_VALUES // max(1, math.prod(shape[1:])))


def gemm_block_rows(layers) -> int:
    """The fewest rows at which every product of ``layers`` (a sequence of
    ``Linear``) has M*N*K of at least twice ``SMALL_GEMM_MNK``, so a row
    block of that many rows keeps each row's one-shot bits."""
    return -(-2 * SMALL_GEMM_MNK // min(layer.w.data.size for layer in layers))


def row_blocks(n: int, min_rows: int) -> list[slice]:
    """``range(n)`` as consecutive near-equal slices, as many as there can be
    with none below ``min_rows`` rows: one slice when ``n < 2 * min_rows``."""
    k = max(1, n // min_rows)
    edges = [n * i // k for i in range(k + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def silu_apply(h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``silu``'s bytes for a bare array, written into ``out``: ``h`` itself
    for a pass in place, or a fresh array when None (``h`` untouched). The
    kernel runs one row block at a time through one block-sized scratch
    array, so a pass in place allocates no full-size array."""
    if out is None:
        out = np.empty_like(h)
    if h.ndim == 0:
        T.silu_kernel(h, np.empty_like(h), out)
        return out
    rows = _block_rows(h.shape)
    s = np.empty((min(rows, len(h)),) + h.shape[1:], dtype=h.dtype)
    for lo in range(0, len(h), rows):
        block = slice(lo, lo + rows)
        T.silu_kernel(h[block], s[:len(h[block])], out[block])
    return out


def mlp_apply(layers, x: np.ndarray, unit: bool = False) -> np.ndarray:
    """``mlp(layers, x, unit)`` on bare arrays, with its bytes and without a
    tape. Each layer's product goes through the SiLU in place, so a layer
    holds its input and its product and no third full-size array."""
    for layer in layers[:-1]:
        h = layer.apply(x)
        x = silu_apply(h, out=h)
    y = layers[-1].apply(x)
    return T.l2_normalize_kernel(y)[0] if unit else y


def mlp_bce_loss(layers, x: np.ndarray, targets) -> Tensor:
    """``tmean(bce_with_logits(mlp(layers, Tensor(x)), targets))`` as one
    tape node over the layers' weights and biases, with its bytes. The
    forward runs on bare arrays and keeps each layer's input and SiLU
    operands; the backward runs the tape's rules in the tape's order, through
    the kernels the ``silu`` and ``bce_with_logits`` primitives call and
    ``linear_grad``."""
    inputs, acts = [x], []
    for layer in layers[:-1]:
        h = layer.apply(x)
        s = np.empty_like(h)
        x, h = T.silu_kernel(h, s)
        inputs.append(x)
        acts.append((h, s))
    logits = layers[-1].apply(x)
    losses, t = T.bce_with_logits_kernel(logits, targets)

    def bw(g):
        g = np.full(logits.shape, g.reshape(()) / logits.size)
        g = T.bce_with_logits_grad_kernel(logits, t, g)
        grads = []
        for i in reversed(range(len(layers))):
            g_x, g_w, g_b = linear_grad(layers[i], inputs[i], g, input_grad=i > 0)
            grads[:0] = (g_w, g_b)
            if i:
                g = T.silu_grad_kernel(*acts[i - 1], g_x)
        return grads

    params = tuple(p for layer in layers for p in (layer.w, layer.b))
    return T.record("mlp_bce_loss", params, losses.mean(), bw)


def token_ids(reports) -> tuple[np.ndarray, np.ndarray]:
    """The reports' token ids padded with 0 to MAX_REPORT_LEN, (B, 32), and
    their lengths, (B,); ValueError for a batch that is not a non-empty
    sequence of token sequences, or a report without tokens."""
    if not reports or isinstance(reports[0], str):
        raise ValueError("text payload batch must be a sequence of token sequences")
    ids = np.stack([report_to_ids(r) for r in reports])
    lengths = np.array([len(r) for r in reports])
    if not lengths.all():
        raise ValueError("a report needs at least one token")
    return ids, lengths


def _token_weights(ids: np.ndarray, lengths: np.ndarray, width: int) -> np.ndarray:
    # 1 / length at a report's token positions, 0 past them, not copied per width
    w = np.where(np.arange(ids.shape[1]) < lengths[:, None], 1.0 / lengths[:, None], 0.0)
    return np.broadcast_to(w[:, :, None], w.shape + (width,))


def mean_token_embedding(table: Tensor, ids: np.ndarray, lengths: np.ndarray) -> Tensor:
    """Each report's mean over the rows of ``table`` at its first
    ``lengths[i]`` token positions, as a (B, width) tensor. The weights come
    from positions, not ids: a report may hold the pad token."""
    weights = _token_weights(ids, lengths, table.shape[1])
    return tsum(mul(embedding(table, ids), Tensor(weights)), axis=1)


def mean_token_embedding_apply(table: Tensor, ids: np.ndarray,
                               lengths: np.ndarray) -> np.ndarray:
    """``mean_token_embedding``'s bytes as a bare array, without a tape."""
    return (table.data[ids] * _token_weights(ids, lengths, table.shape[1])).sum(axis=1)


def finite_loss(loss: Tensor, what: str) -> float:
    """The scalar value of ``loss``; NumericError if it is not finite, so a
    training loop stops before the update would spread it to the weights."""
    value = loss.item()
    if not np.isfinite(value):
        raise NumericError(f"non-finite {what} loss")
    return value


class AdamWState:
    """First/second moment buffers and the shared step counter."""

    def __init__(self):
        self.step = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def adamw_step(params: ParameterSet, state: AdamWState, lr: float,
               weight_decay: float = 0.0, betas: tuple[float, float] = (0.9, 0.999),
               eps: float = 1e-8) -> None:
    """One AdamW update with decoupled weight decay.

    Parameters are updated in lexicographic order; gradients are left
    untouched (the caller zeroes them). ``m``, ``v`` and the parameter are
    updated in place, with two scratch arrays per parameter, by the
    operations of the formula below in its order of evaluation, so the
    result has the formula's bits (c1 = 1 - b1 ** step, c2 = 1 - b2 ** step):
    p - lr * (m / c1 / (sqrt(v / c2) + eps) + weight_decay * p).
    """
    for name, p in params.items():
        if p.grad is None:
            raise ValueError(f"adamw_step: parameter {name!r} has no gradient")
    b1, b2 = betas
    state.step += 1
    t = state.step
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for name, p in params.items():
        g = p.grad
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        x = p.data
        a = np.multiply(1.0 - b1, g)        # m = b1 m + (1 - b1) g
        m *= b1
        m += a
        np.multiply(1.0 - b2, g, out=a)     # v = b2 v + ((1 - b2) g) g
        a *= g
        v *= b2
        v += a
        np.divide(v, c2, out=a)             # sqrt(v / c2) + eps
        np.sqrt(a, out=a)
        a += eps
        step = np.divide(m, c1)             # lr (m / c1 / (...) + wd p)
        step /= a
        np.multiply(weight_decay, x, out=a)
        step += a
        step *= lr
        x -= step


def train_epoch(params: ParameterSet, state: AdamWState, order: np.random.Generator,
                n: int, batch_size: int, batch_loss, what: str, lr: float,
                weight_decay: float, min_rows: int = 1,
                fill_missing: bool = False) -> float:
    """One epoch over ``n`` rows in the order of one permutation drawn from
    ``order``; returns the mean batch loss.

    For each batch of indices, in order, ``batch_loss(idx)`` builds the loss
    on the tape; the loss is checked finite (``finite_loss``), gradients are
    zeroed and recomputed, one AdamW step is taken and the tape is reset.
    Batches of fewer than ``min_rows`` rows are skipped before ``batch_loss``
    runs; if that leaves no batch, ValueError naming ``what``, so no stage
    ends an epoch without a step. ``fill_missing`` zero-fills the gradients
    of parameters the loss did not touch (an alignment pair of two views
    leaves the text encoder out); without it ``adamw_step`` rejects such a
    parameter.
    """
    perm = order.permutation(n)
    losses = []
    for lo in range(0, n, batch_size):
        idx = perm[lo:lo + batch_size]
        if len(idx) < min_rows:
            continue
        loss = batch_loss(idx)
        losses.append(finite_loss(loss, what))
        params.zero_grad()
        backward(loss)
        if fill_missing:
            for _, t in params.items():
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)
        adamw_step(params, state, lr=lr, weight_decay=weight_decay)
        reset_tape()
    if not losses:
        raise ValueError(f"{what}: no batch of at least {min_rows} rows "
                         f"among {n} rows at batch size {batch_size}")
    return float(np.mean(losses))
