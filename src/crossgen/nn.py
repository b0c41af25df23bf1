"""Parameter containers, small layers and the AdamW update rule."""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import NumericError
from .tensor import Tensor, add, backward, embedding, matmul, mul, reset_tape, tsum
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

    def num_values(self) -> int:
        return sum(t.size for _, t in self.items())

    def checksum(self) -> str:
        """SHA-256 over names, shapes and raw little-endian values."""
        h = hashlib.sha256()
        for name, t in self.items():
            h.update(name.encode())
            h.update(np.asarray(t.shape, dtype="<i8").tobytes())
            h.update(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
        return h.hexdigest()

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.items()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Fill every tensor from ``arrays``, which must name exactly the
        parameters of this set (ValueError otherwise)."""
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


def token_ids(reports) -> tuple[np.ndarray, np.ndarray]:
    """The reports' token ids padded with 0 to MAX_REPORT_LEN, (B, 32), and
    their lengths, (B,); ValueError for a report without tokens."""
    ids = np.stack([report_to_ids(r) for r in reports])
    lengths = np.array([len(r) for r in reports])
    if not lengths.all():
        raise ValueError("a report needs at least one token")
    return ids, lengths


def mean_token_embedding(table: Tensor, ids: np.ndarray, lengths: np.ndarray) -> Tensor:
    """Each report's mean over the rows of ``table`` at its first
    ``lengths[i]`` token positions, as a (B, width) tensor. The weights come
    from positions, not ids: a report may hold the pad token."""
    lengths = lengths[:, None]
    w = np.where(np.arange(ids.shape[1]) < lengths, 1.0 / lengths, 0.0)
    weights = np.broadcast_to(w[:, :, None], w.shape + (table.shape[1],))
    return tsum(mul(embedding(table, ids), Tensor(weights)), axis=1)


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
