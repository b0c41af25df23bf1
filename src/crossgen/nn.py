"""Parameter containers, small layers and the AdamW update rule."""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import NumericError
from .tensor import Tensor, add, matmul


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


def finite_loss(loss: Tensor, what: str) -> float:
    """The scalar value of ``loss``; NumericError if it is not finite, so a
    training loop stops before the update would spread it to the weights."""
    value = loss.item()
    if not np.isfinite(value):
        raise NumericError(f"non-finite {what} loss")
    return value


def fill_missing_grads(params: ParameterSet) -> None:
    """Zero-fill gradients of parameters the current loss did not touch.

    Needed by training loops where alternating objectives use only part of
    a parameter set (e.g. one contrastive pair per step).
    """
    for _, t in params.items():
        if t.grad is None:
            t.grad = np.zeros_like(t.data)


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

    Parameters are updated in place in lexicographic order; gradients are
    left untouched (the caller zeroes them).
    """
    for name, p in params.items():
        if p.grad is None:
            raise ValueError(f"adamw_step: parameter {name!r} has no gradient")
    b1, b2 = betas
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = p.grad
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m[...] = b1 * m + (1.0 - b1) * g
        v[...] = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        p.data[...] = p.data - lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * p.data)
