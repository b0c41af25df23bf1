"""Dense float64 tensors with reverse-mode automatic differentiation.

Every primitive records a node on a global append-only tape when any input
requires a gradient. ``backward`` walks the tape in reverse creation order
(a valid topological order) and accumulates gradients additively into every
requires-grad tensor it reaches. Broadcasting is restricted to leading-1
axes so the backward rules stay small and auditable.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

__all__ = [
    "Tensor", "Tape", "tape", "reset_tape", "no_grad", "backward",
    "grad_check", "PRIMITIVE_OPS",
    "add", "sub", "neg", "mul", "div", "matmul", "transpose", "reshape",
    "concat", "slice_axis", "tsum", "tmean", "exp", "log", "sqrt", "silu",
    "sigmoid", "softmax", "log_softmax", "layer_norm", "embedding",
    "l2_normalize", "bce_with_logits",
]


class Tensor:
    """A dense float64 array, optionally carrying a gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.array(data, dtype=np.float64, copy=True)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _non_scalar(self)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar; all routed through the recorded primitives
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __neg__(self):
        return neg(self)


def _non_scalar(t: Tensor):
    raise ValueError(f"item() on non-scalar tensor of shape {t.shape}")


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


class _Node:
    __slots__ = ("op", "inputs", "output", "backward_fn")

    def __init__(self, op, inputs, output, backward_fn):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Append-only record of primitive applications, in creation order."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def __len__(self) -> int:
        return len(self.nodes)


_TAPE = Tape()
_GRAD_ENABLED = [True]


def tape() -> Tape:
    return _TAPE


def reset_tape() -> None:
    _TAPE.nodes.clear()


class no_grad:
    """Context manager that suppresses tape recording (inference mode)."""

    def __enter__(self):
        self._prev = _GRAD_ENABLED[0]
        _GRAD_ENABLED[0] = False
        return self

    def __exit__(self, *exc):
        _GRAD_ENABLED[0] = self._prev
        return False


def _record(op: str, inputs: tuple[Tensor, ...], out_data: np.ndarray, backward_fn) -> Tensor:
    # The primitive just computed out_data, so wrap it without the defensive
    # copy Tensor() makes; full reductions yield numpy scalars, hence asarray.
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(out_data, dtype=np.float64)
    out.grad = None
    out.requires_grad = False
    if _GRAD_ENABLED[0] and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _TAPE.nodes.append(_Node(op, inputs, out, backward_fn))
    return out


# ---------------------------------------------------------------------------
# broadcasting helpers (leading-1 axes only)

def _pad_shape(shape: tuple[int, ...], rank: int) -> tuple[int, ...]:
    return (1,) * (rank - len(shape)) + shape


def _check_leading_broadcast(op: str, sa: tuple[int, ...], sb: tuple[int, ...]) -> tuple[int, ...]:
    # fast paths: equal shapes, and a (..., n) + (n,) bias whose leading axes
    # all exceed 1 (a size-1 one needs the general rule, which may reject it)
    if sa == sb or (len(sb) == 1 and sa and sa[-1] == sb[0] and 1 not in sa[:-1]):
        return sa
    rank = max(len(sa), len(sb))
    pa, pb = _pad_shape(sa, rank), _pad_shape(sb, rank)
    out = []
    for x, y in zip(pa, pb):
        if x == y:
            out.append(x)
        elif x == 1 or y == 1:
            out.append(max(x, y))
        else:
            raise ShapeError(op, sa, sb)
    out = tuple(out)
    for padded, orig in ((pa, sa), (pb, sb)):
        bc = [i for i in range(rank) if padded[i] == 1 and out[i] > 1]
        if bc and bc != list(range(len(bc))):
            raise ShapeError(op, sa, sb)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    padded = _pad_shape(shape, g.ndim)
    axes = tuple(i for i in range(g.ndim) if padded[i] == 1 and g.shape[i] > 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise primitives

def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_leading_broadcast("add", a.shape, b.shape)
    out = a.data + b.data

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record("add", (a, b), out, bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_leading_broadcast("sub", a.shape, b.shape)
    out = a.data - b.data

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _record("sub", (a, b), out, bw)


def neg(a: Tensor) -> Tensor:
    a = _wrap(a)
    return _record("neg", (a,), -a.data, lambda g: (-g,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_leading_broadcast("mul", a.shape, b.shape)
    out = a.data * b.data

    def bw(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _record("mul", (a, b), out, bw)


def div(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_leading_broadcast("div", a.shape, b.shape)
    out = a.data / b.data

    def bw(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return _record("div", (a, b), out, bw)


def exp(a: Tensor) -> Tensor:
    a = _wrap(a)
    out = np.exp(a.data)
    return _record("exp", (a,), out, lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    a = _wrap(a)
    return _record("log", (a,), np.log(a.data), lambda g: (g / a.data,))


def sqrt(a: Tensor) -> Tensor:
    a = _wrap(a)
    out = np.sqrt(a.data)
    return _record("sqrt", (a,), out, lambda g: (g / (2.0 * out),))


def silu(a: Tensor) -> Tensor:
    a = _wrap(a)
    s = 1.0 / (1.0 + np.exp(-a.data))
    out = a.data * s

    def bw(g):
        return (g * (s + a.data * s * (1.0 - s)),)

    return _record("silu", (a,), out, bw)


def sigmoid(a: Tensor) -> Tensor:
    a = _wrap(a)
    s = 1.0 / (1.0 + np.exp(-a.data))
    return _record("sigmoid", (a,), s, lambda g: (g * s * (1.0 - s),))


# ---------------------------------------------------------------------------
# shape primitives

def reshape(a: Tensor, shape) -> Tensor:
    a = _wrap(a)
    shape = tuple(shape)
    out = a.data.reshape(shape)
    return _record("reshape", (a,), out, lambda g: (g.reshape(a.shape),))


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    a = _wrap(a)
    if a.data.ndim < 2:
        raise ShapeError("transpose", a.shape)
    out = np.swapaxes(a.data, -1, -2)
    return _record("transpose", (a,), out, lambda g: (np.swapaxes(g, -1, -2),))


def concat(tensors, axis: int = 0) -> Tensor:
    ts = [_wrap(t) for t in tensors]
    if not ts:
        raise ShapeError("concat", ())
    ranks = {t.data.ndim for t in ts}
    if len(ranks) != 1:
        raise ShapeError("concat", *[t.shape for t in ts])
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        return tuple(
            np.take(g, range(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(len(ts))
        )

    return _record("concat", tuple(ts), out, bw)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    a = _wrap(a)
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = a.data[idx]

    def bw(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return (full,)

    return _record("slice", (a,), out, bw)


# ---------------------------------------------------------------------------
# reductions

def tsum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is None:
            return (np.full(a.shape, g if np.isscalar(g) else g.reshape(())),)
        ge = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(ge, a.shape).copy(),)

    return _record("sum", (a,), out, bw)


def tmean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    n = a.data.size if axis is None else a.shape[axis]

    def bw(g):
        if axis is None:
            return (np.full(a.shape, (g if np.isscalar(g) else g.reshape(())) / n),)
        ge = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(ge / n, a.shape).copy(),)

    return _record("mean", (a,), out, bw)


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. Supports 2D @ 2D, 3D @ 2D and 3D @ 3D (shared batch)."""
    a, b = _wrap(a), _wrap(b)
    da, db = a.data.ndim, b.data.ndim
    ok = (da, db) in ((2, 2), (3, 2), (3, 3))
    if not ok or a.shape[-1] != b.shape[-2] or (da == 3 and db == 3 and a.shape[0] != b.shape[0]):
        raise ShapeError("matmul", a.shape, b.shape)
    out = a.data @ b.data

    def bw(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        if db == 2 and da == 3:
            gb = np.tensordot(a.data, g, axes=([0, 1], [0, 1]))
        else:
            gb = np.swapaxes(a.data, -1, -2) @ g
        return ga, gb

    return _record("matmul", (a, b), out, bw)


# ---------------------------------------------------------------------------
# normalizations and lookups (fused primitives over the last axis)

def softmax(a: Tensor) -> Tensor:
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return ((g - dot) * out,)

    return _record("softmax", (a,), out, bw)


def log_softmax(a: Tensor) -> Tensor:
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse
    sm = np.exp(out)

    def bw(g):
        return (g - sm * g.sum(axis=-1, keepdims=True),)

    return _record("log_softmax", (a,), out, bw)


def layer_norm(a: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean, unit variance (no affine part)."""
    a = _wrap(a)
    n = a.shape[-1]
    # sum / n is what ndarray.mean computes, without its dispatch overhead
    mu = a.data.sum(axis=-1, keepdims=True) / n
    xc = a.data - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv

    def bw(g):
        gs = g.sum(axis=-1, keepdims=True)
        gx = (g * xhat).sum(axis=-1, keepdims=True)
        return (inv / n * (n * g - gs - xhat * gx),)

    return _record("layer_norm", (a,), xhat, bw)


def l2_normalize(a: Tensor, eps: float = 1e-12) -> Tensor:
    """Scale rows (last axis) to unit Euclidean norm."""
    a = _wrap(a)
    norm = np.sqrt((a.data * a.data).sum(axis=-1, keepdims=True) + eps)
    out = a.data / norm

    def bw(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return ((g - out * dot) / norm,)

    return _record("l2_normalize", (a,), out, bw)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: result shape = ids.shape + (table_width,)."""
    table = _wrap(table)
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ShapeError("embedding", table.shape, ids.shape)
    out = table.data[ids]

    def bw(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.ravel(), g.reshape(-1, table.shape[-1]))
        return (gt,)

    return _record("embedding", (table,), out, bw)


def bce_with_logits(logits: Tensor, targets) -> Tensor:
    """Elementwise binary cross entropy on raw logits (numerically stable)."""
    logits = _wrap(logits)
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != logits.shape:
        raise ShapeError("bce_with_logits", logits.shape, t.shape)
    x = logits.data
    out = np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))
    s = 1.0 / (1.0 + np.exp(-x))

    def bw(g):
        return (g * (s - t),)

    return _record("bce_with_logits", (logits,), out, bw)


# ---------------------------------------------------------------------------
# reverse pass

def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into t.grad for every reachable requires-grad t.

    Gradients add onto existing buffers: running backward twice on the same
    tape doubles them (documented additive contract).
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    touched: dict[int, Tensor] = {id(loss): loss}
    for node in reversed(_TAPE.nodes):
        g = grads.get(id(node.output))
        if g is None:
            continue
        in_grads = node.backward_fn(g)
        for t, gi in zip(node.inputs, in_grads):
            if not t.requires_grad:
                continue
            key = id(t)
            if key in grads:
                grads[key] = grads[key] + gi
            else:
                grads[key] = gi
                touched[key] = t
    for key, t in touched.items():
        t.grad = grads[key] if t.grad is None else t.grad + grads[key]


# ---------------------------------------------------------------------------
# gradient checking

def grad_check(f, x: Tensor, eps: float = 1e-6) -> float:
    """Compare analytic gradients of scalar-valued ``f`` at ``x`` against
    central finite differences.

    Returns max over coordinates of |analytic - numeric| /
    max(1, |analytic|, |numeric|). ``f`` must be deterministic; two forward
    evaluations that differ raise ValueError.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError(f"eps {eps} outside [1e-7, 1e-3]")

    def value() -> float:
        with no_grad():
            out = f(x)
        if out.data.size != 1:
            raise ValueError("grad_check requires a scalar-valued function")
        return float(out.data.reshape(()))

    v1, v2 = value(), value()
    if v1 != v2:
        raise ValueError("grad_check: function is not deterministic across forward passes")

    mark = len(_TAPE.nodes)
    saved_grad, saved_req = x.grad, x.requires_grad
    x.requires_grad = True
    x.grad = None
    try:
        out = f(x)
        backward(out)
        analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    finally:
        del _TAPE.nodes[mark:]
        x.grad, x.requires_grad = saved_grad, saved_req

    flat = x.data.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = value()
        flat[i] = orig - eps
        fm = value()
        flat[i] = orig
        numeric[i] = (fp - fm) / (2.0 * eps)
    numeric = numeric.reshape(x.data.shape)

    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


#: primitives with registered backward rules, for the grad-check battery
PRIMITIVE_OPS = {
    "add": add,
    "sub": sub,
    "neg": neg,
    "mul": mul,
    "div": div,
    "matmul": matmul,
    "transpose": transpose,
    "reshape": reshape,
    "concat": concat,
    "slice": slice_axis,
    "sum": tsum,
    "mean": tmean,
    "exp": exp,
    "log": log,
    "sqrt": sqrt,
    "silu": silu,
    "sigmoid": sigmoid,
    "softmax": softmax,
    "log_softmax": log_softmax,
    "layer_norm": layer_norm,
    "l2_normalize": l2_normalize,
    "embedding": embedding,
    "bce_with_logits": bce_with_logits,
}
