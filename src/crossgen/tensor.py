"""Dense float64 tensors with reverse-mode automatic differentiation.

Every primitive records a node on a global append-only tape when any input
requires a gradient. Under ``no_grad`` a primitive records nothing: it
validates its operands, computes, and wraps the result without building a
backward rule. ``backward`` walks the tape in reverse creation order (a
valid topological order) and accumulates gradients additively into every
requires-grad tensor it reaches; the rules of the binary primitives skip
(return None for) an operand that does not require a gradient, as
``backward`` would discard it. Broadcasting is restricted to leading-1
axes so the backward rules stay small and auditable.
"""

from __future__ import annotations

import math

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


def _bare(data) -> Tensor:
    # The primitive just computed data, so wrap it without the defensive copy
    # Tensor() makes; only a numpy scalar (a full reduction, or a ufunc of a
    # 0-d array) needs converting, as every input holds a float64 array.
    out = Tensor.__new__(Tensor)
    out.data = data if type(data) is np.ndarray else np.asarray(data, dtype=np.float64)
    out.grad = None
    out.requires_grad = False
    return out


def _record(op: str, inputs: tuple[Tensor, ...], out_data: np.ndarray, backward_fn) -> Tensor:
    # grad enabled only: under no_grad a primitive returns _bare(out) first
    out = _bare(out_data)
    if any(t.requires_grad for t in inputs):
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
    try:
        out = np.broadcast_shapes(sa, sb)
    except ValueError:
        raise ShapeError(op, sa, sb) from None
    for shape in (sa, sb):
        padded = _pad_shape(shape, len(out))
        bc = [i for i, (p, o) in enumerate(zip(padded, out)) if p == 1 and o > 1]
        if bc != list(range(len(bc))):
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
    _check_leading_broadcast("add", a.data.shape, b.data.shape)
    out = a.data + b.data
    if not _GRAD_ENABLED[0]:
        return _bare(out)

    def bw(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _record("add", (a, b), out, bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_leading_broadcast("sub", a.data.shape, b.data.shape)
    out = a.data - b.data
    if not _GRAD_ENABLED[0]:
        return _bare(out)

    def bw(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.shape) if b.requires_grad else None)

    return _record("sub", (a, b), out, bw)


def neg(a: Tensor) -> Tensor:
    a = _wrap(a)
    out = -a.data
    return _record("neg", (a,), out, lambda g: (-g,)) if _GRAD_ENABLED[0] else _bare(out)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_leading_broadcast("mul", a.data.shape, b.data.shape)
    out = a.data * b.data
    if not _GRAD_ENABLED[0]:
        return _bare(out)

    def bw(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return _record("mul", (a, b), out, bw)


def div(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_leading_broadcast("div", a.data.shape, b.data.shape)
    out = a.data / b.data
    if not _GRAD_ENABLED[0]:
        return _bare(out)

    def bw(g):
        return (_unbroadcast(g / b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
                if b.requires_grad else None)

    return _record("div", (a, b), out, bw)


def exp(a: Tensor) -> Tensor:
    a = _wrap(a)
    out = np.exp(a.data)
    return _record("exp", (a,), out, lambda g: (g * out,)) if _GRAD_ENABLED[0] else _bare(out)


def log(a: Tensor) -> Tensor:
    a = _wrap(a)
    out = np.log(a.data)
    return _record("log", (a,), out, lambda g: (g / a.data,)) if _GRAD_ENABLED[0] else _bare(out)


def sqrt(a: Tensor) -> Tensor:
    a = _wrap(a)
    out = np.sqrt(a.data)
    return (_record("sqrt", (a,), out, lambda g: (g / (2.0 * out),))
            if _GRAD_ENABLED[0] else _bare(out))


def _exp_neg(x: np.ndarray) -> np.ndarray:
    """exp(-x). It overflows to inf, the right limit (the logistic 1 / (1 + inf)
    is exactly 0), only for x below about -709.78, so only an input reaching
    below -700 (or holding NaN) silences the warning: the common path enters no
    errstate. argmin finds the minimum for less than an errstate or ndarray.min."""
    if x.size and x.item(x.argmin()) >= -700.0:
        return np.exp(-x)
    with np.errstate(over="ignore"):
        return np.exp(-x)


def silu(a: Tensor) -> Tensor:
    a = _wrap(a)
    x = a.data
    if x.size and x.item(x.argmin()) >= -700.0:  # _exp_neg's common path
        s = 1.0 / (1.0 + np.exp(-x))
    else:
        # the logistic is exactly 0 below about -709.78, and -inf * 0 is NaN:
        # the most negative float stands in for -inf, so its output is the
        # limit -0.0 and its gradient 0.0 (NaN stays NaN, finite values keep
        # their bits)
        x = np.maximum(x, -np.finfo(np.float64).max)
        s = 1.0 / (1.0 + _exp_neg(x))
    out = x * s
    if not _GRAD_ENABLED[0]:
        return _bare(out)

    def bw(g):
        # g * (s + x * s * (1 - s)) with two temporaries: IEEE + and * commute
        if x.size and x.item(x.argmax()) < np.inf:  # no +inf, no NaN
            d = x * s
            d *= 1.0 - s
        else:
            # at +inf, x * s * (1 - s) is inf * 0; its limit is 0, so the
            # gradient there is g * s = g (NaN stays NaN)
            with np.errstate(invalid="ignore"):
                d = np.where(x == np.inf, 0.0, x * s * (1.0 - s))
        d += s
        d *= g
        return (d,)

    return _record("silu", (a,), out, bw)


def sigmoid(a: Tensor) -> Tensor:
    a = _wrap(a)
    out = 1.0 / (1.0 + _exp_neg(a.data))
    return (_record("sigmoid", (a,), out, lambda g: (g * out * (1.0 - out),))
            if _GRAD_ENABLED[0] else _bare(out))


# ---------------------------------------------------------------------------
# shape primitives

def reshape(a: Tensor, shape) -> Tensor:
    a = _wrap(a)
    shape = tuple(shape)
    out = a.data.reshape(shape)
    return (_record("reshape", (a,), out, lambda g: (g.reshape(a.shape),))
            if _GRAD_ENABLED[0] else _bare(out))


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    a = _wrap(a)
    if a.data.ndim < 2:
        raise ShapeError("transpose", a.shape)
    out = np.swapaxes(a.data, -1, -2)
    return (_record("transpose", (a,), out, lambda g: (np.swapaxes(g, -1, -2),))
            if _GRAD_ENABLED[0] else _bare(out))


def concat(tensors, axis: int = 0) -> Tensor:
    ts = [_wrap(t) for t in tensors]
    if not ts:
        raise ShapeError("concat", ())
    ranks = {t.data.ndim for t in ts}
    if len(ranks) != 1:
        raise ShapeError("concat", *[t.shape for t in ts])
    out = np.concatenate([t.data for t in ts], axis=axis)
    if not _GRAD_ENABLED[0]:
        return _bare(out)
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
    if not _GRAD_ENABLED[0]:
        return _bare(out)

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
    if not _GRAD_ENABLED[0]:
        return _bare(out)

    def bw(g):
        if axis is None:
            return (np.full(a.shape, g if np.isscalar(g) else g.reshape(())),)
        ge = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(ge, a.shape).copy(),)

    return _record("sum", (a,), out, bw)


def tmean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    if not _GRAD_ENABLED[0]:
        return _bare(out)
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
    sa, sb = a.data.shape, b.data.shape
    da, db = len(sa), len(sb)
    if not (db == 2 and da in (2, 3) or da == db == 3 and sa[0] == sb[0]) or sa[-1] != sb[-2]:
        raise ShapeError("matmul", sa, sb)
    out = a.data @ b.data
    if not _GRAD_ENABLED[0]:
        return _bare(out)

    def bw(g):
        ga = g @ np.swapaxes(b.data, -1, -2) if a.requires_grad else None
        if not b.requires_grad:
            gb = None
        elif db == 2 and da == 3:
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
    if not _GRAD_ENABLED[0]:
        return _bare(out)

    def bw(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return ((g - dot) * out,)

    return _record("softmax", (a,), out, bw)


def log_softmax(a: Tensor) -> Tensor:
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse
    if not _GRAD_ENABLED[0]:
        return _bare(out)
    sm = np.exp(out)
    return _record("log_softmax", (a,), out, lambda g: (g - sm * g.sum(axis=-1, keepdims=True),))


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
    if not _GRAD_ENABLED[0]:
        return _bare(xhat)

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
    if not _GRAD_ENABLED[0]:
        return _bare(out)

    def bw(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return ((g - out * dot) / norm,)

    return _record("l2_normalize", (a,), out, bw)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: result shape = ids.shape + (table_width,). Every id must
    lie in [0, rows) (ShapeError otherwise: a negative id does not wrap)."""
    table = _wrap(table)
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu" or ids.size and ids.item(ids.argmin()) < 0:
        raise ShapeError("embedding", table.shape, ids.shape)
    try:
        out = table.data[ids]
    except IndexError:  # an id past the last row
        raise ShapeError("embedding", table.shape, ids.shape) from None
    if not _GRAD_ENABLED[0]:
        return _bare(out)

    def bw(g):
        # bincount adds each cell's terms in input order onto +0.0, the sum
        # np.add.at(zeros, ids, g) forms, bit for bit at any width. Where two
        # NaNs meet they keep different ones (bincount the earlier, add.at the
        # later), so a gradient holding a NaN is summed by add.at itself.
        width = math.prod(table.shape[1:])
        cells = ids.reshape(-1, 1).astype(np.intp, copy=False) * width + np.arange(width)
        gt = np.bincount(cells.ravel(), weights=g.ravel(), minlength=table.data.size)
        gt = gt.reshape(table.shape)
        if np.isnan(gt).any():
            gt = np.zeros_like(table.data)
            np.add.at(gt, ids.ravel(), g.reshape((-1,) + table.shape[1:]))
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
    if not _GRAD_ENABLED[0]:
        return _bare(out)
    s = 1.0 / (1.0 + _exp_neg(x))
    return _record("bce_with_logits", (logits,), out, lambda g: (g * (s - t),))


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
