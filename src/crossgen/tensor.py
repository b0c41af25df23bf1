"""Dense float64 tensors with reverse-mode automatic differentiation.

Every primitive records a node on a global append-only tape when any input
requires a gradient, and otherwise only computes: ``record`` alone decides
whether a primitive records, and wraps the result. The tape is for
training; inference runs on bare arrays (``nn.mlp_apply``, the array
kernels below), so no mode switches recording off.
``backward`` walks the tape in reverse creation order (a valid topological
order) and accumulates gradients additively into every requires-grad tensor
it reaches; the rules of the binary primitives skip (return None for) an
operand that does not require a gradient, as ``backward`` would discard it.
Broadcasting is restricted to leading-1 axes so the backward rules stay
small and auditable.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError

__all__ = [
    "Tensor", "Tape", "tape", "reset_tape", "record", "backward",
    "grad_check", "PRIMITIVE_OPS", "silu_kernel", "silu_grad_kernel",
    "layer_norm_kernel", "layer_norm_grad_kernel", "l2_normalize_kernel",
    "embedding_grad_kernel", "bce_with_logits_kernel", "bce_with_logits_grad_kernel",
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


def tape() -> Tape:
    return _TAPE


def reset_tape() -> None:
    _TAPE.nodes.clear()


def _bare(data) -> Tensor:
    # The primitive just computed data, so wrap it without the defensive copy
    # Tensor() makes; only a numpy scalar (a full reduction, or a ufunc of a
    # 0-d array) needs converting, as every input holds a float64 array.
    out = Tensor.__new__(Tensor)
    out.data = data if type(data) is np.ndarray else np.asarray(data, dtype=np.float64)
    out.grad = None
    out.requires_grad = False
    return out


def record(op: str, inputs: tuple[Tensor, ...], out_data: np.ndarray, backward_fn) -> Tensor:
    """Wrap ``out_data`` as a tensor and, when an input requires a gradient,
    append a node of ``op`` with ``backward_fn`` (output gradient -> one
    gradient per input, None where skipped); otherwise drop the rule. The
    one place that decides whether an op records, for the primitives and the
    fused nodes over their kernels (``nn.mlp_bce_loss``, ``Denoiser.forward``)."""
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

    def bw(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return record("add", (a, b), out, bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_leading_broadcast("sub", a.data.shape, b.data.shape)
    out = a.data - b.data

    def bw(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.shape) if b.requires_grad else None)

    return record("sub", (a, b), out, bw)


def neg(a: Tensor) -> Tensor:
    a = _wrap(a)
    out = -a.data
    return record("neg", (a,), out, lambda g: (-g,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_leading_broadcast("mul", a.data.shape, b.data.shape)
    out = a.data * b.data

    def bw(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return record("mul", (a, b), out, bw)


def div(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_leading_broadcast("div", a.data.shape, b.data.shape)
    out = a.data / b.data

    def bw(g):
        return (_unbroadcast(g / b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
                if b.requires_grad else None)

    return record("div", (a, b), out, bw)


def exp(a: Tensor) -> Tensor:
    a = _wrap(a)
    out = np.exp(a.data)
    return record("exp", (a,), out, lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    a = _wrap(a)
    out = np.log(a.data)
    return record("log", (a,), out, lambda g: (g / a.data,))


def sqrt(a: Tensor) -> Tensor:
    a = _wrap(a)
    out = np.sqrt(a.data)
    return record("sqrt", (a,), out, lambda g: (g / (2.0 * out),))


def _logistic(x: np.ndarray, s: np.ndarray | None = None) -> tuple[np.ndarray, bool]:
    """The logistic 1 / (1 + exp(-x)), by exactly those IEEE operations, into
    ``s`` (fresh when None), and whether it took the overflow branch: exp(-x)
    is inf, the right limit, only below about -709.78, so only an input below
    -700 (or a NaN) pays for an errstate; argmin costs less than one."""
    s = np.negative(x, out=np.empty_like(x) if s is None else s)
    overflow = not (x.size and x.item(x.argmin()) >= -700.0)
    if overflow:
        with np.errstate(over="ignore"):
            np.exp(s, out=s)
    else:
        np.exp(s, out=s)
    s += 1.0
    np.divide(1.0, s, out=s)
    return s, overflow


def silu_kernel(x: np.ndarray, s: np.ndarray,
                out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """SiLU on arrays, for ``silu`` and the array paths: the logistic into
    ``s``, then x * s into ``out`` (``s``, another array, or fresh when None).
    Returns the product and the x it read, which the gradient reads too: on
    the overflow branch a copy in which the most negative float stands in
    for -inf, so the output there is the limit -0.0 (not -inf * 0 = NaN) and
    the gradient 0.0; NaN stays NaN and finite values keep their bits."""
    if _logistic(x, s)[1]:
        x = np.maximum(x, -np.finfo(np.float64).max)
    return np.multiply(x, s, out=out), x


def silu_grad_kernel(x: np.ndarray, s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """SiLU's backward on arrays, for ``silu`` and fused nodes: the input
    gradient g * (s + x * s * (1 - s)) for the x ``silu_kernel`` returned
    and the logistic s it wrote, into a fresh array."""
    # two temporaries: IEEE + and * commute
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
    return d


def silu(a: Tensor) -> Tensor:
    a = _wrap(a)
    s = np.empty_like(a.data)  # an array even at 0-d
    out, x = silu_kernel(a.data, s)
    return record("silu", (a,), out, lambda g: (silu_grad_kernel(x, s, g),))


def sigmoid(a: Tensor) -> Tensor:
    a = _wrap(a)
    out = _logistic(a.data)[0]
    return record("sigmoid", (a,), out, lambda g: (g * out * (1.0 - out),))


# ---------------------------------------------------------------------------
# shape primitives

def reshape(a: Tensor, shape) -> Tensor:
    a = _wrap(a)
    shape = tuple(shape)
    out = a.data.reshape(shape)
    return record("reshape", (a,), out, lambda g: (g.reshape(a.shape),))


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    a = _wrap(a)
    if a.data.ndim < 2:
        raise ShapeError("transpose", a.shape)
    out = np.swapaxes(a.data, -1, -2)
    return record("transpose", (a,), out, lambda g: (np.swapaxes(g, -1, -2),))


def concat(tensors, axis: int = 0) -> Tensor:
    ts = [_wrap(t) for t in tensors]
    if not ts:
        raise ShapeError("concat", ())
    ranks = {t.data.ndim for t in ts}
    if len(ranks) != 1:
        raise ShapeError("concat", *[t.shape for t in ts])
    out = np.concatenate([t.data for t in ts], axis=axis)

    def bw(g):
        offsets = np.cumsum([0] + [t.shape[axis] for t in ts])
        return tuple(
            np.take(g, range(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(len(ts))
        )

    return record("concat", tuple(ts), out, bw)


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

    return record("slice", (a,), out, bw)


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

    return record("sum", (a,), out, bw)


def tmean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)

    def bw(g):
        n = a.data.size if axis is None else a.shape[axis]
        if axis is None:
            return (np.full(a.shape, (g if np.isscalar(g) else g.reshape(())) / n),)
        ge = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(ge / n, a.shape).copy(),)

    return record("mean", (a,), out, bw)


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

    def bw(g):
        ga = g @ np.swapaxes(b.data, -1, -2) if a.requires_grad else None
        if not b.requires_grad:
            gb = None
        elif db == 2 and da == 3:
            gb = np.tensordot(a.data, g, axes=([0, 1], [0, 1]))
        else:
            gb = np.swapaxes(a.data, -1, -2) @ g
        return ga, gb

    return record("matmul", (a, b), out, bw)


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

    return record("softmax", (a,), out, bw)


def log_softmax(a: Tensor) -> Tensor:
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse
    return record("log_softmax", (a,), out,
                  lambda g: (g - np.exp(out) * g.sum(axis=-1, keepdims=True),))


def layer_norm_kernel(x: np.ndarray, eps: float = 1e-5, out=None, sq=None,
                      stat=None) -> tuple[np.ndarray, np.ndarray]:
    """Layer norm's forward arithmetic on arrays, written once for
    ``layer_norm`` and the samplers' array step: returns (xhat, inv), xhat =
    (x - mean) * inv written into ``out``, with ``sq`` a scratch array of x's
    shape and ``stat`` one of shape (..., 1) that ends holding inv (each
    allocated when None)."""
    n = x.shape[-1]
    # sum / n is what ndarray.mean computes, without its dispatch overhead
    mu = x.sum(axis=-1, keepdims=True, out=stat)
    mu /= n
    xhat = np.subtract(x, mu, out=out)  # centred here, scaled in place below
    inv = np.multiply(xhat, xhat, out=sq).sum(axis=-1, keepdims=True, out=mu)
    inv /= n  # the variance, then 1 / sqrt(var + eps) in place
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    return xhat, inv


def layer_norm_grad_kernel(xhat: np.ndarray, inv: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Layer norm's backward on arrays, for ``layer_norm`` and fused nodes:
    the input gradient inv / n * (n * g - sum(g) - xhat * sum(g * xhat)) for
    the (xhat, inv) ``layer_norm_kernel`` returned, into a fresh array. The
    products are formed in place with their operands swapped, which IEEE
    multiplication does not notice, so two full-size temporaries serve."""
    n = xhat.shape[-1]
    gs = g.sum(axis=-1, keepdims=True)
    d = np.multiply(g, xhat)
    gx = d.sum(axis=-1, keepdims=True)
    out = np.multiply(g, n)
    out -= gs
    out -= np.multiply(xhat, gx, out=d)
    out *= inv / n
    return out


def layer_norm(a: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean, unit variance (no affine part)."""
    a = _wrap(a)
    xhat, inv = layer_norm_kernel(a.data, eps)
    return record("layer_norm", (a,), xhat, lambda g: (layer_norm_grad_kernel(xhat, inv, g),))


def l2_normalize_kernel(x: np.ndarray, eps: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """L2 normalisation's forward arithmetic on arrays, written once for
    ``l2_normalize`` and ``nn.mlp_apply``: (x / norm, norm)."""
    norm = np.sqrt((x * x).sum(axis=-1, keepdims=True) + eps)
    return x / norm, norm


def l2_normalize(a: Tensor, eps: float = 1e-12) -> Tensor:
    """Scale rows (last axis) to unit Euclidean norm."""
    a = _wrap(a)
    out, norm = l2_normalize_kernel(a.data, eps)

    def bw(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return ((g - out * dot) / norm,)

    return record("l2_normalize", (a,), out, bw)


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

    return record("embedding", (table,), out,
                  lambda g: (embedding_grad_kernel(table.shape, ids, g),))


def embedding_grad_kernel(shape: tuple[int, ...], ids: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient of a table of ``shape`` whose rows ``ids`` were looked up,
    for the lookup's output gradient ``g``, on arrays: ``g``'s rows summed
    into the rows they came from, for ``embedding`` and fused nodes."""
    # bincount adds each cell's terms in input order onto +0.0, the sum
    # np.add.at(zeros, ids, g) forms, bit for bit at any width. Where two
    # NaNs meet they keep different ones (bincount the earlier, add.at the
    # later), so a gradient holding a NaN is summed by add.at itself.
    width = math.prod(shape[1:])
    cells = ids.reshape(-1, 1).astype(np.intp, copy=False) * width + np.arange(width)
    gt = np.bincount(cells.ravel(), weights=g.ravel(), minlength=math.prod(shape))
    gt = gt.reshape(shape)
    if np.isnan(gt).any():
        gt = np.zeros(shape)
        np.add.at(gt, ids.ravel(), g.reshape((-1,) + shape[1:]))
    return gt


def bce_with_logits_kernel(x: np.ndarray, targets) -> tuple[np.ndarray, np.ndarray]:
    """Binary cross entropy on raw logits ``x``, elementwise and numerically
    stable, for ``bce_with_logits`` and fused nodes: (loss, targets as a
    float64 array); ShapeError when the targets' shape is not x's."""
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != x.shape:
        raise ShapeError("bce_with_logits", x.shape, t.shape)
    return np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x))), t


def bce_with_logits_grad_kernel(x: np.ndarray, t: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The logits' gradient g * (logistic(x) - t) of the BCE, on arrays."""
    return g * (_logistic(x)[0] - t)


def bce_with_logits(logits: Tensor, targets) -> Tensor:
    """Elementwise binary cross entropy on raw logits (numerically stable)."""
    logits = _wrap(logits)
    x = logits.data
    out, t = bce_with_logits_kernel(x, targets)
    return record("bce_with_logits", (logits,), out,
                  lambda g: (bce_with_logits_grad_kernel(x, t, g),))


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
    evaluations that differ raise ValueError. Every gradient the analytic
    pass writes (``x``'s, and those of parameters ``f`` reads) is restored.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError(f"eps {eps} outside [1e-7, 1e-3]")

    def value() -> float:
        mark = len(_TAPE.nodes)
        try:  # f may record (its parameters require gradients): drop that
            out = f(x)
        finally:
            del _TAPE.nodes[mark:]
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
    reached = []  # every tensor backward can write to, with its gradient
    try:
        out = f(x)
        reached = [(t, t.grad) for node in _TAPE.nodes[mark:] for t in node.inputs]
        reached.append((out, out.grad))
        backward(out)
        analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    finally:
        del _TAPE.nodes[mark:]
        for t, grad in reached:
            t.grad = grad
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
