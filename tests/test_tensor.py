"""Autodiff core: forward identities, backward contracts, gradient checks."""

import numpy as np
import pytest

from crossgen import tensor as T
from crossgen.errors import ShapeError
from crossgen.nn import AdamWState, Linear, ParameterSet, adamw_step


@pytest.fixture(autouse=True)
def _fresh_tape():
    T.reset_tape()
    yield
    T.reset_tape()


def test_matmul_identity():
    a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = T.Tensor([[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(T.matmul(a, eye).data, a.data)


def test_softmax_symmetry():
    out = T.softmax(T.Tensor([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.5, 0.5], atol=0)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    x = T.softmax(T.Tensor(rng.normal(size=(7, 5)) * 10))
    assert np.all(x.data >= 0)
    np.testing.assert_allclose(x.data.sum(axis=-1), np.ones(7), atol=1e-12)


def test_silu_at_zero():
    assert T.silu(T.Tensor(0.0)).item() == 0.0


def test_shape_mismatch_names_primitive_and_shapes():
    with pytest.raises(ShapeError) as err:
        T.add(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 4))))
    assert "add" in str(err.value)
    assert "(2, 3)" in str(err.value) and "(2, 4)" in str(err.value)


def test_trailing_broadcast_rejected():
    # (B, 1) against (B, d) would broadcast a trailing axis; unsupported.
    with pytest.raises(ShapeError):
        T.mul(T.Tensor(np.zeros((4, 1))), T.Tensor(np.zeros((4, 3))))


def test_leading_broadcast_bias_add():
    x = T.Tensor(np.ones((5, 3)), requires_grad=True)
    b = T.Tensor(np.arange(3.0), requires_grad=True)
    out = T.add(x, b)
    assert out.shape == (5, 3)
    T.backward(T.tsum(out))
    np.testing.assert_array_equal(b.grad, [5.0, 5.0, 5.0])
    np.testing.assert_array_equal(x.grad, np.ones((5, 3)))


def _broadcast_allowed(sa, sb):
    """Spec of leading-1 broadcasting: after left-padding with ones every
    axis matches or is 1, and each operand is stretched only along a
    leading run of axes."""
    rank = max(len(sa), len(sb))
    pa, pb = (1,) * (rank - len(sa)) + sa, (1,) * (rank - len(sb)) + sb
    if any(x != y and 1 not in (x, y) for x, y in zip(pa, pb)):
        return False
    out = [max(x, y) for x, y in zip(pa, pb)]
    for padded in (pa, pb):
        stretched = [i for i in range(rank) if padded[i] == 1 and out[i] > 1]
        if stretched != list(range(len(stretched))):
            return False
    return True


def test_broadcast_check_fast_paths_keep_every_rejection():
    shapes = [(), (1,), (3,), (4,), (1, 3), (2, 3), (2, 1), (3, 3), (1, 2, 3),
              (2, 2, 3), (2, 1, 3), (1, 1, 3)]
    for sa in shapes:
        for sb in shapes:
            if _broadcast_allowed(sa, sb):
                T.add(T.Tensor(np.zeros(sa)), T.Tensor(np.zeros(sb)))
            else:
                with pytest.raises(ShapeError):
                    T.add(T.Tensor(np.zeros(sa)), T.Tensor(np.zeros(sb)))
    # a bias after a size-1 middle axis stretches a non-leading axis
    with pytest.raises(ShapeError):
        T.add(T.Tensor(np.zeros((1, 2, 3))), T.Tensor(np.zeros(3)))


def test_primitive_outputs_wrap_their_result_caller_tensors_copy():
    src = np.ones((2, 3))
    t = T.Tensor(src)
    src[0, 0] = 5.0
    assert t.data[0, 0] == 1.0
    assert np.shares_memory(T.reshape(t, (3, 2)).data, t.data)
    total = T.tsum(t)
    assert type(total.data) is np.ndarray and total.data.dtype == np.float64
    assert total.shape == () and total.item() == 6.0


def test_backward_sum_gives_ones():
    x = T.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    T.backward(T.tsum(x))
    np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_quadratic():
    x = T.Tensor([2.0, -1.0], requires_grad=True)
    T.backward(T.tsum(T.mul(x, x)))
    np.testing.assert_array_equal(x.grad, [4.0, -2.0])


def test_backward_requires_scalar():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    y = T.mul(x, x)
    with pytest.raises(ValueError):
        T.backward(y)


def test_backward_twice_doubles_accumulation():
    x = T.Tensor([1.0, 3.0], requires_grad=True)
    loss = T.tsum(T.mul(x, x))
    T.backward(loss)
    first = x.grad.copy()
    T.backward(loss)
    np.testing.assert_array_equal(x.grad, 2.0 * first)


def test_grad_accumulates_across_multiple_uses():
    x = T.Tensor([2.0], requires_grad=True)
    loss = T.tsum(T.add(T.mul(x, x), x))  # x^2 + x -> 2x + 1
    T.backward(loss)
    np.testing.assert_allclose(x.grad, [5.0])


def test_grad_check_constant_function():
    x = T.Tensor(np.ones(3))
    err = T.grad_check(lambda t: T.Tensor(1.5), x)
    assert err == 0.0


def test_grad_check_quadratic_form():
    rng = np.random.default_rng(4)
    a = T.Tensor(rng.normal(size=(5, 5)))

    def f(x):
        col = T.reshape(x, (5, 1))
        return T.tsum(T.mul(col, T.matmul(a, col)))

    err = T.grad_check(f, T.Tensor(rng.normal(size=5)))
    assert err < 1e-9


def test_grad_check_rejects_nondeterministic():
    rng = np.random.default_rng(5)

    def f(x):
        return T.tsum(T.mul(x, T.Tensor(rng.normal(size=x.shape))))

    with pytest.raises(ValueError, match="deterministic"):
        T.grad_check(f, T.Tensor(np.ones(3)))


def test_grad_check_eps_bounds():
    with pytest.raises(ValueError):
        T.grad_check(lambda t: T.tsum(t), T.Tensor(np.ones(2)), eps=1e-2)


# ---------------------------------------------------------------------------
# grad-check battery over every registered primitive

def _loss_through(out):
    # squared sum keeps composite curvature non-trivial for the check
    s = T.tsum(T.mul(out, out))
    return s


PRIMITIVE_CASES = {
    "add": lambda x, rng: T.add(x, T.Tensor(rng.normal(size=x.shape))),
    "sub": lambda x, rng: T.sub(T.Tensor(rng.normal(size=x.shape)), x),
    "neg": lambda x, rng: T.neg(x),
    "mul": lambda x, rng: T.mul(x, T.Tensor(rng.normal(size=x.shape))),
    "div": lambda x, rng: T.div(x, T.Tensor(rng.uniform(0.5, 2.0, size=x.shape))),
    "matmul": lambda x, rng: T.matmul(x, T.Tensor(rng.normal(size=(x.shape[-1], 3)))),
    "transpose": lambda x, rng: T.transpose(x),
    "reshape": lambda x, rng: T.reshape(x, (x.size,)),
    "concat": lambda x, rng: T.concat([x, T.Tensor(rng.normal(size=x.shape))], axis=0),
    "slice": lambda x, rng: T.slice_axis(x, 0, 0, max(1, x.shape[0] - 1)),
    "sum": lambda x, rng: T.tsum(x, axis=1, keepdims=True),
    "mean": lambda x, rng: T.tmean(x, axis=0),
    "exp": lambda x, rng: T.exp(x),
    "log": lambda x, rng: T.log(T.add(T.mul(x, x), T.Tensor(np.full(x.shape, 0.5)))),
    "sqrt": lambda x, rng: T.sqrt(T.add(T.mul(x, x), T.Tensor(np.full(x.shape, 0.5)))),
    "silu": lambda x, rng: T.silu(x),
    "sigmoid": lambda x, rng: T.sigmoid(x),
    "softmax": lambda x, rng: T.softmax(x),
    "log_softmax": lambda x, rng: T.log_softmax(x),
    "layer_norm": lambda x, rng: T.layer_norm(x),
    "l2_normalize": lambda x, rng: T.l2_normalize(x),
    "embedding": lambda x, rng: T.embedding(x, rng.integers(0, x.shape[0], size=4)),
    "bce_with_logits": lambda x, rng: T.bce_with_logits(
        x, (rng.random(x.shape) < 0.5).astype(float)),
}


def test_every_registered_primitive_has_a_case():
    assert set(PRIMITIVE_CASES) == set(T.PRIMITIVE_OPS)


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_grad_check(name):
    build = PRIMITIVE_CASES[name]
    for trial in range(5):
        rng = np.random.default_rng(hash((name, trial)) % (2**32))
        rows = int(rng.integers(2, 5))
        cols = int(rng.integers(2, 5))
        x = T.Tensor(rng.normal(size=(rows, cols)))
        local = np.random.default_rng(trial)
        err = T.grad_check(lambda t: _loss_through(build(t, np.random.default_rng(trial))), x)
        assert err < 1e-5, f"{name}: grad-check error {err}"
        del local


def test_mlp_grad_matches_finite_differences():
    params = ParameterSet()
    rng = np.random.default_rng(7)
    l1 = Linear(params, "l1", 4, 6, rng)
    l2 = Linear(params, "l2", 6, 1, rng)
    x_in = np.array([[0.3, -1.2, 0.5, 2.0], [1.0, 0.0, -0.4, 0.7]])

    for name, p in params.items():
        def f(t, _p=p):
            h = T.silu(l1(T.Tensor(x_in)))
            out = l2(h)
            return T.tsum(T.mul(out, out))
        err = T.grad_check(f, p)
        assert err < 1e-6, f"{name}: {err}"


def test_no_grad_suppresses_recording():
    x = T.Tensor(np.ones(3), requires_grad=True)
    before = len(T.tape())
    with T.no_grad():
        T.tsum(T.mul(x, x))
    assert len(T.tape()) == before


def test_forward_is_bit_deterministic():
    rng = np.random.default_rng(8)
    a, b = rng.normal(size=(6, 6)), rng.normal(size=(6, 6))
    r1 = T.matmul(T.softmax(T.Tensor(a)), T.Tensor(b)).data
    r2 = T.matmul(T.softmax(T.Tensor(a)), T.Tensor(b)).data
    assert np.array_equal(r1, r2)


# ---------------------------------------------------------------------------
# AdamW

def _single_param(value):
    params = ParameterSet()
    p = params.add("p", T.Tensor(np.array([value])))
    return params, p


def test_adamw_zero_grad_zero_decay_leaves_parameter():
    params, p = _single_param(1.25)
    p.grad = np.zeros(1)
    adamw_step(params, AdamWState(), lr=0.1, weight_decay=0.0)
    np.testing.assert_array_equal(p.data, [1.25])


def test_adamw_decay_only_shrinks_parameter():
    params, p = _single_param(2.0)
    p.grad = np.zeros(1)
    adamw_step(params, AdamWState(), lr=0.1, weight_decay=0.5)
    np.testing.assert_allclose(p.data, [2.0 - 0.1 * 0.5 * 2.0])


def test_adamw_matches_hand_recurrence():
    # Hand evaluation of the AdamW update for one scalar step.
    theta, g = 0.7, 0.3
    lr, wd, b1, b2, eps = 0.01, 0.1, 0.9, 0.999, 1e-8
    m = (1 - b1) * g
    v = (1 - b2) * g * g
    m_hat = m / (1 - b1)
    v_hat = v / (1 - b2)
    expected = theta - lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * theta)

    params, p = _single_param(theta)
    p.grad = np.array([g])
    adamw_step(params, AdamWState(), lr=lr, weight_decay=wd, betas=(b1, b2), eps=eps)
    np.testing.assert_allclose(p.data, [expected], rtol=0, atol=1e-15)


def test_adamw_missing_grad_names_parameter():
    params = ParameterSet()
    params.add("alpha", T.Tensor(np.ones(2)))
    params.add("beta", T.Tensor(np.ones(2)))
    params["alpha"].grad = np.ones(2)
    with pytest.raises(ValueError, match="beta"):
        adamw_step(params, AdamWState(), lr=0.1)


def test_parameter_set_lexicographic_order_and_checksum():
    params = ParameterSet()
    params.add("z", T.Tensor(np.ones(1)))
    params.add("a", T.Tensor(np.ones(1)))
    assert params.names() == ["a", "z"]
    c1 = params.checksum()
    params["a"].data[0] = 2.0
    assert params.checksum() != c1


def test_load_state_arrays_names_missing_and_unexpected():
    params = ParameterSet()
    Linear(params, "l", 2, 3, None)  # no stream: zeros until loaded
    assert params["l.w"].shape == (2, 3) and not params["l.w"].data.any()
    w, b = np.ones((2, 3)), np.arange(3.0)
    with pytest.raises(ValueError, match=r"missing \['l.b'\], unexpected \['l.bias'\]"):
        params.load_state_arrays({"l.w": w, "l.bias": b})
    with pytest.raises(ValueError, match=r"missing \[\], unexpected \['x'\]"):
        params.load_state_arrays({"l.w": w, "l.b": b, "x": b})
    params.load_state_arrays({"l.w": w, "l.b": b})
    np.testing.assert_array_equal(params["l.w"].data, w)
    np.testing.assert_array_equal(params["l.b"].data, b)


def test_layer_norm_equals_the_mean_formula_bit_for_bit():
    x = np.random.default_rng(3).standard_normal((7, 193)) * 5.0 + 2.0
    xc = x - x.mean(axis=-1, keepdims=True)
    ref = xc * (1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5))
    np.testing.assert_array_equal(T.layer_norm(T.Tensor(x)).data, ref)
