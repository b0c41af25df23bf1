"""Autodiff core: forward identities, backward contracts, gradient checks."""

import json
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

from crossgen import tensor as T
from crossgen import toydata as td
from crossgen.errors import ShapeError
from crossgen.nn import (AdamWState, Linear, ParameterSet, adamw_step,
                         mean_token_embedding, token_ids, train_epoch)


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


def test_silu_and_sigmoid_of_large_negative_are_finite_without_warning():
    x = np.array([-1000.0, -710.0, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        silu = T.silu(T.Tensor(x)).data
        sig = T.sigmoid(T.Tensor(x)).data
    assert np.all(np.isfinite(silu)) and np.all(np.isfinite(sig))
    assert silu[0] == 0.0 and sig[0] == 0.0
    assert silu[2] == 3.0 * (1.0 / (1.0 + np.exp(-3.0)))


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
        # crc32, not hash(): str hashes are salted per process
        rng = np.random.default_rng(zlib.crc32(f"{name}|{trial}".encode()))
        rows = int(rng.integers(2, 5))
        cols = int(rng.integers(2, 5))
        x = T.Tensor(rng.normal(size=(rows, cols)))
        err = T.grad_check(lambda t: _loss_through(build(t, np.random.default_rng(trial))), x)
        assert err < 1e-5, f"{name}: grad-check error {err}"


def _bits(t):
    return t.data.dtype, t.data.shape, t.data.tobytes()


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_no_grad_output_equals_the_recorded_output_bit_for_bit(name):
    build = PRIMITIVE_CASES[name]
    for shape in [(3, 4), (2, 3, 5)]:
        x = T.Tensor(np.random.default_rng(len(shape)).normal(size=shape), requires_grad=True)
        live = build(x, np.random.default_rng(0))
        assert live.requires_grad and len(T.tape()) > 0
        T.reset_tape()
        with T.no_grad():
            bare = build(x, np.random.default_rng(0))
        assert len(T.tape()) == 0 and not bare.requires_grad and bare.grad is None
        assert _bits(bare) == _bits(live)


def _z(*shape):
    return T.Tensor(np.zeros(shape), requires_grad=True)


PRIMITIVE_REJECTIONS = {
    "add_incompatible": lambda: T.add(_z(2, 3), _z(2, 4)),
    "sub_trailing_stretch": lambda: T.sub(_z(4, 1), _z(4, 3)),
    "mul_middle_stretch": lambda: T.mul(_z(1, 2, 3), _z(3)),
    "div_incompatible": lambda: T.div(_z(3), _z(4)),
    "matmul_rank_1": lambda: T.matmul(_z(3), _z(3, 2)),
    "matmul_rank_2_by_3": lambda: T.matmul(_z(2, 3), _z(2, 3, 4)),
    "matmul_inner": lambda: T.matmul(_z(2, 3), _z(4, 2)),
    "matmul_batch": lambda: T.matmul(_z(2, 3, 4), _z(3, 4, 5)),
    "transpose_rank_1": lambda: T.transpose(_z(3)),
    "concat_empty": lambda: T.concat([]),
    "concat_ranks": lambda: T.concat([_z(2, 3), _z(3)]),
    "embedding_float_ids": lambda: T.embedding(_z(5, 2), np.array([0.0, 1.0])),
    "embedding_bool_ids": lambda: T.embedding(_z(5, 2), np.array([True, False])),
    "bce_shape": lambda: T.bce_with_logits(_z(2, 3), np.zeros((3, 2))),
    "reshape_size": lambda: T.reshape(_z(2, 3), (4,)),
}


@pytest.mark.parametrize("case", sorted(PRIMITIVE_REJECTIONS))
def test_no_grad_raises_what_the_recorded_path_raises(case):
    with pytest.raises(ValueError) as live:
        PRIMITIVE_REJECTIONS[case]()
    with T.no_grad(), pytest.raises(ValueError) as bare:
        PRIMITIVE_REJECTIONS[case]()
    assert type(bare.value) is type(live.value) and str(bare.value) == str(live.value)
    assert len(T.tape()) == 0


def _logistic(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def test_silu_and_sigmoid_match_the_logistic_formula_across_the_overflow_edge():
    edge = -np.log(np.finfo(np.float64).max)  # exp(-x) overflows for x just below
    x = np.array([-1000.0, -710.0, -709.8, np.nextafter(np.nextafter(edge, -1e3), -1e3),
                  np.nextafter(edge, -1e3), edge, np.nextafter(edge, 0.0), -709.7, -700.0,
                  np.nextafter(-700.0, -1e3), -699.99, -30.0, -0.5, -0.0, 0.0, 0.5, 30.0,
                  709.8, 1000.0])
    x = np.concatenate([x, np.linspace(-720.0, 720.0, 2001)])
    s = _logistic(x)
    assert s[0] == 0.0 and s[4] == 0.0 and s[6] > 0.0  # both sides of the edge
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for shape in [x.shape, (1, x.size)]:
            xt = T.Tensor(x.reshape(shape))
            assert T.sigmoid(xt).data.tobytes() == s.tobytes()
            assert T.silu(xt).data.tobytes() == (x * s).tobytes()
        for v in x:  # each element alone takes its own side of the guard
            assert T.sigmoid(T.Tensor(v)).data.tobytes() == _logistic(v).tobytes()
            assert T.silu(T.Tensor(v)).data.tobytes() == (v * _logistic(v)).tobytes()


def test_silu_at_minus_infinity_is_the_limit_and_finite_inputs_keep_their_bits():
    x = np.array([-np.inf, -1000.0, -710.0, -700.5, -3.0, -0.0, 0.0, 0.5, 30.0, 1000.0])
    g = np.linspace(-2.0, 2.0, x.size)
    s = _logistic(x[1:])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for grad_on in (False, True):
            xt = T.Tensor(x, requires_grad=grad_on)
            out = T.silu(xt)
            assert out.data[0] == 0.0 and np.signbit(out.data[0])  # -0.0, the limit
            assert out.data[1:].tobytes() == (x[1:] * s).tobytes()
        T.backward(T.tsum(T.mul(out, T.Tensor(g))))
        assert xt.grad[0] == 0.0
        assert xt.grad[1:].tobytes() == (g[1:] * (s + x[1:] * s * (1.0 - s))).tobytes()
        with T.no_grad():
            assert T.silu(T.Tensor(-np.inf)).data.tobytes() == np.float64(-0.0).tobytes()
        assert np.isnan(T.silu(T.Tensor([np.nan, -np.inf])).data[0])


@pytest.mark.parametrize("x", [
    np.array([np.inf, 1.0, -3.0, 0.5, 1000.0]),  # forward's common path
    np.array([np.inf, -np.inf, -1000.0, -3.0, -0.0, 0.0, 30.0, np.inf, np.nan]),
    np.array(np.inf),
], ids=["finite_and_inf", "every_edge", "scalar"])
def test_silu_gradient_at_plus_infinity_is_the_limit_and_finite_inputs_keep_their_bits(x):
    g = np.linspace(0.25, 2.0, x.size).reshape(x.shape)  # positive: inf * g sums to inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xt = T.Tensor(x, requires_grad=True)
        T.backward(T.tsum(T.mul(T.silu(xt), T.Tensor(g))))
    grad, x, g = xt.grad.reshape(-1), x.reshape(-1), g.reshape(-1)
    inf = x == np.inf
    assert grad[inf].tobytes() == g[inf].tobytes()  # g * 1, the limit
    finite = np.isfinite(x)
    s = _logistic(x[finite])
    assert grad[finite].tobytes() == (g[finite] * (s + x[finite] * s * (1.0 - s))).tobytes()
    assert np.all(grad[x == -np.inf] == 0.0) and np.all(np.isnan(grad[np.isnan(x)]))


def _add_at_reference(table_shape, ids, g):
    ref = np.zeros(table_shape)
    np.add.at(ref, ids.ravel(), g.reshape(-1, int(np.prod(table_shape[1:]))))
    return ref


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_embedding_backward_equals_add_at_bit_for_bit():
    rng = np.random.default_rng(11)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324])
    for trial in range(400):
        rows = int(rng.integers(1, 7))
        width = int(rng.choice([1, 2, 3, 7, 32, 49]))
        shape = (int(rng.integers(1, 40)),) if trial % 2 else tuple(rng.integers(1, 8, size=2))
        ids = rng.integers(0, rows, size=shape)  # few rows: many repeated ids
        g = rng.normal(size=shape + (width,)) * 10.0 ** rng.integers(-3, 4)
        if trial % 3:
            mask = rng.random(g.shape) < 0.2
            g[mask] = rng.choice(special, size=int(mask.sum()))
        table = T.Tensor(rng.normal(size=(rows, width)), requires_grad=True)
        T.embedding(table, ids)
        (got,) = T.tape().nodes[-1].backward_fn(g)
        T.reset_tape()
        ref = _add_at_reference(table.shape, ids, g)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), trial
    # NaNs of either sign meeting in one cell: bincount alone would keep the
    # first one's sign, np.add.at the last one's
    table = T.Tensor(np.zeros((2, 1)), requires_grad=True)
    T.embedding(table, np.array([1, 1, 0]))
    g = np.array([[np.nan], [-np.nan], [-0.0]])
    (got,) = T.tape().nodes[-1].backward_fn(g)
    assert got.tobytes() == _add_at_reference((2, 1), np.array([1, 1, 0]), g).tobytes()


@pytest.mark.parametrize("ids", [[0, -1], [5], [[1, 2], [7, 0]], [-6]])
def test_embedding_rejects_an_id_outside_the_table(ids):
    table = T.Tensor(np.arange(10.0).reshape(5, 2), requires_grad=True)
    with pytest.raises(ShapeError, match="embedding"):
        T.embedding(table, np.array(ids))
    with T.no_grad(), pytest.raises(ShapeError, match="embedding"):
        T.embedding(table, np.array(ids))
    assert len(T.tape()) == 0


def _mean_token_embedding_loop(table, reports):
    # the per-record construction of the token weights, kept as the reference
    ids = np.stack([td.report_to_ids(r) for r in reports])
    weights = np.zeros((len(reports), td.MAX_REPORT_LEN, table.shape[1]))
    for i, r in enumerate(reports):
        weights[i, :len(r), :] = 1.0 / len(r)
    return T.tsum(T.mul(T.embedding(table, ids), T.Tensor(weights)), axis=1)


def test_mean_token_embedding_equals_the_per_record_loop():
    reports = [r.report for r in td.generate_dataset(seed=3, n=40).records]
    reports += [("study", td.PAD, "marker"), (td.PAD,), ("no",) * td.MAX_REPORT_LEN]
    rng = np.random.default_rng(3)
    g = rng.normal(size=(len(reports), 5))
    results = []
    for build in (lambda t: mean_token_embedding(t, *token_ids(reports)),
                  lambda t: _mean_token_embedding_loop(t, reports)):
        table = T.Tensor(np.random.default_rng(4).normal(size=(len(td.VOCAB), 5)),
                         requires_grad=True)
        out = build(table)
        T.backward(T.tsum(T.mul(out, T.Tensor(g))))
        T.reset_tape()
        results.append((out.data.tobytes(), table.grad.tobytes()))
    assert results[0] == results[1]


def test_token_ids_rejects_an_empty_report():
    with pytest.raises(ValueError, match="at least one token"):
        token_ids([("study",), ()])


def test_bce_with_logits_gradient_is_finite_at_a_very_negative_logit():
    x = T.Tensor([-1000.0, 0.5], requires_grad=True)
    targets = np.array([0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        T.backward(T.tsum(T.bce_with_logits(x, targets)))
    assert np.all(np.isfinite(x.grad))
    np.testing.assert_array_equal(x.grad, _logistic(x.data) - targets)


#: binary primitives and operand shapes (``div``'s divisor stays positive)
BINARY_CASES = {
    "add": (T.add, (3, 4), (4,)),
    "sub": (T.sub, (2, 3, 4), (3, 4)),
    "mul": (T.mul, (3, 4), (3, 4)),
    "div": (T.div, (3, 4), (4,)),
    "matmul_2d_2d": (T.matmul, (3, 4), (4, 5)),
    "matmul_3d_2d": (T.matmul, (2, 3, 4), (4, 5)),
    "matmul_3d_3d": (T.matmul, (2, 3, 4), (2, 4, 5)),
}


@pytest.mark.parametrize("frozen", [0, 1])
@pytest.mark.parametrize("case", sorted(BINARY_CASES))
def test_binary_rule_skips_the_frozen_operand(case, frozen):
    op, sa, sb = BINARY_CASES[case]
    rng = np.random.default_rng(zlib.crc32(case.encode()))
    a, b = rng.normal(size=sa), rng.uniform(0.5, 2.0, size=sb)

    def rule_grads(requires):
        out = op(T.Tensor(a, requires_grad=requires[0]), T.Tensor(b, requires_grad=requires[1]))
        g = np.random.default_rng(1).normal(size=out.shape)
        return T.tape().nodes.pop().backward_fn(g)

    both = rule_grads((True, True))
    one = rule_grads((frozen == 1, frozen == 0))
    live = 1 - frozen
    assert one[frozen] is None
    assert one[live].shape == both[live].shape
    assert one[live].tobytes() == both[live].tobytes()


def test_primitive_ops_are_the_ops_the_benchmark_counts():
    # the benchmark reports one tape-node count per primitive and its
    # self-check fails when the two sets differ
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    prefix = "tensor.tape_nodes."
    counted = {m["name"][len(prefix):] for m in spec["per_layer"]
               if m["name"].startswith(prefix)}
    assert counted == set(T.PRIMITIVE_OPS)


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


def test_adamw_in_place_matches_the_formula_bit_for_bit():
    rng = np.random.default_rng(17)
    shapes = {"a.w": (192, 192), "a.b": (192,), "c": (7, 3), "d": (1,)}
    params = ParameterSet()
    for name, shape in shapes.items():
        params.add(name, T.Tensor(rng.normal(size=shape)))
    expected = {name: params[name].data.copy() for name in shapes}
    m = {name: np.zeros(shape) for name, shape in shapes.items()}
    v = {name: np.zeros(shape) for name, shape in shapes.items()}
    state = AdamWState()
    lr, wd, b1, b2, eps = 2e-3, 0.05, 0.9, 0.999, 1e-8
    for step in range(1, 7):
        for name, shape in shapes.items():
            g = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3)
            params[name].grad = g
            m[name] = b1 * m[name] + (1.0 - b1) * g
            v[name] = b2 * v[name] + (1.0 - b2) * g * g
            m_hat = m[name] / (1.0 - b1 ** step)
            v_hat = v[name] / (1.0 - b2 ** step)
            p = expected[name]
            expected[name] = p - lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * p)
        data_ids = {name: id(params[name].data) for name in shapes}
        adamw_step(params, state, lr=lr, weight_decay=wd, betas=(b1, b2), eps=eps)
        for name in shapes:
            assert id(params[name].data) == data_ids[name]
            assert params[name].data.tobytes() == expected[name].tobytes(), (step, name)
            assert state.m[name].tobytes() == m[name].tobytes(), (step, name)
            assert state.v[name].tobytes() == v[name].tobytes(), (step, name)


def test_adamw_missing_grad_names_parameter():
    params = ParameterSet()
    params.add("alpha", T.Tensor(np.ones(2)))
    params.add("beta", T.Tensor(np.ones(2)))
    params["alpha"].grad = np.ones(2)
    with pytest.raises(ValueError, match="beta"):
        adamw_step(params, AdamWState(), lr=0.1)


def _two_layer(seed):
    params = ParameterSet()
    rng = np.random.default_rng(seed)
    return params, Linear(params, "l1", 3, 5, rng), Linear(params, "l2", 5, 1, rng)


def test_train_epoch_equals_the_hand_written_step_loop():
    data = np.random.default_rng(3)
    x, y = data.normal(size=(9, 3)), data.normal(size=(9, 1))
    params, l1, l2 = _two_layer(4)
    seen = []

    def mse(l1, l2, idx):
        diff = T.sub(l2(T.silu(l1(T.Tensor(x[idx])))), T.Tensor(y[idx]))
        return T.tmean(T.mul(diff, diff))

    def batch_loss(idx):
        seen.append(len(idx))
        return mse(l1, l2, idx)

    order, state = np.random.default_rng(5), AdamWState()
    history = [train_epoch(params, state, order, 9, 4, batch_loss, "toy", 1e-2, 1e-4,
                           min_rows=2) for _ in range(3)]
    assert seen == [4, 4] * 3  # the trailing batch of one row is skipped

    ref, r1, r2 = _two_layer(4)
    order, state = np.random.default_rng(5), AdamWState()
    ref_history = []
    for _ in range(3):
        perm = order.permutation(9)
        losses = []
        for lo in (0, 4):
            loss = mse(r1, r2, perm[lo:lo + 4])
            losses.append(loss.item())
            ref.zero_grad()
            T.backward(loss)
            adamw_step(ref, state, lr=1e-2, weight_decay=1e-4)
            T.reset_tape()
        ref_history.append(float(np.mean(losses)))
    assert history == ref_history
    assert params.checksum() == ref.checksum()


def test_train_epoch_rejects_an_untouched_parameter_unless_filled():
    params, l1, _ = _two_layer(6)
    x = np.ones((4, 3))
    batch_loss = lambda idx: T.tmean(l1(T.Tensor(x[idx])))  # l2 takes no part
    with pytest.raises(ValueError, match="l2.b"):
        train_epoch(params, AdamWState(), np.random.default_rng(0), 4, 2,
                    batch_loss, "toy", 1e-2, 0.0)
    T.reset_tape()
    before = params["l2.w"].data.copy()
    train_epoch(params, AdamWState(), np.random.default_rng(0), 4, 2, batch_loss,
                "toy", 1e-2, 0.0, fill_missing=True)
    np.testing.assert_array_equal(params["l2.w"].data, before)
    assert not np.array_equal(params["l1.w"].data, _two_layer(6)[0]["l1.w"].data)


def test_train_epoch_without_a_full_enough_batch_names_the_stage():
    params, l1, _ = _two_layer(6)
    before = params.checksum()
    batch_loss = lambda idx: T.tmean(l1(T.Tensor(np.ones((len(idx), 3)))))
    for n, batch_size in [(5, 1), (1, 4), (0, 4)]:
        with pytest.raises(ValueError, match="alignment: no batch of at least 2 rows"):
            train_epoch(params, AdamWState(), np.random.default_rng(0), n, batch_size,
                        batch_loss, "alignment", 1e-2, 0.0, min_rows=2)
    assert params.checksum() == before


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
