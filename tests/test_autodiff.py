"""Reverse-mode autodiff: op-level finite differences and hand oracles."""

import numpy as np
import pytest

from conftest import bincount_per_column, column_order_rowdot
from edgetensor import autodiff as ad
from edgetensor.autodiff import Var, backward


def numeric_grad(f, x, step=1e-6):
    """Central finite differences of a scalar function of one array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    out = g.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + step
        hi = f(x)
        flat[k] = orig - step
        lo = f(x)
        flat[k] = orig
        out[k] = (hi - lo) / (2 * step)
    return g


def check_unary(op, f, x, tol=1e-6):
    v = Var(x.copy())
    backward(ad.total(op(v)))
    expected = numeric_grad(lambda a: float(f(a).sum()), x.copy())
    np.testing.assert_allclose(v.grad, expected, rtol=tol, atol=tol)


def test_add_mul_sub_grads(rng):
    a = Var(rng.standard_normal((3, 4)))
    b = Var(rng.standard_normal((3, 4)))
    backward(ad.total(ad.mul(ad.add(a, b), ad.sub(a, b))))
    # d/da sum(a^2 - b^2) = 2a, d/db = -2b
    np.testing.assert_allclose(a.grad, 2 * a.value, atol=1e-12)
    np.testing.assert_allclose(b.grad, -2 * b.value, atol=1e-12)


@pytest.mark.parametrize("op", [ad.mul, ad.add, ad.sub])
def test_plain_constant_operand_adds_no_parent(op, rng):
    v = Var(rng.standard_normal(3))
    for out in (op(v, 2.0), op(2.0, v), op(v, np.full(3, 2.0))):
        assert len(out._parents) == 1 and out._parents[0] is v
        assert len(out._vjps) == 1
    plain = op(np.ones(3), 2.0)
    assert not isinstance(plain, Var)


def test_matmul_grad_closed_form(rng):
    # single linear layer, squared loss toward 0: d/dW sum((XW)^2) = 2 X^T X W
    x = rng.standard_normal((5, 3))
    w = Var(rng.standard_normal((3, 2)))
    z = ad.matmul(Var(x), w)
    backward(ad.total(ad.mul(z, z)))
    np.testing.assert_allclose(w.grad, 2 * x.T @ (x @ w.value), atol=1e-10)


@pytest.mark.parametrize("rows", [1, 7, 2000])
@pytest.mark.parametrize("order", ["C", "F"])
def test_one_column_matmul_adjoint_is_bitwise_the_blas_outer_product(rows, order, rng):
    """The left adjoint of a product by a (k, 1) operand is g bᵀ, built by
    broadcasting in feature-major order; with planted signed zeros in g and
    b it equals the BLAS product bit for bit, zero signs included."""
    x = np.asarray(rng.standard_normal((rows, 6)), order=order)
    b = rng.standard_normal((6, 1))
    b[0] = -0.0
    b[1] = 0.0
    g = rng.standard_normal((rows, 1))
    g[::3] = -0.0
    g[1::4] = 0.0
    a = Var(x.copy(order="K"))
    backward(ad.total(ad.mul(ad.matmul(a, b), g)))
    want = g @ b.T
    assert a.grad.flags.f_contiguous
    assert np.array_equal(a.grad.view(np.uint64), want.view(np.uint64))


def test_floor_at_adjoint_keeps_the_cotangents_memory_order(rng):
    """The adjoint multiplies by the mask in g's memory order: a C- or
    F-ordered g gets a result in its own order, equal to ``g * mask``."""
    x = rng.standard_normal((50, 8))
    for x_order in ("C", "F"):
        mask = np.asarray(x, order=x_order) > 0.0
        for g_order in ("C", "F"):
            g = np.asarray(rng.standard_normal((50, 8)), order=g_order)
            out = ad.relu(Var(np.asarray(x, order=x_order)))
            grad = out._vjps[0](g)
            assert np.array_equal(grad.view(np.uint64),
                                  (g * mask).view(np.uint64))
            assert grad.flags[f"{g_order}_CONTIGUOUS"]


def test_unused_parameter_gets_no_grad(rng):
    used = Var(rng.standard_normal(4))
    unused = Var(rng.standard_normal(4))
    backward(ad.total(ad.mul(used, used)))
    assert unused.grad is None
    np.testing.assert_allclose(used.grad, 2 * used.value, atol=1e-12)


LEADING = np.linspace(-1.0, 1.0, 24).reshape(2, 4, 3)


@pytest.mark.parametrize("op,f", [
    (ad.relu, lambda x: np.maximum(x, 0.0)),
    (ad.leaky_relu, lambda x: np.where(x > 0, x, 0.2 * x)),
    (ad.sigmoid, lambda x: 1 / (1 + np.exp(-x))),
    # a plain constant operand of mul, add and sub
    (lambda v: ad.mul(v, -1.5), lambda x: -1.5 * x),
    (lambda v: ad.add(v, 3.0), lambda x: x + 3.0),
    (lambda v: ad.sub(1.0, v), lambda x: 1.0 - x),
    # a plain operand with a leading axis: the adjoint sums that axis away
    (lambda v: ad.mul(ad.add(v, LEADING), LEADING),
     lambda x: (x + LEADING) * LEADING),
])
def test_elementwise_grads(op, f, rng):
    x = rng.standard_normal((4, 3)) + 0.05  # keep away from kinks
    check_unary(op, f, x)


def test_log_and_floor_grads(rng):
    x = rng.random((4, 3)) + 0.5
    check_unary(ad.log, np.log, x)
    v = Var(np.array([-1.0, 0.5, 2.0]))
    backward(ad.total(ad.floor_at(v, 1.0)))
    np.testing.assert_array_equal(v.grad, [0.0, 0.0, 1.0])


def test_rsqrt_grad(rng):
    x = rng.random(5) + 0.5
    check_unary(ad.rsqrt, lambda a: 1 / np.sqrt(a), x)


def test_sigmoid_extreme_inputs_stable():
    v = Var(np.array([-800.0, 0.0, 800.0]))
    s = ad.sigmoid(v)
    assert np.all(np.isfinite(s.value))
    np.testing.assert_allclose(s.value, [0.0, 0.5, 1.0], atol=1e-12)


def test_sigmoid_is_bitwise_its_three_exponential_form(rng):
    """One exp(-|x|) per call gives the values and gradients of the form
    that computed it three times."""
    x = np.concatenate([rng.standard_normal(500) * 30,
                        [-800.0, -0.0, 0.0, 800.0]])
    e = lambda: np.exp(-np.abs(x))  # noqa: E731
    want = np.where(x >= 0, 1.0 / (1.0 + e()), e() / (1.0 + e()))
    v = Var(x.copy())
    s = ad.sigmoid(v)
    backward(ad.total(s))
    assert np.array_equal(s.value.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(v.grad, want * (1.0 - want))


def test_reshape_and_row_slice_grads(rng):
    a = Var(rng.standard_normal((5, 2)))
    top, bottom = ad.row_slice(a, 0, 3), ad.row_slice(a, 3, 5)
    np.testing.assert_array_equal(top.value, a.value[:3])
    np.testing.assert_array_equal(bottom.value, a.value[3:])
    flat = ad.reshape(top, (-1,))
    weights = np.arange(6.0)
    backward(ad.add(ad.total(ad.mul(flat, Var(weights))), ad.total(bottom)))
    np.testing.assert_array_equal(
        a.grad, np.vstack([weights.reshape(3, 2), np.ones((2, 2))]))


def test_gather_rows_accumulates_duplicates(rng):
    a = Var(rng.standard_normal((3, 2)))
    idx = np.array([0, 0, 2])
    backward(ad.total(ad.gather_rows(a, idx)))
    np.testing.assert_array_equal(a.grad, [[2, 2], [0, 0], [1, 1]])


@pytest.mark.parametrize("shape", [(40,), (40, 1), (40, 3), (40, 8)])
def test_gather_and_segment_sum_bitwise_equal_to_fancy_index(shape, rng):
    """Values and gradients match ``x[idx]`` and a per-column bincount exactly."""
    idx = rng.integers(0, shape[0], 300)
    x = rng.standard_normal(shape)
    g = rng.standard_normal((idx.size,) + shape[1:])
    a = Var(x.copy())
    out = ad.gather_rows(a, idx)
    backward(ad.total(ad.mul(out, g)))
    assert np.array_equal(out.value, x[idx])
    assert np.array_equal(a.grad, bincount_per_column(g, idx, shape[0]))

    b = Var(g.copy())
    out = ad.segment_sum(b, idx, shape[0])
    backward(ad.total(ad.mul(out, x)))
    assert np.array_equal(out.value, bincount_per_column(g, idx, shape[0]))
    assert np.array_equal(b.grad, x[idx])

    with pytest.raises(IndexError):
        ad.gather_rows(a, [shape[0]])


def test_segment_sum_forward_and_grad(rng):
    a = Var(rng.standard_normal((5, 2)))
    seg = np.array([0, 1, 0, 2, 1])
    out = ad.segment_sum(a, seg, 3)
    for s in range(3):
        np.testing.assert_allclose(out.value[s], a.value[seg == s].sum(axis=0))
    backward(ad.total(ad.mul(out, out)))
    expected = 2 * out.value[seg]
    np.testing.assert_allclose(a.grad, expected, atol=1e-12)


@pytest.mark.parametrize("ncols", [3, 16])
def test_bincount_rows_matches_a_bincount_per_column(ncols, rng):
    """A C-ordered block sums through flat ids built per call, an F-ordered
    one column by column; each keeps its order, and both are bit for bit."""
    seg = rng.integers(0, 7, 200)
    for order in ("C", "F"):
        values = np.asarray(rng.standard_normal((200, ncols)), order=order)
        values[::5] = -0.0
        out = ad.bincount_rows(values, seg, 9)
        assert out.flags[f"{order}_CONTIGUOUS"]
        for k in range(ncols):
            want = np.bincount(seg, weights=values[:, k], minlength=9)
            assert np.array_equal(out[:, k].view(np.uint64),
                                  want.view(np.uint64))


@pytest.mark.parametrize("width", [1, 3, 8, 32])
def test_row_dots_bitwise_equal_to_column_order_rowdot(width, rng):
    """C- and F-ordered operands give the column-order row dots exactly."""
    x_c = rng.standard_normal((25, width))
    y_c = rng.standard_normal((40, width))
    x_idx = rng.integers(0, 25, 300)
    y_idx = rng.integers(0, 40, 300)
    want = column_order_rowdot(x_c[x_idx], y_c[y_idx])
    for order in ("C", "F"):
        x, y = np.asarray(x_c, order=order), np.asarray(y_c, order=order)
        assert np.array_equal(ad.row_dots(x, x_idx, y, y_idx), want)


def test_row_dots_empty_index_gives_empty_float_array(rng):
    x = rng.standard_normal((4, 3))
    empty = np.array([], dtype=np.intp)
    out = ad.row_dots(x, empty, x, empty)
    assert out.shape == (0,) and out.dtype == np.float64


def test_row_dots_of_zero_width_rows_are_zeros(rng):
    """No column starts the sum, so every dot is the empty sum."""
    x = np.zeros((4, 0))
    out = ad.row_dots(x, rng.integers(0, 4, 5), x, rng.integers(0, 4, 5))
    assert np.array_equal(out, np.zeros(5)) and out.dtype == np.float64


@pytest.mark.parametrize("width", [1, 2, 3])
def test_row_dots_signed_zeros_read_as_the_zero_started_sum(width, rng):
    """The sum starts from the first column's product, so a row of -0.0
    products sums to -0.0, where a sum from zeros gives 0.0. Both readers
    see the same bytes: the weight adjoint's ``bincount`` of the dots and
    ``link_scores``' sigmoid of them."""
    x = rng.choice([-0.0, 0.0, -1.5, 2.0], size=(6, width), p=[.4, .4, .1, .1])
    y = rng.choice([-0.0, 0.0, 0.5], size=(5, width), p=[.45, .45, .1])
    x_idx = rng.integers(0, 6, 200)
    y_idx = rng.integers(0, 5, 200)
    zero_started = np.zeros(200)
    for q in range(width):
        zero_started += x[x_idx, q] * y[y_idx, q]
    got = ad.row_dots(x, x_idx, y, y_idx)
    assert np.any(np.signbit(got) & (zero_started == 0) & ~np.signbit(zero_started))
    seg = rng.integers(0, 7, 200)
    for ids, bins in ((seg, 9), (x_idx, 6)):
        assert (np.bincount(ids, weights=got, minlength=bins).tobytes()
                == np.bincount(ids, weights=zero_started,
                               minlength=bins).tobytes())
    assert ad.sigmoid(got).tobytes() == ad.sigmoid(zero_started).tobytes()


def test_segment_softmax_matches_dense_softmax(rng):
    scores = rng.standard_normal(6)
    seg = np.array([0, 0, 0, 1, 1, 2])
    p = ad.segment_softmax(Var(scores), seg, 3).value
    for s in range(3):
        block = scores[seg == s]
        e = np.exp(block - block.max())
        np.testing.assert_allclose(p[seg == s], e / e.sum(), atol=1e-12)


def test_segment_softmax_grad(rng):
    scores = rng.standard_normal(6)
    seg = np.array([0, 0, 1, 1, 1, 2])
    coeff = rng.standard_normal(6)

    def f(x):
        p = ad.segment_softmax(Var(x), seg, 3)
        return float((p.value * coeff).sum())

    v = Var(scores.copy())
    backward(ad.total(ad.mul(ad.segment_softmax(v, seg, 3), Var(coeff))))
    np.testing.assert_allclose(v.grad, numeric_grad(f, scores.copy()),
                               atol=1e-6)


def test_row_softmax_rows_sum_to_one(rng):
    p = ad.row_softmax(Var(rng.standard_normal((4, 5)))).value
    np.testing.assert_allclose(p.sum(axis=1), np.ones(4), atol=1e-12)


def test_row_softmax_grad(rng):
    x = rng.standard_normal((3, 4))
    coeff = rng.standard_normal((3, 4))

    def f(a):
        p = ad.row_softmax(Var(a)).value
        return float((p * coeff).sum())

    v = Var(x.copy())
    backward(ad.total(ad.mul(ad.row_softmax(v), Var(coeff))))
    np.testing.assert_allclose(v.grad, numeric_grad(f, x.copy()), atol=1e-6)


def test_mean_gradient_is_uniform(rng):
    a = Var(rng.standard_normal((3, 4)))
    backward(ad.mean(a))
    np.testing.assert_allclose(a.grad, np.full((3, 4), 1 / 12), atol=1e-15)


def test_shared_node_grad_accumulates(rng):
    # a appears twice in the graph; grad of sum(a*a + a) is 2a + 1
    a = Var(rng.standard_normal(4))
    backward(ad.total(ad.add(ad.mul(a, a), a)))
    np.testing.assert_allclose(a.grad, 2 * a.value + 1, atol=1e-12)


def test_backward_fills_grad_only_on_leaves(rng):
    """An intermediate passes its cotangent on and keeps nothing; the
    root, when it has parents, is an intermediate too."""
    a = Var(rng.standard_normal(4))
    b = Var(rng.standard_normal(4))
    prod = ad.mul(a, b)
    shifted = ad.add(prod, a)
    root = ad.total(shifted)
    backward(root)
    assert prod.grad is None and shifted.grad is None and root.grad is None
    np.testing.assert_array_equal(a.grad, b.value + 1.0)
    np.testing.assert_array_equal(b.grad, a.value)


def test_leaf_grads_accumulate_across_backward_calls(rng):
    a = Var(rng.standard_normal(4))
    square = ad.mul(a, a)
    root = ad.total(square)
    backward(root)
    first = a.grad.copy()
    backward(root)
    assert np.array_equal(a.grad, first + first)
    assert square.grad is None and root.grad is None


def test_backward_deterministic_bitwise(rng):
    x = rng.standard_normal((6, 6))
    w = rng.standard_normal((6, 3))

    def run():
        a = Var(x)
        b = Var(w)
        backward(ad.total(ad.relu(ad.matmul(a, b))))
        return b.grad.copy()

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


def test_deep_chain_does_not_overflow():
    v = Var(np.ones(1))
    out = v
    for _ in range(5000):
        out = ad.add(out, 0.0)
    backward(ad.total(out))
    np.testing.assert_array_equal(v.grad, [1.0])
