"""Layer forwards: node convolution, edge-tensor convolution, attention."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (asymmetric_copy, composed_sparse_matmul,
                      dense_mode1_oracle, dense_mode2_oracle,
                      dense_mode3_oracle, fancy_index_propagate, has_entry,
                      random_adjacency, support_mask, tensor_to_dense)
from edgetensor import autodiff as ad
from edgetensor import layers
from edgetensor.autodiff import Var, backward
from edgetensor.edge_tensor import EdgeFeatureTensor
from edgetensor.gradcheck import finite_difference_check
from edgetensor.layers import (EdgeConvLayer, GraphConvLayer,
                               attention_forward, gc_forward, sparse_matmul,
                               tpgc_forward)
from edgetensor.params import ParamTape
from edgetensor.sparse_graph import ContractionPlan, SparseAdjacency, renormalize

# (input width, output width) of a layer weight: the layers project first
# when it narrows and propagate first otherwise
WIDTHS = [pytest.param(3, 2, id="narrow"), pytest.param(2, 2, id="equal"),
          pytest.param(2, 3, id="widen")]


@pytest.mark.parametrize("d, d_out", WIDTHS)
def test_gc_forward_matches_dense(d, d_out, rng):
    a = renormalize(SparseAdjacency.from_undirected_edges(
        5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]))
    h = rng.standard_normal((5, d))
    w = rng.standard_normal((d, d_out))
    out = gc_forward(h, a, GraphConvLayer(w, activation="identity"))
    np.testing.assert_allclose(out, a.to_dense() @ h @ w, atol=1e-12)


def test_gc_forward_relu_and_softmax(rng):
    a = renormalize(SparseAdjacency.from_undirected_edges(4, [(0, 1), (2, 3)]))
    h = rng.standard_normal((4, 3))
    w = rng.standard_normal((3, 2))
    lin = a.to_dense() @ h @ w
    np.testing.assert_allclose(
        gc_forward(h, a, GraphConvLayer(w, activation="relu")),
        np.maximum(lin, 0.0), atol=1e-12)
    soft = gc_forward(h, a, GraphConvLayer(w, activation="softmax"))
    np.testing.assert_allclose(soft.sum(axis=1), np.ones(4), atol=1e-12)
    e = np.exp(lin - lin.max(axis=1, keepdims=True))
    np.testing.assert_allclose(soft, e / e.sum(axis=1, keepdims=True),
                               atol=1e-12)


def test_gc_forward_softmax_rows_alias():
    with pytest.raises(ValueError, match="unknown activation"):
        GraphConvLayer(np.ones((2, 2)), activation="softmax-rows")


def test_gc_forward_rejects_wrong_row_count(rng):
    a = renormalize(SparseAdjacency.from_undirected_edges(3, [(0, 1)]))
    with pytest.raises(ValueError, match="row count"):
        gc_forward(rng.standard_normal((4, 2)), a,
                   GraphConvLayer(np.ones((2, 2))))


def test_sparse_matmul_matches_dense(rng):
    a = random_adjacency(6, rng)
    h = rng.standard_normal((6, 4))
    out = sparse_matmul(a, h)
    np.testing.assert_allclose(out, a.to_dense() @ h, atol=1e-12)


@pytest.mark.parametrize("width", [1, 4, 8, 32])
def test_sparse_matmul_bitwise_equal_to_composition(width, rng):
    """Values and both gradients match the fancy-index kernel over the same
    entry plan bit for bit, and gather_rows/mul/segment_sum too, except
    for the weight gradient from width 8 up; on symmetric weights and on
    asymmetric ones, as attention gives.

    The weight gradient's row dots add their columns in order 0, 1, ...;
    the composition's ``mul`` adjoint sums them with ``.sum(axis=1)``,
    which adds in that order only below width 8 on numpy 2.4. From there
    up the two agree to 1e-12.
    """
    a = random_adjacency(30, rng, density=0.4)
    h = rng.standard_normal((30, width))
    g = rng.standard_normal((30, width))
    plan = ContractionPlan(a.rows, np.arange(a.nnz), a.cols,
                           a.transpose_permutation, a.n, a.nnz)
    for weighted in (a, asymmetric_copy(a, rng)):
        results = []
        for op in (sparse_matmul, composed_sparse_matmul):
            w, hv = Var(weighted.weights.copy()), Var(h.copy())
            out = op(a.with_weights(w), hv)
            backward(ad.total(ad.mul(out, g)))
            results.append((out.value, w.grad, hv.grad))
        (out, grad_w, grad_h), (want_out, want_w, want_h) = results
        assert np.array_equal(out, want_out)
        assert np.array_equal(grad_h, want_h)
        if width < 8:
            assert np.array_equal(grad_w, want_w)
        else:
            np.testing.assert_allclose(grad_w, want_w, rtol=0, atol=1e-12)
        expected = fancy_index_propagate(plan, weighted.weights, h, g)
        for got, want in zip(results[0], expected):
            assert np.array_equal(got, want)


def tpgc_dense_oracle(t, a_dense, w, epsilon, activation):
    """act((S x1 A x2 A + eps S) x3 W), dense then masked to the support."""
    s_dense = tensor_to_dense(t)
    mask = support_mask(t)
    step1 = dense_mode1_oracle(s_dense, a_dense)
    step1[~mask] = 0.0  # each sparse product drops off-support slots
    prop = dense_mode2_oracle(step1, a_dense)
    prop[~mask] = 0.0
    out = dense_mode3_oracle(prop + epsilon * s_dense, w)
    out[~mask] = 0.0
    if activation == "relu":
        out = np.maximum(out, 0.0)
    return out


def random_pair(n, p, rng, density=0.4):
    dense = np.triu(rng.random((n, n)) < density, 1)
    mask = dense | dense.T
    np.fill_diagonal(mask, True)
    rows, cols = np.nonzero(mask)
    vals = rng.standard_normal((rows.size, p))
    t = EdgeFeatureTensor.from_support_of(
        SparseAdjacency(n, rows, cols, np.ones(rows.size)), vals)
    w = np.zeros((n, n))
    upper = np.triu(mask)
    w[upper] = rng.random(int(upper.sum())) + 0.1
    w = np.maximum(w, w.T)
    a = SparseAdjacency(n, rows, cols, w[rows, cols])
    return t, a


@pytest.mark.parametrize("p, p_out", WIDTHS)
@pytest.mark.parametrize("activation", ["identity", "relu"])
def test_tpgc_forward_matches_dense_oracle(activation, p, p_out, rng):
    for _ in range(10):
        n = int(rng.integers(3, 12))
        t, a = random_pair(n, p, rng)
        w = rng.standard_normal((p, p_out))
        layer = EdgeConvLayer(w, epsilon=0.2, activation=activation)
        out = tpgc_forward(t, a, layer)
        expected = tpgc_dense_oracle(t, a.to_dense(), w, 0.2, activation)
        np.testing.assert_allclose(tensor_to_dense(out), expected, atol=1e-10)


def test_tpgc_epsilon_zero_drops_residual(rng):
    t, a = random_pair(6, 2, rng)
    w = rng.standard_normal((2, 2))
    base = tpgc_forward(t, a, EdgeConvLayer(w, epsilon=0.0,
                                            activation="identity"))
    expected = tpgc_dense_oracle(t, a.to_dense(), w, 0.0, "identity")
    np.testing.assert_allclose(tensor_to_dense(base), expected, atol=1e-10)


def test_edge_layer_rejects_negative_epsilon():
    with pytest.raises(ValueError, match="epsilon"):
        EdgeConvLayer(np.ones((2, 1)), epsilon=-0.1)


def test_edge_layer_rejects_an_unknown_activation():
    # softmax is a node activation only
    with pytest.raises(ValueError, match="unknown activation 'softmax'"):
        EdgeConvLayer(np.ones((2, 1)), activation="softmax")


def test_tpgat_uses_attention_weights(rng):
    t, a = random_pair(6, 2, rng)
    h = rng.standard_normal((6, 3))
    alpha = attention_forward(h, a, rng.standard_normal(6))
    w = rng.standard_normal((2, 2))
    layer = EdgeConvLayer(w, epsilon=0.2, activation="identity")
    out = tpgc_forward(t, alpha, layer)
    expected = tpgc_dense_oracle(t, alpha.to_dense(), w, 0.2, "identity")
    np.testing.assert_allclose(tensor_to_dense(out), expected, atol=1e-10)


def test_attention_rows_stochastic(rng):
    t, a = random_pair(8, 1, rng)
    h = rng.standard_normal((8, 4))
    alpha = attention_forward(h, a, rng.standard_normal(8))
    row_sums = np.bincount(alpha.rows, weights=alpha.weights, minlength=8)
    np.testing.assert_allclose(row_sums, np.ones(8), atol=1e-12)
    assert np.all(alpha.weights > 0)


def test_attention_preserves_support(rng):
    t, a = random_pair(6, 1, rng)
    h = rng.standard_normal((6, 2))
    alpha = attention_forward(h, a, rng.standard_normal(4))
    assert np.array_equal(alpha.rows, a.rows)
    assert np.array_equal(alpha.cols, a.cols)


def test_attention_matches_hand_softmax(rng):
    a = renormalize(SparseAdjacency.from_undirected_edges(3, [(0, 1), (1, 2)]))
    h = rng.standard_normal((3, 2))
    theta = rng.standard_normal(4)
    alpha = attention_forward(h, a, theta)
    dense = alpha.to_dense()
    for i in range(3):
        nbrs = [j for j in range(3) if has_entry(a, i, j)]
        scores = []
        for j in nbrs:
            s = theta @ np.concatenate([h[i], h[j]])
            scores.append(s if s > 0 else 0.2 * s)
        e = np.exp(np.array(scores) - max(scores))
        np.testing.assert_allclose(dense[i, nbrs], e / e.sum(), atol=1e-12)


def test_attention_matches_hand_loop_of_pair_scores(rng):
    """Scores theta . [H_i || H_j] by a loop over entries, softmaxed per row."""
    a = random_adjacency(9, rng, density=0.5)
    h = rng.standard_normal((9, 3))
    theta = rng.standard_normal(6)
    alpha = attention_forward(h, a, theta)
    scores = np.array([theta @ np.concatenate([h[i], h[j]])
                       for i, j in zip(a.rows.tolist(), a.cols.tolist())])
    scores = np.where(scores > 0, scores, 0.2 * scores)
    for i in range(9):
        row = a.rows == i
        e = np.exp(scores[row] - scores[row].max())
        np.testing.assert_allclose(alpha.weights[row], e / e.sum(), rtol=0,
                                   atol=1e-12)


def test_attention_gradcheck(rng):
    a = random_adjacency(6, rng, density=0.5)
    tape = ParamTape()
    h = tape.add("h", rng.standard_normal((6, 2)))
    theta = tape.add("theta", rng.standard_normal(4))
    g = rng.standard_normal(a.nnz)

    def loss_fn():
        alpha = attention_forward(h, a, theta)
        return ad.total(ad.mul(alpha.weights, g))

    ok, report = finite_difference_check(tape, loss_fn)
    assert ok, report


def test_attention_requires_self_loops(rng):
    a = SparseAdjacency.from_undirected_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="self-loop"):
        attention_forward(rng.standard_normal((3, 2)), a, rng.standard_normal(4))


def test_attention_rejects_wrong_theta_length(rng):
    a = renormalize(SparseAdjacency.from_undirected_edges(3, [(0, 1)]))
    with pytest.raises(ValueError, match="theta"):
        attention_forward(rng.standard_normal((3, 2)), a, np.ones(3))


def test_traced_forward_matches_plain(rng):
    t, a = random_pair(6, 2, rng)
    w = rng.standard_normal((2, 1))
    layer = EdgeConvLayer(w, epsilon=0.2, activation="relu")
    plain = tpgc_forward(t, a, layer)
    traced = tpgc_forward(t.with_values(Var(t.values)), a,
                          EdgeConvLayer(Var(w), epsilon=0.2,
                                        activation="relu"))
    assert isinstance(traced.values, Var)
    np.testing.assert_array_equal(traced.values.value, plain.values)


@pytest.mark.parametrize("p, p_out", WIDTHS)
def test_tpgc_forward_gradcheck(p, p_out, rng):
    t, a = random_pair(6, p, rng)
    tape = ParamTape()
    values = tape.add("values", t.values)
    weights = tape.add("a", a.weights)
    w = tape.add("w", rng.standard_normal((p, p_out)))

    def loss_fn():
        out = tpgc_forward(t.with_values(values), a.with_weights(weights),
                           EdgeConvLayer(w, epsilon=0.3, activation="identity"))
        return ad.total(ad.mul(out.values, out.values))

    ok, report = finite_difference_check(tape, loss_fn)
    assert ok, report


@pytest.mark.parametrize("d, d_out", WIDTHS)
def test_gc_forward_gradcheck(d, d_out, rng):
    a = random_adjacency(6, rng)
    tape = ParamTape()
    h = tape.add("h", rng.standard_normal((6, d)))
    weights = tape.add("a", a.weights)
    w = tape.add("w", rng.standard_normal((d, d_out)))

    def loss_fn():
        z = gc_forward(h, a.with_weights(weights),
                       GraphConvLayer(w, activation="identity"))
        return ad.total(ad.mul(z, z))

    ok, report = finite_difference_check(tape, loss_fn)
    assert ok, report


def test_narrowing_edge_layer_propagates_at_output_width(rng, monkeypatch):
    t, a = random_pair(6, 16, rng)
    widths = []
    for name in ("propagate_mode1", "propagate_mode2"):
        def spy(s, adj, _inner=getattr(layers, name)):
            widths.append(s.p)
            return _inner(s, adj)
        monkeypatch.setattr(layers, name, spy)
    tpgc_forward(t, a, EdgeConvLayer(rng.standard_normal((16, 1))))
    assert widths == [1, 1]


def test_narrowing_node_layer_propagates_at_output_width(rng, monkeypatch):
    a = random_adjacency(6, rng)
    widths = []

    def spy(adj, h, _inner=layers.sparse_matmul):
        widths.append(ad.value(h).shape[1])
        return _inner(adj, h)

    monkeypatch.setattr(layers, "sparse_matmul", spy)
    gc_forward(rng.standard_normal((6, 32)), a,
               GraphConvLayer(rng.standard_normal((32, 4))))
    assert widths == [4]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_attention_row_stochastic_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 15))
    t, a = random_pair(n, 1, rng, density=float(rng.random()))
    h = rng.standard_normal((n, int(rng.integers(1, 5))))
    theta = rng.standard_normal(2 * h.shape[1])
    alpha = attention_forward(h, a, theta)
    sums = np.bincount(alpha.rows, weights=alpha.weights, minlength=n)
    assert np.abs(sums - 1.0).max() <= 1e-12
