"""Sparse edge tensors: dense-oracle equivalence and support closure."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (asymmetric_copy, configured_loss, dense_mode1_oracle,
                      dense_mode2_oracle, dense_mode3_oracle,
                      fancy_index_propagate, loop_plan, random_adjacency,
                      random_edge_tensor, random_support, support_mask,
                      tensor_to_dense)
from edgetensor import autodiff as ad
from edgetensor import edge_tensor
from edgetensor.autodiff import Var, backward
from edgetensor.edge_tensor import (EdgeFeatureTensor, axpy, contraction_plan,
                                    mode_k_product_dense, project_mode3,
                                    propagate_mode1, propagate_mode2,
                                    propagate_values)
from edgetensor.generators import sbm_generate
from edgetensor.layers import sparse_matmul
from edgetensor.sparse_graph import SparseAdjacency, renormalize


def make_pair(n, p, rng, density=0.4):
    """Tensor and adjacency sharing one random support."""
    t = random_edge_tensor(n, p, rng, density)
    dense = np.zeros((n, n))
    upper = t.rows <= t.cols
    dense[t.rows[upper], t.cols[upper]] = rng.random(int(upper.sum())) + 0.1
    dense = np.maximum(dense, dense.T)
    a = t.rows, t.cols, dense[t.rows, t.cols]
    return t, SparseAdjacency(n, *a)


def check_mode_oracle(propagate, oracle, rng):
    for _ in range(20):
        n = int(rng.integers(2, 15))
        p = int(rng.integers(1, 5))
        t, a = make_pair(n, p, rng, density=float(rng.random() * 0.6))
        for weighted in (a, asymmetric_copy(a, rng)):
            out = propagate(t, weighted)
            expected = oracle(tensor_to_dense(t), weighted.to_dense())
            expected[~support_mask(t)] = 0.0
            np.testing.assert_allclose(tensor_to_dense(out), expected,
                                       atol=1e-12)


def test_tensor_requires_diagonal():
    a = SparseAdjacency(2, [0, 1], [1, 0], np.ones(2))
    with pytest.raises(ValueError, match="diagonal"):
        EdgeFeatureTensor.from_support_of(a, np.ones((2, 1)))


def test_mode_k_product_dense_matches_loop_oracle(rng):
    t = rng.standard_normal((4, 4, 3))
    a = rng.standard_normal((4, 4))
    w = rng.standard_normal((2, 3))
    np.testing.assert_allclose(mode_k_product_dense(t, a, 1),
                               dense_mode1_oracle(t, a), atol=1e-12)
    np.testing.assert_allclose(mode_k_product_dense(t, a, 2),
                               dense_mode2_oracle(t, a), atol=1e-12)
    np.testing.assert_allclose(mode_k_product_dense(t, w, 3),
                               dense_mode3_oracle(t, w.T), atol=1e-12)


def test_propagate_mode1_matches_masked_dense_oracle(rng):
    """Symmetric and asymmetric weights on random supports."""
    check_mode_oracle(propagate_mode1, dense_mode1_oracle, rng)


def test_propagate_mode2_matches_masked_dense_oracle(rng):
    """Symmetric and asymmetric weights on random supports."""
    check_mode_oracle(propagate_mode2, dense_mode2_oracle, rng)


def test_mode_k_product_dense_rejects_bad_operands():
    cube = np.ones((2, 3, 4))
    with pytest.raises(ValueError, match="3-way"):
        mode_k_product_dense(np.ones((2, 2)), np.ones((2, 2)), 1)
    with pytest.raises(ValueError, match="columns must match"):
        mode_k_product_dense(cube, np.ones((4, 3)), 3)
    for k in (0, 4):
        with pytest.raises(ValueError, match="k must be 1, 2 or 3"):
            mode_k_product_dense(cube, np.ones((4, 4)), k)


def test_project_mode3_rejects_a_weight_of_another_height(rng):
    t = random_edge_tensor(5, 3, rng)
    with pytest.raises(ValueError, match="projection rows"):
        project_mode3(t, np.ones((2, 2)))


def test_project_mode3_matches_oracle(rng):
    t = random_edge_tensor(6, 4, rng)
    w = rng.standard_normal((4, 2))
    out = project_mode3(t, w)
    expected = dense_mode3_oracle(tensor_to_dense(t), w)
    np.testing.assert_allclose(tensor_to_dense(out), expected, atol=1e-12)


def test_identity_adjacency_is_noop(rng):
    t = random_edge_tensor(5, 2, rng)
    eye = t.pattern.with_weights(np.where(t.rows == t.cols, 1.0, 0.0))
    np.testing.assert_allclose(propagate_mode1(t, eye).values, t.values,
                               atol=1e-15)
    np.testing.assert_allclose(propagate_mode2(t, eye).values, t.values,
                               atol=1e-15)


def test_support_closure(rng):
    t, a = make_pair(8, 3, rng)
    out = propagate_mode2(propagate_mode1(t, a), a)
    assert np.array_equal(out.rows, t.rows)
    assert np.array_equal(out.cols, t.cols)


def test_propagate_linearity(rng):
    t1, a = make_pair(7, 3, rng)
    t2 = t1.with_values(rng.standard_normal(t1.values.shape))
    lhs = propagate_mode1(t1.with_values(t1.values + t2.values), a)
    rhs = propagate_mode1(t1, a).values + propagate_mode1(t2, a).values
    np.testing.assert_allclose(lhs.values, rhs, atol=1e-12)


def test_propagate_homogeneity(rng):
    t, a = make_pair(7, 2, rng)
    lhs = propagate_mode1(t.with_values(3.5 * t.values), a).values
    np.testing.assert_allclose(lhs, 3.5 * propagate_mode1(t, a).values,
                               atol=1e-12)


def test_axpy_and_epsilon_decomposition(rng):
    t, a = make_pair(6, 2, rng)
    prop = propagate_mode2(propagate_mode1(t, a), a)
    mixed = axpy(prop, t, 0.25)
    np.testing.assert_allclose(mixed.values, prop.values + 0.25 * t.values,
                               atol=1e-15)
    zero = axpy(prop, t, 0.0)
    np.testing.assert_array_equal(zero.values, prop.values)


def test_axpy_rejects_mismatched_support(rng):
    t1 = random_edge_tensor(5, 2, rng, density=0.2)
    t2 = random_edge_tensor(5, 2, rng, density=0.9)
    if np.array_equal(t1.pattern.keys, t2.pattern.keys):
        pytest.skip("supports collided")
    with pytest.raises(ValueError, match="support"):
        axpy(t1, t2, 0.1)


def assert_grad_matches_finite_differences(grad, base, loss, step=1e-6):
    flat = base.reshape(-1).copy()
    for k in range(flat.size):
        delta = np.zeros_like(flat)
        delta[k] = step
        hi = loss((flat + delta).reshape(base.shape))
        lo = loss((flat - delta).reshape(base.shape))
        fd = (hi - lo) / (2 * step)
        assert grad.reshape(-1)[k] == pytest.approx(fd, abs=1e-6)


def test_propagate_gradients_match_finite_differences(rng):
    """Both modes at widths 1-3 (mg propagates at 1 and 3).

    The last case traces the weights and the tensor from one leaf, as in
    et_gat's second layer, where attention weights and the tensor are both
    Vars: vjp_a and vjp_s add into the same gradient.
    """
    for product in (propagate_mode1, propagate_mode2):
        for p in (1, 2, 3):
            t, a = make_pair(5, p, rng)
            coeff = rng.standard_normal(t.values.shape)
            sv = Var(t.values.copy())
            av = Var(a.weights.copy())
            out = product(t.with_values(sv), a.with_weights(av))
            backward(ad.total(ad.mul(out.values, Var(coeff))))
            assert_grad_matches_finite_differences(
                sv.grad, t.values,
                lambda v: (product(t.with_values(v), a).values * coeff).sum())
            assert_grad_matches_finite_differences(
                av.grad, a.weights,
                lambda v: (product(t, a.with_weights(v)).values
                           * coeff).sum())

        # make_pair's adjacency lists the tensor's slots in slot order, so
        # entry k can take its weight from slot k
        t, a = make_pair(5, 3, rng)
        coeff = rng.standard_normal(t.values.shape)
        leaf = Var(t.values.copy())
        row_sums = ad.reshape(ad.matmul(leaf, np.ones((3, 1))), (-1,))
        out = product(t.with_values(leaf), a.with_weights(row_sums))
        backward(ad.total(ad.mul(out.values, Var(coeff))))
        assert_grad_matches_finite_differences(
            leaf.grad, t.values,
            lambda v: (product(t.with_values(v),
                               a.with_weights(v.sum(axis=1))
                               ).values * coeff).sum())


def test_propagate_traces_only_its_var_input(rng):
    t, a = make_pair(5, 2, rng)
    sv = Var(t.values.copy())
    out = propagate_mode1(t.with_values(sv), a).values
    assert isinstance(out, Var)
    assert len(out._parents) == 1 and out._parents[0] is sv


def test_contraction_plan_is_cached(rng):
    t, a = make_pair(6, 2, rng)
    p1 = contraction_plan(1, t, a)
    p2 = contraction_plan(1, t, a)
    assert p1 is p2
    assert contraction_plan(2, t, a) is not p1
    assert (p1, contraction_plan(2, t, a)) == t.pattern.plans


def test_contraction_plan_is_shared_by_weight_copies(rng):
    t, a = make_pair(6, 2, rng)
    plan = contraction_plan(1, t, a)
    for w in (2.0 * a.weights, Var(a.weights.copy())):
        assert contraction_plan(1, t, a.with_weights(w)) is plan


def test_with_values_shares_the_support(rng):
    t = random_edge_tensor(6, 2, rng)
    assert t.with_values(rng.standard_normal((t.num_slots, 2))).pattern is t.pattern
    assert project_mode3(t, np.ones((2, 3))).pattern is t.pattern
    assert t.with_values(np.ones((t.num_slots, 3))).p == 3
    with pytest.raises(ValueError, match="finite"):
        t.with_values(np.full((t.num_slots, 2), np.nan))


def test_values_must_be_one_row_per_slot(rng):
    t = random_edge_tensor(6, 2, rng)
    for bad in (np.ones(t.num_slots), np.ones((t.num_slots + 1, 2)),
                np.ones((t.num_slots - 1, 2))):
        for values in (bad, Var(bad)):
            with pytest.raises(ValueError, match="shape"):
                EdgeFeatureTensor(t.pattern, values)


def test_support_shares_the_adjacency_arrays(rng):
    a = random_adjacency(7, rng)
    t = EdgeFeatureTensor.from_support_of(a, np.ones((a.nnz, 1)))
    assert t.pattern is a and t.rows is a.rows and t.cols is a.cols
    assert t.n == a.n and t.num_slots == a.nnz


def test_from_support_of_reuses_the_adjacency_support(rng):
    t, a = make_pair(6, 2, rng)
    s1 = EdgeFeatureTensor.from_support_of(a, rng.standard_normal((a.nnz, 2)))
    s2 = EdgeFeatureTensor.from_support_of(a, rng.standard_normal((a.nnz, 3)))
    assert s1.pattern is s2.pattern is a
    assert s2.p == 3


def test_propagate_rejects_adjacency_on_another_pattern(rng):
    t = EdgeFeatureTensor.from_support_of(
        SparseAdjacency(3, [0, 0, 1, 1, 2], [0, 1, 0, 1, 2], np.ones(5)),
        np.ones((5, 1)))
    cases = [(t, a) for a in (
        SparseAdjacency(3, [0, 1, 2], [0, 1, 2], np.ones(3)),  # a strict sub-pattern
        SparseAdjacency.from_undirected_edges(3, [(1, 2)]),  # partly outside
        SparseAdjacency(4, np.arange(4), np.arange(4), np.ones(4)),  # another n
    )]
    # another n whose keys i * n + j equal the tensor's: among symmetric
    # patterns up to n = 5, only the lone entry (0, 0) makes such a pair
    one = SparseAdjacency(1, [0], [0], [1.0])
    cases.append((EdgeFeatureTensor.from_support_of(one, np.ones((1, 1))),
                  SparseAdjacency(2, [0], [0], [1.0])))
    assert np.array_equal(cases[-1][1].keys, one.keys)
    for s, a in cases:
        for product in (propagate_mode1, propagate_mode2):
            with pytest.raises(ValueError, match="tensor's pattern"):
                product(s, a)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_oracle_equivalence_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    p = int(rng.integers(1, 4))
    t, a = make_pair(n, p, rng, density=float(rng.random() * 0.7))
    out = tensor_to_dense(propagate_mode1(t, a))
    expected = mode_k_product_dense(tensor_to_dense(t), a.to_dense(), 1)
    expected[~support_mask(t)] = 0.0
    assert np.abs(out - expected).max() <= 1e-10 * max(1.0, np.abs(expected).max())


PLAN_KINDS = ("full", "edgeless", "hub", "clique")


def plan_case(seed, n, kind):
    """A pattern with symmetric random weights.

    ``full``: a random symmetric pattern with the diagonal. ``edgeless``:
    the diagonal only. ``hub``: node 0 joined to every node on a sparse
    random pattern. ``clique``: every entry, so every candidate closes.
    """
    rng = np.random.default_rng(seed)
    if kind == "edgeless":
        rows = cols = np.arange(n)
    elif kind == "clique":
        rows, cols = np.nonzero(np.ones((n, n), dtype=bool))
    else:
        rows, cols = random_support(n, rng, 0.1 if kind == "hub" else rng.random())
        if kind == "hub":
            mask = np.zeros((n, n), dtype=bool)
            mask[rows, cols] = True
            mask[0, :] = mask[:, 0] = True
            rows, cols = np.nonzero(mask)
    pattern = SparseAdjacency(n, rows, cols, np.ones(rows.size))
    weights = rng.random(rows.size) + 0.1
    return pattern.with_weights(
        np.maximum(weights, weights[pattern.transpose_permutation]))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31),
       st.integers(min_value=1, max_value=16), st.sampled_from(PLAN_KINDS))
@example(seed=0, n=1, kind="full")
@example(seed=2, n=9, kind="edgeless")
@example(seed=3, n=16, kind="hub")
@example(seed=4, n=12, kind="clique")
def test_plan_matches_loop_oracle(seed, n, kind):
    pattern = plan_case(seed, n, kind)
    for mode, plan in zip((1, 2), pattern.plans):
        expected = loop_plan(mode, pattern)
        got = (plan.out_idx, plan.adj_idx, plan.slot_idx)
        for g, e in zip(got, expected):
            assert g.dtype == e.dtype and np.array_equal(g, e)
        assert (plan.num_slots, plan.num_adj) == (pattern.nnz, pattern.nnz)


@pytest.mark.parametrize("kind", PLAN_KINDS)
def test_plan_pair_shares_its_output_and_entry_arrays(kind):
    """Mode 2 reads entry Q and slot P where mode 1 reads entry P: one
    ``out`` array and one P array serve both plans. Their ``transpose`` is
    the pattern's own permutation, not a copy."""
    pattern = plan_case(5, 12, kind)
    mode1, mode2 = pattern.plans
    assert mode2.out_idx is mode1.out_idx
    assert mode2.slot_idx is mode1.adj_idx
    assert mode1.transpose is mode2.transpose is pattern.transpose_permutation


@pytest.mark.parametrize("pattern", [
    pytest.param(lambda: SparseAdjacency(5, [], [], []), id="empty"),
    pytest.param(lambda: plan_case(3, 16, "hub"), id="hub"),
    pytest.param(lambda: plan_case(4, 12, "clique"), id="clique"),
    pytest.param(lambda: renormalize(
        sbm_generate([60, 60], 0.2, 0.02, seed=0).adjacency), id="sbm"),
])
def test_transpose_permutation_equals_a_search_of_the_transposed_keys(pattern):
    a = pattern()
    tkeys = a.cols * a.n + a.rows
    expected = np.searchsorted(a.keys, tkeys)
    assert a.transpose_permutation.dtype == expected.dtype
    assert np.array_equal(a.transpose_permutation, expected)


@pytest.mark.parametrize("rows,cols", [([0], [1]), ([0, 1, 2], [1, 2, 0])])
def test_transpose_permutation_refuses_an_asymmetric_pattern(rows, cols):
    """One entry with no mirror, and a 3-cycle whose transposed keys are
    all distinct but none is stored."""
    with pytest.raises(ValueError, match="entry pattern is not symmetric"):
        SparseAdjacency(3, rows, cols, np.ones(len(rows)))


@pytest.mark.parametrize("mode", [1, 2])
@pytest.mark.parametrize("p", [1, 3, 8, 32])
@pytest.mark.parametrize("kind", ["full", "hub"])
def test_propagate_values_bitwise_equal_to_fancy_index_kernel(mode, p, kind):
    """Forward values and both gradients match the ``x[idx]`` kernel bit for bit.

    Each case runs on C-ordered blocks and on F-ordered ones, the layout
    of the kernel's own output, so a chained product (mode 1 into mode 2,
    or a gradient the next product returned) is covered too; and on the
    pattern's symmetric weights and on asymmetric ones, as attention gives.
    """
    pattern = plan_case(7, 40, kind)
    plan = pattern.plans[mode - 1]
    rng = np.random.default_rng(p)
    s_c = rng.standard_normal((pattern.nnz, p))
    g_c = rng.standard_normal((pattern.nnz, p))
    for weighted in (pattern, asymmetric_copy(pattern, rng)):
        for order in ("C", "F"):
            s_vals, g = np.asarray(s_c, order=order), np.asarray(g_c, order=order)
            av, sv = Var(weighted.weights.copy()), Var(s_vals.copy(order="K"))
            out = propagate_values(plan, pattern.with_weights(av), sv)
            assert out.value.flags.f_contiguous
            backward(ad.total(ad.mul(out, g)))
            expected = fancy_index_propagate(plan, weighted.weights, s_vals, g)
            for got, want in zip((out.value, av.grad, sv.grad), expected):
                assert np.array_equal(got, want)


def _products_and_gradients(pattern, a, s_vals, h, g, leaf=None):
    """Mode-1, mode-2 and A·H products of matrix ``a`` on ``pattern`` and
    the gradients of their g-weighted sum: a list of plain arrays, the
    gradient of ``leaf``, the Var ``a``'s weights are computed from, last."""
    sv, hv = Var(s_vals.copy()), Var(h.copy())
    s = EdgeFeatureTensor(pattern, sv)
    outs = [propagate_mode1(s, a).values, propagate_mode2(s, a).values,
            sparse_matmul(a, hv)]
    backward(ad.total(ad.add(ad.total(ad.mul(ad.add(outs[0], outs[1]), g)),
                             ad.total(ad.mul(outs[2], h)))))
    grads = [sv.grad, hv.grad] + ([leaf.grad] if leaf is not None else [])
    return [ad.value(out) for out in outs] + grads


def _weights_of_kind(kind, w):
    """(weights, leaf): ``w`` plain, as a leaf Var, or as an op's result
    (a Var with a parent, as attention and the learned graph are)."""
    if kind == "plain":
        return w.copy(), None
    leaf = Var(w.copy())
    return (leaf if kind == "var" else ad.mul(leaf, 1.0)), leaf


@pytest.mark.parametrize("symmetric", [False, True],
                         ids=["asymmetric", "symmetric"])
@pytest.mark.parametrize("kind", ["plain", "var", "op"])
def test_a_twin_never_reads_its_parents_kept_products(kind, symmetric):
    """A matrix keeps the weights its products gathered through each plan;
    a ``with_weights`` copy of it, plain or Var, symmetric or not, gets
    none of them: its products and their gradients equal those of a
    fresh matrix with the same weights bit for bit. A copy whose weights
    are an op's result keeps its own forward gathers, one array per plan,
    and its products equal those of plain weights too."""
    rng = np.random.default_rng(3)
    parent = renormalize(random_adjacency(12, rng, density=0.4))
    s_vals = rng.standard_normal((parent.nnz, 3))
    h = rng.standard_normal((parent.n, 3))
    g = rng.standard_normal((parent.nnz, 3))
    _products_and_gradients(parent, parent, s_vals, h, g)
    assert len(parent._product_weights) == 3  # two modes and A·H
    w = rng.random(parent.nnz) + 0.1
    if symmetric:
        w = np.maximum(w, w[parent.transpose_permutation])
    fresh = SparseAdjacency(parent.n, parent.rows.copy(), parent.cols.copy(),
                            parent.weights.copy())
    outs = []
    for pattern in (parent, fresh):
        weights, leaf = _weights_of_kind(kind, w)
        twin = pattern.with_weights(weights)
        outs.append(_products_and_gradients(pattern, twin, s_vals, h, g, leaf))
    twin_out, fresh_out = outs
    assert len(twin_out) == len(fresh_out) == (5 if kind == "plain" else 6)
    for got, want in zip(twin_out, fresh_out):
        assert np.array_equal(got, want)
    if kind == "op":
        plans = (*fresh.plans, fresh.node_plan)  # twin is on fresh
        assert set(twin._product_weights) == set(plans)
        for plan in plans:
            forward, adjoint = twin.product_weights(plan)
            assert forward is twin._product_weights[plan] and adjoint is None
        plain = _products_and_gradients(fresh, fresh.with_weights(w.copy()),
                                        s_vals, h, g)
        for got, want in zip(twin_out, plain):
            assert np.array_equal(got, want)


def test_var_weights_are_gathered_per_call():
    """A Var's value changes in place (Adam does that), so a product of a
    Var-weighted matrix keeps no gathered weights and follows the change."""
    rng = np.random.default_rng(4)
    pattern = plan_case(5, 20, "full")
    w = Var(pattern.weights.copy())
    a = pattern.with_weights(w)
    s = EdgeFeatureTensor(pattern, rng.standard_normal((pattern.nnz, 2)))
    propagate_mode1(s, a)
    w.value *= 2.0
    want = propagate_mode1(s, pattern.with_weights(w.value.copy()))
    assert np.array_equal(propagate_mode1(s, a).values.value, want.values)
    assert a._product_weights is None


def _sparse_channels(nnz, rng):
    """Channels of each kind the kept forward tells apart: random values
    with planted +0.0 and -0.0 entries, all zero, no zero, binary, and one
    negative value on every nonzero entry beside -0.0 ones."""
    k = np.arange(nnz)
    vals = rng.standard_normal((nnz, 5))
    vals[k % 4 == 0, 0] = 0.0
    vals[k % 4 == 1, 0] = -0.0
    vals[:, 1] = 0.0
    vals[:, 2] += np.where(vals[:, 2] >= 0, 0.1, -0.1)
    vals[:, 3] = k % 3 == 0
    vals[:, 4] = np.where(k % 3 == 1, -2.5, -0.0)
    return vals


def _bits(x):
    return np.ascontiguousarray(ad.value(x)).view(np.uint64)


@pytest.mark.parametrize("kind", ["op", "leaf"])
@pytest.mark.parametrize("case", [(1, 11, "full"), (1, 16, "hub"), (2, 9, "edgeless"),
                                  (3, 1, "full")],
                         ids=["full", "hub", "edgeless", "one-node"])
def test_nonzero_triples_forward_is_bitwise_the_gather_path(case, kind):
    """A plain tensor under Var weights propagates over its nonzero triples
    only: each mode's product equals the full gather's bit for bit, zero
    signs included, and the masked dense oracle; the weight gradient is
    unchanged. A channel without zeros keeps nothing, an all-zero one
    keeps no triple, and a channel with one nonzero value keeps it."""
    pattern = plan_case(*case)
    rng = np.random.default_rng(case[0])
    vals = _sparse_channels(pattern.nnz, rng)
    s = EdgeFeatureTensor(pattern, vals)
    w = asymmetric_copy(pattern, rng).weights
    for mode, propagate, oracle in ((1, propagate_mode1, dense_mode1_oracle),
                                    (2, propagate_mode2, dense_mode2_oracle)):
        plan = pattern.plans[mode - 1]
        outs, grads = [], []
        for kept in (True, False):
            leaf = Var(w.copy())
            a = pattern.with_weights(leaf if kind == "leaf" else ad.mul(leaf, 1.0))
            out = (propagate(s, a).values if kept
                   else propagate_values(plan, a, vals))
            backward(ad.total(ad.mul(out, vals + 1.0)))
            outs.append(out)
            grads.append(leaf.grad)
        assert np.array_equal(_bits(outs[0]), _bits(outs[1]))
        assert np.array_equal(_bits(grads[0]), _bits(grads[1]))
        expected = oracle(tensor_to_dense(s), pattern.with_weights(w).to_dense())
        expected[~support_mask(s)] = 0.0
        np.testing.assert_allclose(tensor_to_dense(s.with_values(outs[0].value)),
                                   expected, atol=1e-12)
        for column, kept in zip(vals.T, s._nonzero_triples(plan)):
            if np.all(column != 0.0):
                assert kept is None
                continue
            positions, slots, value = kept
            read = column[plan.out_idx]
            assert np.array_equal(positions, np.flatnonzero(read != 0.0))
            assert np.array_equal(slots, plan.slot_idx[positions])
            shared = np.unique(column[column != 0.0])
            assert value == (shared[0] if shared.size == 1 else None)
    if pattern.nnz > 1:  # each channel kind is planted
        values = [kept and kept[2] for kept in s._nonzero_triples(plan)]
        assert values == [None, None, None, 1.0, -2.5]


def _spy_channel_triples(monkeypatch):
    """Record the plan of every channel's ``_nonzero_triples`` build."""
    calls, builder = [], edge_tensor._channel_triples

    def spy(plan, column):
        calls.append(plan)
        return builder(plan, column)

    monkeypatch.setattr(edge_tensor, "_channel_triples", spy)
    return calls


def test_nonzero_triples_are_built_once_per_tensor_and_plan(monkeypatch):
    """Each tensor builds a plan's triples on its first product over the
    plan, one channel at a time, and keeps them read-only; later products
    of that tensor over the plan build none, and another tensor on the
    same values builds its own."""
    calls = _spy_channel_triples(monkeypatch)
    pattern = plan_case(4, 14, "full")
    rng = np.random.default_rng(4)
    vals = _sparse_channels(pattern.nnz, rng)
    s = EdgeFeatureTensor(pattern, vals)
    a = pattern.with_weights(ad.mul(Var(pattern.weights.copy()), 1.0))
    for _ in range(2):
        propagate_mode1(s, a)
        propagate_mode2(s, pattern.with_weights(Var(pattern.weights.copy())))
    assert calls == [pattern.plans[0]] * 5 + [pattern.plans[1]] * 5
    for plan in pattern.plans:
        for kept in s._nonzero_triples(plan):
            if kept is not None:
                assert not any(arr.flags.writeable for arr in kept[:2])
    calls.clear()
    propagate_mode1(EdgeFeatureTensor(pattern, vals), a)
    assert calls == [pattern.plans[0]] * 5


def test_nonzero_triples_are_never_built_for_var_values_or_plain_weights(monkeypatch):
    """Var values (a recipe, every later layer) and plain x plain products
    (et_gcn on stacked views) keep no triples; et_gat on the same views
    builds them for its first layer's mode-1 product alone, once."""
    calls = _spy_channel_triples(monkeypatch)
    pattern = plan_case(5, 12, "hub")
    vals = _sparse_channels(pattern.nnz, np.random.default_rng(5))
    weights = pattern.with_weights(Var(pattern.weights.copy()))
    for values in (Var(vals.copy()), ad.mul(Var(vals.copy()), 1.0)):
        s = EdgeFeatureTensor(pattern, values)
        backward(ad.total(propagate_mode2(propagate_mode1(s, weights), weights).values))
    s = EdgeFeatureTensor(pattern, vals)
    propagate_mode2(propagate_mode1(s, pattern), pattern)
    sparse_matmul(weights, vals[:pattern.n])
    assert calls == []
    for kind in ("et_gcn", "et_gat"):
        tape, loss_fn = configured_loss(kind, "stack")
        for _ in range(2):
            backward(loss_fn())
        if kind == "et_gcn":
            assert calls == []
    assert len(calls) == 2  # one per view, for the mode-1 plan
    assert calls[0] is calls[1]


def test_every_sparse_product_gathers_through_its_sorted_output_index(monkeypatch):
    """Both directions of ``propagate_values``, for both modes and for
    ``sparse_matmul``'s A·H, call ``gather_scale_sum`` one way round: they
    gather through the plan's nondecreasing ``out_idx`` and add into its
    ``slot_idx``; only the weights differ."""
    calls, kernel = [], ad.gather_scale_sum

    def spy(x, gather_idx, scale, seg_ids, num_segments):
        calls.append((gather_idx, seg_ids))
        return kernel(x, gather_idx, scale, seg_ids, num_segments)

    monkeypatch.setattr(ad, "gather_scale_sum", spy)
    rng = np.random.default_rng(0)
    a = asymmetric_copy(plan_case(7, 40, "hub"), rng)
    for plan in a.plans:
        calls.clear()
        sv = Var(rng.standard_normal((a.nnz, 3)))
        backward(ad.total(propagate_values(plan, a, sv)))
        assert len(calls) == 2  # the forward and the tensor adjoint
        for gather_idx, seg_ids in calls:
            assert gather_idx is plan.out_idx and seg_ids is plan.slot_idx
            assert np.all(np.diff(gather_idx) >= 0)
    calls.clear()
    h = Var(rng.standard_normal((a.n, 3)))
    backward(ad.total(sparse_matmul(a, h)))
    assert len(calls) == 2
    for gather_idx, seg_ids in calls:
        # the per-call plan's output rows and input rows
        assert gather_idx is a.rows and seg_ids is a.cols
        assert np.all(np.diff(gather_idx) >= 0)


@pytest.mark.parametrize("p", [1, 3, 8, 32])
def test_propagate_values_weight_gradient_near_einsum_rowdot(p):
    """The column-order weight gradient is within 1e-12 of an einsum row dot."""
    pattern = plan_case(7, 40, "full")
    rng = np.random.default_rng(p)
    s_vals = rng.standard_normal((pattern.nnz, p))
    g = rng.standard_normal((pattern.nnz, p))
    for plan in pattern.plans:
        av = Var(pattern.weights.copy())
        backward(ad.total(ad.mul(
            propagate_values(plan, pattern.with_weights(av), s_vals), g)))
        rowdot = np.einsum("lp,lp->l", g[plan.out_idx], s_vals[plan.slot_idx])
        want = np.bincount(plan.adj_idx, weights=rowdot, minlength=plan.num_adj)
        np.testing.assert_allclose(av.grad, want, rtol=0, atol=1e-12)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_propagate_values_allocates_no_triples_by_width_block():
    """A p=8 forward and backward over a 50k-triple plan never hold a
    triples x p block, and the A·H backward never holds an entries x p
    block.

    Seven disjoint 20-node cliques: 2,800 slots and 56,000 triples per
    mode, so the (slots x p) input copy and output stay small beside one
    (triples x p) float64 block. The backward traces both the adjacency
    weights and the tensor values, so it runs both adjoints. The same
    graph's ``sparse_matmul`` has 2,800 entries and 140 node rows, so its
    (n x p) blocks stay small beside one (entries x p) block.
    """
    k, cliques, p = 20, 7, 8
    iu, ju = np.triu_indices(k, 1)
    offsets = np.repeat(np.arange(cliques) * k, iu.size)
    pairs = np.stack([np.tile(iu, cliques) + offsets,
                      np.tile(ju, cliques) + offsets], axis=1)
    a = renormalize(SparseAdjacency.from_undirected_edges(k * cliques, pairs))
    rng = np.random.default_rng(0)
    s_vals = rng.standard_normal((a.nnz, p))
    g = rng.standard_normal((a.nnz, p))
    for mode, plan in zip((1, 2), a.plans):
        assert plan.out_idx.size >= 50_000
        block = plan.out_idx.size * p * 8
        peak = _traced_peak(lambda: propagate_values(plan, a, s_vals))
        assert peak < block, f"mode {mode}: forward peak {peak} B >= block {block} B"
        av, sv = Var(a.weights.copy()), Var(s_vals.copy())
        loss = ad.total(ad.mul(propagate_values(plan, a.with_weights(av), sv),
                               g))
        peak = _traced_peak(lambda: backward(loss))
        assert av.grad is not None and sv.grad is not None
        assert peak < block, f"mode {mode}: backward peak {peak} B >= block {block} B"
    w, h = Var(a.weights.copy()), Var(rng.standard_normal((a.n, p)))
    g = rng.standard_normal((a.n, p))
    loss = ad.total(ad.mul(sparse_matmul(a.with_weights(w), h), g))
    peak = _traced_peak(lambda: backward(loss))
    assert w.grad is not None and h.grad is not None
    block = a.nnz * p * 8
    assert peak < block, f"A·H: backward peak {peak} B >= block {block} B"


def test_plans_refuse_a_pattern_over_the_budget():
    """A 400-node clique (64M triples per mode) is refused before its walk
    builds a candidate-long array.

    Its 80,200 slots with x <= y walk 400 candidates each: 32,080,000
    candidates, whose 256 MB index arrays alone would outweigh what the
    refusal holds, a few slot-long arrays (0.64 MB each).
    """
    a = plan_case(0, 400, "clique")
    a.keys, a.indptr, a.transpose_permutation  # cached before the trace
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"2,053,120,000 bytes "
                                             r"\(32,080,000 candidates\)"):
            a.plans
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_plan_budget_admits_a_sparse_20k_node_graph():
    """A 20,000-node graph of mean degree 12 is under the budget: its plans
    build without raising."""
    n, rng = 20_000, np.random.default_rng(0)
    pairs = rng.integers(n, size=(6 * n, 2))
    pairs = np.unique(np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1), axis=0)
    a = renormalize(SparseAdjacency.from_undirected_edges(n, pairs))
    assert a.plans[0].out_idx.size > 0


def test_star_plans_stay_small():
    """A 6000-node star: plans cost O(triples), not O(sum of degree squared)."""
    n = 6000
    star = np.stack([np.zeros(n - 1, dtype=np.intp), np.arange(1, n)], axis=1)
    a = renormalize(SparseAdjacency.from_undirected_edges(n, star))
    tracemalloc.start()
    try:
        plans = a.plans
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert [plan.out_idx.size for plan in plans] == [41_994, 41_994]
