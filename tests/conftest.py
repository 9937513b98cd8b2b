"""Shared fixtures and independent reference implementations.

The oracles here are deliberately written as explicit loops over dense
arrays, independent of the library's vectorized kernels, so that agreement
between the two is meaningful evidence.
"""

import numpy as np
import pytest

from edgetensor import autodiff as ad
from edgetensor import tasks
from edgetensor.autodiff import value
from edgetensor.edge_tensor import EdgeFeatureTensor, project_mode3
from edgetensor.evaluation import split_nodes
from edgetensor.generators import sbm_generate
from edgetensor.layers import gc_forward
from edgetensor.models import (build_model, etgnn_forward, prepare,
                               read_settings)
from edgetensor.params import ParamTape
from edgetensor.sparse_graph import LabeledGraph, SparseAdjacency
from edgetensor.training import PROB_FLOOR, cross_entropy_masked


def random_support(n, rng, density=0.3):
    """Random symmetric edge set plus full diagonal, as sorted slot arrays."""
    mask = rng.random((n, n)) < density
    mask = np.triu(mask, 1)
    mask = mask | mask.T
    np.fill_diagonal(mask, True)
    rows, cols = np.nonzero(mask)
    return rows.astype(np.intp), cols.astype(np.intp)


def random_adjacency(n, rng, density=0.3):
    rows, cols = random_support(n, rng, density)
    upper = rows <= cols
    w = np.zeros(rows.size)
    for k in np.flatnonzero(upper):
        w[k] = rng.random() + 0.1
    # mirror so the matrix is exactly symmetric
    dense = np.zeros((n, n))
    dense[rows, cols] = w
    dense = np.maximum(dense, dense.T)
    return SparseAdjacency(n, rows, cols, dense[rows, cols])


def asymmetric_copy(a, rng):
    """A ``with_weights`` copy of ``a`` with random per-entry weights, as
    attention gives: a product that reads an entry where it should read
    its transpose gets them wrong."""
    return a.with_weights(rng.random(a.nnz) + 0.1)


def has_entry(a, i, j):
    """Whether ``a`` stores entry (i, j); a plain scan of its triplets."""
    return any(r == i and c == j for r, c in zip(a.rows.tolist(),
                                                 a.cols.tolist()))


def loop_sample_non_edges(n, edge_keys, count, rng):
    """Rejection sampling of (i < j) non-edges, one draw at a time.

    The same batches of ``rng.integers`` draws as
    ``evaluation.sample_non_edges``, accepted in draw order.
    """
    edge_keys = set(np.asarray(edge_keys).tolist())
    out = []
    seen = set()
    while len(out) < count:
        draw = rng.integers(n, size=(max(2 * (count - len(out)), 8), 2))
        for i, j in draw:
            if i == j or len(out) >= count:
                continue
            a, b = (int(i), int(j)) if i < j else (int(j), int(i))
            key = a * n + b
            if key in edge_keys or key in seen:
                continue
            seen.add(key)
            out.append((a, b))
    return np.array(out, dtype=np.intp).reshape(-1, 2)


def loop_plan(mode, pattern):
    """Contraction triples by explicit loops, in (output slot, entry) order.

    Tensor and matrix share ``pattern``. For each output slot, then each
    entry in the anchoring row (row h of out (h, j) in mode 1, of out
    (i, h) in mode 2), keep the entry when the slot it reads, (i, j), is on
    the pattern.
    """
    slots = list(zip(pattern.rows.tolist(), pattern.cols.tolist()))
    slot_of = {rc: k for k, rc in enumerate(slots)}
    entries_in_row = [[] for _ in range(pattern.n)]
    for e, (h, c) in enumerate(slots):
        entries_in_row[h].append((e, c))
    out, adj, slot = [], [], []
    for t, (r, c) in enumerate(slots):
        anchor = r if mode == 1 else c
        for e, other in entries_in_row[anchor]:
            read = (other, c) if mode == 1 else (r, other)
            if read in slot_of:
                out.append(t)
                adj.append(e)
                slot.append(slot_of[read])
    return tuple(np.array(v, dtype=np.intp) for v in (out, adj, slot))


def bincount_per_column(values, seg_ids, num_segments):
    """Segment sum of a 1-d or 2-d block, one ``np.bincount`` per column."""
    if values.ndim == 1:
        return np.bincount(seg_ids, weights=values, minlength=num_segments)
    cols = [np.bincount(seg_ids, weights=values[:, k], minlength=num_segments)
            for k in range(values.shape[1])]
    return np.stack(cols, axis=1)


def column_order_rowdot(x, y):
    """Row dot products of two (rows, p) blocks, adding columns 0, 1, ... in order."""
    out = x[:, 0] * y[:, 0]
    for q in range(1, x.shape[1]):
        out = out + x[:, q] * y[:, q]
    return out


def column_order_link_scores(z, pairs, g):
    """Link scores and their ``z`` gradient by explicit loops.

    Each dot product adds its columns in order 0, 1, ...
    (:func:`column_order_rowdot`). For upstream gradient ``g`` on the
    scores, each pair k adds ``d_k * z[j_k]`` to row i_k and, in a second
    pass, ``d_k * z[i_k]`` to row j_k, pair by pair in order. Returns
    ``(scores, z_grad)``.
    """
    i, j = np.asarray(pairs, dtype=np.intp).T
    scores = ad.sigmoid(column_order_rowdot(z[i], z[j]))
    d = g * scores * (1.0 - scores)
    first, second = np.zeros_like(z), np.zeros_like(z)
    for k in range(i.size):
        for q in range(z.shape[1]):
            first[i[k], q] += z[j[k], q] * d[k]
            second[j[k], q] += z[i[k], q] * d[k]
    return scores, first + second


def _floored(p):
    """``p`` floored at PROB_FLOOR, and 1.0 where p is above the floor, else
    0.0: the floor's subgradient."""
    return (p, 1.0) if p > PROB_FLOOR else (PROB_FLOOR, 0.0)


def loop_cross_entropy(pred, labels, mask):
    """Masked cross-entropy and its ``pred`` gradient by explicit loops.

    The log-probabilities are added one at a time, left to right, as
    ``np.sum`` adds fewer than 8 terms; the mean scales by 1 / |mask| and
    the negation multiplies by -1. Each masked node adds its term's
    gradient to its (node, label) entry in mask order, so a repeated node
    adds twice. Returns ``(loss, grad)``.
    """
    acc = 0.0
    for i in mask:
        acc += np.log(_floored(pred[i, labels[i]])[0])
    d = -1.0 * (1.0 / len(mask))
    grad = np.zeros_like(pred)
    for i in mask:
        p, through = _floored(pred[i, labels[i]])
        grad[i, labels[i]] += d / p * through
    return acc * (1.0 / len(mask)) * -1.0, grad


def loop_bce(pos, neg):
    """BCE on scores and its two gradients by explicit loops.

    Sums run left to right, as in :func:`loop_cross_entropy`; a negative
    score s enters as 1.0 - s. Returns ``(loss, grad_pos, grad_neg)``.
    """
    c = -1.0 / (len(pos) + len(neg))
    log_pos = log_neg = 0.0
    grad_pos, grad_neg = np.zeros_like(pos), np.zeros_like(neg)
    for k, s in enumerate(pos):
        p, through = _floored(s)
        log_pos += np.log(p)
        grad_pos[k] = c / p * through
    for k, s in enumerate(neg):
        p, through = _floored(1.0 - s)
        log_neg += np.log(p)
        grad_neg[k] = -(c / p * through)
    return (log_pos + log_neg) * c, grad_pos, grad_neg


def composed_link_scores(z, pairs):
    """sigmoid(z_i . z_j) composed of traced row gathers, a product and a row sum."""
    pairs = np.asarray(pairs, dtype=np.intp)
    prod = ad.mul(ad.gather_rows(z, pairs[:, 0]), ad.gather_rows(z, pairs[:, 1]))
    width = value(prod).shape[1]
    dots = ad._node(value(prod).sum(axis=1),
                    (prod, lambda g: np.repeat(g[:, None], width, axis=1)))
    return ad.sigmoid(dots)


def fancy_index_propagate(plan, a_vals, s_vals, g):
    """The masked mode product and both vjps, with ``x[idx]`` gathers.

    The kernel of ``edge_tensor.propagate_values`` as first written: rows
    gathered by fancy indexing and summed one ``np.bincount`` per column.
    The weight gradient's row dot products add their columns in order
    (:func:`column_order_rowdot`). Returns the product and the gradients
    w.r.t. ``a_vals`` and ``s_vals`` for upstream gradient ``g``.
    """
    out = bincount_per_column(s_vals[plan.slot_idx] * a_vals[plan.adj_idx][:, None],
                              plan.out_idx, plan.num_slots)
    grad_a = bincount_per_column(column_order_rowdot(g[plan.out_idx],
                                                     s_vals[plan.slot_idx]),
                                 plan.adj_idx, plan.num_adj)
    grad_s = bincount_per_column(g[plan.out_idx] * a_vals[plan.adj_idx][:, None],
                                 plan.slot_idx, plan.num_slots)
    return out, grad_a, grad_s


def composed_sparse_matmul(a, h):
    """``A @ H`` composed of three traced ops, each with its own gradient.

    Rows of ``h`` are gathered with ``gather_rows``, scaled with ``mul`` and
    summed with ``segment_sum``. ``layers.sparse_matmul``, one op on the
    feature-major kernel, must match it bit for bit.
    """
    msg = ad.mul(ad.reshape(a.weights, (-1, 1)), ad.gather_rows(h, a.cols))
    return ad.segment_sum(msg, a.rows, a.n)


def slot_pair_features(h, a_tilde, reducer, weight, recipe):
    """A recipe's projected pair features, built slot by slot.

    Every slot (i, j) gets [r_i || r_j] (concat) or r_i - r_j (subtract)
    from the reducer output r, and the (slots x pair width) tensor is then
    projected with ``project_mode3``. Traced when any input is a Var, so
    the node-level builders' gradients can be checked against it too.
    """
    reduced = gc_forward(h, a_tilde, reducer)
    left = ad.gather_rows(reduced, a_tilde.rows)
    right = ad.gather_rows(reduced, a_tilde.cols)
    if recipe == "concat":
        lv, rv = value(left), value(right)
        width = lv.shape[1]
        pair = ad._node(np.concatenate([lv, rv], axis=1),
                        (left, lambda g: g[:, :width]),
                        (right, lambda g: g[:, width:]))
    else:
        pair = ad.sub(left, right)
    return project_mode3(EdgeFeatureTensor(a_tilde, pair), weight)


def one_shot_sbm(block_sizes, p_in, p_out, seed):
    """SBM upper-triangle pairs and features from one uniform per pair, drawn at once."""
    n = sum(block_sizes)
    labels = np.repeat(np.arange(len(block_sizes)), block_sizes)
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < np.where(labels[iu] == labels[ju], p_in, p_out)
    features = np.zeros((n, len(block_sizes)))
    features[np.arange(n), labels] = 1.0
    features += rng.uniform(-0.1, 0.1, features.shape)
    return np.stack([iu[keep], ju[keep]], axis=1), features


def random_edge_tensor(n, p, rng, density=0.3):
    rows, cols = random_support(n, rng, density)
    return EdgeFeatureTensor.from_support_of(
        SparseAdjacency(n, rows, cols, np.ones(rows.size)),
        rng.standard_normal((rows.size, p)))


def tensor_to_dense(t):
    dense = np.zeros((t.n, t.n, t.p))
    dense[t.rows, t.cols] = value(t.values)
    return dense


def support_mask(t):
    mask = np.zeros((t.n, t.n), dtype=bool)
    mask[t.rows, t.cols] = True
    return mask


def dense_mode1_oracle(s_dense, a_dense):
    """S ×₁ A by explicit loops: out[h,j,q] = Σ_i a[h,i]·s[i,j,q]."""
    n, _, p = s_dense.shape
    out = np.zeros_like(s_dense)
    for h in range(n):
        for j in range(n):
            for q in range(p):
                acc = 0.0
                for i in range(n):
                    acc += a_dense[h, i] * s_dense[i, j, q]
                out[h, j, q] = acc
    return out


def dense_mode2_oracle(s_dense, a_dense):
    """S ×₂ A by explicit loops: out[i,h,q] = Σ_j a[h,j]·s[i,j,q]."""
    n, _, p = s_dense.shape
    out = np.zeros_like(s_dense)
    for i in range(n):
        for h in range(n):
            for q in range(p):
                acc = 0.0
                for j in range(n):
                    acc += a_dense[h, j] * s_dense[i, j, q]
                out[i, h, q] = acc
    return out


def dense_mode3_oracle(s_dense, w):
    """S ×₃ Wᵀ by explicit loops: out[i,j,r] = Σ_q s[i,j,q]·w[q,r]."""
    n, _, p = s_dense.shape
    p_out = w.shape[1]
    out = np.zeros((n, n, p_out))
    for i in range(n):
        for j in range(n):
            for r in range(p_out):
                acc = 0.0
                for q in range(p):
                    acc += s_dense[i, j, q] * w[q, r]
                out[i, j, r] = acc
    return out


def renormalize_oracle(a_dense):
    """D̄^{-1/2}(A+I)D̄^{-1/2} by plain dense matrix arithmetic."""
    a_bar = a_dense + np.eye(a_dense.shape[0])
    d = a_bar.sum(axis=1)
    d_inv_sqrt = np.diag(1.0 / np.sqrt(d))
    return d_inv_sqrt @ a_bar @ d_inv_sqrt


def configured_graph(features, *, seed=0, n_per_block=5):
    """The tiny two-block SBM of :func:`configured_loss`; for ``"stack"``,
    the union of it and a second view, one edge channel per view."""
    graph = sbm_generate([n_per_block] * 2, 0.6, 0.3, seed=seed + 1)
    if features != "stack":
        return graph
    other = sbm_generate([n_per_block] * 2, 0.5, 0.2, seed=seed + 5)
    return LabeledGraph.from_views([graph.adjacency, other.adjacency],
                                   graph.node_features, graph.labels)


def configured_loss(kind, features, *, seed=0, n_per_block=5,
                    activation="identity", graph=None):
    """(tape, loss_fn) of one model configuration on a tiny two-block SBM.

    The model gets small widths of the settings it reads and the hidden
    ``activation``. ``features`` is a recipe, or ``"stack"`` for a
    two-view graph whose edge channels replace it. Graph, split and model
    seeds follow ``gradcheck.model_gradcheck``, so a concat configuration
    is the model that check builds, apart from the activation. ``graph``
    replaces :func:`configured_graph`'s, to which it must be equal.
    """
    if graph is None:
        graph = configured_graph(features, seed=seed, n_per_block=n_per_block)
    splits = split_nodes(graph.labels, 2, 0.2, seed=seed + 2)
    stack = features == "stack"
    ctx = prepare(graph)
    settings = read_settings(kind, stack, dict(
        recipe=features, reduce_dim=2, edge_hidden=(3, 1)))
    tape = ParamTape()
    model = build_model(tape, kind, ctx, graph.num_classes, gc_hidden=(4,),
                        seed=seed, hidden_activation=activation, **settings)

    def loss_fn():
        z = etgnn_forward(model, ctx).z
        return cross_entropy_masked(z, graph.labels, splits["train"])

    return tape, loss_fn


def check_learned_graph(result, tol=1e-12):
    """Assert the learned graph is symmetric, nonnegative and on-support."""
    pattern = result.edge_weights
    w = np.asarray(value(pattern.weights))
    if np.any(w < 0):
        raise AssertionError("learned graph has negative weights")
    if np.max(np.abs(w - w[pattern.transpose_permutation])) > tol:
        raise AssertionError("learned graph is not symmetric")
    return True


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def built_models(monkeypatch):
    """Every model ``tasks.build_model`` returns during the test, in order."""
    built, build = [], tasks.build_model

    def recording(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(tasks, "build_model", recording)
    return built
