"""Forward definitions: graph convolution, edge-tensor convolution, and
neighborhood attention.

Every graph operand ``a`` is a :class:`SparseAdjacency`: the renormalized
adjacency or attention weights, both on one pattern. The
forwards are compositions of autodiff ops, so they follow the tracing rule
stated in :mod:`edgetensor.autodiff`: plain numpy inputs give plain
outputs, and an output is traced (gradients flow through
:func:`autodiff.backward`) exactly when some weight or value, including
``a.weights``, is a :class:`Var`.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import autodiff as ad
from .edge_tensor import (axpy, project_mode3, propagate_mode1,
                          propagate_mode2, propagate_values)

GC_ACTIVATIONS = ("relu", "softmax", "identity")
EDGE_ACTIVATIONS = ("relu", "identity")


@dataclass(frozen=True)
class GraphConvLayer:
    """Node convolution H' = act(A_hat H W) on a (possibly learned) graph."""

    weight: object  # (d, d') array or Var
    activation: str = "relu"

    def __post_init__(self):
        if self.activation not in GC_ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass(frozen=True)
class EdgeConvLayer:
    """Edge-tensor convolution with a self-representation residual.

    S' = act((S x1 A x2 A + epsilon * S) x3 W) where A is either the
    renormalized adjacency or learned attention weights.

    ``tpgc_forward`` propagates at min(p, p') features: when W narrows
    (p' < p) it projects first. That is exact, because x3 acts only on the
    feature mode and the mode-1/2 products and support mask only on modes
    1 and 2, and mode products on distinct modes commute. For the same
    reason a recipe-built first layer projects at node level: unless W
    widens, the recipe returns S x3 W and the layer runs only
    :func:`tpgc_propagate`.
    """

    weight: object  # (p, p') array or Var
    epsilon: float = 0.2
    activation: str = "relu"

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.activation not in EDGE_ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


def _activate(values, name):
    if name == "relu":
        return ad.relu(values)
    if name == "softmax":
        return ad.row_softmax(values)
    return values


def sparse_matmul(a, h):
    """A_hat @ H for a sparse matrix (pattern + values) and dense H.

    H x1 A_hat, run by :func:`edge_tensor.propagate_values` over the
    pattern's ``node_plan``, one triple (output row, entry, input row) per
    entry of ``a``: the forward, like the adjoint, gathers H's rows
    through the sorted ``a.rows`` and adds them into ``a.cols``, with the
    weights read transposed. The pattern keeps the plan beside its
    ``plans``, shared by all its copies, and a matrix whose weights are not
    a leaf Var keeps them gathered through it, so a second product on one
    matrix builds and gathers nothing. Traced when ``a.weights`` or ``h``
    is a Var.
    """
    return propagate_values(a.node_plan, a, h)


def gc_forward(h, a, layer):
    """act(A_hat H W). Softmax activation yields row-stochastic output.

    Computed as A_hat (H W) when the weight narrows (d' < d) and as
    (A_hat H) W otherwise, so the sparse product runs at min(d, d') columns;
    the two orders are equal because matrix products associate.
    """
    if ad.value(h).shape[0] != a.n:
        raise ValueError("feature row count must equal node count")
    d, d_out = ad.value(layer.weight).shape
    if d_out < d:
        return _activate(sparse_matmul(a, ad.matmul(h, layer.weight)),
                         layer.activation)
    return gc_project(sparse_matmul(a, h), layer)


def gc_project(ah, layer):
    """act((A_hat H) W) from the product A_hat H: the order
    :func:`gc_forward` takes for a weight that does not narrow, run alone
    on a product a caller keeps (``models.GraphContext`` keeps Â·X)."""
    return _activate(ad.matmul(ah, layer.weight), layer.activation)


def tpgc_propagate(s, a, layer):
    """act(S x1 A x2 A + epsilon S) for an S already projected by the layer.

    The half of the layer after its x3 W: ``tpgc_forward`` runs it when
    the weight narrows, and the edge stack runs it on the first layer,
    whose recipe returns S x3 W directly.
    """
    out = axpy(propagate_mode2(propagate_mode1(s, a), a), s, layer.epsilon)
    return out.with_values(_activate(out.values, layer.activation))


def tpgc_forward(s, a, layer):
    """act((S x1 A x2 A + epsilon S) x3 W), masked to s's support.

    Propagates at min(p, p') features: when the weight narrows (p' < p) it
    projects first, then runs :func:`tpgc_propagate`; otherwise it
    propagates, adds the residual and projects last. The orders are equal
    because x3 touches only the feature mode and the mode-1/2 products and
    the support mask touch only modes 1 and 2.
    """
    p, p_out = ad.value(layer.weight).shape
    if p_out < p:
        return tpgc_propagate(project_mode3(s, layer.weight), a, layer)
    propagated = propagate_mode2(propagate_mode1(s, a), a)
    out = project_mode3(axpy(propagated, s, layer.epsilon), layer.weight)
    return out.with_values(_activate(out.values, layer.activation))


def attention_forward(h, a, theta):
    """Per-edge attention, row-normalized over each node's stored neighbors.

    ``a`` supplies the pattern and must contain every self-loop slot
    (pass the renormalized adjacency). ``theta`` is the (2d,) scoring
    vector (an array or Var): its top half scores the row node and its
    bottom half the column node. Scores are
    leaky_relu(theta . [H_i || H_j]) softmaxed within each row i, computed
    at node level as (H theta_top)_i + (H theta_bot)_j. Returns a copy of
    ``a`` holding the weights (a Var when traced).
    """
    if not a.has_self_loops:
        raise ValueError("attention pattern must contain every self-loop")
    d = ad.value(h).shape[1]
    if ad.value(theta).shape != (2 * d,):
        raise ValueError("theta length must be twice the feature dimension")
    theta = ad.reshape(theta, (-1, 1))
    top = ad.reshape(ad.matmul(h, ad.row_slice(theta, 0, d)), (-1,))
    bottom = ad.reshape(ad.matmul(h, ad.row_slice(theta, d, 2 * d)), (-1,))
    scores = ad.leaky_relu(ad.add(ad.gather_rows(top, a.rows),
                                  ad.gather_rows(bottom, a.cols)))
    alpha = ad.segment_softmax(scores, a.rows, a.n)
    return a.with_weights(alpha)

