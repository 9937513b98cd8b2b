"""Builders for the initial edge-feature tensor.

Two recipes pair reduced node features: concatenate them or subtract
them. The rows they pair are the output of a trainable graph-convolution
reducer, which ``models`` runs on its context (a widening reducer reads
the Â·X the context keeps), so gradients flow into its weights end to
end. A recipe returns its pair features already projected by a weight
(the first edge layer's), and computes that projection on the n reduced
rows: x3 acts on the feature mode alone, so projecting each node's row
and then pairing rows gives the projected pairs without building a
(slots x pair width) tensor. The adjoint of pairing sums each slot's
gradient back into its two nodes (``autodiff.gather_rows``). A graph
with observed edge channels skips the recipe: ``models.prepare`` stacks
the channels into a fixed tensor held by its context.
"""

from __future__ import annotations

from . import autodiff as ad
from .edge_tensor import EdgeFeatureTensor

RECIPE_KINDS = ("concat", "subtract")


def _check_rows(weight, width):
    if ad.value(weight).shape[0] != width:
        raise ValueError("projection rows must match the pair feature width "
                         f"{width}")


def build_concat_features(reduced, a_tilde, weight):
    """Slot (i, j) holds [r_i || r_j] W on a_tilde's pattern.

    r_i is row i of ``reduced``, the reducer output, and W a
    (2 * reduce_dim, p') weight. Computed as (R W_top)_i + (R W_bot)_j,
    W_top and W_bot being W's top and bottom reduce_dim rows.
    """
    r = ad.value(reduced).shape[1]
    _check_rows(weight, 2 * r)
    top = ad.matmul(reduced, ad.row_slice(weight, 0, r))
    bottom = ad.matmul(reduced, ad.row_slice(weight, r, 2 * r))
    values = ad.add(ad.gather_rows(top, a_tilde.rows),
                    ad.gather_rows(bottom, a_tilde.cols))
    return EdgeFeatureTensor(a_tilde, values)


def build_subtract_features(reduced, a_tilde, weight):
    """Slot (i, j) holds (r_i - r_j) W, computed as (R W)_i - (R W)_j.

    r_i is row i of ``reduced``, the reducer output, and W a
    (reduce_dim, p') weight; diagonal slots are zero.
    """
    _check_rows(weight, ad.value(reduced).shape[1])
    projected = ad.matmul(reduced, weight)
    values = ad.sub(ad.gather_rows(projected, a_tilde.rows),
                    ad.gather_rows(projected, a_tilde.cols))
    return EdgeFeatureTensor(a_tilde, values)
