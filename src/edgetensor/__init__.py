"""Edge-feature graph convolution on sparse edge tensors.

A numpy library implementing graph convolution for edge features: a sparse
n x n x p tensor restricted to the graph's edge support is propagated along
both sample modes and projected on the feature mode, producing edge
embeddings that re-weight the graph for downstream node convolutions.
Includes a minimal reverse-mode autodiff engine, Adam training, attention
weighting, and node-classification and link-prediction tasks.
"""

from .autodiff import Var, backward
from .edge_tensor import (EdgeFeatureTensor, axpy, mode_k_product_dense,
                          project_mode3, propagate_mode1, propagate_mode2)
from .evaluation import accuracy, auc_ap, homophily, link_split, split_nodes
from .experiment import (ExperimentConfig, ResultRecord, report,
                         run_experiment)
from .features import build_concat_features, build_subtract_features
from .generators import sbm_generate
from .layers import (EdgeConvLayer, GraphConvLayer, attention_forward,
                     gc_forward, tpgc_forward)
from .models import (EdgeTensorGnn, build_model, etgnn_forward, prepare,
                     prepare_multigraph)
from .params import ParamTape, glorot_init
from .sparse_graph import LabeledGraph, SparseAdjacency, renormalize
from .training import TaskConfig, cross_entropy_masked, train_loop

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
