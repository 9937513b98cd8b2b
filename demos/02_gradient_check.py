"""Finite-difference verification of the backward pass.

Runs the full-model gradient check on tiny synthetic graphs: every
parameter coordinate is perturbed by +-1e-5 and the central difference of
the training loss is compared against the reverse-mode gradient. Identity
activations keep the loss smooth; a relu variant, built here and handed to
the general checker, probes a random (almost surely kink-free) operating
point.
"""

from edgetensor.evaluation import split_nodes
from edgetensor.generators import sbm_generate
from edgetensor.gradcheck import finite_difference_check, model_gradcheck
from edgetensor.models import build_model, etgnn_forward, prepare
from edgetensor.params import ParamTape
from edgetensor.training import cross_entropy_masked


def relu_gradcheck(seed=0, n_per_block=6):
    """An et_gcn model with relu hidden layers, checked on its training loss."""
    graph = sbm_generate([n_per_block, n_per_block], 0.6, 0.3, seed=seed + 1)
    ctx = prepare(graph)
    tape = ParamTape()
    model = build_model(tape, "et_gcn", ctx, graph.num_classes, reduce_dim=2,
                        edge_hidden=(3, 1), gc_hidden=(4,), seed=seed,
                        hidden_activation="relu")
    train = split_nodes(graph.labels, 2, 0.2, seed=seed + 2)["train"]

    def loss_fn():
        z = etgnn_forward(model, ctx).z
        return cross_entropy_masked(z, graph.labels, train)

    return finite_difference_check(tape, loss_fn)


def run(label, check):
    ok, report = check
    print(f"{label}:")
    for name, worst in sorted(report.items()):
        print(f"  {name:<12s} max rel err {worst:.3e}")
    print(f"  -> {'PASSED' if ok else 'FAILED'}")
    return ok


def main():
    all_ok = True
    all_ok &= run("et_gcn (identity)", model_gradcheck("et_gcn", seed=0))
    all_ok &= run("et_gat (identity)", model_gradcheck("et_gat", seed=0))
    all_ok &= run("et_gcn (relu)", relu_gradcheck())
    print(f"\noverall: {'all gradients verified' if all_ok else 'FAILURE'}")


if __name__ == "__main__":
    main()
