"""Classification over multiple adjacency views of the same nodes.

Samples two independent block-model views of one node set and stacks them
as channels of the edge tensor: slot (i, j) holds the edge weight of
(i, j) in each view. The edge stack then learns how to combine the views
into a single propagation graph. Propagation itself runs on the
renormalized union of the views.
"""

from edgetensor import TaskConfig, sbm_generate, split_nodes
from edgetensor.tasks import run_multigraph_classification


def main():
    # same block layout, independent edge draws: labels agree across views
    views = [sbm_generate([40, 40], p_in=0.15, p_out=0.02, seed=s)
             for s in (0, 1)]
    labels = views[0].labels
    features = views[0].node_features
    for k, g in enumerate(views):
        print(f"view {k}: {g.adjacency.nnz // 2} edges")

    splits = split_nodes(labels, train=8, val_fraction=0.5, seed=0)
    config = TaskConfig(learning_rate=0.001, max_epochs=300, patience=100,
                        seed=0)
    result = run_multigraph_classification(
        [g.adjacency for g in views], features, labels, splits, config)
    m = result.metrics
    print(f"\ntest acc {m['test_accuracy']:.3f}  "
          f"epochs {len(result.history)}")
    if m["homophily"] is not None:
        print(f"learned-graph homophily {m['homophily']:.3f}")


if __name__ == "__main__":
    main()
