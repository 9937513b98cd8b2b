"""Node classification on a synthetic two-block graph.

Trains the edge-tensor model on a stochastic block model with 10 labeled
nodes per class and compares it against a plain graph convolution
baseline. Also tracks the weighted homophily of the learned graph: the
share of edge weight mass joining same-label nodes, which the edge stack
is free to raise by down-weighting cross-block edges.
"""

from edgetensor import TaskConfig, homophily, sbm_generate, split_nodes
from edgetensor.tasks import run_node_classification


def main():
    graph = sbm_generate([50, 50], p_in=0.2, p_out=0.02, seed=0)
    splits = split_nodes(graph.labels, train=10, val_fraction=0.5, seed=0)
    print(f"graph: n={graph.n}, edges={graph.adjacency.nnz // 2}, "
          f"input homophily {homophily(graph.adjacency, graph.labels):.3f}")
    print(f"splits: train={splits['train'].size}, val={splits['val'].size}, "
          f"test={splits['test'].size}\n")

    config = TaskConfig(learning_rate=0.001, max_epochs=300, patience=100,
                        seed=0)

    for kind in ("et_gcn", "gcn_only"):
        result = run_node_classification(graph, splits, config, model_kind=kind)
        m = result.metrics
        line = (f"{kind:<8s} test acc {m['test_accuracy']:.3f}  "
                f"val acc {m['val_accuracy']:.3f}  "
                f"epochs {len(result.history)}")
        if m["homophily"] is not None:
            line += (f"  learned-graph homophily "
                     f"{m['initial_homophily']:.3f} -> {m['homophily']:.3f}")
        print(line)

        if kind == "et_gcn":
            print("\n  homophily of the learned graph over training:")
            marks = [0, len(result.history) // 4, len(result.history) // 2,
                     3 * len(result.history) // 4, len(result.history) - 1]
            for e in sorted(set(marks)):
                rec = result.history[e]
                h = rec.extra.get("homophily")
                shown = f"{h:.3f}" if h is not None else "n/a"
                print(f"    epoch {rec.epoch:>3d}: train loss "
                      f"{rec.train_loss:.4f}, homophily {shown}")
            print()


if __name__ == "__main__":
    main()
