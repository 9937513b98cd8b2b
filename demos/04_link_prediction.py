"""Link prediction with an inner-product decoder.

Holds out 10% of the edges for testing and 5% for validation, trains the
edge-tensor model on the remaining graph against sampled non-edges, and
scores the held-out pairs. Reported numbers are area under the ROC curve
and average precision on test positives vs an equal count of sampled
negatives; 0.5 is chance level for AUC.
"""

from edgetensor import TaskConfig, link_split, sbm_generate
from edgetensor.tasks import run_link_prediction


def main():
    graph = sbm_generate([40, 40], p_in=0.25, p_out=0.03, seed=1)
    split = link_split(graph.adjacency, test_fraction=0.10,
                       val_fraction=0.05, seed=0)
    print(f"graph: n={graph.n}, edges={graph.adjacency.nnz // 2}")
    print(f"held out: {len(split.test_pos)} test edges, "
          f"{len(split.val_pos)} val edges "
          f"(plus matched non-edge negatives)\n")

    config = TaskConfig(learning_rate=0.001, max_epochs=200, patience=50,
                        seed=0)
    result = run_link_prediction(graph, split, config, model_kind="et_gcn")
    m = result.metrics
    print(f"test AUC {m['auc']:.3f}  test AP {m['ap']:.3f}  "
          f"best epoch {result.best_epoch}  epochs {len(result.history)}")


if __name__ == "__main__":
    main()
