"""Acceptance suite: one test per top-level criterion.

Each test prints a single PASS/FAIL line (directly to the real stdout, so
it survives pytest's capture) before asserting. The two full-dataset
criteria are optional and skip when no dataset directory is present.
"""

import os
import time

import numpy as np
import pytest

from conftest import configured_loss
from edgetensor.edge_tensor import (EdgeFeatureTensor, contraction_plan,
                                    propagate_mode1)
from edgetensor.evaluation import split_nodes
from edgetensor.experiment import ExperimentConfig, run_experiment
from edgetensor.generators import sbm_generate
from edgetensor.gradcheck import finite_difference_check, model_gradcheck
from edgetensor.layers import EdgeConvLayer, attention_forward, tpgc_forward
from edgetensor.sparse_graph import SparseAdjacency, renormalize
from edgetensor.tasks import run_node_classification
from edgetensor.training import TaskConfig

CORA_DIRS = ("data/cora", "datasets/cora")


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_output(capsys):
    """Expose the capture fixture so verdict lines reach the real stdout."""
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _emit(line):
    if _CAPSYS is None:
        print(line, flush=True)
    else:
        with _CAPSYS.disabled():
            print(line, flush=True)


def verdict(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    _emit(line)
    assert ok, line


def skip_line(num, name, reason):
    _emit(f"ACCEPTANCE {num} {name}: SKIP ({reason})")
    pytest.skip(reason)


def random_instance(rng):
    n = int(rng.integers(2, 21))
    p = int(rng.integers(1, 6))
    p_out = int(rng.integers(1, 5))
    mask = np.triu(rng.random((n, n)) < rng.random() * 0.7, 1)
    mask = mask | mask.T
    np.fill_diagonal(mask, True)
    rows, cols = np.nonzero(mask)
    tensor = EdgeFeatureTensor.from_support_of(
        SparseAdjacency(n, rows, cols, np.ones(rows.size)),
        rng.standard_normal((rows.size, p)))
    dense_w = np.zeros((n, n))
    upper = np.triu(mask)
    dense_w[upper] = rng.random(int(upper.sum())) + 0.1
    dense_w = np.maximum(dense_w, dense_w.T)
    adjacency = SparseAdjacency(n, rows, cols, dense_w[rows, cols])
    w = rng.standard_normal((p, p_out))
    return tensor, adjacency, w, mask


def dense_tpgc(tensor, a_dense, w, epsilon, mask):
    """Dense two-sided propagation plus residual, masked to the support."""
    s = np.zeros((tensor.n, tensor.n, tensor.p))
    s[tensor.rows, tensor.cols] = tensor.values
    step1 = np.einsum("hi,ijq->hjq", a_dense, s)
    step1[~mask] = 0.0
    step2 = np.einsum("hj,ijq->ihq", a_dense, step1)
    step2[~mask] = 0.0
    out = np.einsum("ijq,qr->ijr", step2 + epsilon * s, w)
    out[~mask] = 0.0
    return out


def test_criterion_1_dense_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        tensor, adjacency, w, mask = random_instance(rng)
        epsilon = float(rng.random() * 0.5)
        layer = EdgeConvLayer(w, epsilon=epsilon, activation="identity")
        if trial % 2 == 0:
            propagation = adjacency
        else:
            h = rng.standard_normal((tensor.n, 3))
            propagation = attention_forward(h, adjacency,
                                            rng.standard_normal(6))
        got = tpgc_forward(tensor, propagation, layer)
        expected = dense_tpgc(tensor, propagation.to_dense(), w, epsilon, mask)
        got_dense = np.zeros_like(expected)
        got_dense[tensor.rows, tensor.cols] = got.values
        scale = max(1.0, np.abs(expected).max())
        worst = max(worst, float(np.abs(got_dense - expected).max() / scale))
    elapsed = time.perf_counter() - start
    verdict(1, "dense-oracle equivalence",
            worst <= 1e-10 and elapsed < 30.0,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_gradient_suite():
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for kind in ("et_gcn", "et_gat"):
        for seed in (0, 1, 2):
            good, report = model_gradcheck(model_kind=kind, seed=seed,
                                           n_per_block=5)
            ok &= good
            worst = max(worst, max(report.values()))
        good, report = finite_difference_check(*configured_loss(
            kind, "concat", n_per_block=6, activation="relu"))
        ok &= good
        worst = max(worst, max(report.values()))
    elapsed = time.perf_counter() - start
    verdict(2, "gradient suite", ok and elapsed < 120.0,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_complexity_scaling():
    start = time.perf_counter()

    def setup(scale):
        g = sbm_generate([1000, 1000], 0.005 * scale, 0.001 * scale, seed=3)
        a = renormalize(g.adjacency)
        rng = np.random.default_rng(0)
        t = EdgeFeatureTensor.from_support_of(
            a, rng.standard_normal((a.rows.size, 8)))
        plan = contraction_plan(1, t, a)  # one-time index build, not timed
        return t, a, plan.out_idx.size

    def timed(t, a, reps=7, loops=10):
        # best-of-reps: load spikes only ever inflate a measurement
        best = np.inf
        for _ in range(reps):
            tic = time.perf_counter()
            for _ in range(loops):
                propagate_mode1(t, a)
            best = min(best, (time.perf_counter() - tic) / loops)
        return best

    t1, a1, triples1 = setup(1)
    t2, a2, triples2 = setup(2)
    timed(t1, a1, reps=2)
    timed(t2, a2, reps=2)
    # pair the two sizes inside each trial so machine-load drift cancels
    pairs = [(timed(t2, a2), timed(t1, a1)) for _ in range(5)]
    factors = [big / small for big, small in pairs]
    median = sorted(factors)[2]
    elapsed = time.perf_counter() - start
    verdict(3, "complexity scaling",
            1.6 <= median <= 2.6 and elapsed < 120.0,
            f"median factor {median:.2f} of paired factors "
            f"{', '.join(f'{f:.2f}' for f in factors)}; best times "
            f"{min(s for _, s in pairs) * 1e3:.2f} ms at scale 1, "
            f"{min(b for b, _ in pairs) * 1e3:.2f} ms at scale 2, plan triple ratio "
            f"{triples2 / triples1:.2f}, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def sbm_runs():
    """Ten seeded training runs on the reference SBM, for both epsilons."""
    graph = sbm_generate([50, 50], 0.2, 0.02, seed=0)
    splits = split_nodes(graph.labels, 10, 0.5, seed=0)
    runs = {}
    for epsilon in (0.2, 0.0):
        tic = time.perf_counter()
        results = [
            run_node_classification(
                graph, splits,
                TaskConfig(learning_rate=0.001, max_epochs=300, patience=100,
                           seed=seed),
                model_kwargs={"epsilon": epsilon})
            for seed in range(10)
        ]
        runs[epsilon] = (results, time.perf_counter() - tic)
    return runs


def test_criterion_4_desk_scale_learning(sbm_runs):
    results, elapsed = sbm_runs[0.2]
    hits = sum(r.metrics["test_accuracy"] >= 0.90 for r in results)
    verdict(4, "desk-scale learning", hits >= 8 and elapsed < 120.0,
            f"{hits}/10 seeds >= 90%, {elapsed:.1f}s")


def test_criterion_5_homophily_trend(sbm_runs):
    results, _ = sbm_runs[0.2]
    ups = 0
    for r in results:
        h0 = r.metrics["initial_homophily"]
        h1 = r.metrics["homophily"]
        ups += h0 is not None and h1 is not None and h1 >= h0
    verdict(5, "homophily trend", ups >= 8, f"{ups}/10 seeds non-decreasing")


def test_criterion_6_epsilon_ablation(sbm_runs):
    mean_eps = np.mean([r.metrics["test_accuracy"]
                        for r in sbm_runs[0.2][0]])
    mean_zero = np.mean([r.metrics["test_accuracy"]
                         for r in sbm_runs[0.0][0]])
    verdict(6, "epsilon ablation", mean_eps >= mean_zero - 0.005,
            f"eps=0.2 mean {mean_eps:.3f} vs eps=0 mean {mean_zero:.3f}")


def _cora_dir():
    for path in CORA_DIRS:
        if os.path.isdir(path):
            return path
    return None


def test_criterion_7_cora_node_classification():
    root = _cora_dir()
    if root is None:
        skip_line(7, "cora node classification", "dataset not available")
    config = ExperimentConfig(
        task="node_class", dataset=root, seeds=list(range(10)),
        learning_rate=0.01, train_fraction=0.01, val_fraction=0.5,
        gc_hidden=[32])
    record = run_experiment(config)
    mean = record.summary["test_accuracy"]["mean"]
    verdict(7, "cora node classification", abs(mean - 0.752) <= 0.020,
            f"mean accuracy {mean:.3f}")


def test_criterion_8_cora_link_prediction():
    root = _cora_dir()
    if root is None:
        skip_line(8, "cora link prediction", "dataset not available")
    config = ExperimentConfig(
        task="link_pred", dataset=root, seeds=list(range(10)),
        learning_rate=0.01, gc_hidden=[64], embed_dim=32)
    record = run_experiment(config)
    auc = record.summary["auc"]["mean"]
    ap = record.summary["ap"]["mean"]
    verdict(8, "cora link prediction",
            abs(auc - 0.938) <= 0.015 and abs(ap - 0.938) <= 0.015,
            f"auc {auc:.3f}, ap {ap:.3f}")


def test_criterion_9_determinism():
    config = ExperimentConfig(
        task="node_class",
        synthetic={"block_sizes": [15, 15], "p_in": 0.3, "p_out": 0.05,
                   "seed": 0},
        seeds=[0, 1], max_epochs=10, patience=10, train_per_class=3,
        val_fraction=0.3, reduce_dim=2, edge_hidden=[2, 1], gc_hidden=[4])
    r1 = run_experiment(config)
    r2 = run_experiment(config)
    verdict(9, "determinism", r1 == r2,
            "identical metrics across reruns" if r1 == r2
            else "records differ")
