"""Task pipelines at tiny scale: they train, improve, and stay reproducible."""

import pickle
import weakref

import numpy as np
import pytest

from edgetensor import models, sparse_graph, tasks, training
from edgetensor.models import build_model, etgnn_forward, link_scores
from edgetensor.params import ParamTape
from edgetensor.sparse_graph import LabeledGraph, SparseAdjacency
from edgetensor.evaluation import (accuracy, auc_ap, homophily, link_split,
                                   split_nodes)
from edgetensor.generators import sbm_generate
from edgetensor.tasks import (MULTI_GRAPH_WIDTHS, run_link_prediction,
                              run_multigraph_classification,
                              run_node_classification)
from edgetensor.training import (TaskConfig, bce_from_scores,
                                 cross_entropy_masked)


def new_sbm_graph():
    """A new graph object each call, equal to every other."""
    return sbm_generate([25, 25], 0.25, 0.03, seed=0)


@pytest.fixture(scope="module")
def sbm_graph():
    return new_sbm_graph()


@pytest.fixture(scope="module")
def sbm_splits(sbm_graph):
    return split_nodes(sbm_graph.labels, 5, 0.4, seed=0)


@pytest.mark.parametrize("train", [[-1, 0], [True, False, True], [3, 3],
                                   [99]],
                         ids=["negative", "bool-mask", "repeated", "too-large"])
def test_node_classification_refuses_split_ids_before_building(
        sbm_graph, sbm_splits, built_models, train):
    """The splits a run is given pass ``check_splits``, as a graph's own do."""
    cfg = TaskConfig(max_epochs=1, seed=0)
    with pytest.raises(ValueError, match="split 'train'"):
        run_node_classification(sbm_graph, {**sbm_splits, "train": train}, cfg)
    assert not built_models


def test_node_classification_learns(sbm_graph, sbm_splits):
    cfg = TaskConfig(learning_rate=0.005, max_epochs=120, patience=120, seed=0)
    result = run_node_classification(sbm_graph, sbm_splits, cfg)
    assert result.metrics["test_accuracy"] >= 0.9
    assert result.metrics["val_loss"] < result.history[0].val_loss
    assert 0 <= result.best_epoch < 120


def test_node_classification_reproducible(sbm_graph, sbm_splits):
    cfg = TaskConfig(learning_rate=0.01, max_epochs=15, patience=15, seed=3)
    r1 = run_node_classification(sbm_graph, sbm_splits, cfg)
    r2 = run_node_classification(sbm_graph, sbm_splits, cfg)
    assert r1.metrics == r2.metrics
    assert [h.train_loss for h in r1.history] == [h.train_loss
                                                  for h in r2.history]


def test_node_classification_records_homophily(sbm_graph, sbm_splits):
    cfg = TaskConfig(learning_rate=0.005, max_epochs=40, patience=40, seed=0)
    result = run_node_classification(sbm_graph, sbm_splits, cfg)
    h0 = result.metrics["initial_homophily"]
    assert h0 is not None and 0.0 <= h0 <= 1.0
    assert result.history[0].extra["homophily"] == h0


def test_node_classification_et_gat_runs(sbm_graph, sbm_splits):
    cfg = TaskConfig(learning_rate=0.005, max_epochs=25, patience=25, seed=0)
    result = run_node_classification(sbm_graph, sbm_splits, cfg,
                                     model_kind="et_gat")
    assert np.isfinite(result.metrics["val_loss"])


def test_node_classification_eval_only_with_initial_params(sbm_graph,
                                                           sbm_splits):
    """One epoch is the last, so it scores the initial parameters and
    updates nothing: every metric equals the trained run's, and the
    learned graph it starts from is the trained run's final one."""
    cfg = TaskConfig(learning_rate=0.005, max_epochs=30, patience=30, seed=0)
    trained = run_node_classification(sbm_graph, sbm_splits, cfg)
    frozen = TaskConfig(learning_rate=0.005, max_epochs=1, patience=0, seed=0)
    replay = run_node_classification(sbm_graph, sbm_splits, frozen,
                                     initial_params=trained.best_params)
    assert replay.metrics["test_accuracy"] == trained.metrics["test_accuracy"]
    assert len(replay.history) == 1
    assert replay.metrics == {**trained.metrics, "initial_homophily":
                              trained.metrics["homophily"]}
    _assert_params_equal(replay.best_params, trained.best_params)


def two_view_union(sbm_graph):
    """The union of the two views _multigraph_et_gat classifies."""
    graphs = [sbm_generate([25, 25], 0.25, 0.03, seed=s).adjacency
              for s in range(2)]
    return LabeledGraph.from_views(graphs, sbm_graph.node_features,
                                   sbm_graph.labels)


def _multigraph_et_gat(sbm_graph, sbm_splits, cfg):
    graphs = [sbm_generate([25, 25], 0.25, 0.03, seed=s).adjacency
              for s in range(2)]
    return run_multigraph_classification(graphs, sbm_graph.node_features,
                                         sbm_graph.labels, sbm_splits, cfg,
                                         model_kind="et_gat")


def _assert_params_equal(a, b):
    assert a.keys() == b.keys()
    for name, value in a.items():
        assert np.array_equal(value, b[name]), name


def small_link_inputs():
    graph = sbm_generate([20, 20], 0.3, 0.05, seed=2)
    return graph, link_split(graph.adjacency, 0.1, 0.05, seed=0)


def _link_et_gcn(sbm_graph, sbm_splits, cfg):
    graph, split = small_link_inputs()
    return run_link_prediction(graph, split, cfg)


@pytest.mark.parametrize("run, cfg, stopped_early", [
    (run_node_classification, TaskConfig(0.01, 6, 6, seed=0), False),
    (run_node_classification, TaskConfig(0.5, 30, 2, seed=0), True),
    (_multigraph_et_gat, TaskConfig(0.01, 4, 4, seed=0), False),
    (_link_et_gcn, TaskConfig(0.05, 30, 2, seed=0), True),
    (_link_et_gcn, TaskConfig(0.01, 5, 5, seed=0), False),
], ids=["nc_max_epochs", "nc_early_stop", "multigraph_max_epochs",
        "lp_early_stop", "lp_max_epochs"])
def test_a_call_runs_one_forward_per_epoch_and_no_unread_backward(
        sbm_graph, sbm_splits, monkeypatch, run, cfg, stopped_early):
    """Each epoch runs one forward pass, the metrics are scored on the best
    epoch's, so none runs after training, and every epoch but the last
    runs one backward pass."""
    calls = []
    forward, backward = tasks.etgnn_forward, training.backward
    train_loop = tasks.train_loop

    def counting_forward(*args, **kwargs):
        calls.append("forward")
        return forward(*args, **kwargs)

    def counting_backward(*args, **kwargs):
        calls.append("backward")
        return backward(*args, **kwargs)

    def marking_train_loop(*args, **kwargs):
        outcome = train_loop(*args, **kwargs)
        calls.append("trained")
        return outcome

    monkeypatch.setattr(tasks, "etgnn_forward", counting_forward)
    monkeypatch.setattr(training, "backward", counting_backward)
    monkeypatch.setattr(tasks, "train_loop", marking_train_loop)
    result = run(sbm_graph, sbm_splits, cfg)
    epochs = len(result.history)
    assert (epochs < cfg.max_epochs) == stopped_early
    assert calls == ["forward", "backward"] * (epochs - 1) + [
        "forward", "trained"]


def _fresh_forward(recorded, best_params):
    """The forward pass of the recorded ``build_model`` call's model, built
    again on a fresh tape that holds ``best_params``, and its context. The
    best epoch's outputs, which the task scored, equal its predictions."""
    builds, outcomes = recorded
    (_, kind, ctx, *args), kwargs = builds[-1]
    tape = ParamTape()
    model = build_model(tape, kind, ctx, *args, **kwargs)
    tape.restore(best_params)
    final = etgnn_forward(model, ctx)
    assert np.array_equal(outcomes[-1].best_outputs, final.z.value)
    return final, ctx


@pytest.fixture
def recorded_calls(monkeypatch):
    """The arguments of every ``tasks.build_model`` call, in order, and the
    outcome of every ``tasks.train_loop`` call."""
    builds, outcomes = [], []
    build, train_loop = tasks.build_model, tasks.train_loop

    def recording(*args, **kwargs):
        builds.append((args, kwargs))
        return build(*args, **kwargs)

    def recording_train_loop(*args, **kwargs):
        outcomes.append(train_loop(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(tasks, "build_model", recording)
    monkeypatch.setattr(tasks, "train_loop", recording_train_loop)
    return builds, outcomes


@pytest.mark.parametrize("graph_of, model_kind, learning_rate", [
    (lambda g: g, "et_gcn", 0.5), (lambda g: g, "et_gat", 0.7),
    (two_view_union, "et_gcn", 0.7),
], ids=["et_gcn", "et_gat", "channel_graph"])
def test_node_metrics_equal_a_fresh_forward_at_the_best_params(
        sbm_graph, sbm_splits, recorded_calls, graph_of, model_kind,
        learning_rate):
    """The metrics scored on the best epoch's own forward pass equal, bit
    for bit, those of a forward pass of a fresh model holding the best
    parameters. The rates are high so that the best epoch is not the last,
    and the learned graph keeps weight to score homophily on."""
    cfg = TaskConfig(learning_rate, max_epochs=12, patience=12, seed=2)
    result = run_node_classification(graph_of(sbm_graph), sbm_splits, cfg,
                                     model_kind=model_kind)
    assert result.best_epoch < len(result.history) - 1
    final, ctx = _fresh_forward(recorded_calls, result.best_params)
    labels = ctx.labels
    assert result.metrics == {
        "test_accuracy": accuracy(final.z, labels, sbm_splits["test"]),
        "val_accuracy": accuracy(final.z, labels, sbm_splits["val"]),
        "val_loss": cross_entropy_masked(final.z.value, labels,
                                         sbm_splits["val"]),
        "homophily": homophily(final.edge_weights, labels),
        "initial_homophily": result.history[0].extra["homophily"],
    }


def test_link_metrics_equal_a_fresh_forward_at_the_best_params(
        recorded_calls):
    graph, split = small_link_inputs()
    cfg = TaskConfig(learning_rate=0.05, max_epochs=12, patience=12, seed=1)
    result = run_link_prediction(graph, split, cfg)
    assert result.best_epoch < len(result.history) - 1
    z = _fresh_forward(recorded_calls, result.best_params)[0].z.value
    auc, ap = auc_ap(link_scores(z, np.concatenate([split.test_pos,
                                                    split.test_neg])),
                     np.r_[np.ones(len(split.test_pos)),
                           np.zeros(len(split.test_neg))])
    val_loss = bce_from_scores(link_scores(z, split.val_pos),
                               link_scores(z, split.val_neg))
    assert result.metrics == {"auc": auc, "ap": ap,
                              "val_loss": float(val_loss)}


@pytest.mark.parametrize("run, second_walks", [
    (lambda graph, splits, cfg: run_node_classification(graph, splits, cfg),
     0),
    (_multigraph_et_gat, 1),
], ids=["node_classification", "multigraph_et_gat"])
def test_node_classification_validates_support_once_and_plans_twice(
        sbm_splits, monkeypatch, run, second_walks):
    """A first run on a graph makes one diagonal check and one plan walk,
    on one pattern; the walk builds both plans. A second run on the same
    graph reuses its renormalized matrix, so it checks and walks nothing;
    a multi-graph run builds a new union per call, so it walks again."""
    validated, walked = [], []
    has_self_loops = SparseAdjacency.__dict__["has_self_loops"]
    check, walk = has_self_loops.func, sparse_graph._plan_walk

    def counting_check(pattern):
        validated.append(pattern)
        return check(pattern)

    def counting_walk(pattern):
        walked.append(pattern)
        return walk(pattern)

    monkeypatch.setattr(has_self_loops, "func", counting_check)
    monkeypatch.setattr(sparse_graph, "_plan_walk", counting_walk)
    graph = new_sbm_graph()  # so no earlier test has renormalized it
    cfg = TaskConfig(learning_rate=0.01, max_epochs=3, patience=3, seed=0)
    result = run(graph, sbm_splits, cfg)
    assert len(result.history) == 3
    assert len(validated) == len(walked) == 1
    pattern = walked[0]
    assert validated[0] is pattern and len(pattern.plans) == 2
    run(graph, sbm_splits, cfg)
    assert len(validated) == len(walked) == 1 + second_walks


def counting_renormalize(monkeypatch):
    """The matrices ``sparse_graph.renormalize`` is called on, in order."""
    calls, renormalize = [], sparse_graph.renormalize

    def counting(adjacency):
        calls.append(adjacency)
        return renormalize(adjacency)

    monkeypatch.setattr(sparse_graph, "renormalize", counting)
    return calls


def _assert_runs_equal(a, b):
    assert a.history[-1].train_loss == b.history[-1].train_loss
    assert a.metrics == b.metrics
    _assert_params_equal(a.best_params, b.best_params)


@pytest.mark.parametrize("model_kind", ["et_gcn", "et_gat"])
def test_second_node_classification_run_equals_a_run_on_a_fresh_graph(
        sbm_splits, monkeypatch, model_kind):
    """A second run reads the renormalized matrix and plans the first run
    cached; it is equal bit for bit to a run on an equal new graph."""
    renormalized = counting_renormalize(monkeypatch)
    graph = new_sbm_graph()
    cfg = TaskConfig(learning_rate=0.01, max_epochs=6, patience=6, seed=2)
    run_node_classification(graph, sbm_splits, cfg, model_kind=model_kind)
    second = run_node_classification(graph, sbm_splits, cfg,
                                     model_kind=model_kind)
    assert renormalized == [graph.adjacency]
    fresh_graph = new_sbm_graph()
    fresh = run_node_classification(fresh_graph, sbm_splits, cfg,
                                    model_kind=model_kind)
    assert renormalized == [graph.adjacency, fresh_graph.adjacency]
    _assert_runs_equal(second, fresh)


@pytest.mark.parametrize("model_kind", ["et_gcn", "et_gat"])
def test_a_used_graph_pickles_like_a_fresh_one(sbm_splits, model_kind):
    """Pickles carry no cached Â, plan pair or transposition, and none of
    the arrays Â keeps for products (its node plan, gathered weights and
    flat segment ids): a graph, or its Â, pickled after a run is as large
    as a fresh one and loads holding none of them, and a run on the
    unpickled graph equals the original's bit for bit."""
    graph = new_sbm_graph()
    fresh = len(pickle.dumps(graph))
    fresh_a_tilde = len(pickle.dumps(new_sbm_graph().adjacency.renormalized))
    cfg = TaskConfig(learning_rate=0.01, max_epochs=4, patience=4, seed=1)
    first = run_node_classification(graph, sbm_splits, cfg,
                                    model_kind=model_kind)
    a_tilde = graph.adjacency.renormalized
    kept = {"plans", "node_plan", "_flat_ids", "_product_weights"}
    assert kept & set(vars(a_tilde))
    used_a_tilde = pickle.dumps(a_tilde)
    assert len(used_a_tilde) == fresh_a_tilde
    assert set(vars(pickle.loads(used_a_tilde))) == {"n", "rows", "cols",
                                                     "weights"}
    used = pickle.dumps(graph)
    assert len(used) == fresh
    again = run_node_classification(pickle.loads(used), sbm_splits, cfg,
                                    model_kind=model_kind)
    _assert_runs_equal(first, again)


@pytest.mark.parametrize("model_kind", ["gcn_only", "et_gcn"])
def test_second_link_prediction_run_equals_a_run_on_a_fresh_split(
        monkeypatch, model_kind):
    """The same for link prediction, which renormalizes ``split.train``."""

    def inputs():
        graph = sbm_generate([20, 20], 0.3, 0.05, seed=2)
        return graph, link_split(graph.adjacency, 0.1, 0.05, seed=0)

    renormalized = counting_renormalize(monkeypatch)
    graph, split = inputs()
    cfg = TaskConfig(learning_rate=0.01, max_epochs=6, patience=6, seed=5)
    run_link_prediction(graph, split, cfg, model_kind=model_kind)
    second = run_link_prediction(graph, split, cfg, model_kind=model_kind)
    assert renormalized == [split.train]
    fresh_graph, fresh_split = inputs()
    fresh = run_link_prediction(fresh_graph, fresh_split, cfg,
                                model_kind=model_kind)
    assert renormalized == [split.train, fresh_split.train]
    _assert_runs_equal(second, fresh)


def test_multigraph_union_is_freed_before_training(sbm_graph, sbm_splits,
                                                   monkeypatch):
    """The union graph from ``from_views`` is dead once training starts:
    the context holds everything training reads. The union is passed only
    to ``prepare``, so this holds however an interpreter keeps a call's
    arguments alive."""
    unions, alive = [], []
    from_views, train_loop = LabeledGraph.from_views, tasks.train_loop

    def tracked_from_views(*args, **kwargs):
        union = from_views(*args, **kwargs)
        unions.append(weakref.ref(union))
        return union

    def spying_train_loop(*args, **kwargs):
        alive.append(unions[0]() is not None)
        return train_loop(*args, **kwargs)

    monkeypatch.setattr(LabeledGraph, "from_views",
                        staticmethod(tracked_from_views))
    monkeypatch.setattr(tasks, "train_loop", spying_train_loop)
    cfg = TaskConfig(learning_rate=0.01, max_epochs=2, patience=2, seed=0)
    _multigraph_et_gat(sbm_graph, sbm_splits, cfg)
    assert len(unions) == 1 and alive == [False]


def test_multigraph_context_is_freed_when_the_call_returns(sbm_graph,
                                                           sbm_splits,
                                                           monkeypatch):
    """A result holds no context, so a held result keeps no union Â, plan
    pair or stacked tensor alive into the next call."""
    a_tildes, prepare = [], tasks.prepare

    def tracked_prepare(graph):
        ctx = prepare(graph)
        a_tildes.append(weakref.ref(ctx.a_tilde))
        return ctx

    monkeypatch.setattr(tasks, "prepare", tracked_prepare)
    cfg = TaskConfig(learning_rate=0.01, max_epochs=2, patience=2, seed=0)
    result = _multigraph_et_gat(sbm_graph, sbm_splits, cfg)
    assert len(a_tildes) == 1 and a_tildes[0]() is None
    assert len(result.history) == 2


def test_classification_results_carry_the_same_metric_keys(sbm_graph,
                                                           sbm_splits):
    cfg = TaskConfig(learning_rate=0.01, max_epochs=2, patience=2, seed=0)
    single = run_node_classification(sbm_graph, sbm_splits, cfg,
                                     model_kind="et_gat")
    multi = _multigraph_et_gat(sbm_graph, sbm_splits, cfg)
    assert set(multi.metrics) == set(single.metrics) == {
        "test_accuracy", "val_accuracy", "val_loss", "homophily",
        "initial_homophily"}
    assert multi.metrics["initial_homophily"] == \
        multi.history[0].extra["homophily"]


def test_views_graph_classifies_as_the_multigraph_wrapper(sbm_graph,
                                                          sbm_splits):
    """run_multigraph_classification is run_node_classification on the
    views' union, which takes MULTI_GRAPH_WIDTHS itself: the final train
    loss is equal bit for bit."""
    cfg = TaskConfig(learning_rate=0.01, max_epochs=4, patience=4, seed=0)
    direct = run_node_classification(two_view_union(sbm_graph), sbm_splits,
                                     cfg, model_kind="et_gat")
    wrapped = _multigraph_et_gat(sbm_graph, sbm_splits, cfg)
    assert direct.history[-1].train_loss == wrapped.history[-1].train_loss
    assert direct.metrics == wrapped.metrics


@pytest.mark.parametrize("model_kwargs", [
    None, {"gc_hidden": (5,)}, {"edge_hidden": (3, 1)},
], ids=["defaults", "explicit_gc_hidden", "explicit_edge_hidden"])
def test_edge_channels_take_multigraph_widths_under_explicit_ones(
        sbm_graph, sbm_splits, built_models, model_kwargs):
    graphs = [sbm_generate([25, 25], 0.25, 0.03, seed=s).adjacency
              for s in range(2)]
    cfg = TaskConfig(learning_rate=0.01, max_epochs=1, patience=1, seed=0)
    run_multigraph_classification(graphs, sbm_graph.node_features,
                                  sbm_graph.labels, sbm_splits, cfg,
                                  model_kwargs=model_kwargs)
    widths = {**MULTI_GRAPH_WIDTHS, **(model_kwargs or {})}
    model, = built_models

    def out_widths(layers):
        return tuple(layer.weight.value.shape[1] for layer in layers)

    assert out_widths(model.gc_layers[:-1]) == widths["gc_hidden"]
    assert out_widths(model.edge_layers) == widths["edge_hidden"]


def test_node_classification_takes_epsilon_from_model_kwargs(sbm_graph,
                                                             sbm_splits,
                                                             built_models):
    """epsilon is a model setting: it reaches every edge layer, and the run
    equals one made when a training setting carried epsilon = 0."""
    cfg = TaskConfig(learning_rate=0.01, max_epochs=4, patience=4, seed=0)
    result = run_node_classification(sbm_graph, sbm_splits, cfg,
                                     model_kwargs={"epsilon": 0.0})
    model, = built_models
    assert len(model.edge_layers) == 2
    assert all(layer.epsilon == 0.0 for layer in model.edge_layers)
    assert result.history[-1].train_loss.hex() == "0x1.e40f1252904b0p-2"


def recording_train_loop(monkeypatch):
    """The calls ``tasks.train_loop`` gets during the test, in order."""
    calls, train_loop = [], tasks.train_loop

    def recording(*args):
        calls.append(args)
        return train_loop(*args)

    monkeypatch.setattr(tasks, "train_loop", recording)
    return calls


@pytest.mark.parametrize("model_kwargs", [{"recipe": "subtract"},
                                          {"reduce_dim": 4}],
                         ids=["recipe", "reduce_dim"])
def test_edge_channels_refuse_recipe_settings_before_training(
        sbm_graph, sbm_splits, monkeypatch, model_kwargs):
    """The channels are the edge input, so no recipe or reducer would read
    these settings; the model refuses them instead of dropping them."""
    trained = recording_train_loop(monkeypatch)
    cfg = TaskConfig(learning_rate=0.01, max_epochs=2, patience=2, seed=0)
    name, = model_kwargs
    with pytest.raises(ValueError, match=rf"edge channels replace the "
                                         rf"recipe; leave \['{name}'\]"):
        run_node_classification(two_view_union(sbm_graph), sbm_splits, cfg,
                                model_kwargs=model_kwargs)
    assert trained == []


def test_gcn_only_link_prediction_refuses_edge_stack_settings(monkeypatch):
    """gcn_only reads no epsilon; the model refuses it before training."""
    trained = recording_train_loop(monkeypatch)
    graph = sbm_generate([20, 20], 0.3, 0.05, seed=2)
    split = link_split(graph.adjacency, 0.1, 0.05, seed=0)
    cfg = TaskConfig(learning_rate=0.01, max_epochs=2, patience=2, seed=0)
    with pytest.raises(ValueError, match=r"gcn_only has no edge stack; "
                                         r"leave \['epsilon'\]"):
        run_link_prediction(graph, split, cfg, model_kind="gcn_only",
                            model_kwargs={"epsilon": 0.5})
    assert trained == []


def test_gcn_only_trains_on_edge_channels(sbm_graph, sbm_splits,
                                          built_models):
    """gcn_only on a graph with edge channels takes only the node width of
    MULTI_GRAPH_WIDTHS; its final train loss is pinned bit for bit."""
    cfg = TaskConfig(learning_rate=0.01, max_epochs=4, patience=4, seed=0)
    result = run_node_classification(two_view_union(sbm_graph), sbm_splits,
                                     cfg, model_kind="gcn_only")
    model, = built_models
    assert model.edge_layers == []
    assert ([layer.weight.value.shape[1] for layer in model.gc_layers[:-1]]
            == list(MULTI_GRAPH_WIDTHS["gc_hidden"]))
    assert result.history[-1].train_loss.hex() == "0x1.48dcb177b5218p-1"


def test_et_gat_trains_on_edge_channels_bit_for_bit(sbm_graph, sbm_splits):
    """et_gat on a channel graph, mg's path: attention weights both edge
    layers and the learned graph both node layers. Its final train loss
    is pinned bit for bit."""
    cfg = TaskConfig(learning_rate=0.01, max_epochs=4, patience=4, seed=0)
    result = run_node_classification(two_view_union(sbm_graph), sbm_splits,
                                     cfg, model_kind="et_gat")
    assert result.history[-1].train_loss.hex() == "0x1.0e6d7a8f171ddp-1"


def test_et_gat_link_prediction_bit_for_bit():
    """et_gat's link loss reads ``row_dots`` in ``link_scores``; its final
    train loss is pinned bit for bit."""
    result = run_link_prediction(*small_link_inputs(),
                                 TaskConfig(0.01, 5, 5, seed=0),
                                 model_kind="et_gat")
    assert result.history[-1].train_loss.hex() == "0x1.35258239561fcp-1"


def test_every_epochs_learned_graph_shares_one_node_plan(sbm_graph,
                                                         sbm_splits,
                                                         monkeypatch):
    """On a channel graph Â runs no A·H of its own, yet the learned graph
    of every epoch, a new ``with_weights`` copy of Â, reads Â's one node
    plan instead of building its own."""
    learned, gc_forward = [], models.gc_forward

    def recording(h, a, layer):
        learned.append(a)
        return gc_forward(h, a, layer)

    monkeypatch.setattr(models, "gc_forward", recording)
    graph = two_view_union(sbm_graph)
    cfg = TaskConfig(learning_rate=0.01, max_epochs=2, patience=2, seed=0)
    run_node_classification(graph, sbm_splits, cfg, model_kind="et_gat")
    a_tilde = graph.adjacency.renormalized
    assert len({id(a) for a in learned}) == 2  # one per epoch
    assert all(a is not a_tilde and a.node_plan is a_tilde.node_plan
               for a in learned)


def test_link_prediction_refuses_a_graph_with_edge_channels():
    """The split carries no channels, so a held-out edge's channels would
    otherwise reach the model through the graph."""
    ref = sbm_generate([10, 10], 0.3, 0.05, seed=2)
    graph = LabeledGraph.from_views([ref.adjacency], ref.node_features,
                                    ref.labels)
    split = link_split(graph.adjacency, 0.1, 0.05, seed=0)
    cfg = TaskConfig(max_epochs=1, patience=1)
    with pytest.raises(ValueError, match="edge channels"):
        run_link_prediction(graph, split, cfg)


def test_link_prediction_beats_chance():
    graph = sbm_generate([30, 30], 0.3, 0.05, seed=1)
    split = link_split(graph.adjacency, 0.1, 0.05, seed=0)
    cfg = TaskConfig(learning_rate=0.01, max_epochs=150, patience=40, seed=0)
    result = run_link_prediction(graph, split, cfg)
    assert result.metrics["auc"] > 0.6
    assert result.metrics["ap"] > 0.6


def test_link_prediction_reproducible():
    graph = sbm_generate([20, 20], 0.3, 0.05, seed=2)
    split = link_split(graph.adjacency, 0.1, 0.05, seed=0)
    cfg = TaskConfig(learning_rate=0.01, max_epochs=20, patience=20, seed=5)
    r1 = run_link_prediction(graph, split, cfg)
    r2 = run_link_prediction(graph, split, cfg)
    assert r1.metrics == r2.metrics


def test_link_prediction_computes_ap_once_per_run(monkeypatch,
                                                  recorded_calls):
    """Each epoch's validation reads only the AUC, so ``auc_ap`` runs once,
    on the test pairs; the per-epoch metric is its AUC, bit for bit."""
    calls = []

    def spy(scores, labels):
        calls.append(len(scores))
        return auc_ap(scores, labels)

    monkeypatch.setattr(tasks, "auc_ap", spy)
    graph, split = small_link_inputs()
    result = run_link_prediction(graph, split, TaskConfig(0.01, 5, 5, seed=0))
    assert len(result.history) == 5
    assert calls == [len(split.test_pos) + len(split.test_neg)]
    z = _fresh_forward(recorded_calls, result.best_params)[0].z.value
    scores = link_scores(z, np.concatenate([split.val_pos, split.val_neg]))
    labels = np.r_[np.ones(len(split.val_pos)), np.zeros(len(split.val_neg))]
    assert (result.history[result.best_epoch].val_metric
            == auc_ap(scores, labels)[0])


def test_link_prediction_rejects_a_split_of_the_wrong_type():
    graph = sbm_generate([10, 10], 0.3, 0.05, seed=2)
    cfg = TaskConfig(max_epochs=1, patience=1)
    with pytest.raises(TypeError, match="LinkSplit"):
        run_link_prediction(graph, {"train": graph.adjacency}, cfg)


def test_multigraph_classification_learns():
    graphs = [sbm_generate([20, 20], 0.25, 0.04, seed=s).adjacency
              for s in range(3)]
    ref = sbm_generate([20, 20], 0.25, 0.04, seed=0)
    splits = split_nodes(ref.labels, 5, 0.3, seed=0)
    cfg = TaskConfig(learning_rate=0.005, max_epochs=120, patience=120, seed=0)
    result = run_multigraph_classification(graphs, ref.node_features,
                                           ref.labels, splits, cfg)
    assert result.metrics["test_accuracy"] >= 0.9
