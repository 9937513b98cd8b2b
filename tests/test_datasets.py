"""Text dataset format: round trips and malformed-input diagnostics."""

import numpy as np
import pytest

from edgetensor import datasets
from edgetensor.datasets import (load_dataset, load_edge_list, load_labels,
                                 load_splits, save_dataset)
from edgetensor.evaluation import split_nodes
from edgetensor.generators import sbm_generate
from edgetensor.sparse_graph import LabeledGraph, SparseAdjacency


def test_single_graph_round_trip(tmp_path):
    g = sbm_generate([6, 6], 0.5, 0.1, seed=0)
    splits = split_nodes(g.labels, 2, 0.3, seed=0)
    g = LabeledGraph(g.adjacency, g.node_features, g.labels, splits)
    save_dataset(g, tmp_path / "data")
    back = load_dataset(tmp_path / "data")
    assert isinstance(back, LabeledGraph)
    for attr in ("rows", "cols", "weights"):
        np.testing.assert_array_equal(getattr(back.adjacency, attr),
                                      getattr(g.adjacency, attr))
    np.testing.assert_array_equal(back.node_features, g.node_features)
    np.testing.assert_array_equal(back.labels, g.labels)
    for key in splits:
        np.testing.assert_array_equal(back.splits[key], splits[key])


def test_multi_graph_round_trip(tmp_path):
    graphs = [sbm_generate([4, 4], 0.6, 0.2, seed=s).adjacency
              for s in range(3)]
    ref = sbm_generate([4, 4], 0.6, 0.2, seed=0)
    data = LabeledGraph.from_views(graphs, ref.node_features, ref.labels)
    save_dataset(data, tmp_path / "multi")
    back = load_dataset(tmp_path / "multi")
    assert isinstance(back, LabeledGraph)
    assert len(views_of(back)) == 3
    for got, expected in zip(views_of(back), graphs):
        for attr in ("rows", "cols", "weights"):
            np.testing.assert_array_equal(getattr(got, attr),
                                          getattr(expected, attr))


def views_of(graph):
    """One adjacency per edge channel: the entries where it is nonzero."""
    a = graph.adjacency
    return [SparseAdjacency(a.n, a.rows[c != 0], a.cols[c != 0], c[c != 0])
            for c in graph.edge_channels.T]


class _Unwritable:
    """An edge weight whose text form raises, to cut a write short."""

    def __float__(self):
        raise RuntimeError("interrupted")


def cut_edge_writes(monkeypatch, line):
    """Make each edge file's write raise at its line ``line``."""
    write = datasets._save_edge_list

    def cut(path, rows, cols, weights):
        weights = np.asarray(weights, dtype=object)
        weights[line] = _Unwritable()
        write(path, rows, cols, weights)

    monkeypatch.setattr(datasets, "_save_edge_list", cut)


def test_interrupted_save_leaves_previous_files(tmp_path, monkeypatch):
    """A write that fails after some edge lines keeps the old edges.tsv
    byte for byte and leaves no temp file."""
    root = tmp_path / "data"
    save_dataset(sbm_generate([10, 10], 0.5, 0.1, seed=0), root)
    before = {p.name: p.read_bytes() for p in root.iterdir()}
    cut_edge_writes(monkeypatch, 5)
    with pytest.raises(RuntimeError, match="interrupted"):
        save_dataset(sbm_generate([10, 10], 0.5, 0.1, seed=1), root)
    assert {p.name: p.read_bytes() for p in root.iterdir()} == before


def test_interrupted_save_of_the_same_layout_leaves_the_old_views(
        tmp_path, monkeypatch):
    """New views are moved in only once every file is written: a save cut
    in its second view leaves the old files byte for byte, and no
    temporary directory."""
    root = tmp_path / "data"
    save_dataset(views(2), root)
    before = {p.name: p.read_bytes() for p in root.iterdir()}
    write, calls = datasets._save_edge_list, []

    def second_call_raises(*args):
        calls.append(args[0])
        if len(calls) == 2:
            raise RuntimeError("interrupted")
        write(*args)

    monkeypatch.setattr(datasets, "_save_edge_list", second_call_raises)
    with pytest.raises(RuntimeError, match="interrupted"):
        save_dataset(views(2, seed=5), root)
    assert len(calls) == 2
    assert {p.name: p.read_bytes() for p in root.iterdir()} == before
    assert [p.name for p in tmp_path.iterdir()] == ["data"]


def test_save_refuses_a_diagonal_entry(tmp_path):
    """Edge lists hold no self-loops, so such a graph would load back
    without its diagonal entry (and with other renormalized weights)."""
    a = SparseAdjacency(3, [0, 0, 1, 1, 2], [0, 1, 0, 2, 1],
                        [2.0, 1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="diagonal"):
        save_dataset(LabeledGraph(a, np.eye(3), [0, 1, 0]), tmp_path / "data")
    assert not (tmp_path / "data").exists()


def test_save_refuses_channels_on_a_weighted_adjacency(tmp_path):
    """Edge views load as a binary union, so other weights would be lost."""
    a = SparseAdjacency.from_undirected_edges(3, [(0, 1), (1, 2)], [2.0, 1.0])
    graph = LabeledGraph(a, np.eye(3), [0, 1, 0],
                         edge_channels=np.ones((a.nnz, 2)))
    with pytest.raises(ValueError, match="adjacency weights of 1"):
        save_dataset(graph, tmp_path / "data")
    assert not (tmp_path / "data").exists()


def test_channel_graph_with_an_all_zero_edge_round_trips(tmp_path):
    """An edge whose channels are all zero stays in the union: view 1 lists
    it with an explicit 0.0."""
    first = SparseAdjacency.from_undirected_edges(4, [(0, 1), (1, 2)],
                                                  [0.0, 2.5])
    second = SparseAdjacency.from_undirected_edges(4, [(2, 3)])
    graph = LabeledGraph.from_views([first, second], np.eye(4), [0, 0, 1, 1])
    save_dataset(graph, tmp_path)
    assert (tmp_path / "edges_1.tsv").read_text() == "0\t1\t0.0\n1\t2\t2.5\n"
    assert (tmp_path / "edges_2.tsv").read_text() == "2\t3\n"
    back = load_dataset(tmp_path)
    for attr in ("rows", "cols", "weights"):
        np.testing.assert_array_equal(getattr(back.adjacency, attr),
                                      getattr(graph.adjacency, attr))
    np.testing.assert_array_equal(back.edge_channels, graph.edge_channels)


def test_weighted_edges_round_trip(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("0\t1\t2.5\n1\t2\n")
    a = load_edge_list(path, 3)
    assert a.to_dense()[0, 1] == 2.5
    assert a.to_dense()[2, 1] == 1.0


def test_edge_list_error_messages_carry_line_numbers(tmp_path):
    cases = [
        ("0\t1\n0\n", "2: expected"),
        ("0\tx\n", "1: malformed number"),
        ("0\t9\n", "1: node index out of range"),
        ("1\t1\n", "1: self-loops"),
        ("0\t1\n1\t0\n", "2: duplicate edge"),
    ]
    for content, fragment in cases:
        path = tmp_path / "edges.tsv"
        path.write_text(content)
        with pytest.raises(ValueError, match=fragment):
            load_edge_list(path, 4)


def test_edge_list_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("# a comment\n\n0\t1\n")
    assert load_edge_list(path, 2).nnz == 2


def test_labels_errors(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0\nbad\n")
    with pytest.raises(ValueError, match="2: malformed label"):
        load_labels(path, 2)
    path.write_text("0\n-2\n")
    with pytest.raises(ValueError, match="2: label out of range"):
        load_labels(path, 2)
    path.write_text("0\n1\n")
    with pytest.raises(ValueError, match="expected 3 labels"):
        load_labels(path, 3)


def test_splits_parse_and_errors(tmp_path):
    path = tmp_path / "splits.txt"
    path.write_text("#train\n0 1\n2\n#val\n3\n")
    splits = load_splits(path, 5)
    np.testing.assert_array_equal(splits["train"], [0, 1, 2])
    np.testing.assert_array_equal(splits["val"], [3])

    path.write_text("0\n#train\n1\n")
    with pytest.raises(ValueError, match="1: node id before"):
        load_splits(path, 5)
    path.write_text("#train\n7\n")
    with pytest.raises(ValueError, match="2: node index out of range"):
        load_splits(path, 5)
    path.write_text("#train\n\n0 x\n")
    with pytest.raises(ValueError, match="3: malformed node id"):
        load_splits(path, 5)


def test_a_repeated_split_id_fails_at_load(tmp_path):
    graph = sbm_generate([3, 3], 0.6, 0.2, seed=0)
    save_dataset(graph, tmp_path)
    (tmp_path / "splits.txt").write_text("#train\n0 3\n#val\n1 1\n")
    with pytest.raises(ValueError, match="split 'val' repeats node id 1"):
        load_dataset(tmp_path)


def test_feature_matrix_errors(tmp_path):
    path = tmp_path / "features.txt"
    path.write_text("1 2\n3 nan?\n")
    with pytest.raises(ValueError, match="2: malformed number"):
        datasets.load_matrix(path)
    path.write_text("# only a comment\n\n")
    with pytest.raises(ValueError, match="empty feature file"):
        datasets.load_matrix(path)


def test_non_finite_features_and_channels_are_refused(tmp_path):
    root = tmp_path / "data"
    root.mkdir()
    (root / "features.txt").write_text("1 0\n0 nan\n1 1\n")
    (root / "labels.txt").write_text("0\n1\n0\n")
    (root / "edges.tsv").write_text("0\t1\n1\t2\n")
    with pytest.raises(ValueError,
                       match="node features must be finite; node 1 holds nan"):
        load_dataset(root)
    graph = views(2)
    channels = graph.edge_channels.copy()
    channels[graph.adjacency.transpose_permutation[:1]] = np.inf
    channels[:1] = np.inf
    with pytest.raises(ValueError, match="edge channels must be finite"):
        LabeledGraph(graph.adjacency, graph.node_features, graph.labels,
                     edge_channels=channels)


def test_missing_edge_files_reported(tmp_path):
    root = tmp_path / "data"
    root.mkdir()
    (root / "features.txt").write_text("1 0\n0 1\n")
    (root / "labels.txt").write_text("0\n1\n")
    with pytest.raises(FileNotFoundError, match="edges"):
        load_dataset(root)


def test_features_width_mismatch_reported(tmp_path):
    path = tmp_path / "features.txt"
    path.write_text("1 0\n0 1 1\n")
    from edgetensor.datasets import load_matrix
    with pytest.raises(ValueError, match="2: expected 2 values"):
        load_matrix(path)


def views(count, seed=0):
    """``count`` distinct 8-node SBM views plus one node set's features."""
    graphs = [sbm_generate([4, 4], 0.6, 0.2, seed=seed + s).adjacency
              for s in range(count)]
    ref = sbm_generate([4, 4], 0.6, 0.2, seed=seed)
    return LabeledGraph.from_views(graphs, ref.node_features, ref.labels)


def assert_same_views(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        for attr in ("rows", "cols", "weights"):
            np.testing.assert_array_equal(getattr(g, attr), getattr(e, attr))


def test_views_load_in_numeric_order(tmp_path):
    """edges_10.tsv and edges_11.tsv load after edges_2.tsv, not before."""
    data = views(11)
    save_dataset(data, tmp_path)
    assert_same_views(views_of(load_dataset(tmp_path)), views_of(data))


def test_view_numbers_with_a_gap_are_refused(tmp_path):
    save_dataset(views(3), tmp_path)
    (tmp_path / "edges_2.tsv").unlink()
    with pytest.raises(ValueError, match="without a gap"):
        load_dataset(tmp_path)


def test_saving_fewer_views_removes_the_ones_above(tmp_path):
    save_dataset(views(3), tmp_path)
    data = views(2, seed=5)
    save_dataset(data, tmp_path)
    assert not (tmp_path / "edges_3.tsv").exists()
    assert_same_views(views_of(load_dataset(tmp_path)), views_of(data))


def test_saving_the_other_layout_removes_the_old_edge_files(tmp_path):
    single = sbm_generate([4, 4], 0.6, 0.2, seed=9)
    data = views(2)
    save_dataset(single, tmp_path)
    save_dataset(data, tmp_path)
    assert not (tmp_path / "edges.tsv").exists()
    assert_same_views(views_of(load_dataset(tmp_path)), views_of(data))
    save_dataset(single, tmp_path)
    assert sorted(p.name for p in tmp_path.glob("edges*")) == ["edges.tsv"]
    back = load_dataset(tmp_path)
    assert isinstance(back, LabeledGraph)
    assert_same_views([back.adjacency], [single.adjacency])


def test_saving_data_without_splits_removes_the_old_splits(tmp_path):
    g = sbm_generate([6, 6], 0.5, 0.1, seed=0)
    splits = split_nodes(g.labels, 2, 0.3, seed=0)
    save_dataset(LabeledGraph(g.adjacency, g.node_features, g.labels, splits),
                 tmp_path)
    assert (tmp_path / "splits.txt").exists()
    save_dataset(g, tmp_path)
    assert not (tmp_path / "splits.txt").exists()
    assert load_dataset(tmp_path).splits == {}


def test_both_layouts_in_one_directory_are_refused(tmp_path):
    save_dataset(views(2), tmp_path)
    (tmp_path / "edges.tsv").write_text("0\t1\n")
    with pytest.raises(ValueError, match="both"):
        load_dataset(tmp_path)


def test_interrupted_save_of_the_other_layout_does_not_load_the_old_graph(
        tmp_path, monkeypatch):
    """The old layout's files go before any new file is written, so a save
    cut short in its first view leaves nothing that loads."""
    save_dataset(sbm_generate([4, 4], 0.6, 0.2, seed=0), tmp_path)
    cut_edge_writes(monkeypatch, 0)
    with pytest.raises(RuntimeError, match="interrupted"):
        save_dataset(views(2), tmp_path)
    with pytest.raises(FileNotFoundError, match="edges"):
        load_dataset(tmp_path)
