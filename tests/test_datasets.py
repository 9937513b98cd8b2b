"""Text dataset format: round trips and malformed-input diagnostics."""

from types import SimpleNamespace

import numpy as np
import pytest

from edgetensor.datasets import (MultiGraphDataset, load_dataset,
                                 load_edge_list, load_labels, load_splits,
                                 save_dataset)
from edgetensor.evaluation import split_nodes
from edgetensor.generators import sbm_generate
from edgetensor.sparse_graph import LabeledGraph


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
    data = MultiGraphDataset(graphs, ref.node_features, ref.labels)
    save_dataset(data, tmp_path / "multi")
    back = load_dataset(tmp_path / "multi")
    assert isinstance(back, MultiGraphDataset)
    assert len(back.graphs) == 3
    for got, expected in zip(back.graphs, graphs):
        for attr in ("rows", "cols", "weights"):
            np.testing.assert_array_equal(getattr(got, attr),
                                          getattr(expected, attr))


class _Unwritable:
    """An edge weight whose text form raises, to cut a write short."""

    def __float__(self):
        raise RuntimeError("interrupted")


def test_interrupted_save_leaves_previous_files(tmp_path):
    """A write that fails after some edge lines keeps the old edges.tsv
    byte for byte and leaves no temp file."""
    root = tmp_path / "data"
    save_dataset(sbm_generate([10, 10], 0.5, 0.1, seed=0), root)
    before = {p.name: p.read_bytes() for p in root.iterdir()}
    a = sbm_generate([10, 10], 0.5, 0.1, seed=1).adjacency
    weights = a.weights.astype(object)
    weights[np.flatnonzero(a.rows < a.cols)[5]] = _Unwritable()
    broken = SimpleNamespace(rows=a.rows, cols=a.cols, weights=weights)
    with pytest.raises(RuntimeError, match="interrupted"):
        save_dataset(SimpleNamespace(adjacency=broken), root)
    assert {p.name: p.read_bytes() for p in root.iterdir()} == before


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
    return MultiGraphDataset(graphs, ref.node_features, ref.labels)


def assert_same_views(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        for attr in ("rows", "cols", "weights"):
            np.testing.assert_array_equal(getattr(g, attr), getattr(e, attr))


def test_views_load_in_numeric_order(tmp_path):
    """edges_10.tsv and edges_11.tsv load after edges_2.tsv, not before."""
    data = views(11)
    save_dataset(data, tmp_path)
    assert_same_views(load_dataset(tmp_path).graphs, data.graphs)


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
    assert_same_views(load_dataset(tmp_path).graphs, data.graphs)


def test_saving_the_other_layout_removes_the_old_edge_files(tmp_path):
    single = sbm_generate([4, 4], 0.6, 0.2, seed=9)
    data = views(2)
    save_dataset(single, tmp_path)
    save_dataset(data, tmp_path)
    assert not (tmp_path / "edges.tsv").exists()
    assert_same_views(load_dataset(tmp_path).graphs, data.graphs)
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
        tmp_path):
    """The old layout's files go before any new file is written, so a save
    cut short in its first view leaves nothing that loads."""
    save_dataset(sbm_generate([4, 4], 0.6, 0.2, seed=0), tmp_path)
    data = views(2)
    a = data.graphs[0]
    weights = a.weights.astype(object)
    weights[np.flatnonzero(a.rows < a.cols)[0]] = _Unwritable()
    broken = SimpleNamespace(rows=a.rows, cols=a.cols, weights=weights)
    with pytest.raises(RuntimeError, match="interrupted"):
        save_dataset(MultiGraphDataset([broken, data.graphs[1]],
                                       data.node_features, data.labels),
                     tmp_path)
    with pytest.raises(FileNotFoundError, match="edges"):
        load_dataset(tmp_path)
