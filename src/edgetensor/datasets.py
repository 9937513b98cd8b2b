"""Text dataset loading and saving.

Layout of a dataset directory:

* ``edges.tsv``       one ``i<TAB>j[<TAB>w]`` line per undirected edge,
                      0-based, weight defaulting to 1.0. Multi-graph
                      datasets use ``edges_1.tsv`` ... ``edges_m.tsv``.
* ``features.txt``    one whitespace-separated feature row per node.
* ``labels.txt``      one class id per node, ``-1`` for unlabeled.
* ``splits.txt``      optional; node ids listed under ``#train`` /
                      ``#val`` / ``#test`` section headers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .sparse_graph import LabeledGraph, SparseAdjacency


@dataclass(frozen=True)
class MultiGraphDataset:
    graphs: list
    node_features: np.ndarray
    labels: np.ndarray
    splits: dict = field(default_factory=dict)

    @property
    def n(self):
        return self.graphs[0].n


def _fail(path, lineno, message):
    raise ValueError(f"{path}:{lineno}: {message}")


def _data_lines(path):
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                yield lineno, stripped


def load_edge_list(path, n):
    """Parse an undirected edge list into a symmetric SparseAdjacency."""
    pairs = []
    weights = []
    seen = set()
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) not in (2, 3):
            _fail(path, lineno, "expected 'i j [w]'")
        try:
            i, j = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            _fail(path, lineno, "malformed number")
        if not (0 <= i < n and 0 <= j < n):
            _fail(path, lineno, f"node index out of range [0, {n})")
        if i == j:
            _fail(path, lineno, "self-loops are not allowed in edge lists")
        key = (min(i, j), max(i, j))
        if key in seen:
            _fail(path, lineno, f"duplicate edge {key}")
        seen.add(key)
        pairs.append(key)
        weights.append(w)
    return SparseAdjacency.from_undirected_edges(n, pairs, weights)


def load_matrix(path):
    rows = []
    width = None
    for lineno, line in _data_lines(path):
        try:
            row = [float(x) for x in line.split()]
        except ValueError:
            _fail(path, lineno, "malformed number")
        if width is None:
            width = len(row)
        elif len(row) != width:
            _fail(path, lineno, f"expected {width} values, got {len(row)}")
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: empty feature file")
    return np.array(rows)


def load_labels(path, n):
    labels = []
    for lineno, line in _data_lines(path):
        try:
            value = int(line.split()[0])
        except ValueError:
            _fail(path, lineno, "malformed label")
        if value < -1:
            _fail(path, lineno, "label out of range (use -1 for unlabeled)")
        labels.append(value)
    if len(labels) != n:
        raise ValueError(f"{path}: expected {n} labels, found {len(labels)}")
    return np.array(labels, dtype=np.intp)


def load_splits(path, n):
    splits = {}
    current = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                current = stripped[1:].strip()
                splits[current] = []
                continue
            if current is None:
                _fail(path, lineno, "node id before any #section header")
            for token in stripped.split():
                try:
                    idx = int(token)
                except ValueError:
                    _fail(path, lineno, "malformed node id")
                if not 0 <= idx < n:
                    _fail(path, lineno, f"node index out of range [0, {n})")
                splits[current].append(idx)
    return {k: np.array(v, dtype=np.intp) for k, v in splits.items()}


def _multi_edge_files(root):
    files = sorted(
        f for f in os.listdir(root)
        if f.startswith("edges_") and f.endswith(".tsv")
    )
    return [os.path.join(root, f) for f in files]


def load_dataset(root):
    """Load a dataset directory; returns LabeledGraph or MultiGraphDataset."""
    features = load_matrix(os.path.join(root, "features.txt"))
    n = features.shape[0]
    labels = load_labels(os.path.join(root, "labels.txt"), n)
    splits_path = os.path.join(root, "splits.txt")
    splits = load_splits(splits_path, n) if os.path.exists(splits_path) else {}

    single = os.path.join(root, "edges.tsv")
    if os.path.exists(single):
        adjacency = load_edge_list(single, n)
        return LabeledGraph(adjacency, features, labels, splits)
    multi = _multi_edge_files(root)
    if not multi:
        raise FileNotFoundError(f"no edges.tsv or edges_*.tsv under {root}")
    graphs = [load_edge_list(p, n) for p in multi]
    return MultiGraphDataset(graphs, features, labels, splits)


def _save_edge_list(adjacency, path):
    upper = adjacency.rows < adjacency.cols
    with open(path, "w") as fh:
        for i, j, w in zip(adjacency.rows[upper], adjacency.cols[upper],
                           adjacency.weights[upper]):
            if w == 1.0:
                fh.write(f"{i}\t{j}\n")
            else:
                fh.write(f"{i}\t{j}\t{float(w)!r}\n")


def save_dataset(data, root):
    """Write a LabeledGraph or MultiGraphDataset in the text layout."""
    os.makedirs(root, exist_ok=True)
    if isinstance(data, MultiGraphDataset):
        for k, g in enumerate(data.graphs, start=1):
            _save_edge_list(g, os.path.join(root, f"edges_{k}.tsv"))
    else:
        _save_edge_list(data.adjacency, os.path.join(root, "edges.tsv"))
    with open(os.path.join(root, "features.txt"), "w") as fh:
        for row in data.node_features:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
    with open(os.path.join(root, "labels.txt"), "w") as fh:
        for value in data.labels:
            fh.write(f"{value}\n")
    if data.splits:
        with open(os.path.join(root, "splits.txt"), "w") as fh:
            for name in ("train", "val", "test"):
                if name in data.splits:
                    fh.write(f"#{name}\n")
                    for idx in data.splits[name]:
                        fh.write(f"{idx}\n")
