"""Text dataset loading and saving.

Layout of a dataset directory:

* ``edges.tsv``       one ``i<TAB>j[<TAB>w]`` line per undirected edge,
                      0-based, weight defaulting to 1.0. A graph with edge
                      channels uses ``edges_1.tsv`` ... ``edges_p.tsv``
                      instead, one adjacency view per channel, loaded in
                      order of k as their binary union (see
                      ``LabeledGraph.from_views``); a directory may not
                      hold both layouts.
* ``features.txt``    one whitespace-separated feature row per node.
* ``labels.txt``      one class id per node, ``-1`` for unlabeled.
* ``splits.txt``      optional; node ids listed under ``#train`` /
                      ``#val`` / ``#test`` section headers.
"""

from __future__ import annotations

import os
import re
import shutil
import tempfile

import numpy as np

from .params import atomic_open
from .sparse_graph import LabeledGraph, SparseAdjacency

_VIEW_FILE = re.compile(r"edges_([1-9][0-9]*)\.tsv")


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
    """Paths of ``edges_1.tsv`` ... ``edges_m.tsv`` under ``root``, in order of k."""
    views = {}
    for name in os.listdir(root):
        match = _VIEW_FILE.fullmatch(name)
        if match:
            views[int(match.group(1))] = os.path.join(root, name)
    ks = sorted(views)
    if ks != list(range(1, len(ks) + 1)):
        raise ValueError(f"{root}: edge views must be edges_1.tsv ... "
                         f"edges_m.tsv without a gap, found k = {ks}")
    return [views[k] for k in ks]


def load_dataset(root):
    """Load a dataset directory as a LabeledGraph, with edge channels for
    the ``edges_k.tsv`` layout."""
    features = load_matrix(os.path.join(root, "features.txt"))
    n = features.shape[0]
    labels = load_labels(os.path.join(root, "labels.txt"), n)
    splits_path = os.path.join(root, "splits.txt")
    splits = load_splits(splits_path, n) if os.path.exists(splits_path) else {}

    single = os.path.join(root, "edges.tsv")
    multi = _multi_edge_files(root)
    if os.path.exists(single):
        if multi:
            raise ValueError(f"{root} holds both edges.tsv and edges_k.tsv")
        adjacency = load_edge_list(single, n)
        return LabeledGraph(adjacency, features, labels, splits)
    if not multi:
        raise FileNotFoundError(f"no edges.tsv or edges_*.tsv under {root}")
    views = [load_edge_list(p, n) for p in multi]
    return LabeledGraph.from_views(views, features, labels, splits)


def _edge_lists(graph):
    """(i, j, w) columns of the undirected edges to save, by file name.

    View k lists the edges whose channel k is nonzero. View 1 also lists
    the edges whose channels are all zero, with weight 0.0, so that the
    union loads back with every edge.
    """
    a, channels = graph.adjacency, graph.edge_channels
    if np.any(a.rows == a.cols):
        raise ValueError("an edge list cannot store a diagonal entry")
    upper = a.rows < a.cols
    rows, cols = a.rows[upper], a.cols[upper]
    if channels is None:
        return {"edges.tsv": (rows, cols, a.weights[upper])}
    if np.any(a.weights != 1.0):
        raise ValueError("edge views load as a binary union: a graph with "
                         "edge channels needs adjacency weights of 1")
    block = channels[upper]
    listed = block != 0
    listed[:, 0] |= ~listed.any(axis=1)
    return {f"edges_{k}.tsv": (rows[keep], cols[keep], block[keep, k - 1])
            for k, keep in enumerate(listed.T, start=1)}


def _save_edge_list(path, rows, cols, weights):
    with atomic_open(path) as fh:
        for i, j, w in zip(rows, cols, weights):
            if w == 1.0:
                fh.write(f"{i}\t{j}\n")
            else:
                fh.write(f"{i}\t{j}\t{float(w)!r}\n")


def save_dataset(graph, root):
    """Write a LabeledGraph in the text layout; :func:`load_dataset` reads
    it back as saved.

    A graph that would not load back as saved is refused: one whose
    adjacency stores a diagonal entry, or one with edge channels whose
    adjacency weights are not all 1.

    Files that :func:`load_dataset` would read but this save does not
    write (the other layout's edge files, views above the new p, and
    ``splits.txt`` for a graph without splits) are removed first, so an
    interrupted save cannot load as the old graph. Every new file is then
    written, through :func:`params.atomic_open`, into a temporary sibling
    directory of ``root``, and moved into ``root`` only once all are
    written: a save cut short before that leaves the old files as they
    were.
    """
    edge_lists = _edge_lists(graph)
    os.makedirs(root, exist_ok=True)
    for name in os.listdir(root):
        edges = name == "edges.tsv" or _VIEW_FILE.fullmatch(name)
        if (edges and name not in edge_lists
                or name == "splits.txt" and not graph.splits):
            os.remove(os.path.join(root, name))
    staging = tempfile.mkdtemp(prefix=".saving-",
                               dir=os.path.dirname(os.path.abspath(root)))
    try:
        for name, columns in edge_lists.items():
            _save_edge_list(os.path.join(staging, name), *columns)
        with atomic_open(os.path.join(staging, "features.txt")) as fh:
            for row in graph.node_features:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")
        with atomic_open(os.path.join(staging, "labels.txt")) as fh:
            for value in graph.labels:
                fh.write(f"{value}\n")
        if graph.splits:
            with atomic_open(os.path.join(staging, "splits.txt")) as fh:
                for name in ("train", "val", "test"):
                    if name in graph.splits:
                        fh.write(f"#{name}\n")
                        for idx in graph.splits[name]:
                            fh.write(f"{idx}\n")
        for name in os.listdir(staging):
            os.replace(os.path.join(staging, name), os.path.join(root, name))
    finally:
        shutil.rmtree(staging, ignore_errors=True)
