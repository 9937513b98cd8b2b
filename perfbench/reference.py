"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the same code runs up to about 1.8x slower for tens of
seconds at a time while other tenants load the machine, and every kind of
work slows together: BLAS, gathers, small numpy calls and plain Python. A
run of 40 seconds sees one or two such phases, so its raw epoch times say
as much about the neighbours as about the program.

``spans.stamp_epochs`` runs ``kernel()`` after every epoch, outside the
epoch's span, and the time metrics are scaled by ``NOMINAL_MS`` over the
kernel's time next to them, so they read as times on the machine at the
speed where the kernel takes ``NOMINAL_MS``. The kernel is the benchmark's
own fixed code: a change to the program moves the epoch times and not the
kernel's.

Its parts are the operations an epoch is made of, at the workloads' size
(n = 2000, 26k edges): a dense layer, an edge gather with row dots, a
scatter-add, segment sums, small numpy calls and a Python loop. Different
slow-downs hit these parts differently, so the whole mix is timed: over a
4-minute link-prediction run its time followed the epoch's with a log-log
slope of 1.0. A kernel of the dense layer and segment sums alone followed
the epochs of both link prediction and node classification less closely.
"""

from __future__ import annotations

import numpy as np

# The kernel's time when the machine is fastest: about the 5th percentile
# over 4-minute runs on a 2-vCPU Intel Xeon virtual machine (Python 3.11,
# numpy 2.4, OpenBLAS on one thread).
NOMINAL_MS = 8.0

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((2000, 64))
_W = _rng.standard_normal((64, 64)) / 8
_ROWS = _rng.integers(0, 2000, 26000)
_COLS = _rng.integers(0, 2000, 26000)
_SORTED_ROWS = np.sort(_ROWS)
_G = _rng.standard_normal((26000, 8))
_PAIRS = set(zip(_ROWS[:3000].tolist(), _COLS[:3000].tolist()))


def kernel():
    """About NOMINAL_MS of work; returns a checksum so that none is skipped."""
    total = 0.0
    for _ in range(3):
        total += float(np.tanh(_X @ _W)[0, 0])
    for _ in range(2):
        total += float(np.einsum("lp,lp->l", _X[_ROWS, :8], _X[_COLS, :8])[0])
    z = np.zeros((2000, 8))
    np.add.at(z, _ROWS[:6000], _G[:6000])
    total += float(z[0, 0])
    for k in range(8):
        total += float(np.bincount(_SORTED_ROWS, weights=_G[:, k], minlength=2000)[0])
    for _ in range(150):
        total += float(np.maximum(_G[:64, 0], 0.0).sum())
    return total + sum((r, c) in _PAIRS for r, c in zip(range(6000), range(6000, 0, -1)))
