"""Hot integer kernels: grouped sums, union-find, canonical relabeling.

The kernels are plain numpy and operate on int64 arrays.  Callers are
responsible for overflow guards (see ``fits_int64``); exact big-integer
fallbacks live with the callers, not here.
"""

from __future__ import annotations

import numpy as np


def backend() -> str:
    return "numpy"


INT64_MAX = np.iinfo(np.int64).max


def fits_int64(max_abs_value: int, count: int = 1, margin: int = 4) -> bool:
    """True if count values bounded by max_abs_value sum safely in int64."""
    return max_abs_value * count * margin < INT64_MAX


def group_sum(keys, vals, ngroups: int):
    """Sum int64 vals grouped by int64 keys in [0, ngroups)."""
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    vals = np.ascontiguousarray(vals, dtype=np.int64)
    out = np.zeros(ngroups, dtype=np.int64)
    np.add.at(out, keys, vals)
    return out


def group_count(keys, ngroups: int):
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    return np.bincount(keys, minlength=ngroups).astype(np.int64)


def union_components(n: int, eu, ev):
    """Canonical labels (0..k-1, first-occurrence order) of the components
    of the graph on n vertices with edges (eu[i], ev[i])."""
    eu = np.ascontiguousarray(eu, dtype=np.int64)
    ev = np.ascontiguousarray(ev, dtype=np.int64)
    if eu.shape[0] == 0:
        return np.arange(n, dtype=np.int64), n
    # min-label propagation with pointer doubling; labels are non-increasing
    # and every round without change is a fixpoint, so this terminates
    parent = np.arange(n, dtype=np.int64)
    while True:
        before = parent.copy()
        m = np.minimum(parent[eu], parent[ev])
        np.minimum.at(parent, eu, m)
        np.minimum.at(parent, ev, m)
        while True:
            nxt = parent[parent]
            if np.array_equal(nxt, parent):
                break
            parent = nxt
        if np.array_equal(parent, before):
            return canonicalize(parent)


# canonicalize relabels through a first-occurrence table when the labels are
# nonnegative and below _DENSE_RANGE_FACTOR * n + _DENSE_RANGE_SLACK: the table
# then costs at most a few times the labels, and the only sort is over the
# labels present.  Wider ranges, such as pair codes, and negative labels sort.
_DENSE_RANGE_FACTOR = 4
_DENSE_RANGE_SLACK = 64


def canonicalize(labels):
    """Relabel to 0..k-1 in order of first occurrence. Returns (labels, k)."""
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    n = len(labels)
    size = int(labels.max()) + 1 if n else 0
    if n and labels.min() >= 0 and size <= _DENSE_RANGE_FACTOR * n + _DENSE_RANGE_SLACK:
        first = np.full(size, n, dtype=np.int64)
        np.minimum.at(first, labels, np.arange(n, dtype=np.int64))
        present = np.flatnonzero(first < n)
        # first occurrences are distinct, so ranking them needs no stable sort
        table = np.empty(size, dtype=np.int64)
        table[present[np.argsort(first[present])]] = np.arange(len(present), dtype=np.int64)
        return table[labels], len(present)
    uniq, first, inv = np.unique(labels, return_index=True, return_inverse=True)
    order = np.argsort(np.argsort(first, kind="stable"), kind="stable")
    out = order[inv].astype(np.int64)
    return out, len(uniq)


def pair_canon(a, b):
    """Canonical labels of the pair partition (a[i], b[i]).

    This is the common refinement (join) of two labelings.
    """
    a = np.ascontiguousarray(a, dtype=np.int64)
    b = np.ascontiguousarray(b, dtype=np.int64)
    mb = int(b.max()) + 1 if b.size else 1
    if not fits_int64(int(a.max() if a.size else 0) + 1, mb):
        raise OverflowError("pair encoding exceeds int64")
    return canonicalize(a * mb + b)
