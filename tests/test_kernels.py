import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import finmarkov._kernels as kern


pairs = st.integers(0, 40)


@given(st.lists(st.tuples(pairs, st.integers(-1000, 1000)), min_size=1, max_size=200))
@settings(deadline=None)
def test_group_sum_matches_numpy_reference(items):
    keys = np.array([k for k, _ in items], dtype=np.int64)
    vals = np.array([v for _, v in items], dtype=np.int64)
    n = int(keys.max()) + 1
    got = kern.group_sum(keys, vals, n)
    ref = [0] * n
    for k, v in items:
        ref[k] += v
    assert got.tolist() == ref


@given(st.lists(st.tuples(pairs, pairs), max_size=200), st.integers(1, 64))
@settings(deadline=None)
def test_union_components_matches_reference(edges, extra):
    n = max([max(u, v) for u, v in edges], default=0) + extra
    eu = np.array([u for u, _ in edges], dtype=np.int64)
    ev = np.array([v for _, v in edges], dtype=np.int64)
    labels, k = kern.union_components(n, eu, ev)
    # reference: naive DFS components
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    ref = [-1] * n
    nref = 0
    for s in range(n):
        if ref[s] != -1:
            continue
        stack = [s]
        while stack:
            x = stack.pop()
            if ref[x] != -1:
                continue
            ref[x] = nref
            stack.extend(adj[x])
        nref += 1
    assert k == nref
    assert labels.tolist() == ref  # both are first-occurrence canonical


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=100))
def test_canonicalize_first_occurrence(vals):
    labels, k = kern.canonicalize(np.array(vals, dtype=np.int64))
    seen = {}
    ref = [seen.setdefault(v, len(seen)) for v in vals]
    assert labels.tolist() == ref and k == len(seen)


def unique_reference(labels):
    """The sort path: np.unique, then the first occurrences ranked."""
    uniq, first, inv = np.unique(labels, return_index=True, return_inverse=True)
    order = np.argsort(np.argsort(first, kind="stable"), kind="stable")
    return order[inv].astype(np.int64), len(uniq)


@st.composite
def labels_near_the_dense_bound(draw):
    """Labels whose maximum lies just below, at or just above the dense
    path's range bound for their length, or that hold a negative label."""
    n = draw(st.integers(1, 60))
    bound = kern._DENSE_RANGE_FACTOR * n + kern._DENSE_RANGE_SLACK
    top = draw(st.sampled_from([bound - 1, bound, bound + 1, n - 1, 3 * bound]))
    vals = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    vals[draw(st.integers(0, n - 1))] = top
    if draw(st.integers(0, 3)) == 0:  # a quarter of the inputs hold a negative label
        vals[draw(st.integers(0, n - 1))] = -draw(st.integers(1, 3 * bound))
    return np.array(vals, dtype=np.int64)


@given(labels_near_the_dense_bound())
@settings(max_examples=300, deadline=None)
def test_canonicalize_equals_the_unique_reference_on_both_sides_of_the_dense_bound(labels):
    got, k = kern.canonicalize(labels)
    want, k_want = unique_reference(labels)
    assert got.dtype == np.int64 and k == k_want
    assert np.array_equal(got, want)


def test_canonicalize_takes_the_dense_path_below_the_bound_only(monkeypatch):
    calls = []
    orig = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or orig(*a, **k))
    n = 10
    bound = kern._DENSE_RANGE_FACTOR * n + kern._DENSE_RANGE_SLACK
    for top, sorts in ((bound - 1, 0), (bound, 1)):
        labels = np.array([top] + [0] * (n - 1), dtype=np.int64)
        assert kern.canonicalize(labels)[0].tolist() == [0] + [1] * (n - 1)
        assert len(calls) == sorts
    assert kern.canonicalize(np.array([0, -1, 0]))[0].tolist() == [0, 1, 0] and len(calls) == 2


def test_canonicalize_empty():
    labels, k = kern.canonicalize(np.array([], dtype=np.int64))
    assert labels.dtype == np.int64 and labels.shape == (0,) and k == 0


@given(
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=100)
)
def test_pair_canon_is_joint_relabel(ps):
    a = np.array([x for x, _ in ps], dtype=np.int64)
    b = np.array([y for _, y in ps], dtype=np.int64)
    labels, k = kern.pair_canon(a, b)
    seen = {}
    ref = [seen.setdefault(p, len(seen)) for p in ps]
    assert labels.tolist() == ref and k == len(seen)


def test_fits_int64():
    assert kern.fits_int64(2**40, 2**10)
    assert not kern.fits_int64(2**40, 2**40)
