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
