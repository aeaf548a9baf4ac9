import ast
import itertools
import random
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finmarkov import _kernels as kern
from finmarkov import finprob
from finmarkov import dilation as D
from finmarkov.checks import ProcessView
from finmarkov.finprob import (
    AlgebraElement,
    FinSpace,
    MarkovKernel,
    Partition,
    _first_occurrence,
    _products_equal,
    block_weight_sums,
    cexp_image_labels,
    cexp_product_equals,
    cexps_commute,
    commuting_square_check,
    cond_independence_given,
    local_filtration_markov_check,
    meet_labels,
)
from oracles import adjoint_pairing_holds, cond_exp, cond_exp_matrix, kernel_compose, markov_map_adjoint


def rand_space(rng, n):
    nums = [rng.randint(1, 6) for _ in range(n)]
    den = sum(nums)
    return FinSpace(tuple(F(k, den) for k in nums))


def rand_partition(rng, n, blocks):
    labels = [rng.randrange(blocks) for _ in range(n)]
    labels[0] = 0
    return Partition(labels)


# -- conditional expectations -----------------------------------------------


def test_cond_exp_trivial_partition_is_state():
    sp = FinSpace((F(1, 3), F(1, 6), F(1, 2)))
    f = sp.element([3, 0, 5])
    out = cond_exp(sp, Partition.trivial(3), f)
    assert set(out.values) == {f.state()}


def test_cond_exp_discrete_partition_is_identity():
    sp = FinSpace((F(1, 3), F(1, 6), F(1, 2)))
    f = sp.element([3, 0, 5])
    assert cond_exp(sp, Partition.discrete(3), f).values == f.values


def test_cond_exp_worked_example():
    # w = (1/3, 1/6, 1/2), blocks {0,1}{2}, f = (3,0,5):
    # block value (1/3*3 + 1/6*0)/(1/2) = 2
    sp = FinSpace((F(1, 3), F(1, 6), F(1, 2)))
    p = Partition.from_blocks([[0, 1], [2]], 3)
    out = cond_exp(sp, p, sp.element([3, 0, 5]))
    assert out.values == (F(2), F(2), F(5))


@given(st.integers(0, 10_000))
def test_cond_exp_axioms_random(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    sp = rand_space(rng, n)
    p = rand_partition(rng, n, rng.randint(1, n))
    f = sp.element([rng.randint(-4, 4) for _ in range(n)])
    e = cond_exp(sp, p, f)
    # idempotent, state-preserving, unital, sup-norm contractive
    assert cond_exp(sp, p, e).values == e.values
    assert e.state() == f.state()
    one = sp.element([1] * n)
    assert cond_exp(sp, p, one).values == one.values
    assert max(abs(v) for v in e.values) <= max(abs(v) for v in f.values)
    # module property over block-constant multipliers
    a = AlgebraElement(sp, tuple(F(int(p.labels[i] == 0)) for i in range(n)))
    lhs = cond_exp(sp, p, a * f * a)
    assert lhs.values == (a * e * a).values
    # positivity
    g = sp.element([abs(v) for v in f.values])
    assert all(v >= 0 for v in cond_exp(sp, p, g).values)


def _dense_product(sp, p, q):
    ep = cond_exp_matrix(sp, p)
    eq = cond_exp_matrix(sp, q)
    n = sp.n
    return tuple(
        tuple(sum(ep[i][k] * eq[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


@given(st.integers(0, 3_000))
@settings(max_examples=60, deadline=None)
def test_structural_operator_identity_matches_dense_matrices(seed):
    # the block-weight reduction used at scale must agree with literal
    # rational matrix products on desk-size spaces
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    sp = rand_space(rng, n)
    p = rand_partition(rng, n, rng.randint(1, n))
    q = rand_partition(rng, n, rng.randint(1, n))
    r = rand_partition(rng, n, rng.randint(1, n))
    wnum = sp.weight_numerators()
    structural, _ = cexp_product_equals(p, q, r, wnum)
    dense = _dense_product(sp, p, q) == cond_exp_matrix(sp, r)
    assert structural == dense


@given(st.integers(0, 3_000))
@settings(max_examples=60, deadline=None)
def test_structural_commutation_matches_dense_matrices(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    sp = rand_space(rng, n)
    p = rand_partition(rng, n, rng.randint(1, n))
    q = rand_partition(rng, n, rng.randint(1, n))
    wnum = sp.weight_numerators()
    structural, _ = cexps_commute(p, q, wnum)
    ep, eq = cond_exp_matrix(sp, p), cond_exp_matrix(sp, q)
    dense = _dense_product(sp, p, q) == _dense_product(sp, q, p)
    assert structural == dense
    # and the commuting product is the projection onto the meet
    if dense:
        m = p.meet(q)
        assert _dense_product(sp, p, q) == cond_exp_matrix(sp, m)


# -- partition lattice -------------------------------------------------------


def test_join_meet_examples():
    p = Partition.from_blocks([[0, 1], [2, 3]], 4)
    q = Partition.from_blocks([[0, 2], [1, 3]], 4)
    assert p.join(q) == Partition.discrete(4)
    assert p.meet(q) == Partition.trivial(4)
    t = Partition.trivial(4)
    assert p.join(t) == p and p.meet(t) == t
    assert p.join(p) == p and p.meet(p) == p


@given(st.integers(0, 5_000))
def test_lattice_laws(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    ps = [rand_partition(rng, n, rng.randint(1, n)) for _ in range(3)]
    a, b, c = ps
    assert a.join(b) == b.join(a)
    assert a.meet(b) == b.meet(a)
    assert a.join(b).join(c) == a.join(b.join(c))
    assert a.meet(b).meet(c) == a.meet(b.meet(c))
    assert a.join(b).coarsens(a) is False or a.join(b) == a
    assert a.meet(b).coarsens(a)
    assert a.join(b).refines(a)


# -- commuting squares -------------------------------------------------------


def test_commuting_square_degenerate():
    sp = rand_space(random.Random(0), 5)
    p = rand_partition(random.Random(1), 5, 3)
    rep = commuting_square_check(sp.weight_numerators(), p, p, p)
    assert rep.is_commuting_square and rep.all_agree


def test_commuting_square_product_space_independence():
    # two independent factors: coordinates are CS independent over scalars
    sp = FinSpace(tuple(F(a, 6) * F(b, 4) for a in (1, 2, 3) for b in (1, 3)))
    rows = Partition([0, 0, 1, 1, 2, 2])
    cols = Partition([0, 1, 0, 1, 0, 1])
    rep = commuting_square_check(sp.weight_numerators(), Partition.trivial(6), rows, cols)
    assert rep.is_commuting_square and rep.all_agree


def test_commuting_square_failure_all_four_agree():
    # non-uniform 4-atom space with two 2-block partitions that do not commute
    rng = random.Random(5)
    found = False
    for _ in range(200):
        sp = rand_space(rng, 4)
        p1 = rand_partition(rng, 4, 2)
        p2 = rand_partition(rng, 4, 2)
        if p1.nblocks != 2 or p2.nblocks != 2:
            continue
        wnum = sp.weight_numerators()
        if cexps_commute(p1, p2, wnum)[0]:
            continue
        rep = commuting_square_check(wnum, p1.meet(p2), p1, p2)
        assert not rep.is_commuting_square
        assert rep.all_agree  # all four verdicts fail together
        found = True
        break
    assert found


@given(st.integers(0, 4_000))
@settings(max_examples=80, deadline=None)
def test_four_conditions_always_agree(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    sp = rand_space(rng, n)
    p1 = rand_partition(rng, n, rng.randint(1, n))
    p2 = rand_partition(rng, n, rng.randint(1, n))
    p0 = p1.meet(p2)
    rep = commuting_square_check(sp.weight_numerators(), p0, p1, p2)
    assert rep.all_agree


def test_precondition_enforced():
    sp = rand_space(random.Random(2), 4)
    p1 = Partition.from_blocks([[0, 1], [2, 3]], 4)
    p2 = Partition.from_blocks([[0, 2], [1, 3]], 4)
    bad = Partition.discrete(4)
    with pytest.raises(ValueError):
        commuting_square_check(sp.weight_numerators(), bad, p1, p2)


def test_cond_exp_onto_meet_is_composite_when_square_commutes():
    sp = FinSpace(tuple(F(a, 6) * F(b, 4) for a in (1, 2, 3) for b in (1, 3)))
    rows = Partition([0, 0, 1, 1, 2, 2])
    cols = Partition([0, 1, 0, 1, 0, 1])
    m = rows.meet(cols)
    assert _dense_product(sp, rows, cols) == cond_exp_matrix(sp, m)


# -- conditional-expectation image ------------------------------------------


def reference_image_labels(labels_p, labels_q, wnum):
    """The per-block loop that cexp_image_labels replaced: one Python row of
    (q-block, weight) pairs per p-block, keyed by its sorted gcd-reduced
    tuple, and the block keys canonicalized."""
    pq, n_pq = kern.pair_canon(labels_p, labels_q)
    w_pq = block_weight_sums(pq, n_pq, wnum)
    first_pq = _first_occurrence(pq, n_pq)
    p_of_t = labels_p[first_pq]
    q_of_t = labels_q[first_pq]
    n_p = int(labels_p.max()) + 1

    rows = [[] for _ in range(n_p)]
    for t in range(n_pq):
        rows[int(p_of_t[t])].append((int(q_of_t[t]), int(w_pq[t])))
    keys = {}
    block_key = np.empty(n_p, dtype=np.int64)
    for b, row in enumerate(rows):
        g = 0
        for _, w in row:
            g = gcd(g, w)
        key = tuple(sorted((c, w // g) for c, w in row))
        block_key[b] = keys.setdefault(key, len(keys))
    labels, _ = kern.canonicalize(block_key[labels_p])
    return labels


@st.composite
def image_inputs(draw):
    """Canonical p and q labelings and positive int64 weights; in the scaled
    mode every p-block's weights are small multiples of one block scale, so
    proportional rows with different gcds are common."""
    n = draw(st.integers(1, 40))
    p = Partition(draw(st.lists(st.integers(0, 7), min_size=n, max_size=n)))
    q = Partition(draw(st.lists(st.integers(0, 7), min_size=n, max_size=n)))
    if draw(st.booleans()):
        scale = draw(st.lists(st.sampled_from([1, 2, 3, 6, 7, 2**31 - 1]), min_size=8, max_size=8))
        w = [draw(st.integers(1, 3)) * scale[b] for b in p.labels]
    else:
        w = draw(st.lists(st.integers(1, 2**40), min_size=n, max_size=n))
    return p, q, np.array(w, dtype=np.int64)


@given(image_inputs())
@settings(max_examples=300, deadline=None)
def test_image_labels_match_reference(inputs):
    p, q, w = inputs
    assert np.array_equal(cexp_image_labels(p, q, w), reference_image_labels(p.labels, q.labels, w))


@pytest.mark.parametrize(
    "p, q, w, image",
    [
        # rows (0,1),(1,1) and (0,1),(1,1),(2,1) share a prefix, not a length
        ([0, 0, 1, 1, 1], [0, 1, 0, 1, 2], [1, 1, 1, 1, 1], [0, 0, 1, 1, 1]),
        # (2,4) and (3,6) reduce by gcds 2 and 3 to (1,2); (2,6) to (1,3)
        ([0, 0, 1, 1, 2, 2], [0, 1, 0, 1, 0, 1], [2, 4, 3, 6, 2, 6], [0, 0, 0, 0, 1, 1]),
        # single-entry rows are identified by their q-block alone
        ([0, 1, 2, 3], [0, 0, 1, 0], [5, 7, 2, 9], [0, 0, 1, 0]),
        # rows met in different q orders are compared sorted by q-block
        ([0, 0, 1, 1], [0, 1, 1, 0], [1, 2, 2, 1], [0, 0, 0, 0]),
    ],
)
def test_image_labels_row_shapes(p, q, w, image):
    p, q, w = (np.array(x, dtype=np.int64) for x in (p, q, w))
    assert cexp_image_labels(Partition(p), Partition(q), w).tolist() == image
    assert reference_image_labels(p, q, w).tolist() == image


def test_image_labels_refuse_non_canonical_labels():
    p = Partition._from_canonical(np.array([1, 0]), 2)
    with pytest.raises(ValueError, match="not canonical"):
        cexp_image_labels(p, Partition.trivial(2), np.array([1, 1]))


@pytest.mark.parametrize("side", ["left", "right"])
def test_product_identity_refuses_non_canonical_labels(side):
    bad = Partition._from_canonical(np.array([1, 0]), 2)
    p, q = (bad, Partition.trivial(2)) if side == "left" else (Partition.trivial(2), bad)
    with pytest.raises(ValueError, match="not canonical"):
        cexp_product_equals(p, q, Partition.trivial(2), np.array([1, 1]))


def test_image_labels_match_reference_on_every_tower_cell(monkeypatch):
    """The 35 cells of the coin's tower at depth 7, each decided by
    commuting_square_check on the 1,458 atoms of level 6: every image label
    array equals the reference's, and the four conditions agree."""
    cells = 0

    def checked(p, q, wnum, pq=None):
        nonlocal cells
        cells += 1
        got = cexp_image_labels(p, q, wnum, pq)
        assert np.array_equal(got, reference_image_labels(p.labels, q.labels, wnum))
        return got

    monkeypatch.setattr(finprob, "cexp_image_labels", checked)
    rep = D.build_markov_dilation(D.ChainSpec.coin("1/2", "1/4"), 7).rep
    level = 6
    w = rep.gspace.level_weights(level)

    def alpha_shift(t, k):
        return rep.shifted_partition(rep.intersected_fixed_points(t, level - k), k, level)

    for m in range(level + 1):
        for n in range(m + 1, level + 1):
            for k in range(1, level - n + 1):
                parts = alpha_shift(m, k), rep.intersected_fixed_points(m + k, level), alpha_shift(n, k)
                report = commuting_square_check(w, *parts)
                assert report.is_commuting_square and report.all_agree, (m, n, k)
    assert cells == 35


# -- exact products -----------------------------------------------------------


def test_products_equal_sends_overflowing_products_to_big_ints():
    a = b = np.array([1, 3, 2**32], dtype=np.int64)
    c = np.array([1, 9, 0], dtype=np.int64)
    d = np.array([1, 1, 1], dtype=np.int64)
    assert (a * b)[2] == (c * d)[2]  # 2**64 wraps to 0 in int64
    assert _products_equal(a, b, c, d) == 2
    assert _products_equal(a[2:], b[2:], c[2:], d[2:]) == 0


def test_block_weight_sums_refuse_only_an_overflowing_total():
    # max * len * 4 exceeds int64 here, but the total fits: summed exactly
    w = np.array([2**61, 1, 2, 3], dtype=np.int64)
    assert not kern.fits_int64(int(w.max()), len(w))
    sums = block_weight_sums(np.array([0, 1, 0, 1]), 2, w)
    assert sums.tolist() == [2**61 + 2, 4]
    # a total beyond int64 would wrap in some block sum, so it is refused
    with pytest.raises(OverflowError, match="weight sums exceed int64"):
        block_weight_sums(np.array([0, 0, 1]), 2, np.array([2**62, 2**62, 1], dtype=np.int64))


def test_products_equal_int64_and_big_int_paths_agree(monkeypatch):
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(1, 12))
        a, b = rng.integers(-6, 7, n), rng.integers(-6, 7, n)
        c, d = (b, a) if rng.random() < 0.5 else (rng.integers(-6, 7, n), rng.integers(-6, 7, n))
        c = c.copy()
        if rng.random() < 0.5:
            c[rng.integers(n)] += 1
        want = next((i for i in range(n) if int(a[i]) * int(b[i]) != int(c[i]) * int(d[i])), None)
        assert _products_equal(a, b, c, d) == want
        with monkeypatch.context() as m:
            m.setattr(kern, "fits_int64", lambda *args, **kwargs: False)
            assert _products_equal(a, b, c, d) == want


# -- adjoints ----------------------------------------------------------------


def test_adjoint_identity_kernel():
    sp = rand_space(random.Random(3), 3)
    eye = MarkovKernel.square([[1, 0, 0], [0, 1, 0], [0, 0, 1]], sp)
    assert markov_map_adjoint(eye).rows == eye.rows


def test_adjoint_symmetric_uniform_is_transpose():
    sp = FinSpace.uniform(2)
    t = MarkovKernel.square([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]], sp)
    assert markov_map_adjoint(t).rows == t.rows


def test_adjoint_worked_example():
    pi = FinSpace((F(1, 3), F(2, 3)))
    t = MarkovKernel.square([[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]], pi)
    adj = markov_map_adjoint(t)
    assert adj.rows == t.rows  # this chain is reversible
    assert adjoint_pairing_holds(t)


@given(st.integers(0, 5_000))
@settings(max_examples=60, deadline=None)
def test_adjoint_involution_and_contravariance(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    rows = []
    for i in range(n):
        nums = [rng.randint(0, 3) for _ in range(n)]
        nums[i] += 1
        den = sum(nums)
        rows.append([F(k, den) for k in nums])
    from finmarkov.dilation import stationary_distribution

    try:
        pi = stationary_distribution(tuple(tuple(r) for r in rows))
    except ValueError:
        return
    t = MarkovKernel.square(rows, FinSpace(pi))
    s = markov_map_adjoint(t)
    assert markov_map_adjoint(s).rows == t.rows
    assert adjoint_pairing_holds(t)
    # (S T)* = T* S*
    assert (
        markov_map_adjoint(kernel_compose(s, t)).rows
        == kernel_compose(markov_map_adjoint(t), markov_map_adjoint(s)).rows
    )


# -- local filtrations -------------------------------------------------------


def test_constant_family_is_markov():
    sp = rand_space(random.Random(7), 5)
    full = Partition.discrete(5)
    rep = local_filtration_markov_check(lambda m, n: full, 3, sp.weight_numerators())
    assert rep.is_markov and rep.locally_minimal and rep.lemma_consistent


def test_iid_product_family_is_markov():
    # 2-state i.i.d. product space over three slots, canonical coordinates
    w = (F(1, 3), F(2, 3))
    atoms = [
        w[a] * w[b] * w[c] for a in range(2) for b in range(2) for c in range(2)
    ]
    sp = FinSpace(tuple(atoms))
    coords = []
    for slot in range(3):
        labels = [(i >> (2 - slot)) & 1 for i in range(8)]
        coords.append(labels)

    def family(m, n):
        lab = np.zeros(8, dtype=np.int64)
        for k in range(m, n + 1):
            lab = lab * 2 + np.array(coords[k])
        return Partition(lab)

    rep = local_filtration_markov_check(family, 2, sp.weight_numerators())
    assert rep.is_markov and rep.locally_minimal and rep.lemma_consistent


def test_isotony_violation_reported():
    sp = rand_space(random.Random(9), 4)
    disc = Partition.discrete(4)
    triv = Partition.trivial(4)

    def family(m, n):
        # [0,0] finer than [0,1]: wrong direction
        return disc if (m, n) == (0, 0) else triv

    rep = local_filtration_markov_check(family, 1, sp.weight_numerators())
    assert not rep.isotone


def all_ordered_pairs_minimal(family, horizon):
    """Reference for local minimality: join every ordered pair of intervals
    whose union is an interval, and compare with the union's algebra."""
    intervals = [(m, n) for m in range(horizon + 1) for n in range(m, horizon + 1)]
    minimal = True
    for m, n in intervals:
        for m2, n2 in intervals:
            if m2 > n + 1 or m > n2 + 1:
                continue  # union is not an interval
            if family(m, n).join(family(m2, n2)) != family(min(m, m2), max(n, n2)):
                minimal = False
    return minimal


@given(st.integers(0, 1_000))
@settings(max_examples=15, deadline=None)
def test_minimality_matches_reference_on_canonical_families(seed):
    rng = random.Random(seed)
    K = rng.randint(1, 3)
    model = D.build_markov_dilation(D.random_irreducible_chain(rng, rng.randint(2, 3)), K)
    view = ProcessView.from_model(model)

    def family(m, n):
        return view.interval_partition(m, n)

    rep = local_filtration_markov_check(family, K, model.gspace.level_weights(K))
    assert rep.locally_minimal == all_ordered_pairs_minimal(family, K)


@given(st.integers(0, 20_000))
@settings(max_examples=150, deadline=None)
def test_minimality_matches_reference_on_random_families(seed):
    # joins of random coordinate partitions, some intervals replaced by a
    # random partition: neither isotone nor minimal in general
    rng = random.Random(seed)
    n, K = rng.randint(2, 7), rng.randint(1, 3)
    coords = [rand_partition(rng, n, rng.randint(1, 3)) for _ in range(K + 1)]
    parts = {}
    for m in range(K + 1):
        for t in range(m, K + 1):
            acc = coords[m]
            for k in range(m + 1, t + 1):
                acc = acc.join(coords[k])
            parts[(m, t)] = acc if rng.random() < 0.7 else rand_partition(rng, n, rng.randint(1, n))
    wnum = rand_space(rng, n).weight_numerators()
    rep = local_filtration_markov_check(lambda m, t: parts[(m, t)], K, wnum)
    assert rep.locally_minimal == all_ordered_pairs_minimal(lambda m, t: parts[(m, t)], K)


def test_isotone_family_that_is_not_minimal():
    # A_[0,1] discrete while A_0 and A_1 are trivial: A_0 ∨ A_1 != A_[0,1]
    sp = rand_space(random.Random(3), 4)
    disc, triv = Partition.discrete(4), Partition.trivial(4)

    def family(m, n):
        return disc if (m, n) == (0, 1) else triv

    rep = local_filtration_markov_check(family, 1, sp.weight_numerators())
    assert rep.isotone
    assert rep.locally_minimal is False
    assert all_ordered_pairs_minimal(family, 1) is False


# -- canonical labels ---------------------------------------------------------


@given(st.lists(st.integers(0, 9), min_size=1, max_size=80))
def test_first_occurrence_matches_unique(vals):
    labels, k = kern.canonicalize(vals)
    assert np.array_equal(_first_occurrence(labels, k), np.unique(labels, return_index=True)[1])


@pytest.mark.parametrize(
    "labels, nblocks",
    [([1, 0], 2), ([0, 2, 1], 3), ([0, 0, 2], 3), ([0, 2, 1], 2), ([-1, 0], 1), ([0, -1], 1)],
)
def test_first_occurrence_rejects_non_canonical(labels, nblocks):
    with pytest.raises(ValueError, match="not canonical"):
        _first_occurrence(np.array(labels, dtype=np.int64), nblocks)


@st.composite
def partition_pool(draw):
    """Partitions of one atom set, built from raw labelings, by join and
    meet, and wrapped as canonical kernel output."""
    n = draw(st.integers(1, 9))
    a, b, c, d = (draw(st.lists(st.integers(-3, 5), min_size=n, max_size=n)) for _ in range(4))
    a, b, c = Partition(a), Partition(b), Partition(c)
    return [
        a, b, c, a.join(b), a.meet(c), b.join(c).meet(a),
        Partition._from_canonical(*kern.canonicalize(d)),
        Partition.trivial(n), Partition.discrete(n),
    ]


@given(partition_pool())
@settings(max_examples=150, deadline=None)
def test_coarsens_and_refines_match_block_containment(pool):
    # x coarsens y iff any two atoms in one block of y share a block of x
    for x, y in itertools.product(pool, repeat=2):
        pairs = itertools.combinations(range(x.n), 2)
        want = all(x.labels[i] == x.labels[j] for i, j in pairs if y.labels[i] == y.labels[j])
        assert x.coarsens(y) is want
        assert y.refines(x) is want


def test_only_finprob_reads_first_occurrence():
    """Every other module reads a Partition's first atoms off .first."""
    found = []
    for path in sorted(Path(finprob.__file__).parent.glob("*.py")):
        if path.name == "finprob.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else []
            if "_first_occurrence" in names or getattr(node, "attr", None) == "_first_occurrence":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


@given(st.integers(0, 5_000))
def test_join_meet_wrap_kernel_labels_canonically(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    a, b = (rand_partition(rng, n, rng.randint(1, n)) for _ in range(2))
    for got, raw in (
        (a.join(b), kern.pair_canon(a.labels, b.labels)[0]),
        (a.meet(b), meet_labels(a.labels, b.labels)[0]),
    ):
        want = Partition(raw)
        assert np.array_equal(got.labels, want.labels)
        assert got.nblocks == want.nblocks and got.n == want.n


def test_load_kernel_roundtrip():
    obj = {"T": [["1/2", "1/2"], ["1/4", "3/4"]], "psi": ["1/3", "2/3"]}
    k = MarkovKernel.square(obj["T"], FinSpace.from_rationals(obj["psi"]))
    assert k.rows[1][0] == F(1, 4)
    with pytest.raises(ValueError):
        MarkovKernel.square([["1/2", "1/2"], ["1/2", "1/2"]], FinSpace.from_rationals(["1/3", "2/3"]))


def test_load_partition_blocks():
    p = Partition.from_blocks([[0, 2], [1]], 3)
    assert p.labels.tolist() == [0, 1, 0]
    with pytest.raises(ValueError):
        Partition.from_blocks([[0], [1]], 3)
    with pytest.raises(ValueError):
        Partition.from_blocks([[0, 1], [1, 2]], 3)


def test_indicator_conditional_probability():
    sp = FinSpace((F(1, 3), F(1, 6), F(1, 2)))
    p = Partition.from_blocks([[0, 1], [2]], 3)
    e = cond_exp(sp, p, sp.element([1, 0, 0]))
    # P(atom 0 | block {0,1}) = (1/3)/(1/2) = 2/3
    assert e.values == (F(2, 3), F(2, 3), F(0))
