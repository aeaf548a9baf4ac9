import itertools
import json
import random
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finmarkov import _kernels as kern
from finmarkov import checks as C
from finmarkov import dilation as D
from finmarkov import finprob
from finmarkov import rep as R
from finmarkov.finprob import (
    FinSpace,
    Partition,
    _first_occurrence,
    _products_equal,
    commuting_square_check,
)


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
PAPER = D.ChainSpec.coin(F(1, 2), F(1, 4))


def paper_rep(K=4):
    ns, cpl = D.build_first_order_dilation(PAPER)
    return R.build_fplus_rep(
        PAPER.pi, ns.space, cpl.target, R.delta_second_coordinate(ns.space), K
    )


def splus_rep(K=4):
    ns, _ = D.build_first_order_dilation(PAPER)
    return R.build_splus_rep(PAPER.pi, ns.space, K)


def random_noise(rng, n):
    nums = [rng.randint(1, 4) for _ in range(n)]
    den = sum(nums)
    return FinSpace(tuple(F(k, den) for k in nums))


def weight_preserving_perm(rng, space):
    """A random permutation of the atoms of space within equal weights."""
    groups = {}
    for c, w in enumerate(space.weights):
        groups.setdefault(w, []).append(c)
    perm = np.arange(space.n)
    for members in groups.values():
        shuffled = members[:]
        rng.shuffle(shuffled)
        perm[members] = shuffled
    return perm


def random_delta(rng, noise):
    """A random state-preserving noise pairing: for each first coordinate,
    a measure-preserving self-map of the second (a permutation of equal-mass
    atoms), so the pushforward condition holds by construction."""
    return np.stack([weight_preserving_perm(rng, noise) for _ in range(noise.n)]).astype(np.int64)


# -- point maps and relations --------------------------------------------------


def test_splus_slot_deletion():
    rep = splus_rep()
    g = rep.gspace
    ids = np.arange(g.level_size(1), dtype=np.int64)
    # beta_0 dual at level 0: (a, c0) -> (a,)
    assert np.array_equal(rep.eta(0, 0), ids // g.nc)


def test_splus_relations_include_equal_indices():
    rep = splus_rep()
    K = rep.gspace.K
    for k in range(4):
        for l in range(k, 5):
            for m in range(K - 1):
                ok, _ = rep.relation_check(k, l, m)
                assert ok, (k, l, m)


def test_fplus_relations_strict_pairs():
    rep = paper_rep()
    K = rep.gspace.K
    for k in range(4):
        for l in range(k + 1, 5):
            for m in range(K - 1):
                ok, _ = rep.relation_check(k, l, m)
                assert ok, (k, l, m)


def test_fplus_lacks_equal_index_relation():
    # with a noise pairing that is not associative-compatible, the S+ only
    # relation alpha_k alpha_k = alpha_{k+1} alpha_k genuinely fails
    noise = FinSpace.uniform(3)
    delta = np.array([[(x + 2 * y) % 3 for y in range(3)] for x in range(3)])
    base = FinSpace.uniform(2)
    c_map = np.array([[0, 1, 0], [1, 0, 1]])
    rep = R.build_fplus_rep(base, noise, c_map, delta, 4)
    assert not all(
        np.array_equal(rep.eta(1, m)[rep.eta(1, m + 1)], rep.eta(1, m)[rep.eta(2, m + 1)])
        for m in range(3)
    )
    for k in range(3):
        for l in range(k + 1, 4):
            assert rep.relation_check(k, l, 1)[0]


def test_canonical_delta_collapses_to_shifts():
    frep = paper_rep()
    srep = splus_rep()
    for n in range(1, 5):
        for m in range(4):
            assert np.array_equal(frep.eta(n, m), srep.eta(n - 1, m))
    ns, cpl = D.build_first_order_dilation(PAPER)
    frep2 = R.build_fplus_rep(
        PAPER.pi, ns.space, cpl.target, R.delta_first_coordinate(ns.space), 4
    )
    for n in range(1, 5):
        for m in range(4):
            assert np.array_equal(frep2.eta(n, m), srep.eta(n, m))


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_random_cmap_delta_relations(seed):
    rng = random.Random(seed)
    d, nnoise = rng.randint(2, 3), rng.randint(2, 4)
    base = FinSpace.uniform(d)
    noise = random_noise(rng, nnoise)
    # measure-preserving c_map: permute equal-mass columns per state
    c_map = np.array([[rng.randrange(d) for _ in range(nnoise)] for _ in range(d)])
    # force pushforward: make column c hit every state with equal count
    for c in range(nnoise):
        perm = list(range(d))
        rng.shuffle(perm)
        c_map[:, c] = perm
    delta = random_delta(rng, noise)
    rep = R.build_fplus_rep(base, noise, c_map, delta, 3)
    for k in range(3):
        for l in range(k + 1, 4):
            for m in range(2):
                assert rep.relation_check(k, l, m)[0]


def test_bad_delta_rejected():
    noise = FinSpace((F(1, 3), F(2, 3)))
    base = FinSpace.uniform(2)
    c_map = np.array([[0, 1], [1, 0]])  # valid: column permutations
    delta = np.zeros((2, 2), dtype=np.int64)  # collapses everything to atom 0
    with pytest.raises(ValueError, match="delta"):
        R.build_fplus_rep(base, noise, c_map, delta, 3)
    with pytest.raises(ValueError, match="c_map"):
        R.build_fplus_rep(base, noise, np.zeros((2, 2), np.int64), delta, 3)


def digit_eta(rep, n, m):
    """eta_n from level m+1 onto m by digit arithmetic on the atom ids."""
    nc = rep.gspace.nc
    ids = np.arange(rep.gspace.level_size(m + 1), dtype=np.int64)
    if n == 0:
        return rep.c_map[ids // nc ** (m + 1), (ids // nc**m) % nc] * nc**m + ids % nc**m
    if n <= m:
        x, y = (ids // nc ** (m - n + 1)) % nc, (ids // nc ** (m - n)) % nc
        return (ids // nc ** (m - n + 2) * nc + rep.delta[x, y]) * nc ** (m - n) + ids % nc ** (m - n)
    return ids // nc


@pytest.mark.parametrize("make", [paper_rep, splus_rep, lambda: random_delta_rep(3)], ids=["fplus", "splus", "random-delta"])
def test_eta_tables_match_digit_arithmetic(make):
    rep = make()
    for m in range(rep.gspace.K):
        for n in range(m + 3):
            assert np.array_equal(rep.eta(n, m), digit_eta(rep, n, m)), (n, m)


# -- state preservation: the constructor decides every level ---------------------


def preserves_every_level(g, c_map, delta):
    """Whether eta_n pushes the level-(m+1) state to the level-m state for
    every n <= K and m < K, walked on the raw tables by digit arithmetic
    and group sums of the level weights."""
    tables = SimpleNamespace(gspace=g, c_map=c_map, delta=delta)
    return all(
        np.array_equal(
            kern.group_sum(digit_eta(tables, n, m), g.level_weights(m + 1), g.level_size(m)),
            g.level_weights(m) * g.noise_den,
        )
        for n in range(g.K + 1)
        for m in range(g.K)
    )


@pytest.mark.parametrize("c_kind, delta_kind", [("kept", "kept"), ("kept", "random"), ("random", "kept"), ("random", "random")])
def test_state_preserved_on_every_level_iff_the_constructor_accepts(c_kind, delta_kind):
    """The product lemma for the state: every level is preserved iff c_map
    and delta push their pair states to the single states, which is what
    PointRep's constructor checks.  Kept tables permute equal-weight atoms
    column by column (c_map) or row by row (delta); random ones mostly
    break the state."""
    rng = random.Random(f"{c_kind}-{delta_kind}")
    accepted = []
    for _ in range(30):
        d, nc, K = rng.randint(2, 3), rng.randint(1, 4), rng.randint(2, 4)
        base, noise = random_noise(rng, d), random_noise(rng, nc)
        if c_kind == "kept":
            c_map = np.stack([weight_preserving_perm(rng, base) for _ in range(nc)], axis=1)
        else:
            c_map = np.array([[rng.randrange(d) for _ in range(nc)] for _ in range(d)])
        if delta_kind == "kept":
            delta = random_delta(rng, noise)
        else:
            delta = np.array([[rng.randrange(nc) for _ in range(nc)] for _ in range(nc)])
        g = R.GradedSpace(base, noise, K)
        try:
            R.PointRep(g, c_map, delta)
            accepted.append(True)
        except ValueError as e:
            assert "push the product state" in str(e)
            accepted.append(False)
        assert preserves_every_level(g, c_map, delta) == accepted[-1], (c_map, delta)
    assert all(accepted) if (c_kind, delta_kind) == ("kept", "kept") else not all(accepted)


def test_built_tables_preserve_the_state_on_every_level():
    """The paper's coin, its S+ representation and the models of random
    chains, whose c_map is the chain's coupling."""
    rng = random.Random(3)
    reps = [paper_rep(), splus_rep()]
    reps += [D.build_markov_dilation(D.random_irreducible_chain(rng, rng.randint(2, 4)), 3).rep for _ in range(20)]
    for rep in reps:
        assert preserves_every_level(rep.gspace, rep.c_map, rep.delta)


# -- fixed point algebras --------------------------------------------------------


def test_splus_fixed_points_are_coordinate_algebras():
    rep = splus_rep()
    g = rep.gspace
    level = 3
    ids = np.arange(g.level_size(level), dtype=np.int64)
    for n in range(level + 1):
        # fix(beta_n) at this level: functions of (a, c_0..c_{n-1})
        labels = ids // g.nc ** (level - min(n, level))
        assert rep.fixed_point_partition(n, level) == Partition(labels), n


def test_constants_always_fixed():
    rep = paper_rep()
    p = rep.fixed_point_partition(2, 3)
    assert Partition.trivial(rep.gspace.level_size(3)).coarsens(p)


def test_fplus_fixed_points_canonical_delta():
    rep = paper_rep()
    g = rep.gspace
    ids = np.arange(g.level_size(3), dtype=np.int64)
    # alpha_1 = beta_0, so its fixed points are functions of the state alone
    assert rep.fixed_point_partition(1, 3) == Partition(ids // g.nc**3)


def test_intersected_equals_next_fixed_point():
    # the tower collapse M_n = fix(alpha_{n+1}), proved in
    # fixed_point_partition: fix(k) coarsens fix(k+1)
    rep = paper_rep()
    for level in (2, 3):
        for n in range(level):
            assert rep.intersected_fixed_points(n, level) == rep.fixed_point_partition(
                n + 1, level
            ), (n, level)


def two_class_rep(K=4):
    """nc = 4 uniform noise with delta(u, v) = 2*(u // 2) + v % 2, whose
    classes G of {delta(u, v) ~ u} are {0, 1} and {2, 3}."""
    noise = FinSpace.uniform(4)
    delta = np.array([[2 * (u // 2) + v % 2 for v in range(4)] for u in range(4)])
    c_map = np.array([[0, 1, 0, 1], [1, 0, 1, 0]])
    return R.build_fplus_rep(FinSpace.uniform(2), noise, c_map, delta, K)


def random_delta_rep(seed, K=4):
    rng = random.Random(seed)
    noise = random_noise(rng, rng.randint(2, 4))
    base = FinSpace.uniform(2)
    c_map = np.array([[0] * noise.n, [1] * noise.n])
    c_map[:, 0] = [1, 0]
    return R.build_fplus_rep(base, noise, c_map, random_delta(rng, noise), K)


def fixture_rep(name, K=4):
    spec = D.ChainSpec.from_dict(json.loads((FIXTURES / f"{name}.json").read_text()))
    return D.build_markov_dilation(spec, K).rep


def union_find_fixed_points(rep, n, level):
    """fix(n) at the level by union-find on the cached eta_n table."""
    size = rep.gspace.level_size(level)
    return Partition._from_canonical(*kern.union_components(size, rep.eta(n, level), rep.drop_last(level)))


def count_union_find(monkeypatch):
    calls = []
    orig = kern.union_components

    def counted(n, eu, ev):
        calls.append(n)
        return orig(n, eu, ev)

    monkeypatch.setattr(kern, "union_components", counted)
    return calls


CLOSED_FORM_CASES = {
    **{f"fixture-{p.stem}": (lambda name=p.stem: fixture_rep(name)) for p in sorted(FIXTURES.glob("*.json"))},
    **{f"random-delta-{seed}": (lambda seed=seed: random_delta_rep(seed)) for seed in range(4)},
    "splus": splus_rep,
    "two-classes": two_class_rep,
}


@pytest.mark.parametrize("case", sorted(CLOSED_FORM_CASES))
def test_fixed_points_closed_form_equals_union_find(case, monkeypatch):
    """On every (n, L) the fixed-point partition equals union-find on the
    eta_n table, and for 1 <= n <= L it is built with no union-find."""
    rep = CLOSED_FORM_CASES[case]()
    K = rep.gspace.K
    calls = count_union_find(monkeypatch)
    for level in range(K + 1):
        for n in range(level + 2):
            calls.clear()
            got = rep.fixed_point_partition(n, level)
            assert bool(calls) == (not 1 <= n <= level), (n, level)
            want = union_find_fixed_points(rep, n, level)
            assert np.array_equal(got.labels, want.labels), (n, level)
            assert (got.nblocks, got.n) == (want.nblocks, want.n), (n, level)
    if case == "two-classes":
        assert rep.fixed_point_partition(K, K).nblocks == 2 * rep.gspace.level_size(K - 1)


# not onto: no atom is sent to 1 or 3; its classes G are one block though
# fix(n) at level n+1 has two blocks per head
NOT_ONTO = np.array([[0, 0, 0, 0], [0, 0, 0, 2], [2, 2, 2, 2], [2, 2, 2, 2]])


@pytest.mark.parametrize("mutation", ["swap", "not-onto"])
def test_fixed_points_fall_back_to_union_find_on_a_corrupted_eta(mutation, monkeypatch):
    """The closed form reads delta, so the corruption is planted there,
    after the constructor validated it and before any table is built; the
    eta tables are then built from the corrupted delta.  Two swapped
    entries keep delta onto, so the closed form still holds and no
    union-find runs; a delta that is not onto (NOT_ONTO), where the closed
    form would be wrong, is refused."""
    rng = random.Random(14)
    K = 4
    calls = count_union_find(monkeypatch)
    closed_form_wrong = 0
    for level in range(1, K + 1):
        for n in range(1, level + 1):
            rep = two_class_rep(K)
            if mutation == "swap":
                flat = rep.delta.reshape(-1)
                i, j = rng.sample(range(len(flat)), 2)
                while flat[i] == flat[j]:
                    i, j = rng.sample(range(len(flat)), 2)
                flat[i], flat[j] = flat[j], flat[i]
                calls.clear()
                got = rep.fixed_point_partition(n, level)
                assert calls == [], (n, level)
                assert got == union_find_fixed_points(rep, n, level), (n, level)
            else:
                rep.delta[...] = NOT_ONTO
                with pytest.raises(ValueError, match="delta is not onto"):
                    rep.fixed_point_partition(n, level)
                # G(NOT_ONTO) is one block, so the closed form would have
                # one block per head
                want = union_find_fixed_points(rep, n, level)
                closed_form_wrong += want.nblocks != rep.gspace.level_size(n - 1)
    assert mutation == "swap" or closed_form_wrong


def test_fixed_points_find_the_noise_classes_once_per_delta_hat(monkeypatch):
    """G is found once per representation, from delta: every fixed-point
    partition of every level reads it.  A planted eta table changes no
    fixed-point partition, since the closed form reads no eta table."""
    calls = []
    orig = R._noise_classes
    monkeypatch.setattr(R, "_noise_classes", lambda dhat: calls.append(1) or orig(dhat))
    for rep in (two_class_rep(), fixture_rep("coin_p12_p14", 6)):
        calls.clear()
        K = rep.gspace.K
        for level in range(1, K + 1):
            for n in range(1, level + 1):
                assert rep.fixed_point_partition(n, level) == union_find_fixed_points(rep, n, level)
        assert len(calls) == 1

    want = two_class_rep(4).fixed_point_partition(2, 3)
    rep = two_class_rep(4)
    nc = rep.gspace.nc
    table = rep.eta(2, 3)
    cube = table.reshape(-1, nc, nc, nc)
    heads = np.arange(len(cube))[:, None, None, None]
    cube[:] = (heads * nc + np.arange(nc)[:, None]) * nc + np.arange(nc)  # delta_hat(u, v) = v
    uf = count_union_find(monkeypatch)
    assert rep.fixed_point_partition(2, 3) == want and uf == []
    assert union_find_fixed_points(rep, 2, 3) != want


def discrete_start_fold(rep, n, level):
    """The tower algebra as an intersection: from the discrete partition,
    one meet per fixed-point algebra k = n+1..top, each glued by union-find
    on its eta table."""
    top = min(rep.gspace.K, level)
    acc = Partition.discrete(rep.gspace.level_size(level))
    for k in range(n + 1, top + 1):
        acc = acc.meet(union_find_fixed_points(rep, k, level))
    return acc


@pytest.mark.parametrize(
    "make",
    [paper_rep, splus_rep, two_class_rep, lambda K: random_delta_rep(0, K), lambda K: random_delta_rep(5, K)],
    ids=["fplus", "splus", "two-classes", "random-delta-0", "random-delta-5"],
)
@pytest.mark.parametrize("K", [4, 5])
def test_tower_fold_matches_discrete_start_fold(make, K):
    """M_n = fix(n+1) equals the intersection of fix(n+1) … fix(top), top
    = min(K, level), on G one block (fplus, random-delta), discrete (splus)
    and two classes, and on one level past the horizon."""
    rep = make(K)
    for level in range(K + 2):
        for n in range(level + 2):
            got = rep.intersected_fixed_points(n, level)
            want = discrete_start_fold(rep, n, level)
            assert np.array_equal(got.labels, want.labels), (n, level)
            assert (got.nblocks, got.n) == (want.nblocks, want.n), (n, level)


def test_tower_inclusions():
    rep = paper_rep()
    level = 3
    for n in range(level):
        assert rep.intersected_fixed_points(n, level).coarsens(
            rep.intersected_fixed_points(n + 1, level)
        )


def test_one_atom_noise_trivial():
    base = FinSpace.uniform(2)
    noise = FinSpace.uniform(1)
    rep = R.build_fplus_rep(
        base, noise, np.array([[0], [1]]), np.array([[0]]), 3
    )
    # one-atom noise: every level is a copy of the base
    assert rep.fixed_point_partition(1, 2).nblocks == 2


def test_fixed_point_projection_is_dynamics_invariant():
    # E onto fix(alpha_n) absorbs one application of alpha_n: gluing by the
    # two-step pairs changes nothing (the orbit average stabilizes)
    rep = paper_rep()
    import finmarkov._kernels as kern

    n, level = 1, 2
    g = rep.gspace
    one = rep.fixed_point_partition(n, level)
    u1, v1 = rep.eta(n, level), rep.drop_last(level)
    u2 = rep.eta(n, level)[rep.eta(n, level + 1)]
    v2 = rep.drop_last(level)[rep.drop_last(level + 1)]
    labels, _ = kern.union_components(
        g.level_size(level), np.concatenate([u1, u2]), np.concatenate([v1, v2])
    )
    assert Partition(labels) == one


# -- intertwining -----------------------------------------------------------------


def test_intertwining_all_small_pairs():
    rep = paper_rep()
    for n in range(1, 4):
        for k in range(n):
            ok, wit = R.intertwining_check(rep, k, n)
            assert ok, (k, n, wit)


def test_intertwining_refuses_bad_indices():
    rep = paper_rep()
    with pytest.raises(ValueError):
        R.intertwining_check(rep, 2, 2)
    with pytest.raises(ValueError):
        R.intertwining_check(rep, 3, 1)


@pytest.mark.parametrize(
    "swap, witness",
    [
        (2, "projection weights differ at atom 0"),
        (10, "some source atom reaches no mass in target block 0"),
        (6, "left side is not measurable along the right at atom 3"),
    ],
)
def test_intertwining_fails_on_a_corrupted_eta(swap, witness):
    """A wrong implementation fails: swapping two entries of the cached
    eta_0 table at level 1, which the window of (0, 1) reads, fails one
    branch each, the weights, completeness and measurability.  The window
    atom 1 of level 2 is atom 3 of level 3.  No accepted (c_map, delta)
    fails the intertwining identities."""
    model = D.build_markov_dilation(PAPER, 3)
    table = model.rep.eta(0, 1)
    orig = table.copy()
    table[0], table[swap] = orig[swap], orig[0]
    try:
        assert R.intertwining_check(model.rep, 0, 1) == (False, witness)
        report = C.definetti_checks(model)
        entry = next(e for e in report.entries if e.check == "intertwining")
        assert not entry.ok and entry.witness == f"k=0, n=1: {witness}"
    finally:
        table[:] = orig


def _intertwining_reference(rep, k, n):
    """intertwining_check on all atoms of levels K-1 and K, with its
    block-crossing test, which the measurability test implies."""
    K = rep.gspace.K
    g = rep.gspace
    lo, hi = K - 1, K
    w_lo = g.level_weights(lo)
    w_hi = g.level_weights(hi)
    bn = rep.fixed_point_partition(n, lo)
    bn1 = rep.fixed_point_partition(n + 1, hi)
    ek = rep.eta(k, lo)
    beta = bn.labels[ek]
    first_b = _first_occurrence(bn1.labels, bn1.nblocks)
    if not np.array_equal(beta, beta[first_b][bn1.labels]):
        y = int(np.argmax(beta != beta[first_b][bn1.labels]))
        return False, f"left side is not measurable along the right at atom {y}"
    beta_of_block = beta[first_b]
    w_bn = kern.group_sum(bn.labels, w_lo, bn.nblocks)
    w_bn1 = kern.group_sum(bn1.labels, w_hi, bn1.nblocks)
    xb, n_xb = kern.pair_canon(ek, bn1.labels)
    j = kern.group_sum(xb, w_hi, n_xb)
    first_t = _first_occurrence(xb, n_xb)
    x_of_t = ek[first_t]
    b_of_t = bn1.labels[first_t]
    blk_sizes = kern.group_count(bn.labels, bn.nblocks)
    seen = kern.group_count(b_of_t, bn1.nblocks)
    if not np.array_equal(seen, blk_sizes[beta_of_block]):
        b = int(np.argmax(seen != blk_sizes[beta_of_block]))
        return False, f"some source atom reaches no mass in target block {b}"
    if not np.array_equal(bn.labels[x_of_t], beta_of_block[b_of_t]):
        t = int(np.argmax(bn.labels[x_of_t] != beta_of_block[b_of_t]))
        return False, f"mass crosses fixed-point blocks at atom {int(first_t[t])}"
    idx = _products_equal(j, w_bn[bn.labels[x_of_t]], w_lo[x_of_t], w_bn1[b_of_t])
    if idx is not None:
        return False, f"projection weights differ at atom {int(first_t[idx])}"
    return True, None


def corrupt_intertwining_tables(rep, rng, k, n, kind):
    """Swap two entries of eta_k from level n+1 onto n (kind 0), or split
    one atom off its block (kind 1) or merge two blocks (kind 2) of fix(n)
    at level n or fix(n+1) at level n+1, in place in the caches."""
    if kind == 0:
        table = rep.eta(k, n)
        i, j = rng.sample(range(len(table)), 2)
        table[i], table[j] = table[j], table[i]
        return
    key = rng.choice([(n, n), (n + 1, n + 1)])
    part = rep.fixed_point_partition(*key)
    labels = part.labels.copy()
    if kind == 1:
        labels[rng.randrange(len(labels))] = part.nblocks
    else:
        a, b = rng.sample(range(part.nblocks), 2)
        labels[labels == b] = a
    rep._fix_cache[key] = Partition(labels)


def test_intertwining_matches_reference_on_corruptions():
    """Seeded eta swaps and fixed-point block splits and merges, planted in
    the tables the windows read: pair (0, 1) at K = 2 and pair (1, 2) at
    K = 3 are their own windows.  The check and the reference with the
    block-crossing test agree on every verdict and witness."""
    rng = random.Random(8)
    failures = 0
    for trial in range(300):
        k = trial % 2
        rep = D.build_markov_dilation(PAPER, k + 2).rep
        corrupt_intertwining_tables(rep, rng, k, k + 1, trial % 3)
        got = R.intertwining_check(rep, k, k + 1)
        assert got == _intertwining_reference(rep, k, k + 1), (trial, k)
        failures += not got[0]
    assert failures > 100


def window_keys(rep):
    return {key for key in rep._window_cache if key[0] == "intertwining"}


@given(st.integers(0, 10_000), st.integers(2, 4), st.integers(3, 6))
@settings(max_examples=20, deadline=None)
def test_intertwining_on_head_levels_matches_reference(seed, d, K):
    """Every pair is decided on the window of (0, 1) or (1, 2) and gives
    the verdict and witness of the reference on levels K-1 and K.  K is
    lowered until level K+1 holds at most 50,000 atoms."""
    spec = D.random_irreducible_chain(random.Random(seed), d, max_den=4)
    nc = D.build_first_order_dilation(spec)[0].n
    while K > 3 and d * nc ** (K + 1) > 50_000:
        K -= 1
    rep = D.build_markov_dilation(spec, K).rep
    for n in range(1, K):
        for k in range(n):
            assert R.intertwining_check(rep, k, n) == _intertwining_reference(rep, k, n), (k, n)
    assert window_keys(rep) == {("intertwining", 0), ("intertwining", 1)}


def test_intertwining_on_a_corrupted_coupling_matches_reference():
    """The equal-mass coupling swap of the dilation tests changes eta_0 on
    the head only; every pair is decided on its window.  It passes there as
    on levels K-1 and K: for k < n the identity holds for any head map,
    since Q_n and Q_{n+1} average the same noise classes and tail slots,
    which eta_k only shifts."""
    spec = D.ChainSpec.coin(F(1, 2), F(1, 4))
    _, cpl = D.build_first_order_dilation(spec)
    bad_target = cpl.target.copy()
    bad_target[0, 2], bad_target[1, 0] = bad_target[1, 0], bad_target[0, 2]
    rep = D.build_markov_dilation(spec, 5, D.CouplingMap(cpl.base, cpl.noise, bad_target)).rep
    for n in range(1, 5):
        for k in range(n):
            assert R.intertwining_check(rep, k, n) == _intertwining_reference(rep, k, n) == (True, None)
    assert window_keys(rep) == {("intertwining", 0), ("intertwining", 1)}


def slot_digits(rep, level):
    """digits[s] holds slot s of every atom of the level: the base for s = 0,
    c_s for s >= 1."""
    g = rep.gspace
    ids = np.arange(g.level_size(level), dtype=np.int64)
    return [ids // g.nc**level] + [ids // g.nc ** (level - s) % g.nc for s in range(1, level + 1)]


def from_digits(digits, nc):
    out = digits[0]
    for digit in digits[1:]:
        out = out * nc + digit
    return out


def window_atoms(rep, level, slots):
    """The window atom, the base and the noise slots `slots`, of every atom."""
    digits = slot_digits(rep, level)
    return from_digits([digits[0]] + [digits[s] for s in slots], rep.gspace.nc)


def lift_partition(rep, small, level, slots, discrete):
    """`small` on the window slots, discrete on `discrete`, one block on
    every other slot of the level."""
    digits = slot_digits(rep, level)
    labels = small.labels[window_atoms(rep, level, slots)]
    for s in discrete:
        labels = labels * rep.gspace.nc + digits[s]
    return Partition(labels)


def lift_eta(rep, table, level, in_slots, out_slots, passive):
    """A map from the level onto level-1: `table` from the window's noise
    slots `in_slots` onto `out_slots`, and passive[s] = t copying slot s to
    slot t."""
    nc = rep.gspace.nc
    digits = slot_digits(rep, level)
    small = table[window_atoms(rep, level, in_slots)]
    width = len(out_slots)
    out = [small // nc**width] + [None] * (level - 1)
    for i, s in enumerate(out_slots, 1):
        out[s] = small // nc ** (width - i) % nc
    for s, t in passive.items():
        out[t] = digits[s]
    return from_digits(out, nc)


def lift_intertwining_tables(window, full, k, n):
    """Plant in `full` the level-(K-1) and level-K tables of pair (k, n)
    that the window tables of `window` stand for."""
    K = full.gspace.K
    kw = min(k, 1)
    ek, bn, bn1 = window.eta(kw, kw + 1), window.fixed_point_partition(kw + 1, kw + 1), window.fixed_point_partition(kw + 2, kw + 2)
    lo_disc = [*range(1, k), *range(k + 1, n)]
    hi_disc = [*range(1, k), *range(k + 2, n + 1)]
    hi, lo = ((k, k + 1, n + 1), (k, n)) if kw else ((1, n + 1), (n,))
    passive = {s: s for s in range(1, k)} | {s: s - 1 for s in (*range(k + 2, n + 1), *range(n + 2, K + 1))}
    full.eta(k, K - 1)[:] = lift_eta(full, ek, K, hi, lo, passive)
    full._fix_cache[(n, K - 1)] = lift_partition(full, bn, K - 1, lo, lo_disc)
    full._fix_cache[(n + 1, K)] = lift_partition(full, bn1, K, hi, hi_disc)


def test_intertwining_on_head_levels_matches_reference_on_factored_corruptions():
    """Seeded corruptions planted in the window tables, and in the full
    tables they stand for by the product lemma: two entries of the window's
    eta_k swapped, or a block of its fix(n) or fix(n+1) split or merged.
    Every pair (k, n) at K = 5 gives the verdict and the witness of the
    reference on levels K-1 and K.  Uncorrupted, the lifted tables are the
    model's own."""
    rng = random.Random(14)
    K = 5
    pairs = [(k, n) for n in range(1, K) for k in range(n)]
    built = D.build_markov_dilation(PAPER, K).rep
    for k, n in pairs:
        full = D.build_markov_dilation(PAPER, K).rep
        want = (full.eta(k, K - 1).copy(), full.fixed_point_partition(n, K - 1), full.fixed_point_partition(n + 1, K))
        lift_intertwining_tables(built, full, k, n)
        assert np.array_equal(full.eta(k, K - 1), want[0]), (k, n)
        assert (full.fixed_point_partition(n, K - 1), full.fixed_point_partition(n + 1, K)) == want[1:], (k, n)
    failures = set()
    for trial in range(150):
        k, n = rng.choice(pairs)
        kw = min(k, 1)
        rep = D.build_markov_dilation(PAPER, K).rep
        corrupt_intertwining_tables(rep, rng, kw, kw + 1, trial % 3)
        full = D.build_markov_dilation(PAPER, K).rep
        lift_intertwining_tables(rep, full, k, n)
        got = R.intertwining_check(rep, k, n)
        assert got == _intertwining_reference(full, k, n), (trial, k, n)
        if not got[0]:
            failures.add(got[1].split(" at ")[0].split(" in ")[0])
    assert len(failures) == 3, failures


def test_single_entry_delta_corruption_rejected():
    # a single-entry change breaks the measure pushforward and is refused
    # with a concrete witness at construction time
    ns, cpl = D.build_first_order_dilation(PAPER)
    noise = ns.space
    delta = R.delta_second_coordinate(noise).copy()
    delta[0, 0] = (delta[0, 0] + 2) % noise.n  # atoms 0 and 2 have unequal mass
    with pytest.raises(ValueError, match="delta"):
        R.build_fplus_rep(PAPER.pi, noise, cpl.target, delta, 4)


def test_equal_mass_delta_swap_is_another_valid_model():
    # swapping two equal-mass outputs yields a different but legitimate
    # representation of the same chain: relations and observables agree
    ns, cpl = D.build_first_order_dilation(PAPER)
    noise = ns.space
    delta = R.delta_second_coordinate(noise).copy()
    delta[0, 0], delta[0, 1] = delta[0, 1], delta[0, 0]
    rep = R.build_fplus_rep(PAPER.pi, noise, cpl.target, delta, 4)
    assert all(
        rep.relation_check(k, l, m)[0]
        for k in range(3)
        for l in range(k + 1, 4)
        for m in range(2)
    )
    assert all(R.intertwining_check(rep, k, n)[0] for n in range(1, 4) for k in range(n))


def test_shared_decisions_refuse_a_horizon_deciding_nothing():
    # at horizon 1 no level carries a relation and no pair k < n < K exists
    rep = paper_rep(1)
    with pytest.raises(ValueError, match="horizon >= 2"):
        R.monoid_relations_check(rep, 1)
    with pytest.raises(ValueError, match="horizon >= 2"):
        R.intertwining_identities_check(rep)
    assert R.monoid_relations_check(paper_rep(2), 2) == (True, None)
    assert R.intertwining_identities_check(paper_rep(2)) == (True, None)


# -- windows against the atom-level references ---------------------------------------


def relations_reference(rep, K):
    """monoid_relations_check deciding every instance on its own levels."""
    for k in range(K):
        for l in range(k + 1, K + 1):
            for m in range(K - 1):
                good, atom = rep.relation_check(k, l, m)
                if not good:
                    return False, f"alpha_{k} alpha_{l} != alpha_{l+1} alpha_{k} at level-{m+2} atom {atom}"
    return True, None


def maximality_reference(view):
    """Localization on levels K-1 and K and maximality on level K, the range
    of iota_0 read off the view's path table, as entries (check, ok,
    witness)."""
    rep, K = view.rep, view.K
    level = K - 1
    x0 = view.x_table(0, level)
    drop = rep.drop_last(level)
    wit = None
    for n in range(1, K):
        en = rep.eta(n, level)
        if not np.array_equal(x0[en], x0[drop]):
            wit = f"alpha_{n} moves iota_0 at atom {int(np.argmax(x0[en] != x0[drop]))} of level {level + 1}"
            break
    range_part = view.interval_partition(0, 0)
    m0 = rep.intersected_fixed_points(0, K)
    max_wit = None
    if range_part != m0:
        rel = "strictly coarser than" if range_part.coarsens(m0) else "different from"
        max_wit = f"iota_0 range has {range_part.nblocks} blocks, M_0 has {m0.nblocks} ({rel} M_0)"
    return [("localization", wit is None, wit), ("maximality", max_wit is None, max_wit)]


def window_case(kind, seed, K):
    """A fresh representation: a random chain's model, random explicit
    (c_map, delta) tables, S+, or a model whose delta entries are shuffled
    or whose c_map is redrawn after the constructor validated it (delta
    stays onto)."""
    if kind == "splus":
        return splus_rep(K)
    if kind == "tables":
        return random_delta_rep(seed, K)
    rng = random.Random(seed)
    spec = D.random_irreducible_chain(rng, rng.choice([2, 3]), max_den=4)
    rep = D.build_markov_dilation(spec, K).rep
    if kind == "delta":
        flat = rep.delta.reshape(-1)
        flat[:] = rng.sample(flat.tolist(), len(flat))
    elif kind == "c_map":
        rep.c_map[...] = np.array([[rng.randrange(spec.d) for _ in range(rep.gspace.nc)] for _ in range(spec.d)])
    return rep


@given(st.sampled_from(["chain", "tables", "splus", "delta", "c_map"]), st.integers(0, 10_000), st.integers(3, 6), st.data())
@settings(max_examples=40, deadline=None)
def test_windows_match_the_atom_level_references(kind, seed, K, data):
    """Every identity decided on its window gives the verdict and witness
    of its atom-level reference on the full levels: the monoid relations,
    every intertwining pair, the tower, and localization and maximality on
    the model's view and on a lumped view.  K is lowered until level K
    holds at most 20,000 atoms."""
    while K > 3 and window_case(kind, seed, 2).gspace.level_size(K) > 20_000:
        K -= 1
    rep, ref = window_case(kind, seed, K), window_case(kind, seed, K)
    assert R.monoid_relations_check(rep, K) == relations_reference(ref, K)
    for n in range(1, K):
        for k in range(n):
            assert R.intertwining_check(rep, k, n) == _intertwining_reference(ref, k, n), (k, n)
    assert tower_or_refusal(expanded_tower_check, rep) == tower_or_refusal(reference_triangular_tower_check, ref)
    d = rep.gspace.d
    f = data.draw(st.lists(st.integers(0, d - 1), min_size=d, max_size=d))
    for make in (lambda r: C.ProcessView(r, r.gspace.base, np.arange(d), K), lambda r: C.ProcessView(r, r.gspace.base, np.arange(d), K).lump(f)):
        got = [(e.check, e.ok, e.witness) for e in C.maximal_ps_check(make(rep)).entries[1:]]
        assert got == maximality_reference(make(ref))


RELATION_WINDOWS = [(0, 1, 0), (0, 1, 1), (1, 2, 0), (1, 2, 1), (1, 2, 2), (2, 3, 0)]


def relation_window(k, l, m):
    """The smallest instance with the slot pattern of relation (k, l) on
    level m+2: eta_k merges (a, c_1) for k = 0 and (c_k, c_{k+1})
    otherwise, eta_{l+1} merges (c_{l+1}, c_{l+2}) while l <= m, and a
    generator beyond its level drops the last slot."""
    k1 = min(k, 1)
    if l <= m:
        return k1, k1 + 1, k1 + 1
    if k <= m:
        return k1, k1 + 1, k1
    return (1, 2, 0) if k == m + 1 else (2, 3, 0)


@pytest.mark.parametrize("K", range(2, 8))
def test_relation_windows_fail_in_the_order_of_their_first_instances(K, monkeypatch):
    """relation_check made to fail at every instance of one window's class,
    or of two windows' classes, with an atom that names the instance: the
    window loop names the instance and atom that the loop over every (k, l,
    m) names."""
    orig = R.PointRep.relation_check
    failing = set()

    def patched(self, k, l, m):
        if relation_window(k, l, m) in failing:
            return False, 100 * k + 10 * l + m
        return orig(self, k, l, m)

    monkeypatch.setattr(R.PointRep, "relation_check", patched)
    ref = paper_rep(K)
    cases = [{w} for w in RELATION_WINDOWS] + [set(pair) for pair in itertools.combinations(RELATION_WINDOWS, 2)]
    for case in cases:
        failing.clear()
        failing.update(case)
        want = relations_reference(ref, K)
        assert R.monoid_relations_check(paper_rep(K), K) == want, case
        assert want[0] == (not any(k < K and m < K - 1 for k, _, m in case)), case


@pytest.mark.parametrize("K", range(2, 7))
@pytest.mark.parametrize("failing", [{0}, {1}, {0, 1}])
@pytest.mark.parametrize("in_block", [False, True])
def test_intertwining_windows_fail_in_the_order_of_their_first_pairs(K, failing, in_block, monkeypatch):
    """_intertwining_failure made to fail on the window of (0, 1), of (1,
    2) or of both: the two-pair loop names the pair and witness that
    intertwining_check on every pair, in the order n, then k, names."""
    orig = R._intertwining_failure

    def patched(rep, k, n):
        return ("patched failure at", 1, in_block) if k in failing else orig(rep, k, n)

    monkeypatch.setattr(R, "_intertwining_failure", patched)

    def all_pairs(rep):
        for n in range(1, K):
            for k in range(n):
                good, w = R.intertwining_check(rep, k, n)
                if not good:
                    return False, f"k={k}, n={n}: {w}"
        return True, None

    want = all_pairs(paper_rep(K))
    assert R.intertwining_identities_check(paper_rep(K)) == want
    assert want[0] == (failing == {1} and K == 2)


TWO_CYCLE = D.ChainSpec.from_dict({"d": 2, "T": [[0, 1], [1, 0]]})


def test_window_loops_do_work_bounded_by_their_windows(monkeypatch):
    """The 2-cycle holds 2 atoms at every level, so the budget never bounds
    its depth.  At K = 300 the relations make at most 6 window lookups
    (there are 13,499,850 instances), intertwining at most 2
    intertwining_check calls (44,850 pairs), and the tower returns one
    verdict per intersection, K - 2, from two windows, and reads the head
    lemma's premise on level 0 for its 4,455,100 cells."""
    K = 300
    rep = D.build_markov_dilation(TWO_CYCLE, K).rep
    lookups, checked = [], []
    orig_window, orig_check = R._window, R.intertwining_check
    monkeypatch.setattr(R, "_window", lambda rep, key, decide: lookups.append(key) or orig_window(rep, key, decide))
    monkeypatch.setattr(R, "intertwining_check", lambda rep, k, n: checked.append((k, n)) or orig_check(rep, k, n))
    assert R.monoid_relations_check(rep, K) == (True, None)
    assert len(lookups) <= 6
    assert R.intertwining_identities_check(rep) == (True, None)
    assert checked == [(0, 1), (1, 2)]
    report = R.triangular_tower_check(rep)
    assert sorted(report) == list(range(K - 2)) and all(report.values()) and R.tower_head_lemma(rep)
    assert len(rep._window_cache) == 10


# -- triangular tower ---------------------------------------------------------------


def test_tower_paper_chain():
    rep = paper_rep(5)
    assert R.tower_head_lemma(rep)
    assert all(R.triangular_tower_check(rep).values())


def test_tower_degenerate_cells_commute():
    rep = paper_rep()
    level = 3
    w = rep.gspace.level_weights(level)
    m1 = rep.intersected_fixed_points(1, level)
    sq = commuting_square_check(w, m1, m1, m1)
    assert sq.is_commuting_square and sq.all_agree


@given(st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_tower_random_chains(seed):
    rng = random.Random(seed)
    spec = D.random_irreducible_chain(rng, rng.choice([2, 3]))
    model = D.build_markov_dilation(spec, 4)
    assert R.tower_head_lemma(model.rep) and all(R.triangular_tower_check(model.rep).values())


def expanded_tower_check(rep):
    """The tower as cmd_verify reports it, (cells, intersections): each cell
    (m, n, k) on level L = K-1 with the verdict of the head lemma's premise,
    and triangular_tower_check's intersections, for a comparison with the
    reference."""
    level, lemma = rep.gspace.K - 1, R.tower_head_lemma(rep)
    cells = {
        (m, n, k): lemma
        for m in range(level + 1)
        for n in range(m + 1, level + 1)
        for k in range(1, level - n + 1)
    }
    return cells, R.triangular_tower_check(rep)


def reference_triangular_tower_check(rep):
    """The tower check with no reduction: every cell on all atoms of level
    K-1, where the four commuting-square conditions of each cell must
    agree.  Returns (cells, intersections)."""
    level = rep.gspace.K - 1
    wnum = rep.gspace.level_weights(level)
    cells = {}
    intersections = {}
    towers = {t: rep.intersected_fixed_points(t, level) for t in range(level + 1)}
    shifted = {}

    def alpha_shift(t, k):
        if (t, k) not in shifted:
            low = rep.intersected_fixed_points(t, level - k)
            shifted[(t, k)] = rep.shifted_partition(low, k, level)
        return shifted[(t, k)]

    for m in range(level + 1):
        for n in range(m + 1, level + 1):
            for k in range(1, level + 1):
                if n + k > level:
                    continue
                report = commuting_square_check(wnum, alpha_shift(m, k), towers[m + k], alpha_shift(n, k))
                assert report.all_agree, (m, n, k)
                cells[(m, n, k)] = report.is_commuting_square

    for n in range(level - 1):
        lhs = towers[n + 1].meet(alpha_shift(n + 1, 1))
        intersections[n] = lhs == alpha_shift(n, 1)
    return cells, intersections


def record_cell_sizes(monkeypatch):
    """Record the points each program call of commuting_square_check
    reads."""
    sizes = []
    orig = finprob.commuting_square_check

    def recorded(wnum, p0, p1, p2):
        sizes.append(p1.n)
        return orig(wnum, p0, p1, p2)

    monkeypatch.setattr(finprob, "commuting_square_check", recorded)
    return sizes


@pytest.mark.parametrize("fixture", sorted(p.stem for p in FIXTURES.glob("*.json")))
def test_level_weights_are_head_weights_times_the_tail(fixture):
    """The premise the tower's head reduction reads: the level-L weights
    summed over the tail slots c_{h+1} … c_L are the level-h weights times
    noise_den^(L-h), for every head length h <= L."""
    spec = D.ChainSpec.from_dict(json.loads((FIXTURES / f"{fixture}.json").read_text()))
    g = D.build_markov_dilation(spec, 6).gspace
    L = 6
    for h in range(L + 1):
        tails = g.level_weights(L).reshape(g.d * g.nc**h, -1).sum(1)
        assert np.array_equal(tails, g.level_weights(h) * g.noise_den ** (L - h)), h


@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 4), st.integers(0, 6), st.data())
@settings(max_examples=30, deadline=None)
def test_level_weights_built_from_the_level_below_are_the_outer_products(seed, d, nc, K, data):
    """Each level's weights, built from the cached level below it, are the
    from-scratch outer product of the base weights with K copies of the
    noise weights, whatever order the levels are read in."""
    rng = random.Random(seed)

    def space(n):
        nums = [rng.randint(1, 5) for _ in range(n)]
        return FinSpace(tuple(F(x, sum(nums)) for x in nums))

    g = R.GradedSpace(space(d), space(nc), K)
    for m in data.draw(st.permutations(range(K + 1))):
        want = g.base_num.astype(np.int64)
        for _ in range(m):
            want = np.multiply.outer(want, g.noise_num).reshape(-1)
        got = g.level_weights(m)
        assert got.dtype == np.int64 and np.array_equal(got, want), m


def assert_tower_matches_reference_by_the_lemma(rep):
    """The tower report equals the atom-level reference, and every cell of
    the built model is decided by the head lemma: none reaches
    commuting_square_check."""
    with pytest.MonkeyPatch.context() as mp:
        sizes = record_cell_sizes(mp)
        report = expanded_tower_check(rep)
    assert report == reference_triangular_tower_check(rep)
    assert sizes == []


@given(st.integers(0, 10_000), st.integers(2, 3), st.integers(3, 6))
@settings(max_examples=15, deadline=None)
def test_tower_matches_atom_level_reference(seed, d, K):
    spec = D.random_irreducible_chain(random.Random(seed), d, max_den=4)
    assert_tower_matches_reference_by_the_lemma(D.build_markov_dilation(spec, K).rep)


@pytest.mark.parametrize("fixture", sorted(p.stem for p in FIXTURES.glob("*.json")))
def test_tower_matches_atom_level_reference_on_fixtures(fixture):
    spec = D.ChainSpec.from_dict(json.loads((FIXTURES / f"{fixture}.json").read_text()))
    assert_tower_matches_reference_by_the_lemma(D.build_markov_dilation(spec, 6).rep)


def tower_or_refusal(check, rep):
    try:
        return check(rep)
    except ValueError as exc:
        return str(exc)


def corrupted_generator_rep(spec, K, table, i, j):
    """The model's rep with entries i and j of its c_map or delta swapped
    after the constructor validated it and before any eta table is built,
    so that every eta table, at every level, is built from the corrupted
    table."""
    rep = D.build_markov_dilation(spec, K).rep
    flat = getattr(rep, table).reshape(-1)
    flat[i], flat[j] = flat[j], flat[i]
    return rep


@given(st.integers(0, 10_000), st.integers(2, 3), st.integers(4, 5), st.sampled_from(["c_map", "delta"]), st.data())
@settings(max_examples=25, deadline=None)
def test_tower_matches_atom_level_reference_on_corrupted_eta(seed, d, K, table, data):
    """The corruption is planted in c_map or delta, which every eta table
    the windows and the reference read is built from."""
    spec = D.random_irreducible_chain(random.Random(seed), d, max_den=4)
    size = getattr(D.build_markov_dilation(spec, K).rep, table).size
    i, j = data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1))
    got = tower_or_refusal(expanded_tower_check, corrupted_generator_rep(spec, K, table, i, j))
    want = tower_or_refusal(reference_triangular_tower_check, corrupted_generator_rep(spec, K, table, i, j))
    assert got == want


def test_tower_matches_atom_level_reference_on_seeded_eta_swaps(monkeypatch):
    """Forty seeded swaps of two entries of eta_0 from level 2 onto level
    1.  At K = 3 the tower reads level 2, where the intersection n = 0 is
    its own window: its verdict equals the atom-level reference's, and
    some fail.  The head lemma's premise reads no eta_0 table, so the cells
    pass, and none reaches commuting_square_check."""
    rng = random.Random(0)
    sizes = record_cell_sizes(monkeypatch)
    failures = 0
    for trial in range(40):
        spec = D.random_irreducible_chain(rng, rng.choice([2, 3]), max_den=4)
        reps = [D.build_markov_dilation(spec, 3).rep for _ in range(2)]
        size = reps[0].gspace.level_size(2)
        i, j = rng.randrange(size), rng.randrange(size)
        for rep in reps:
            table = rep.eta(0, 1)
            table[i], table[j] = table[j], table[i]
        cells, intersections = expanded_tower_check(reps[0])
        want = tower_or_refusal(reference_triangular_tower_check, reps[1])
        assert isinstance(want, str) or intersections == want[1], trial
        assert all(cells.values())
        failures += not intersections[0]
    assert failures and sizes == []


def weight_sensitive_triple():
    """Level 3 of the paper rep, atoms (a, c0, c1, c2) with noise weights
    (1/4, 1/4, 1/2), as a head: q0 trivial, q1 = {S, not S}, where S holds
    c1 < 2 where c2 = 2 and c1 = 2 elsewhere, and q2 = {c2 = 2, c2 < 2}.  S
    has half the mass on either side of c2 but a third of the atoms on one
    and two thirds on the other."""
    rep = paper_rep(4)
    ids3 = np.arange(rep.gspace.level_size(3))
    c1, c2 = ids3 // 3 % 3, ids3 % 3
    s = np.where(c2 == 2, c1 < 2, c1 == 2)
    return rep.gspace.level_weights(3), Partition.trivial(54), Partition(s), Partition(c2 == 2)


def test_tower_cell_verdict_reads_the_block_weights():
    """This head triple commutes on the atoms: q1 and q2 are independent
    under the state.  Under the atom counts of the blocks they are not, so
    the same triple under uniform weights does not commute."""
    w, q0, q1, q2 = weight_sensitive_triple()
    report = commuting_square_check(w, q0, q1, q2)
    assert report.is_commuting_square and report.all_agree
    counts = commuting_square_check(np.ones_like(w), q0, q1, q2)
    assert not counts.is_commuting_square and counts.all_agree


@pytest.mark.parametrize("K", [4, 5, 6])
def test_tower_matches_atom_level_reference_on_splus(K, monkeypatch):
    """The S+ tower has 4, 10 and 20 cells at K = 4, 5 and 6.  Its M_t reads
    one slot more than the F+ tower's, a slot that is discrete in all three
    algebras of a cell; every cell is decided by the head lemma, with no
    call of commuting_square_check, and equals the reference."""
    rep = splus_rep(K)
    sizes = record_cell_sizes(monkeypatch)
    report = expanded_tower_check(rep)
    assert sizes == [] and len(report[0]) == {4: 4, 5: 10, 6: 20}[K]
    assert report == reference_triangular_tower_check(rep)


def scrambled_rep(K):
    """The paper rep with its cached fixed-point partitions replaced by
    random coarsenings of the atom index mod 6, which are not nested."""
    rep = paper_rep(K)
    rng = random.Random(K)
    for level in range(K + 1):
        ids = np.arange(rep.gspace.level_size(level))
        for k in range(level + 2):
            groups = np.array([rng.randrange(3) for _ in range(6)])
            rep._fix_cache[(k, level)] = Partition(groups[ids % 6])
    return rep


@pytest.mark.parametrize("K", [4, 5, 6])
def test_tower_falls_back_to_atoms_where_containment_fails(K):
    """The scrambled fixed-point partitions read the atom index mod 6 and
    are not nested.  Taken as a cell triple, they are not (q0, q1, q0) with
    q0 ⊂ q1, and commuting_square_check refuses them on the atoms."""
    rep = scrambled_rep(K)
    level = K - 1
    w = rep.gspace.level_weights(level)
    q0, q1, q2 = (rep._fix_cache[(t, level)] for t in (1, 2, 3))
    with pytest.raises(ValueError, match="p0 coarser than p1"):
        commuting_square_check(w, q0, q1, q2)


IDS = np.arange(54)
HEAD1, C2, C3 = IDS // 9, IDS // 3 % 3, IDS % 3  # HEAD1 = a * 3 + c1, 6 points
B, R1 = (HEAD1 % 3 == 2).astype(np.int64), (HEAD1 // 3 == 1).astype(np.int64)  # c1 = 2; a = 1
# a head (a, c1, c2, c3) of level 3: base weights (1/3, 2/3), noise weights (1/4, 1/4, 1/2)
HEAD_WEIGHTS = R.GradedSpace(
    FinSpace.from_rationals(["1/3", "2/3"]), FinSpace.from_rationals(["1/4", "1/4", "1/2"]), 3
).level_weights(3)


def head_triple_verdict(q0, q1, q2, wnum=HEAD_WEIGHTS):
    """commuting_square_check's report on the head triple's 54 atoms."""
    return commuting_square_check(wnum, Partition(q0), Partition(q1), Partition(q2))


def test_tower_planted_cell_is_decided_on_the_atoms():
    """q1 = {S, not S} with S = {(a, c1) = (0, 2), (1, 0)} and q2 = {c1 =
    2} × c2 are independent under the state (S holds a third of the mass on
    either side of c1 = 2), but not under the head's point counts.  q2 is
    not the trivial q0, so the head lemma does not cover the triple: on the
    54 atoms only the weights make it commute."""
    s = np.isin(HEAD1, [2, 3]).astype(np.int64)
    report = head_triple_verdict(np.zeros(54), s, B * 3 + C2)
    assert report.is_commuting_square and report.all_agree
    counts = head_triple_verdict(np.zeros(54), s, B * 3 + C2, np.ones(54, dtype=np.int64))
    assert not counts.is_commuting_square and counts.all_agree


def test_tower_refuses_a_non_nested_cell_whose_head_triple_is_q0_q1_q0():
    """q0 = q2 = {a = 1} but q1 trivial: q0 is not coarser than q1, so the
    head lemma does not apply, and the atom-level check refuses the
    triple."""
    with pytest.raises(ValueError, match="p0 coarser than p1"):
        head_triple_verdict(R1, np.zeros(54), R1)


@pytest.mark.parametrize(
    "p1, p2, commutes",
    [
        # p1 reads c3 with its own labels: the head sees a = 1 against c1 = 2
        (np.where(C3 == 1, B, R1), B * 3 + C2, False),
        # p2 swaps its head part where c3 = 1, with its own labels
        (R1, np.where(C3 == 1, R1 * 3 + C2, B * 3 + C2), False),
        # p2 is {c1 = 2} where c2 = 0, its complement where c2 = 1 and one
        # block where c2 = 2: three blocks, not 2 * 3, and each independent
        # of c1, since c2 = 0 and c2 = 1 weigh alike
        (B, np.where(C2 == 0, B, np.where(C2 == 1, 1 - B, 2)), True),
        # p2 reads a = 1 where c2 = 1 and c1 = 2 elsewhere: 2 * 3 blocks, but
        # rows of one head block differ
        (R1, np.where(C2 == 0, B, np.where(C2 == 1, 2 + R1, 4 + B)), False),
    ],
    ids=["p1-reads-the-tail", "p2-reads-beyond-n+k", "p2-not-a-product", "p2-rows-differ"],
)
def test_tower_tail_tests_send_what_does_not_factor_to_the_atoms(p1, p2, commutes):
    """Four head triples with q0 trivial that are not (q0, q1, q0), so the
    head lemma does not cover them: each is decided on the atoms, where the
    four conditions agree on the verdict."""
    report = head_triple_verdict(np.zeros(54), p1, p2)
    assert report.is_commuting_square == commutes and report.all_agree


# -- filtrations ---------------------------------------------------------------------


def test_rep_filtration_is_markov():
    rep = paper_rep(3)
    filt = R.filtration_from_rep(rep)
    assert filt.is_markov
    assert filt.report.lemma_consistent


def test_rep_filtration_shifted_variant():
    rep = paper_rep(3)
    filt = R.filtration_from_rep(rep, 2, m=1, n=1)
    assert filt.is_markov


def test_constant_family_markov_via_trivial_noise():
    base = FinSpace.uniform(2)
    noise = FinSpace.uniform(1)
    rep = R.build_fplus_rep(base, noise, np.array([[0], [1]]), np.array([[0]]), 3)
    filt = R.filtration_from_rep(rep)
    assert filt.is_markov


def test_budget_guard():
    with pytest.raises(R.AtomBudgetError):
        R.GradedSpace(FinSpace.uniform(4), FinSpace.uniform(13), 8)
    g = R.GradedSpace(FinSpace.uniform(2), FinSpace.uniform(3), 3, budget=100)
    with pytest.raises(R.AtomBudgetError):
        g.level_weights(5)


def test_budget_guard_at_the_bit_length_boundary():
    # level m holds 2^m atoms; 2^20 fits a budget of 2^20, and a level above
    # the budget's bit length (21) is refused without its size computed
    g = R.GradedSpace(FinSpace.uniform(1), FinSpace.uniform(2), 0, budget=2**20)
    g.ensure(20)
    for m in (21, 22, 10**7):
        with pytest.raises(R.AtomBudgetError, match=f"^level-{m} atom count exceeds budget 1048576$"):
            g.ensure(m)
    # one noise atom keeps every level at d atoms, however deep
    R.GradedSpace(FinSpace.uniform(2), FinSpace.uniform(1), 0, budget=2).ensure(10**7)


def test_splus_intersected_tower_levelwise():
    # for the slot-deletion maps, M_n = functions of (a, c_0..c_n) at
    # every level, computed by the partition-meet route
    rep = splus_rep()
    g = rep.gspace
    for level in (2, 3):
        ids = np.arange(g.level_size(level), dtype=np.int64)
        for n in range(level):
            keep = min(n + 1, level)
            expect = Partition(ids // g.nc ** (level - keep))
            assert rep.intersected_fixed_points(n, level) == expect, (n, level)
