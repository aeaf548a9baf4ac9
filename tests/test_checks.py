import ast
import dataclasses
import itertools
import json
import random
import sys
import time
import weakref
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finmarkov import _kernels as kern
from finmarkov import checks as C
from finmarkov import dilation as D
from finmarkov import finprob
from finmarkov import rep as R
from finmarkov.finprob import Partition, local_filtration_markov_check

import oracles

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

PAPER = D.ChainSpec.coin(F(1, 2), F(1, 4))
IID = D.ChainSpec.from_rows([[F(1, 3), F(2, 3)], [F(1, 3), F(2, 3)]])


def paper_view(K=4):
    return C.ProcessView.from_model(D.build_markov_dilation(PAPER, K))


def lumped_fixture():
    obj = json.loads((FIXTURES / "lumped_3to2.json").read_text())
    return D.ChainSpec.from_dict(obj), obj["lump_map"]


# -- partial spreadability ------------------------------------------------------


def test_paper_chain_is_maximal_partially_spreadable():
    rep = C.maximal_ps_check(paper_view())
    assert rep.passed


def test_one_state_chain_trivially_maximal():
    spec = D.ChainSpec.from_rows([[F(1)]])
    view = C.ProcessView.from_model(D.build_markov_dilation(spec, 3))
    assert C.maximal_ps_check(view).passed


def test_constant_lumping_trivially_everything():
    view = paper_view().lump([0, 0])
    assert C.partial_spreadability_check(view).passed
    assert C.markov_sequence_check(view).passed
    # the hierarchy reads a model's chain; the constant process is the one-state chain's
    h = C.hierarchy_check(D.build_markov_dilation(D.ChainSpec.from_rows([[F(1)]]), 4))
    assert h.exchangeable and h.spreadable and h.stationary and h.report.passed


def test_injective_lumping_preserves_markov():
    view = paper_view()
    relabeled = view.lump([1, 0])
    assert C.markov_sequence_check(relabeled).passed
    assert C.maximal_ps_check(relabeled).passed


def test_lumped_fixture_behavior():
    # partial spreadability survives the lumping, maximality and the Markov
    # property both fail
    spec, fmap = lumped_fixture()
    view = C.ProcessView.from_model(D.build_markov_dilation(spec, 4))
    assert C.markov_sequence_check(view).passed
    lumped = view.lump(fmap)
    assert C.partial_spreadability_check(lumped).passed
    mx = C.maximal_ps_check(lumped)
    assert not mx.passed
    assert [e for e in mx.entries if e.check == "maximality"][0].ok is False
    mk = C.markov_sequence_check(lumped)
    assert not mk.entries[0].ok and mk.entries[0].witness


def test_lumped_fixture_is_first_enumerated():
    spec, fmap = oracles.find_lumped_fixture()
    expect, emap = lumped_fixture()
    assert spec.rows == expect.rows
    assert fmap == emap


def test_every_lumping_stays_partially_spreadable():
    spec, _ = lumped_fixture()
    view = C.ProcessView.from_model(D.build_markov_dilation(spec, 3))
    d = spec.d
    for fmap in np.ndindex(*([d] * d)):
        lumped = view.lump(list(fmap))
        assert C.partial_spreadability_check(lumped).passed, fmap


def test_corrupted_representation_fails_premise():
    """A wrong implementation fails: two entries of the cached eta_1 table
    swapped in place break the monoid relations, and the premise entry
    fails with a witness.  No accepted (c_map, delta) fails the relations,
    and a delta that is not state-preserving is refused when the model is
    built, so the table is edited instead of the input."""
    model = D.build_markov_dilation(PAPER, 3)
    view = C.ProcessView.from_model(model)
    table = model.rep.eta(1, 1)
    orig = table.copy()
    table[0], table[1] = orig[1], orig[0]
    try:
        rep = C.partial_spreadability_check(view)
        assert not rep.entries[0].ok
        assert rep.entries[0].witness
    finally:
        table[:] = orig


# -- Markov sequence property ----------------------------------------------------


def test_markov_sequence_paper_and_iid():
    assert C.markov_sequence_check(paper_view()).passed
    iid_view = C.ProcessView.from_model(D.build_markov_dilation(IID, 4))
    assert C.markov_sequence_check(iid_view).passed


def test_canonical_filtration_minimal():
    """The lemma markov_sequence_check rests on holds on the generic check's
    report of canonical families, and its assertion fails on the
    representation's filtration M^rho, which is Markov but not locally
    minimal."""
    spec, _ = lumped_fixture()
    lumped = C.ProcessView.from_model(D.build_markov_dilation(spec, 4)).lump([0, 1, 1])
    verdicts = []
    for view in (paper_view(), paper_view(3).lump([1, 0]), lumped):
        _, filt = reference_markov_sequence_check(view)  # asserts the lemma
        verdicts.append(filt.is_markov)
    assert verdicts == [True, True, False]  # the lemma holds on a failing filtration too
    rho = R.filtration_from_rep(paper_view().rep, 4).report
    assert rho.is_markov and not rho.locally_minimal
    with pytest.raises(AssertionError):
        assert_coordinate_family_lemma(rho, 4)


def reference_interval_partition(view, m, n):
    """The atom-level A_[m,n] at level K, chained from X_m."""
    labels, nblocks = kern.canonicalize(view.x_table(m, view.K))
    for k in range(m + 1, n + 1):
        labels, nblocks = kern.canonicalize(labels * view.base.n + view.x_table(k, view.K))
    return Partition._from_canonical(labels, nblocks)


def reference_markov_sequence_check(view):
    """Reference for markov_sequence_check: the same identities decided on
    every level-K atom instead of on the quotient by A_[0,K], the filtration
    by the generic local_filtration_markov_check, on whose report the
    coordinate-family lemma is asserted.  Returns the (check, ok, witness)
    entries and the FiltrationReport."""
    K = level = view.K
    parts = {}

    def part(m, n):
        if (m, n) not in parts:
            parts[(m, n)] = reference_interval_partition(view, m, n)
        return parts[(m, n)]

    w = view.rep.gspace.level_weights(level)
    report = C.VerificationReport()
    seq_ok, wit = True, None
    for n in range(K):
        past = part(0, n)
        now = part(n, n)
        nxt = view.x_table(n + 1, level)
        w_past = kern.group_sum(past.labels, w, past.nblocks)
        w_now = kern.group_sum(now.labels, w, now.nblocks)
        for j in range(view.base.n):
            hit = np.where(nxt == j, w, 0).astype(np.int64)
            s_past = kern.group_sum(past.labels, hit, past.nblocks)
            s_now = kern.group_sum(now.labels, hit, now.nblocks)
            lhs = s_past[past.labels].astype(object) * w_now[now.labels]
            rhs = s_now[now.labels].astype(object) * w_past[past.labels]
            neq = lhs != rhs
            if neq.any():
                seq_ok = False
                x = int(np.argmax(neq))
                wit = f"n={n}, value {j}: prediction from the past differs at atom {x}"
                break
        if not seq_ok:
            break
    report.add("markov-sequence", "", seq_ok, wit)
    filt = local_filtration_markov_check(part, K, w)
    assert_coordinate_family_lemma(filt, K)
    cells = [x for x in filt.witnesses if x.startswith("(M) ")]
    report.add("canonical-filtration-markov", "", filt.is_markov, "; ".join(cells[:2]) or None)
    report.add("markov-equivalence", "", seq_ok == filt.is_markov)
    return [(e.check, e.ok, e.witness) for e in report.entries], filt


def assert_coordinate_family_lemma(filt, K):
    """What holds by construction on a family generated by coordinates, so
    that markov_sequence_check decides only (M') at 1 <= n <= K-1: isotony,
    local minimality, (M) at n equal to (M') at n with the same witness,
    and (M') at 0 and at K."""
    assert filt.isotone and filt.locally_minimal
    assert all(filt.markov_m[n] == filt.markov_m_prime[n] for n in range(1, K))
    assert filt.markov_m_prime[0] and filt.markov_m_prime[K]
    m = [x for x in filt.witnesses if x.startswith("(M) ")]
    m_prime = [x for x in filt.witnesses if x.startswith("(M') ")]
    assert len(m) + len(m_prime) == len(filt.witnesses)
    assert [x.replace("(M') ", "(M) ", 1) for x in m_prime] == m


def two_block_lumps(d):
    return [(0,) + rest for rest in itertools.product((0, 1), repeat=d - 1) if 1 in rest]


def assert_matches_reference(view):
    expect, filt = reference_markov_sequence_check(view)
    got = [(e.check, e.ok, e.witness) for e in C.markov_sequence_check(view).entries]
    assert got == expect
    q = view.quotient
    assert local_filtration_markov_check(view.block_partition, view.K, q.weights, atoms=q.first) == filt
    for m in range(view.K + 1):
        for n in range(m, view.K + 1):
            assert view.interval_partition(m, n) == reference_interval_partition(view, m, n)
    return expect


@given(st.integers(0, 10_000), st.integers(2, 3), st.integers(2, 5))
@settings(max_examples=30, deadline=None)
def test_markov_checks_match_atom_level_reference(seed, d, K):
    spec = D.random_irreducible_chain(random.Random(seed), d, max_den=4)
    view = C.ProcessView.from_model(D.build_markov_dilation(spec, K))
    assert_matches_reference(view)
    for f in two_block_lumps(d):
        assert_matches_reference(view.lump(f))


@pytest.mark.parametrize("K, atom", [(3, 3), (4, 9), (5, 27)])
def test_lumped_witness_atoms_are_mapped_back(K, atom):
    """Under the map 0,1,1 the (M) n=2 witness of lumped_3to2 names an atom
    other than the first of the level, so it must be mapped back from the
    quotient."""
    spec, _ = lumped_fixture()
    view = C.ProcessView.from_model(D.build_markov_dilation(spec, K)).lump([0, 1, 1])
    entries = dict((check, wit) for check, _, wit in assert_matches_reference(view))
    assert f"(M) n=2: weight identity fails on the pair containing atom {atom}" in entries["canonical-filtration-markov"]


def test_markov_sequence_witness_atom_is_mapped_back():
    spec = D.ChainSpec.from_rows([[0, 0, 1], [0, F(2, 3), F(1, 3)], [F(1, 4), F(1, 2), F(1, 4)]])
    view = C.ProcessView.from_model(D.build_markov_dilation(spec, 3)).lump([0, 0, 1])
    first, *_ = assert_matches_reference(view)
    assert first == ("markov-sequence", False, "n=1, value 0: prediction from the past differs at atom 64")


@pytest.mark.parametrize("key", [(0, 2), (2, 2), (1, 4), (3, 4)])
def test_a_scrambled_block_partition_is_caught(key):
    """A wrong implementation fails: after a first run fills the cache, one
    cached A_[m,n] shuffled over the quotient points makes the Markov checks
    differ from the atom-level reference."""
    view = paper_view(4)
    expect = assert_matches_reference(view)
    labels = view.block_partition(*key).labels.copy()
    np.random.default_rng(17).shuffle(labels)
    view._parts[key] = Partition(labels)
    got = [(e.check, e.ok, e.witness) for e in C.markov_sequence_check(view).entries]
    assert got != expect


@pytest.mark.parametrize("K", [4, 10])
def test_right_factors_chain_from_the_right(K):
    """markov_sequence_check builds A_[0,n] for n < K, A_[n,n] for n < K and
    A_[n,K] for 1 <= n <= K, each A_[n,K] from A_[n+1,K]: 3K - 1 partitions
    (29 at K = 10, where chaining A_[n,K] from A_[n,n] built 64)."""
    view = paper_view(K)
    assert C.markov_sequence_check(view).passed
    left = {(0, n) for n in range(K)} | {(n, n) for n in range(K)}
    assert set(view._parts) == left | {(n, K) for n in range(1, K + 1)}
    assert len(view._parts) == 3 * K - 1
    for m, n in view._parts:
        assert view.interval_partition(m, n) == reference_interval_partition(view, m, n)


def quotient_law(view):
    """The quotient's block weights, reindexed by each block's value tuple."""
    q = view.quotient
    cells = tuple(q.values)
    assert len(set(zip(*cells))) == len(q.first)  # one value tuple per block
    law = np.zeros((view.base.n,) * (view.K + 1), dtype=np.int64)
    law[cells] = q.weights
    return law


def reference_joint_law(view, ks):
    """The dense joint law of (X_k)_{k in ks} keyed off every level-K atom,
    each X_k read by its own pullback."""
    g, K, n = view.rep.gspace, view.K, view.base.n
    key = np.zeros(g.level_size(K), dtype=np.int64)
    for k in ks:
        key = key * n + view.x_table(k, K)
    num = kern.group_sum(key, g.level_weights(K), n ** len(ks))
    return num.reshape((n,) * len(ks)), g.level_denominator(K)


def dense(law, nvals):
    """The dense numerators of a law on its support, zero off it."""
    num = np.zeros((nvals,) * len(law.values), dtype=np.int64)
    num[tuple(law.values)] = law.weights
    return num


def assert_law_on_its_support(law):
    """Columns distinct and in lexicographic order, weights positive."""
    cols = [tuple(c) for c in law.values.T.tolist()]
    assert cols == sorted(set(cols)) and (law.weights > 0).all()


@pytest.mark.parametrize("fixture", sorted(p.stem for p in FIXTURES.glob("*.json")))
def test_quotient_weights_are_the_joint_law(fixture):
    """The path table holds the dense atom-level joint law of X_0 .. X_K,
    and each of its marginals, on its support, is that law's marginal."""
    spec = D.ChainSpec.from_dict(json.loads((FIXTURES / f"{fixture}.json").read_text()))
    K = 4
    model = D.build_markov_dilation(spec, K)
    view = C.ProcessView.from_model(model)
    assert view.quotient is model.paths
    for v in [view] + [view.lump(f) for f in two_block_lumps(spec.d)]:
        num, den = reference_joint_law(v, range(K + 1))
        assert den == v.rep.gspace.level_denominator(K) == v.quotient.den
        assert np.array_equal(quotient_law(v), num)
        for ks in [(0,), (3, 1), (0, 2, 4), (4, 0, 1, 3)]:
            got = v.quotient.marginal(ks)
            assert got.den == den
            assert_law_on_its_support(got)
            assert np.array_equal(dense(got, v.base.n), reference_joint_law(v, ks)[0]), ks


@given(st.integers(0, 10_000), st.integers(2, 4), st.integers(1, 4), st.data())
@settings(max_examples=40, deadline=None)
def test_marginal_is_the_atom_level_joint_law(seed, d, K, data):
    """On random chains, each marginal of the path table, and each marginal
    of such a marginal, densified, is the atom-level joint law: for
    increasing index sets, windows and adjacent swaps of the full law."""
    spec = D.random_irreducible_chain(random.Random(seed), d, max_den=4)
    view = C.ProcessView.from_model(D.build_markov_dilation(spec, K))
    full = view.quotient.marginal(range(K + 1))
    r = data.draw(st.integers(0, K))
    m = data.draw(st.integers(0, K - r))
    i = data.draw(st.integers(0, K - 1))
    swap = [*range(i), i + 1, i, *range(i + 2, K + 1)]
    subset = data.draw(st.lists(st.integers(0, K), min_size=1, max_size=K + 1, unique=True))
    for ks in (sorted(subset), range(m, m + r + 1), swap, subset):
        want = reference_joint_law(view, ks)[0]
        for law in (view.quotient.marginal(ks), full.marginal(ks)):
            assert_law_on_its_support(law)
            assert np.array_equal(dense(law, d), want), list(ks)


def test_markov_checks_canonicalize_level_k_at_most_k_plus_1_times(monkeypatch):
    """On the coin at K = 8 only the K + 1 steps that build A_[0,K] read
    level-K arrays; every other partition is built on the quotient."""
    K = 8
    view = paper_view(K)
    size = view.rep.gspace.level_size(K)
    calls = 0
    orig = kern.canonicalize

    def counting(labels):
        nonlocal calls
        calls += len(labels) == size
        return orig(labels)

    monkeypatch.setattr(kern, "canonicalize", counting)
    assert C.markov_sequence_check(view).passed
    assert calls <= K + 1


# -- pyramidal correlations -------------------------------------------------------


def test_qregression_single_time():
    # r = 1: identical distribution
    view = paper_view()
    rep = oracles.qregression_check(
        view, PAPER.kernel, (2,), [(F(1), F(3))], [(F(2), F(1))]
    )
    assert rep.passed


def test_qregression_two_times_instance():
    # psi(iota_0(a) iota_1(b)) = phi(a T(b))
    view = paper_view()
    a, b = (F(1), F(0)), (F(0), F(1))
    rep = oracles.qregression_check(view, PAPER.kernel, (0, 1), [a, b], [(F(1), F(1))] * 2)
    assert rep.passed
    law = view.quotient.marginal((0, 1))
    lhs = F(int(dense(law, 2)[0, 1]), law.den)
    assert lhs == PAPER.pi.weights[0] * PAPER.rows[0][1]


def test_qregression_random_elements_with_path_oracle():
    rng = random.Random(4)
    view = paper_view()
    law = D.path_law(PAPER, 4)
    for _ in range(20):
        r = rng.randint(1, 4)
        ks = tuple(sorted(rng.sample(range(5), r)))
        a = [tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)) for _ in range(r)]
        b = [tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)) for _ in range(r)]
        rep = oracles.qregression_check(view, PAPER.kernel, ks, a, b, law=law)
        assert rep.passed, (ks, a, b)


def test_qregression_rejects_unordered_times():
    with pytest.raises(ValueError):
        oracles.qregression_check(paper_view(), PAPER.kernel, (1, 0), [(1, 1)] * 2, [(1, 1)] * 2)


# -- hierarchy ---------------------------------------------------------------------


def test_hierarchy_markov_chain_strictness():
    h = C.hierarchy_check(D.build_markov_dilation(PAPER, 5))
    assert h.stationary and h.partially_spreadable
    assert not h.spreadable and not h.exchangeable
    assert "spreadability" in h.witnesses
    assert h.report.passed


def test_hierarchy_iid_fully_symmetric():
    h = C.hierarchy_check(D.build_markov_dilation(IID, 5))
    assert h.stationary and h.spreadable and h.exchangeable and h.report.passed


def test_exchangeable_iff_spreadable_on_instances():
    # the two verdicts coincide on every tested commutative instance
    rng = random.Random(99)
    specs = [PAPER, IID] + [
        D.random_irreducible_chain(rng, rng.choice([2, 3])) for _ in range(8)
    ]
    for spec in specs:
        h = C.hierarchy_check(D.build_markov_dilation(spec, 4))
        assert h.spreadable == h.exchangeable, spec.rows
        assert h.report.passed


def test_hierarchy_horizon_guard():
    # the hierarchy reads X_0 .. X_horizon off the model's path table
    for horizon in (5, 7):
        with pytest.raises(ValueError, match="at most the model's 4; got"):
            C.hierarchy_check(D.build_markov_dilation(PAPER, 4), horizon=horizon)


@pytest.mark.parametrize("K, horizon", [(1, None), (3, 1), (3, 0)])
def test_hierarchy_refuses_horizon_below_2(K, horizon):
    # at horizon 1 spreadability compares no two marginals, and
    # exchangeability means reversibility, not T^2 = T
    with pytest.raises(ValueError, match="the hierarchy needs horizon >= 2"):
        C.hierarchy_check(D.build_markov_dilation(PAPER, K), horizon=horizon)


def move_one_unit(model):
    """Move one numerator unit of the model's path table from the path
    (0, ..., 0) to (1, 0, ..., 0), two paths of its support."""
    table = model.paths
    cols = [tuple(c) for c in table.values.T.tolist()]
    zero = (0,) * (model.K + 1)
    weights = table.weights.copy()
    weights[cols.index(zero)] -= 1
    weights[cols.index((1,) + zero[1:])] += 1
    model.paths = dataclasses.replace(table, weights=weights)


@pytest.mark.parametrize(
    "fixture, failing",
    [
        ("iid_third", {"stationary", "spreadable", "exchangeable"}),
        ("coin_symmetric", {"stationary", "spreadable", "exchangeable"}),
        ("coin_p12_p14", {"stationary"}),
    ],
)
def test_hierarchy_fails_on_a_moved_joint_law(fixture, failing):
    """Each answer read off the law is compared with the closed form: on an
    idempotent chain a unit moved in the path table breaks all three
    answers, on the coin only stationarity, whose answer it turns from yes
    to no."""
    spec = D.ChainSpec.from_dict(json.loads((FIXTURES / f"{fixture}.json").read_text()))
    model = D.build_markov_dilation(spec, 4)
    assert C.hierarchy_check(model).report.passed
    move_one_unit(model)
    report = C.hierarchy_check(model).report
    assert {e.check for e in report.failures()} == failing


def _four_cycle(budget):
    spec = D.ChainSpec.from_rows([[int(j == (i + 1) % 4) for j in range(4)] for i in range(4)])
    return D.build_markov_dilation(spec, 5, budget=budget)


def test_markov_sequence_check_builds_deep_interval_chains_in_a_loop():
    """The 2-cycle holds 2 atoms at every level, so depth 1500 fits the
    budget.  The chains A_[m,K] and A_[m,n] it reads are 1500 links long,
    deeper than Python's recursion limit, and are built in a loop."""
    model = D.build_markov_dilation(D.ChainSpec.from_dict({"d": 2, "T": [[0, 1], [1, 0]]}), 1500)
    report = C.markov_sequence_check(C.ProcessView.from_model(model))
    assert [(e.check, e.ok) for e in report.entries] == [
        ("markov-sequence", True), ("canonical-filtration-markov", True), ("markov-equivalence", True)
    ]


def test_hierarchy_runs_on_the_four_cycle_past_the_dense_budget():
    # the 4-cycle's levels hold 4 atoms; its law at horizon 5 has 4 points
    # on its support, though a dense tensor would have 4^6 cells
    h = C.hierarchy_check(_four_cycle(4095))
    assert h.report.passed and h.stationary and not h.spreadable


def test_hierarchy_fails_on_a_corrupted_eta_1():
    """A wrong implementation fails: the cached eta_1 table from level 2
    onto level 1, the window every alpha_n iota_0 = iota_0 is decided on,
    sends atom 0 to an atom of another base value, so alpha_1 moves
    iota_0."""
    K = 4
    model = D.build_markov_dilation(PAPER, K)
    g = model.gspace
    table = model.rep.eta(1, 1)
    table[0] = (table[0] + g.nc) % g.level_size(1)
    h = C.hierarchy_check(model)
    assert not h.partially_spreadable
    assert {e.check for e in h.report.failures()} == {"partially-spreadable"}
    entry = C.partial_spreadability_check(C.ProcessView.from_model(model)).entries[1]
    assert (entry.ok, entry.witness) == (False, "alpha_1 moves iota_0 at atom 0 of level 4")


def test_localization_witness_is_lifted_from_its_window():
    """Atom 4 of level 2, (a, c_1, c_2) = (0, 1, 1), sent by the window's
    eta_1 to another base value, is atom 4·3² = 36 of level 4: the first
    atom that the full-level eta_1 the window stands for, corrupted alike on
    every (c_3, c_4), moves."""
    K = 4
    model = D.build_markov_dilation(PAPER, K)
    nc = model.gspace.nc
    table = model.rep.eta(1, 1)
    table[4] = (table[4] + nc) % model.gspace.level_size(1)
    entry = C.partial_spreadability_check(C.ProcessView.from_model(model)).entries[1]
    assert (entry.ok, entry.witness) == (False, "alpha_1 moves iota_0 at atom 36 of level 4")

    full = D.build_markov_dilation(PAPER, K).rep
    tail = nc ** (K - 2)
    full.eta(1, K - 1).reshape(-1, tail)[4] = table[4] * tail + np.arange(tail)
    x0 = full.x_table(0, K - 1)
    moved = [n for n in range(1, K) if not np.array_equal(x0[full.eta(n, K - 1)], x0[full.drop_last(K - 1)])]
    assert moved == [1]
    assert int(np.argmax(x0[full.eta(1, K - 1)] != x0[full.drop_last(K - 1)])) == 36


def _idempotent(rows):
    d = len(rows)
    return all(
        sum(rows[i][k] * rows[k][j] for k in range(d)) == rows[i][j]
        for i in range(d)
        for j in range(d)
    )


@given(st.integers(0, 10_000), st.integers(2, 4), st.integers(2, 5), st.booleans())
@settings(max_examples=30, deadline=None)
def test_hierarchy_answers_equal_the_closed_form(seed, d, K, iid):
    """On random chains, and on idempotent ones (every row the stationary
    state, so i.i.d.), every entry passes and both answers equal [T^2 = T]."""
    rng = random.Random(seed)
    if iid:
        den = rng.randint(d, 6)
        cuts = sorted(rng.sample(range(1, den), d - 1))
        pi = [F(b - a, den) for a, b in zip([0] + cuts, cuts + [den])]
        spec = D.ChainSpec.from_rows([pi] * d)
    else:
        spec = D.random_irreducible_chain(rng, d, max_den=4)
    h = C.hierarchy_check(D.build_markov_dilation(spec, K))
    assert h.report.passed, [(e.check, e.witness) for e in h.report.failures()]
    idempotent = _idempotent(spec.rows)
    assert h.spreadable == h.exchangeable == idempotent
    assert idempotent or not iid


def test_no_report_entry_has_a_constant_verdict():
    """A verdict written as a literal passes whatever was decided."""
    found = []
    for path in sorted(Path(C.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "add":
                verdicts = node.args[2:3] + [kw.value for kw in node.keywords if kw.arg == "ok"]
                if any(isinstance(v, ast.Constant) for v in verdicts):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


# -- the suite ----------------------------------------------------------------------


def test_suite_paper_family():
    for p1 in (F(1, 4), F(1, 2), F(3, 4)):
        for p2 in (F(1, 4), F(1, 2), F(3, 4)):
            rep = C.definetti_suite(D.ChainSpec.coin(p1, p2), 3)
            assert rep.passed, (p1, p2, [e.check for e in rep.failures()])


def test_suite_one_state():
    assert C.definetti_suite(D.ChainSpec.from_rows([[F(1)]]), 3).passed


def test_suite_random_chains():
    rng = random.Random(123)
    for _ in range(4):
        spec = D.random_irreducible_chain(rng, rng.choice([3, 4]))
        rep = C.definetti_suite(spec, 4)
        assert rep.passed, [e.check for e in rep.failures()]


def test_maxps_implies_markov_on_every_suite_run():
    rng = random.Random(7)
    for _ in range(6):
        spec = D.random_irreducible_chain(rng, rng.choice([2, 3]))
        view = C.ProcessView.from_model(D.build_markov_dilation(spec, 3))
        if C.maximal_ps_check(view).passed:
            assert C.markov_sequence_check(view).passed


def test_ps_implies_stationary_and_adapted():
    # adaptedness: every canonical algebra sits inside the rep filtration's
    model = D.build_markov_dilation(PAPER, 3)
    view = C.ProcessView.from_model(model)
    assert C.partial_spreadability_check(view).passed
    filt = R.filtration_from_rep(view.rep, 3)
    for m in range(4):
        for n in range(m, 4):
            # A_[m,n] ⊂ M^rho_[m,n]: the canonical algebra is the smaller one
            a_part = view.interval_partition(m, n)
            assert a_part.coarsens(filt.partitions[(m, n)]), (m, n)
    h = C.hierarchy_check(model)
    assert h.stationary


def test_report_json_shape():
    rep = C.definetti_suite(PAPER, 3)
    data = json.loads(rep.to_json())
    assert all(set(item) <= {"check", "anchor", "verdict", "witness"} for item in data)
    data_t = json.loads(rep.to_json(include_timing=True))
    assert any("micros" in item for item in data_t)


def test_suite_refuses_horizon_below_3():
    # at horizon 2 the tower has no cell and would pass with nothing decided
    for K in (1, 2):
        with pytest.raises(ValueError, match="horizon >= 3"):
            C.definetti_suite(PAPER, K)


def test_timing_stamps_each_entry_once():
    t0 = time.perf_counter_ns()
    rep = C.definetti_suite(PAPER, 3)
    wall_us = (time.perf_counter_ns() - t0) // 1000
    data = json.loads(rep.to_json(include_timing=True))
    assert all("micros" in item for item in data)
    assert sum(item["micros"] for item in data) <= wall_us


def test_moment_consistency_hundred_random_tuples():
    # the check decides the moments on the path table's support; its verdict
    # agrees with the model and path-law moments compared tuple by tuple,
    # r <= 3 exhaustively plus 100 random longer tuples
    model = D.build_markov_dilation(PAPER, 4)
    report = D.dilation_property_check(model)
    assert all(report.power_ok.values()) and not report.moment_failures
    law = D.path_law(PAPER, 4)
    rng = random.Random(7)
    tuples = [ks for r in (1, 2, 3) for ks in itertools.combinations(range(5), r)]
    tuples += [tuple(sorted(rng.sample(range(5), rng.randint(4, 5)))) for _ in range(100)]
    checked = 0
    for ks in tuples:
        m_law = model.paths.marginal(ks)
        lhs = dense(m_law, 2).astype(object) * law.den
        rhs = law.marginal(ks)[0].astype(object) * m_law.den
        assert (lhs == rhs).all(), ks
        checked += lhs.size
    assert checked > 1000


def test_dilation_entries_name_the_first_failing_power():
    # a coupling whose compression is not T fails T^1 first; dilate and the
    # de Finetti suite add these entries through the same builder
    _, cpl = D.build_first_order_dilation(PAPER)
    bad_target = cpl.target.copy()
    bad_target[0, 2], bad_target[1, 0] = bad_target[1, 0], bad_target[0, 2]
    bad = D.CouplingMap(cpl.base, cpl.noise, bad_target)
    model = D.build_markov_dilation(PAPER, 3, bad)
    report = C.VerificationReport()
    C.add_dilation_entries(report, model)
    powers, moments = report.entries
    assert (powers.check, powers.ok, powers.witness) == ("dilation-powers", False, "first failing power 1")
    assert moments.check == "moments-vs-path-law" and not moments.ok
    suite = {e.check: e for e in C.definetti_checks(model).entries}
    assert suite["dilation-powers"].witness == powers.witness
    assert suite["moments-vs-path-law"].witness == moments.witness


def test_anchor_strings_are_stable_per_check():
    rep = C.definetti_suite(PAPER, 3)
    anchors = {}
    for e in rep.entries:
        assert anchors.setdefault(e.check, e.anchor) == e.anchor


def test_lumped_filtration_is_coarser():
    # the canonical algebras of f(X) sit inside those of X, interval-wise
    view = paper_view(3)
    lumped = view.lump([0, 0])
    for m in range(4):
        for n in range(m, 4):
            a = lumped.interval_partition(m, n)
            b = view.interval_partition(m, n)
            assert a.coarsens(b), (m, n)


def test_lump_process_function_form():
    view = paper_view(3)
    lumped = view.lump([0, 0])
    assert lumped.base.n == 1
    assert C.markov_sequence_check(lumped).passed


def test_definetti_suite_decides_each_model_identity_once(monkeypatch, window_decisions):
    # the n = 1 power is decided once, and so is every window of the
    # relations, the tower and intertwining
    calls = []
    orig_power = D.ProcessModel.compressed_power

    def power(self, n):
        calls.append(n)
        return orig_power(self, n)

    monkeypatch.setattr(D.ProcessModel, "compressed_power", power)
    assert C.definetti_suite(PAPER, 5).passed
    assert calls == list(range(6))
    assert window_decisions.counts() == {
        "relation_check": 6,
        "_tower_intersection": 2,
        "_intertwining_failure": 2,
    }


@pytest.mark.parametrize("window, entry", [("_tower_intersection", "tower-intersections")])
def test_tower_entries_each_read_their_own_windows(window, entry, monkeypatch):
    """triangular-tower reads the cells and tower-intersections the
    intersections: made to fail on one kind of window, the suite fails
    that entry alone."""
    monkeypatch.setattr(R, window, lambda rep, *args: False)
    assert [e.check for e in C.definetti_suite(PAPER, 4).failures()] == [entry]


def test_tower_cells_fail_where_a_generator_beyond_the_level_is_not_the_cylinder():
    """eta_1 from level 1 onto level 0, a generator beyond its level, with
    the entries of the first and the last base atom swapped: it is no
    longer drop_last, so the head lemma's premise fails and
    triangular-tower fails with it, while the intersections, which read no
    such table, pass.  The relation window (1, 2, 0) reads the same table,
    so representation-premise fails too."""
    model = D.build_markov_dilation(PAPER, 4)
    table = model.rep.eta(1, 0)
    table[0], table[-1] = table[-1], table[0]
    assert not R.tower_head_lemma(model.rep)
    assert all(R.triangular_tower_check(model.rep).values())
    assert [e.check for e in C.definetti_checks(model).failures()] == ["representation-premise", "triangular-tower"]


def test_suites_on_one_model_share_its_relations_and_tower(window_decisions):
    """definetti_checks and then hierarchy_check on one model decide each
    relation, tower and intertwining window once: the hierarchy's
    representation premise, and the relations and tower read again, find
    every window in the representation's cache."""
    model = D.build_markov_dilation(PAPER, 4)
    suite = C.definetti_checks(model)
    decided = list(window_decisions)
    assert window_decisions.counts().keys() == {"relation_check", "_tower_intersection", "_intertwining_failure"}
    h = C.hierarchy_check(model)
    assert suite.passed and h.report.passed
    assert {e.check for e in h.report.entries} >= {"partially-spreadable"}
    assert all(R.triangular_tower_check(model.rep).values()) and R.tower_head_lemma(model.rep)
    assert R.monoid_relations_check(model.rep, 4) == (True, None)
    assert window_decisions == decided


def test_definetti_suite_scans_each_labels_array_once(monkeypatch):
    """Each Partition finds its first atoms once, so on the coin at K=8 no
    labels array is scanned by _first_occurrence twice (523 scans in all;
    recounted per call, 1,694 scans were 1,171 repeats)."""
    orig = finprob._first_occurrence
    seen, repeats = {}, []

    def counted(labels, nblocks):
        # a dead reference means a new array has taken over the id
        ref = seen.get(id(labels))
        if ref is not None and ref() is labels:
            repeats.append(len(labels))
        else:
            seen[id(labels)] = weakref.ref(labels)
        return orig(labels, nblocks)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "finmarkov" and getattr(mod, "_first_occurrence", None) is orig:
            monkeypatch.setattr(mod, "_first_occurrence", counted)
    assert C.definetti_suite(PAPER, 8).passed
    assert seen
    assert len(repeats) == 0


def test_definetti_suite_glues_and_meets_no_level_and_intertwines_on_head_levels(monkeypatch):
    """On the coin at K=8: fixed_point_partition makes no union-find call,
    intersected_fixed_points makes no meet, and intertwining_check(k, n)
    hands no kernel an array larger than the upper level of its window,
    level 2 for k = 0 and level 3 otherwise."""
    inside = []
    kernel_calls, meets = [], []

    def entered(name, fn, bound=None):
        def wrapper(*args, **kwargs):
            inside.append((name, bound(*args) if bound else None))
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()

        return wrapper

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            sizes = [a.size for a in args if isinstance(a, np.ndarray)]
            kernel_calls.append((name, max(sizes, default=0), tuple(inside)))
            return fn(*args, **kwargs)

        return wrapper

    def head_level(rep, k, n):
        return rep.gspace.level_size(min(k, 1) + 2)

    for name in ("canonicalize", "pair_canon", "union_components", "group_sum", "group_count"):
        monkeypatch.setattr(kern, name, recorded(name, getattr(kern, name)))
    orig_meet = Partition.meet

    def meet(self, other):
        meets.append(tuple(inside))
        return orig_meet(self, other)

    monkeypatch.setattr(Partition, "meet", meet)
    for name in ("fixed_point_partition", "intersected_fixed_points"):
        monkeypatch.setattr(R.PointRep, name, entered(name, getattr(R.PointRep, name)))
    monkeypatch.setattr(R, "intertwining_check", entered("intertwining", R.intertwining_check, head_level))

    assert C.definetti_suite(PAPER, 8).passed
    assert not [c for c in kernel_calls if c[0] == "union_components" and ("fixed_point_partition", None) in c[2]]
    assert meets and not [m for m in meets if ("intersected_fixed_points", None) in m]
    on_heads = [
        (size, bound)
        for _, size, frames in kernel_calls
        for name, bound in frames
        if name == "intertwining" and bound is not None
    ]
    assert on_heads and all(size <= bound for size, bound in on_heads)
