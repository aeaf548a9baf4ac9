import dataclasses
import json
import random
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finmarkov import _kernels as kern
from finmarkov import checks as C
from finmarkov import dilation as D
from finmarkov import rep as R
from finmarkov.finprob import FinSpace, Partition, block_weight_sums

from test_checks import reference_interval_partition


# -- stationary distributions -------------------------------------------------


def test_two_state_formula():
    # pi = (p2/(p1+p2), p1/(p1+p2))
    for p1 in (F(1, 4), F(1, 2), F(3, 4)):
        for p2 in (F(1, 4), F(1, 2), F(3, 4)):
            pi = D.stationary_distribution(((1 - p1, p1), (p2, 1 - p2)))
            assert pi == (p2 / (p1 + p2), p1 / (p1 + p2))


def test_one_state():
    assert D.stationary_distribution(((F(1),),)) == (F(1),)


def test_worked_example():
    assert D.stationary_distribution(((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)))) == (
        F(1, 3),
        F(2, 3),
    )


def test_reject_non_unique():
    with pytest.raises(ValueError, match="not unique"):
        D.stationary_distribution(((F(1), F(0)), (F(0), F(1))))


def test_reject_non_positive():
    # absorbing state: stationary mass escapes state 0
    with pytest.raises(ValueError, match="positive"):
        D.ChainSpec.from_rows([[F(1, 2), F(1, 2)], [F(0), F(1)]])


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_random_stationary_solves_fixed_point(seed):
    rng = random.Random(seed)
    spec = D.random_irreducible_chain(rng, rng.choice([2, 3, 4]))
    pi = spec.pi.weights
    d = spec.d
    for j in range(d):
        assert sum(pi[i] * spec.rows[i][j] for i in range(d)) == pi[j]
    assert sum(pi) == 1 and all(p > 0 for p in pi)


# -- first-order coupling ------------------------------------------------------


def test_symmetric_coin_swaps_halves():
    spec = D.ChainSpec.coin(F(1, 2), F(1, 2))
    ns, cpl = D.build_first_order_dilation(spec)
    assert ns.space.weights == (F(1, 2), F(1, 2))
    # tau swaps the second half of fiber 0 with the first half of fiber 1
    assert list(cpl.tau()) == [0, 2, 1, 3]
    assert cpl.compression().rows == spec.rows


def test_paper_chain_coupling_is_identity_on_diagonal():
    spec = D.ChainSpec.coin(F(1, 2), F(1, 4))
    ns, cpl = D.build_first_order_dilation(spec)
    assert ns.space.weights == (F(1, 4), F(1, 4), F(1, 2))
    perm = cpl.tau()
    assert perm is not None
    nc = ns.n
    for i in range(2):
        for c in range(nc):
            flat = i * nc + c
            if int(cpl.target[i, c]) == i:
                assert perm[flat] == flat  # identity on the diagonal pieces
    # the two mass-1/6 off-diagonal pieces swap
    assert perm[0 * nc + 2] == 1 * nc + 0
    assert perm[1 * nc + 0] == 0 * nc + 2
    cpl.validate_perm(perm)


def test_general_two_state_compression():
    for p1 in (F(1, 4), F(1, 2), F(3, 4), F(1, 6)):
        for p2 in (F(1, 4), F(1, 2), F(3, 4), F(5, 6)):
            spec = D.ChainSpec.coin(p1, p2)
            _, cpl = D.build_first_order_dilation(spec)
            assert cpl.compression().rows == spec.rows


def test_bijective_coupling_impossible_case():
    # every fiber-0 atom must shrink by ratio pi0/pi1 < 1 under the flow
    # 0 -> 1 with full mass: no finite atom set supports that descent
    spec = D.ChainSpec.from_rows([[F(0), F(1)], [F(1, 2), F(1, 2)]])
    _, cpl = D.build_first_order_dilation(spec)
    assert cpl.tau() is None
    assert cpl.compression().rows == spec.rows  # assignment still exact


def test_uniform_grid_retry():
    # doubly stochastic 3-state chain: uniform state, and the compact noise
    # already carries the bijection
    rows = [
        [F(0), F(1, 2), F(1, 2)],
        [F(1, 2), F(0), F(1, 2)],
        [F(1, 2), F(1, 2), F(0)],
    ]
    spec = D.ChainSpec.from_rows(rows)
    _, cpl = D.build_first_order_dilation(spec)
    perm = cpl.tau()
    assert perm is not None
    cpl.validate_perm(perm)


def test_zero_entries_omitted():
    spec = D.ChainSpec.from_rows([[F(0), F(1)], [F(1, 2), F(1, 2)]])
    ns, cpl = D.build_first_order_dilation(spec)
    # row 0 has a single piece: everything flows to state 1
    assert all(int(j) == 1 for j in cpl.target[0])


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_random_chain_compression_exact(seed):
    rng = random.Random(seed)
    spec = D.random_irreducible_chain(rng, rng.choice([2, 3, 4]))
    _, cpl = D.build_first_order_dilation(spec)
    assert cpl.compression().rows == spec.rows
    perm = cpl.tau()
    if perm is not None:
        cpl.validate_perm(perm)


# -- the amplified model -------------------------------------------------------


def test_dilation_powers_paper_chain():
    spec = D.ChainSpec.coin(F(1, 2), F(1, 4))
    model = D.build_markov_dilation(spec, 5)
    for n in range(6):
        assert model.compressed_power(n) == spec.kernel.power(n).rows


def test_model_requires_positive_horizon():
    spec = D.ChainSpec.coin(F(1, 2), F(1, 4))
    with pytest.raises(ValueError):
        D.build_markov_dilation(spec, 0)


def test_budget_refusal():
    from finmarkov.rep import AtomBudgetError

    spec = D.ChainSpec.coin(F(1, 2), F(1, 4))
    with pytest.raises(AtomBudgetError):
        D.build_markov_dilation(spec, 20)


def test_path_law_examples():
    spec = D.ChainSpec.coin(F(1, 2), F(1, 4))
    assert [D.path_law(spec, 0).prob((s,)) for s in range(2)] == [F(1, 3), F(2, 3)]
    law = D.path_law(spec, 2)
    assert law.prob((0, 1, 1)) == F(1, 8)
    total = sum(law.prob(p) for p in np.ndindex(2, 2, 2))
    assert total == 1


def test_path_law_iid_is_product():
    spec = D.ChainSpec.from_rows([[F(1, 3), F(2, 3)], [F(1, 3), F(2, 3)]])
    law = D.path_law(spec, 3)
    for p in np.ndindex(2, 2, 2, 2):
        expect = F(1)
        for s in p:
            expect *= spec.pi.weights[s]
        assert law.prob(p) == expect


def test_path_law_marginals():
    spec = D.ChainSpec.coin(F(1, 2), F(1, 4))
    law = D.path_law(spec, 3)
    num, den = law.marginal((0, 2))
    t2 = spec.kernel.power(2).rows
    for a in range(2):
        for b in range(2):
            assert F(int(num[a, b]), den) == spec.pi.weights[a] * t2[a][b]
    # order matters: marginal((2, 0)) is the transpose
    num2, _ = law.marginal((2, 0))
    assert np.array_equal(num2, num.T)


def test_model_joint_law_equals_path_law():
    spec = D.ChainSpec.coin(F(1, 2), F(1, 4))
    model = D.build_markov_dilation(spec, 4)
    law = D.path_law(spec, 4)
    m_law = model.paths.marginal(range(5))
    num = np.zeros_like(law.num)
    num[tuple(m_law.values)] = m_law.weights
    assert np.array_equal(num.astype(object) * law.den, law.num.astype(object) * m_law.den)


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_dilation_property_random(seed):
    rng = random.Random(seed)
    spec = D.random_irreducible_chain(rng, rng.choice([2, 3, 4]))
    model = D.build_markov_dilation(spec, 3)
    report = D.dilation_property_check(model)
    assert all(report.power_ok.values()) and not report.moment_failures


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _power_specs():
    """The five fixtures and seven seeded random chains."""
    specs = {p.stem: D.ChainSpec.from_dict(json.loads(p.read_text())) for p in sorted(FIXTURES.glob("*.json"))}
    for seed in range(1, 8):
        rng = random.Random(seed)
        specs[f"random-{seed}"] = D.random_irreducible_chain(rng, rng.choice([2, 3, 4]))
    return specs


POWER_SPECS = _power_specs()


@pytest.mark.parametrize("name", sorted(POWER_SPECS))
def test_dilation_powers_equal_the_kernel_powers(name, monkeypatch):
    # T^n as integer numerators over D^n equals the Fraction kernel power;
    # a moved compressed power still fails its dilation-powers entry
    spec = POWER_SPECS[name]
    K = 5
    powers = list(D._transition_powers(spec, K))
    assert len(powers) == K + 1
    for n, (num, den) in enumerate(powers):
        got = tuple(tuple(F(int(x), den) for x in row) for row in num)
        assert got == spec.kernel.power(n).rows, n

    model = D.build_markov_dilation(spec, 3)
    report = D.dilation_property_check(model)
    assert all(report.power_ok.values()) and not report.moment_failures
    orig = model.compressed_power
    for bad_n in range(4):

        def moved(n, bad_n=bad_n):
            rows = [list(r) for r in orig(n)]
            if n == bad_n:
                rows[0][0] += F(1, 7)
                rows[0][-1] -= F(1, 7)
            return tuple(map(tuple, rows))

        monkeypatch.setattr(model, "compressed_power", moved)
        report = C.VerificationReport()
        C.add_dilation_entries(report, model)
        powers_entry = report.entries[0]
        assert (powers_entry.check, powers_entry.ok) == ("dilation-powers", False)
        assert powers_entry.witness == f"first failing power {bad_n}"


def _with_weights(model, monkeypatch, weights):
    """Plant a copy of the model's path table carrying other weights."""
    monkeypatch.setattr(model, "paths", dataclasses.replace(model.paths, weights=weights))


def test_dilation_check_points_at_a_moved_cell(monkeypatch):
    # the moments are decided path by path on the table's support: one
    # numerator unit moved between two paths fails exactly those two, in
    # first-atom order, each against the chain's path law
    spec = D.ChainSpec.coin(F(1, 2), F(1, 4))
    model = D.build_markov_dilation(spec, 3)
    assert D.dilation_property_check(model).moment_failures == ()
    table = model.paths
    moved = table.weights.copy()
    moved[5] -= 1
    moved[2] += 1
    _with_weights(model, monkeypatch, moved)
    report = D.dilation_property_check(model)
    assert report.moment_failures
    paths = [tuple(int(v) for v in table.values[:, b]) for b in (2, 5)]
    assert report.moment_failures == tuple(((0, 1, 2, 3), p) for p in paths)
    law = D.path_law(spec, 3)
    for (_, path), b in zip(report.moment_failures, (2, 5)):
        assert int(moved[b]) * law.den != int(law.num[path]) * table.den


def test_dilation_check_points_at_the_whole_path(monkeypatch):
    # a +-1 sign pattern over the support moves every path and keeps the
    # total: the witnesses are the first five whole paths in first-atom
    # order, the first the path of atom 0
    spec = D.ChainSpec.coin(F(1, 2), F(1, 4))
    model = D.build_markov_dilation(spec, 3)
    table = model.paths
    assert len(table.weights) % 2 == 0
    signs = (-1) ** np.arange(len(table.weights))
    _with_weights(model, monkeypatch, table.weights + signs)
    report = D.dilation_property_check(model)
    assert report.moment_failures[0] == ((0, 1, 2, 3), (0, 0, 0, 0))
    assert report.moment_failures == tuple(
        ((0, 1, 2, 3), tuple(int(v) for v in table.values[:, b])) for b in range(5)
    )


def test_moments_refuse_a_path_off_the_chain_support(monkeypatch):
    # relabeling the first block to a path the chain gives no mass, keeping
    # its weight, fails that path
    spec = D.ChainSpec.from_rows([[0, 1], [F(1, 2), F(1, 2)]])
    model = D.build_markov_dilation(spec, 2)
    table = model.paths
    assert not any(p[:2] == (0, 0) for p in zip(*table.values.tolist()))
    values = table.values.copy()
    values[:, 0] = (0, 0, 1)
    monkeypatch.setattr(model, "paths", dataclasses.replace(table, values=values))
    failures = D.dilation_property_check(model).moment_failures
    assert failures[0] == ((0, 1, 2), (0, 0, 1))


def _target_cut_points(rows, pi):
    """The incoming-piece cut points of every fiber: with the row cuts they
    give a refined noise on which the pieces flowing into each state are
    separate atoms."""
    d = len(rows)
    cuts = set()
    for j in range(d):
        acc = F(0)
        for i in range(d):
            acc += pi[i] * rows[i][j] / pi[j]
            if i < d - 1:
                cuts.add(acc)
    return cuts


def test_path_law_invariant_under_noise_choice():
    # the observable distribution does not depend on how the noise is cut:
    # the compact noise and the refined cuts give the same joint law (on a
    # two-state chain the refined cuts are the row cuts, since
    # pi_0 T_01 = pi_1 T_10, so a three-state chain is needed)
    spec = D.ChainSpec.from_rows(
        [[F(0), F(1, 2), F(1, 2)], [F(1, 3), F(1, 3), F(1, 3)], [F(1, 4), F(1, 2), F(1, 4)]]
    )
    refined = D.NoiseSpace.from_cuts(
        D._row_cut_points(spec.rows) | _target_cut_points(spec.rows, spec.pi.weights)
    )
    assert refined.n > D.build_first_order_dilation(spec)[0].n
    target = D._piece_assignment(spec.rows, refined)
    cpl = D.CouplingMap(spec.pi, refined, target)
    assert cpl.compression_rows() == spec.rows
    m1 = D.build_markov_dilation(spec, 3)
    m2 = D.build_markov_dilation(spec, 3, cpl)
    law1, law2 = (m.paths.marginal(range(4)) for m in (m1, m2))
    assert np.array_equal(law1.values, law2.values)
    assert np.array_equal(law1.weights.astype(object) * law2.den, law2.weights.astype(object) * law1.den)


def test_corrupted_coupling_detected():
    # swap the targets of two equal-mass atoms across fibers: the product
    # state is still preserved, but the compression is no longer T
    spec = D.ChainSpec.coin(F(1, 2), F(1, 4))
    ns, cpl = D.build_first_order_dilation(spec)
    bad_target = cpl.target.copy()
    bad_target[0, 2], bad_target[1, 0] = bad_target[1, 0], bad_target[0, 2]
    bad = D.CouplingMap(cpl.base, cpl.noise, bad_target)
    assert bad.compression_rows() != spec.rows
    model = D.build_markov_dilation(spec, 3, bad)
    report = D.dilation_property_check(model)
    assert not report.power_ok[1]


def test_state_breaking_corruption_rejected_at_build():
    spec = D.ChainSpec.coin(F(1, 2), F(1, 4))
    ns, cpl = D.build_first_order_dilation(spec)
    bad_target = cpl.target.copy()
    bad_target[0, 0] = 1 - bad_target[0, 0]
    bad = D.CouplingMap(cpl.base, cpl.noise, bad_target)
    with pytest.raises(ValueError, match="push"):
        D.build_markov_dilation(spec, 3, bad)


def test_chainspec_from_dict_and_errors():
    spec = D.ChainSpec.from_dict({"d": 2, "T": [["1/2", "1/2"], ["1/4", "3/4"]]})
    assert spec.pi.weights == (F(1, 3), F(2, 3))
    with pytest.raises(ValueError):
        D.ChainSpec.from_dict({"d": 3, "T": [["1/2", "1/2"], ["1/4", "3/4"]]})
    with pytest.raises(ValueError):
        D.ChainSpec.from_dict({"T": [["0.5", "0.5"], ["1/4", "3/4"]]})


def test_two_state_bijection_characterization():
    # exhaustive over entry denominators <= 4: when the lighter state flows
    # entirely into the other state, no atom-level bijection exists (all of
    # its atoms would have to shrink by a fixed ratio, which no finite atom
    # set supports); any bijection found on the compact noise is valid
    probs = sorted({F(n, m) for m in range(1, 5) for n in range(1, m + 1)})
    for p1 in probs:
        for p2 in probs:
            spec = D.ChainSpec.coin(p1, p2)
            _, cpl = D.build_first_order_dilation(spec)
            pi = spec.pi.weights
            small = 0 if pi[0] < pi[1] else 1
            perm = cpl.tau()
            if pi[0] != pi[1] and spec.rows[small][1 - small] == 1:
                assert perm is None, (p1, p2)
            elif perm is not None:
                cpl.validate_perm(perm)


def test_int64_guard_refuses_rather_than_wrapping():
    # a horizon whose level denominator passes int64 is refused when the
    # model is built; nothing is ever computed with silently wrapped integers
    rng = random.Random(0)
    spec = D.random_irreducible_chain(rng, 4, 49)
    model = D.build_markov_dilation(spec, 3, budget=10**7)
    assert model.gspace.level_denominator(3).bit_length() < 62
    assert model.compressed_power(3) == spec.kernel.power(3).rows
    assert model.gspace.level_denominator(4).bit_length() > 62
    with pytest.raises(OverflowError):
        D.build_markov_dilation(spec, 4, budget=10**7)


def test_iota_projection_is_conditional_expectation():
    # iota_0 iota_0* equals block averaging over the state coordinate
    from finmarkov.finprob import Partition, cond_exp, FinSpace

    spec = D.ChainSpec.coin(F(1, 2), F(1, 4))
    model = D.build_markov_dilation(spec, 2)
    g = model.gspace
    level = 2
    n = g.level_size(level)
    den = g.level_denominator(level)
    w = g.level_weights(level)
    space = FinSpace(tuple(F(int(x), den) for x in w))
    x0 = Partition(np.arange(n) // g.nc**level)
    f = space.element([(i * 7) % 5 - 2 for i in range(n)])
    left = cond_exp(space, x0, f)
    # iota_0 iota_0* (f) = iota_0 of the compression a -> E[f | X_0 = a]
    pi = spec.pi.weights
    comp = []
    for a in range(g.d):
        mask = np.arange(n) // g.nc**level == a
        total = sum(F(int(w[i]), den) * f.values[i] for i in np.nonzero(mask)[0])
        comp.append(total / pi[a])
    right = tuple(comp[int(np.arange(n)[i] // g.nc**level)] for i in range(n))
    assert left.values == right


def test_model_default_noise_stays_compact():
    # a chain whose bijection would need pi-ratio cuts: the model keeps the
    # compact noise so the level denominators stay within exact int64 range
    # at depth 4
    spec = D.ChainSpec.from_rows([[F(1, 6), F(5, 6)], [F(4, 5), F(1, 5)]])
    model = D.build_markov_dilation(spec, 4)
    assert model.gspace.noise_den <= 60
    report = D.dilation_property_check(model)
    assert all(report.power_ok.values()) and not report.moment_failures


def reference_path_table(rep, value_map, nvals, level):
    """The path table by a scan of level K: X_k is read off one running
    pullback through eta_0, and A_[0,K] refined by it with one canonicalize
    call per k, which numbers the blocks in first-atom order."""
    g = rep.gspace
    ids = np.arange(g.level_size(level), dtype=np.int64)
    labels = np.zeros(len(ids), dtype=np.int64)
    xs = []
    for k in range(level + 1):
        if k:
            ids = rep.eta(0, level - k)[ids]
        xs.append(np.asarray(value_map, dtype=np.int64)[g.base_coord(ids, level - k)])
        labels, nblocks = kern.canonicalize(labels * nvals + xs[-1])
    first = Partition._from_canonical(labels, nblocks).first
    weights = block_weight_sums(labels, nblocks, g.level_weights(level))
    return D.PathTable(first, np.stack([x[first] for x in xs]), weights, g.level_denominator(level))


def assert_tables_equal(got, want):
    for name in ("first", "values", "weights"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.den == want.den


def tables_rep(level):
    obj = json.loads((FIXTURES / "coin_with_tables.json").read_text())
    spec = D.ChainSpec.from_dict(obj)
    noise = FinSpace.from_rationals(obj["noise"])
    return R.build_fplus_rep(spec.pi, noise, obj["c_map"], obj["delta_map"], level)


@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 6), st.data())
@settings(max_examples=40, deadline=None)
def test_slotwise_path_table_equals_the_level_scan(seed, d, K, data):
    """The path table built one noise slot at a time is the level scan's,
    field by field and dtypes included, on random chains, on random lumps
    of them and on the explicit tables of coin_with_tables.json."""
    spec = D.random_irreducible_chain(random.Random(seed), d, max_den=4)
    model = D.build_markov_dilation(spec, K)
    f = np.array(data.draw(st.lists(st.integers(0, d - 1), min_size=d, max_size=d)))
    for value_map in (np.arange(d), f):
        got = D.path_table(model.rep, value_map, d, K)
        assert_tables_equal(got, reference_path_table(model.rep, value_map, d, K))
    assert_tables_equal(model.paths, reference_path_table(model.rep, np.arange(d), d, K))
    rep = tables_rep(K)
    for value_map in ([0, 1], [0, 0]):
        assert_tables_equal(D.path_table(rep, value_map, 2, K), reference_path_table(rep, value_map, 2, K))


@given(st.integers(0, 10_000), st.integers(2, 4), st.integers(1, 5), st.data())
@settings(max_examples=25, deadline=None)
def test_path_table_with_small_value_arrays_equals_the_int64_build(seed, d, K, data):
    """The path table, built with its states in the smallest unsigned type,
    is the int64 level scan's, dtypes included, for the model and for a
    lumped view; the level scan's per-atom blocks are read through
    interval_partition."""
    spec = D.random_irreducible_chain(random.Random(seed), d, max_den=4)
    model = D.build_markov_dilation(spec, K)
    f = np.array(data.draw(st.lists(st.integers(0, d - 1), min_size=d, max_size=d)))
    for value_map, nvals in ((np.arange(d), d), (f, d)):
        got = D.path_table(model.rep, value_map, nvals, K)
        want = reference_path_table(model.rep, value_map, nvals, K)
        assert_tables_equal(got, want)
        view = C.ProcessView(model.rep, model.spec.pi, value_map, K)
        for m in range(K + 1):
            for n in range(m, K + 1):
                assert view.interval_partition(m, n) == reference_interval_partition(view, m, n), (m, n)
