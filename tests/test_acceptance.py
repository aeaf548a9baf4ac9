"""Acceptance criteria, one test per criterion, each at its stated bound.

Every identity here is exact (integer/rational equality); the only numeric
bounds are the wall-clock budgets stated alongside the criteria.  Run with
``pytest -s tests/test_acceptance.py`` to see one line per criterion.
"""

import json
import random
import time
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest

from finmarkov import checks as C
from finmarkov import dilation as D
from finmarkov import monoid as M
from finmarkov import rep as R
from finmarkov.finprob import commuting_square_check
from finmarkov.monoid import Word

from oracles import coupling_tau, gword, kernel_power, validate_perm

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
PAPER = D.ChainSpec.coin(F(1, 2), F(1, 4))

# the random chain corpus shared by criteria 3-6 and 8
_CORPUS_SEED = 20250809


def corpus():
    rng = random.Random(_CORPUS_SEED)
    return [
        D.random_irreducible_chain(rng, rng.choice([2, 3, 4]), 6) for _ in range(20)
    ]


def _line(n, ok, desc, t0):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {n:>2}: {status}  {desc}  ({time.time() - t0:.2f}s)")
    assert ok, f"criterion {n} failed"


def test_criterion_01_normal_form_sound_complete():
    """All F+ words of length <= 5 with indices <= 5: normal-form equality
    coincides with rewriting-closure equality (exhaustive; < 30 s)."""
    t0 = time.time()
    population = [Word(())]
    for length in range(1, 6):
        population.extend(gword(*t) for t in product(range(6), repeat=length))

    class_of = {}
    next_id = 0
    for w in population:
        if w in class_of:
            continue
        for u in M.rewriting_closure(w, index_cap=11):
            class_of[u] = next_id
        next_id += 1

    ok = True
    nf_of_class, nf_to_class = {}, {}
    for w in population:
        nf = M.normal_form_fplus(w)
        cid = class_of[w]
        ok &= nf_of_class.setdefault(cid, nf) == nf  # one class, one form
        ok &= nf_to_class.setdefault(nf, cid) == cid  # one form, one class
        ok &= class_of.get(nf.to_word()) == cid  # the form lies in its class
    elapsed_ok = time.time() - t0 < 30
    _line(1, ok and elapsed_ok, f"{len(population)} words, {next_id} classes", t0)


def test_criterion_02_coin_chain_reproduction():
    """p1=1/2, p2=1/4: q = 1/3, iota* C iota = T, iota* alpha^n iota = T^n
    for n <= 5, all exact (< 1 s)."""
    t0 = time.time()
    ok = PAPER.pi.weights == (F(1, 3), F(2, 3))
    _, coupling = D.build_first_order_dilation(PAPER)
    ok &= coupling.compression_rows() == PAPER.rows
    ok &= coupling_tau(coupling) is not None
    model = D.build_markov_dilation(PAPER, 5)
    for n in range(6):
        ok &= model.compressed_power(n) == kernel_power(PAPER.kernel, n).rows
    elapsed_ok = time.time() - t0 < 1
    _line(2, ok and elapsed_ok, "two-state model reproduced exactly", t0)


def test_criterion_03_dilation_property_at_scale():
    """20 random irreducible rational chains, d <= 4, denominators <= 6:
    iota* alpha^n iota = T^n for n <= 4 and all moments with r <= 3 equal
    path-law moments exactly (< 60 s total)."""
    t0 = time.time()
    ok = True
    for spec in corpus():
        model = D.build_markov_dilation(spec, 4)
        report = D.dilation_property_check(model)
        ok &= all(report.power_ok.values()) and not report.moment_failures
    elapsed = time.time() - t0
    _line(3, ok and elapsed < 60, f"20 chains, elapsed {elapsed:.1f}s < 60s", t0)


def test_criterion_04_fplus_relations():
    """Every constructed tensor representation satisfies
    alpha_k alpha_l = alpha_{l+1} alpha_k for 0 <= k < l <= 4 at all
    levels <= K-2, exactly."""
    t0 = time.time()
    ok = True
    reps = []
    for spec in corpus()[:6] + [PAPER]:
        ns, cpl = D.build_first_order_dilation(spec)
        for delta in (
            R.delta_second_coordinate(ns.space),
            R.delta_first_coordinate(ns.space),
        ):
            reps.append(R.build_fplus_rep(spec.pi, ns.space, cpl.target, delta, 4))
    for rep in reps:
        for k in range(4):
            for l in range(k + 1, 5):
                for m in range(3):
                    good, _ = rep.relation_check(k, l, m)
                    ok &= good
    _line(4, ok, f"{len(reps)} representations, all pairs k < l <= 4", t0)


def test_criterion_05_triangular_tower():
    """All tower cells with indices <= K-1 = 3 are commuting squares,
    including the intersection identity.  Each cell is decided twice: by
    the head lemma (triangular_tower_check), whose premise tower_head_lemma
    decides, and by the four commuting-square conditions on the atoms of
    level 3, which must agree with each other and with the first verdict."""
    t0 = time.time()
    ok = True
    for spec in corpus()[:8] + [PAPER]:
        rep = D.build_markov_dilation(spec, 4).rep
        lemma = R.tower_head_lemma(rep)
        ok &= lemma
        ok &= all(R.triangular_tower_check(rep).values())
        w = rep.gspace.level_weights(3)
        for m, n, k in product(range(4), range(1, 4), range(1, 3)):
            if m >= n or n + k > 3:
                continue
            p0, p2 = (rep.shifted_partition(rep.intersected_fixed_points(t, 3 - k), k, 3) for t in (m, n))
            atoms = commuting_square_check(w, p0, rep.intersected_fixed_points(m + k, 3), p2)
            ok &= atoms.all_agree and atoms.is_commuting_square == lemma
    _line(5, ok, "tower cells + intersections, lemma = four conditions on the atoms", t0)


def test_criterion_06_definetti_suite():
    """Every corpus chain: maximal partial spreadability AND the Markov
    sequence check pass; on the lumped fixture partial spreadability passes
    while maximality and Markovianity both fail."""
    t0 = time.time()
    ok = True
    for spec in corpus():
        view = C.ProcessView.from_model(D.build_markov_dilation(spec, 4))
        ok &= C.maximal_ps_check(view).passed
        ok &= C.markov_sequence_check(view).passed

    obj = json.loads((FIXTURES / "lumped_3to2.json").read_text())
    lspec = D.ChainSpec.from_dict(obj)
    lumped = C.ProcessView.from_model(D.build_markov_dilation(lspec, 4)).lump(
        obj["lump_map"]
    )
    ok &= C.partial_spreadability_check(lumped).passed
    mx = C.maximal_ps_check(lumped)
    ok &= not [e for e in mx.entries if e.check == "maximality"][0].ok
    mk = C.markov_sequence_check(lumped)
    ok &= not mk.entries[0].ok and bool(mk.entries[0].witness)
    _line(6, ok, "20 chains maximal+Markov; lumped fixture strict", t0)


def test_criterion_07_hierarchy_strictness():
    """The coin chain is stationary and partially spreadable up to horizon 5
    but not spreadable (explicit witness); the i.i.d. chain with the same
    marginal is exchangeable; spreadable and exchangeable verdicts coincide
    on every tested instance."""
    t0 = time.time()
    h = C.hierarchy_check(D.build_markov_dilation(PAPER, 5))
    ok = h.stationary and bool(h.partially_spreadable)
    ok &= not h.spreadable and "spreadability" in h.witnesses
    ok &= not h.exchangeable
    ok &= h.report.passed

    iid = D.ChainSpec.from_rows([[F(1, 3), F(2, 3)], [F(1, 3), F(2, 3)]])
    hi = C.hierarchy_check(D.build_markov_dilation(iid, 5))
    ok &= hi.exchangeable and hi.spreadable and hi.stationary

    for spec in corpus()[:8]:
        hx = C.hierarchy_check(D.build_markov_dilation(spec, 4))
        ok &= hx.spreadable == hx.exchangeable
        ok &= hx.report.passed
    _line(7, ok, f"witness: {h.witnesses.get('spreadability')}", t0)


def test_criterion_08_intertwining():
    """alpha_k Q_n = Q_{n+1} alpha_k exactly for all k < n <= 3 on every
    constructed representation."""
    t0 = time.time()
    ok = True
    for spec in corpus()[:8] + [PAPER]:
        model = D.build_markov_dilation(spec, 4)
        for n in range(1, 4):
            for k in range(n):
                good, _ = R.intertwining_check(model.rep, k, n)
                ok &= good
    _line(8, ok, "all pairs k < n <= 3 on 9 representations", t0)


def test_criterion_09_extended_monoid_derivations():
    """derive EF+ k l and ES+ k l succeed for all 0 <= k < l <= 3, each
    trace replayable and relation-valid step by step."""
    t0 = time.time()
    ok = True
    for kind in ("EF+", "ES+"):
        for k in range(4):
            for l in range(k + 1, 4):
                trace = M.extended_relation_check(kind, k, l)
                ok &= trace.validate()
                fam = "h" if kind == "ES+" else "g"
                ok &= trace.end == Word(
                    (("c", l + 1), (fam, l + 1), ("c", k), (fam, k))
                )
    _line(9, ok, "EF+/ES+ derivations replay exactly", t0)


def test_criterion_10_mutation_sensitivity():
    """Corrupting one entry of the coupling or the noise pairing makes at
    least one of criteria 2-6 fail with a concrete witness."""
    t0 = time.time()
    ok = True

    # (a) swap the targets of two equal-mass atoms across fibers: the model
    # still exists but its transition operator is no longer T
    _, cpl = D.build_first_order_dilation(PAPER)
    bad_target = cpl.target.copy()
    bad_target[0, 2], bad_target[1, 0] = bad_target[1, 0], bad_target[0, 2]
    bad = D.CouplingMap(cpl.base, cpl.noise, bad_target)
    ok &= bad.compression_rows() != PAPER.rows
    model = D.build_markov_dilation(PAPER, 3, bad)
    report = D.dilation_property_check(model)
    ok &= not report.power_ok[1]

    # (b) a single-entry change of the noise pairing is rejected with a
    # witness before any check can be fooled
    ns, cpl = D.build_first_order_dilation(PAPER)
    delta = R.delta_second_coordinate(ns.space).copy()
    delta[0, 0] = (delta[0, 0] + 2) % ns.space.n
    try:
        R.build_fplus_rep(PAPER.pi, ns.space, cpl.target, delta, 3)
        ok = False
    except ValueError as e:
        ok &= "delta" in str(e)

    # (c) a single-entry change of the bijection tau breaks its invariants
    perm = coupling_tau(cpl).copy()
    perm[0] = perm[1]
    try:
        validate_perm(cpl, perm)
        ok = False
    except ValueError:
        pass
    _line(10, ok, "single-entry mutations all detected with witnesses", t0)
