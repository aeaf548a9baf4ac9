"""Named verifiers for the structural identities of stationary processes:
partial spreadability, the Markov sequence property, the
invariance-principle hierarchy, lumped processes, and the end-to-end de
Finetti suite.

Every check reports a named verdict together with an anchor string naming
the exact identity it decides, and a concrete witness on failure.  All
verdicts are exact; there are no tolerances anywhere.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property

import numpy as np

from . import _kernels as kern
from .dilation import (
    ChainSpec,
    PathTable,
    ProcessModel,
    _transition_powers,
    build_markov_dilation,
    dilation_property_check,
    path_table,
)
from .finprob import FinSpace, Partition, _products_equal, cexp_product_equals
from .rep import (
    PointRep,
    _lift_atom,
    intertwining_identities_check,
    monoid_relations_check,
    tower_head_lemma,
    triangular_tower_check,
)


@dataclass(frozen=True)
class CheckResult:
    check: str
    anchor: str
    ok: bool
    witness: str | None = None
    micros: int | None = None


@dataclass
class VerificationReport:
    """Named verdicts in order.  Each entry is stamped with the wall time
    since the report's previous entry, or since the report was created."""

    entries: list = field(default_factory=list)
    _clock: int = field(default_factory=time.perf_counter_ns, init=False, repr=False, compare=False)

    def add(self, check: str, anchor: str, ok: bool, witness=None):
        now = time.perf_counter_ns()
        self.entries.append(CheckResult(check, anchor, bool(ok), witness, (now - self._clock) // 1000))
        self._clock = now
        return ok

    def extend(self, other: "VerificationReport"):
        """Append the entries of a sub-report with their own stamps."""
        self.entries.extend(other.entries)
        self._clock = time.perf_counter_ns()

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.entries)

    def failures(self):
        return [e for e in self.entries if not e.ok]

    def to_json(self, include_timing: bool = False) -> str:
        out = []
        for e in self.entries:
            item = {"check": e.check, "anchor": e.anchor, "verdict": "pass" if e.ok else "fail"}
            if e.witness:
                item["witness"] = e.witness
            if include_timing and e.micros is not None:
                item["micros"] = e.micros
            out.append(item)
        return json.dumps(out, indent=2)

    def lines(self):
        for e in self.entries:
            mark = "PASS" if e.ok else "FAIL"
            extra = f"  [{e.witness}]" if e.witness else ""
            yield f"{mark}  {e.check}  --  {e.anchor}{extra}"


# ---------------------------------------------------------------------------
# process views
# ---------------------------------------------------------------------------


class ProcessView:
    """A stationary sequence of finite-valued random variables read off a
    graded model: the k-th variable is the base coordinate transported by k
    applications of the time evolution, optionally composed with a function
    of the state space (a lumping).

    Every algebra generated by some of X_0 .. X_K lies inside A_[0,K], so an
    identity among their conditional expectations holds on all functions iff
    it holds on the quotient by A_[0,K]; the interval algebras are built
    there."""

    def __init__(self, rep: PointRep, base: FinSpace, value_map, horizon: int):
        self.rep = rep
        self.base = base  # the value space of the variables
        self.value_map = np.asarray(value_map, dtype=np.int64)
        self.K = horizon
        self._model: ProcessModel | None = None  # set by from_model: its table is the model's
        self._parts: dict = {}

    @staticmethod
    def from_model(model: ProcessModel) -> "ProcessView":
        """The model's own view, which reads the path table the model caches."""
        view = ProcessView(model.rep, model.spec.pi, np.arange(model.spec.d), model.K)
        view._model = model
        return view

    def lump(self, f) -> "ProcessView":
        """The view of f(X_k): value space atoms are merged along f."""
        f = np.asarray(f, dtype=np.int64)
        if len(f) != self.base.n:
            raise ValueError("lumping map must be total on the state space")
        f_canon, nvals = kern.canonicalize(f)
        weights = [Fraction(0)] * nvals
        for i, w in enumerate(self.base.weights):
            weights[int(f_canon[i])] += w
        lumped = FinSpace(tuple(weights))
        return ProcessView(self.rep, lumped, f_canon[self.value_map], self.K)

    def x_table(self, k: int, level: int) -> np.ndarray:
        return self.value_map[self.rep.x_table(k, level)]

    @cached_property
    def quotient(self) -> PathTable:
        """The view's path table: the model's own for a view from_model."""
        model = self._model
        return model.paths if model else path_table(self.rep, self.value_map, self.base.n, self.K)

    def block_partition(self, m: int, n: int) -> Partition:
        """A_[m,n] on the points of the quotient, built by one canonicalize
        call from A_[m+1,K] when n = K and from A_[m,n-1] otherwise, so that
        the filtration's right factors A_[n,K] chain from the right.  The
        chain is walked back in a loop to its last built link, or to A_[j,j]
        = sigma(X_j), and its missing links are built forward from there."""
        values, K = self.quotient.values, self.K
        key, todo = (m, n), []
        while key not in self._parts and key[0] < key[1]:
            todo.append(key)
            key = (key[0] + 1, K) if key[1] == K else (key[0], key[1] - 1)
        if key not in self._parts:
            self._parts[key] = Partition._from_canonical(*kern.canonicalize(values[key[0]]))
        for link in reversed(todo):
            added = values[link[0] if link[1] == K else link[1]]
            labels = self._parts[key].labels * self.base.n + added
            self._parts[link] = Partition._from_canonical(*kern.canonicalize(labels))
            key = link
        return self._parts[key]

    def interval_partition(self, m: int, n: int) -> Partition:
        """A_[m,n] on the level-K atoms: the quotient labels lifted to the
        atoms by the level scan (_atom_paths).  The quotient's points are
        numbered in first-atom order, so the lift of canonical labels is
        canonical.  No check reads it; the tests and the benchmark's tracer
        call it."""
        part = self.block_partition(m, n)
        return Partition._from_canonical(part.labels[self._atom_paths], part.nblocks)

    @cached_property
    def _atom_paths(self) -> np.ndarray:
        """The quotient point of each level-K atom, by a scan of level K:
        X_k is read off one running pullback through eta_0, and A_[0,K]
        refined by it with one canonicalize call, which numbers the paths
        in first-atom order."""
        g, K = self.rep.gspace, self.K
        ids = np.arange(g.level_size(K), dtype=np.int64)
        labels = np.zeros(len(ids), dtype=np.int64)
        for k in range(K + 1):
            if k:
                ids = self.rep.eta(0, K - k)[ids]
            labels, _ = kern.canonicalize(labels * self.base.n + self.value_map[g.base_coord(ids, K - k)])
        return labels


# ---------------------------------------------------------------------------
# partial spreadability
# ---------------------------------------------------------------------------


def partial_spreadability_check(view: ProcessView, horizon=None) -> VerificationReport:
    """Localization (L): alpha_n iota_0 = iota_0 for n >= 1, as an exact
    pullback identity.  Stationarity (S), iota_n = alpha_0^n iota_0, is how
    ProcessView.x_table defines iota_n, so it holds by construction.

    iota_0 reads the base alone and alpha_n, 1 <= n < K, merges (c_n,
    c_{n+1}) against the drop of c_K, so by the product lemma of rep every
    n is decided on the window eta_1 from level 2 onto level 1.  n = 1 is
    the first to fail, and its window atom (a, c_1, c_2) is lifted to level
    K with 0 in c_3 … c_K (rep._lift_atom).

    The definition quantifies over genuine monoid representations, so the
    represented relations are a premise; a corrupted noise map fails here
    even when it still preserves the state.  Their windows are decided once
    per representation (rep._window_cache), so a premise read after another
    on the same representation, as the hierarchy's after the de Finetti
    suite's representation-premise entry, decides nothing again.
    """
    rep, K = view.rep, view.K if horizon is None else horizon
    report = VerificationReport()
    report.add("representation-premise", "the maps alpha_n satisfy the monoid relations", *monoid_relations_check(rep, K))
    x0 = view.x_table(0, 1)
    moved = x0[rep.eta(1, 1)] != x0[rep.drop_last(1)]
    wit = None
    if moved.any():
        y = _lift_atom(int(np.argmax(moved)), (1, 2), 2, K, rep.gspace.nc)
        wit = f"alpha_1 moves iota_0 at atom {y} of level {K}"
    report.add("localization", "alpha_n iota_0 = iota_0 for all n >= 1", wit is None, wit)
    return report


def maximal_ps_check(view: ProcessView) -> VerificationReport:
    """Maximality: the range of iota_0 is the whole intersected fixed-point
    algebra M_0 = ∩_{k>=1} fix(alpha_k), after the partial spreadability
    entries.  On level K the range of iota_0 is the partition by the value
    of the base, and M_0 = fix(1) is discrete(a) × G(c_1); both are one
    block on c_2 … c_K.  So they are compared on level 1, where the block
    counts are those of level K."""
    report = partial_spreadability_check(view)
    range_part = Partition(view.x_table(0, 1))
    m0 = view.rep.intersected_fixed_points(0, 1)
    ok = range_part == m0
    wit = None
    if not ok:
        rel = "strictly coarser than" if range_part.coarsens(m0) else "different from"
        wit = f"iota_0 range has {range_part.nblocks} blocks, M_0 has {m0.nblocks} ({rel} M_0)"
    report.add("maximality", "iota_0(A) = M_0 = ∩_{k>=1} fix(alpha_k)", ok, wit)
    return report


# ---------------------------------------------------------------------------
# Markov sequence property
# ---------------------------------------------------------------------------


def markov_sequence_check(view: ProcessView) -> VerificationReport:
    """E_{A[0,n]} iota_{n+1} = E_{A[n,n]} iota_{n+1} for 0 <= n <= K-1, plus
    the equivalent local-filtration Markov property of the canonical family
    A_[m,n] = sigma(X_m .. X_n).

    The filtration is decided on its K-1 distinct cells
    E_{A[0,n]} E_{A[n,K]} = E_{A[n,n]}, 1 <= n <= K-1, because on a family
    generated by coordinates the rest of local_filtration_markov_check holds
    by construction:

    * A[m-1,n] and A[m,n+1] refine A[m,n] (isotony);
    * A_I ∨ A_J = A_{I∪J} (local minimality);
    * so (M) at n, with left A[0,n-1] ∨ A[n,n] = A[0,n] and right
      A[n,n] ∨ A[n+1,K] = A[n,K], is the same call as (M') at n;
    * (M') at 0 and at K holds because E_P E_Q = E_Q E_P = E_P for P ⊂ Q.

    The verdict and the (M) witnesses are those of the generic check; the
    test suite asserts the lemma on the generic check's report.

    Both properties are decided on the quotient by A_[0,K].  Every tested
    quantity is constant on its blocks, which are numbered in first-atom
    order, so the first atom of the first failing block is the first failing
    atom.

    The sequence property takes a fixed number of array passes per depth n,
    whatever the number d of values.  One keyed sum per side, keyed by
    (block, X_{n+1}), gives the mass of every block of A[0,n], and of
    A[n,n], on every next value; its row sums are the block masses.  A[n,n] is
    coarser than A[0,n], so each past block b lies in the one now-block
    now_of[b], and the identity at (j, b) is
    S_past[b, j] · W_now[now_of[b]] = S_now[now_of[b], j] · W_past[b].
    The (d, nb) array of these is compared in one call; its C-order first
    failure is the least value j, then the least block b, the order of a
    loop over values, and block b's first point is past.first[b].

    Each cell is handed its join: the quotient's points are distinct paths,
    so A[0,n] ∨ A[n,K] = A[0,K] is the discrete partition by the local
    minimality above, built once for all cells."""
    K, d = view.K, view.base.n
    report = VerificationReport()  # first, so the path table's build is charged to markov-sequence
    q = view.quotient
    w = q.weights

    seq_ok, wit = True, None
    for n in range(K):
        past = view.block_partition(0, n)
        now = view.block_partition(n, n)
        nxt = q.values[n + 1]
        s_past = kern.group_sum(past.labels * d + nxt, w, past.nblocks * d).reshape(past.nblocks, d)
        s_now = kern.group_sum(now.labels * d + nxt, w, now.nblocks * d).reshape(now.nblocks, d)
        now_of = now.labels[past.first]
        bad = _products_equal(s_past.T, s_now.sum(axis=1)[now_of], s_now[now_of].T, s_past.sum(axis=1))
        if bad is not None:
            seq_ok = False
            j, b = divmod(bad, past.nblocks)
            x = int(q.first[past.first[b]])
            wit = f"n={n}, value {j}: prediction from the past differs at atom {x}"
            break
    report.add(
        "markov-sequence", "E[0,n] iota_{n+1} = E[n,n] iota_{n+1}", seq_ok, wit
    )

    part, joined = view.block_partition, Partition.discrete(len(w))
    filt_ok, wits = True, []
    for n in range(1, K):
        ok, cell_wit = cexp_product_equals(part(0, n), part(n, K), part(n, n), w, q.first, pq=joined)
        if not ok:
            filt_ok = False
            wits.append(f"(M) n={n}: {cell_wit}")
            if len(wits) == 2:
                break
    report.add(
        "canonical-filtration-markov",
        "E[0,n] E[n,K] = E[n,n] on the canonical local filtration",
        filt_ok,
        "; ".join(wits) or None,
    )
    report.add(
        "markov-equivalence",
        "sequence Markov property coincides with filtration Markov property",
        seq_ok == filt_ok,
    )
    return report


# ---------------------------------------------------------------------------
# invariance-principle hierarchy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HierarchyReport:
    stationary: bool
    spreadable: bool
    exchangeable: bool
    partially_spreadable: bool
    witnesses: dict
    report: VerificationReport


def hierarchy_check(model: ProcessModel, horizon=None) -> HierarchyReport:
    """Decide stationarity, spreadability and exchangeability exactly on the
    law of X_0 .. X_horizon (default horizon model.K), and pass each answer
    iff it equals the chain's closed form, T^2 = T on T's integer
    numerators.  The loader enforces pi T = pi, so the chain is stationary;
    at horizon >= 2 it is spreadable iff exchangeable iff T^2 = T
    (Ryll-Nardzewski and de Finetti).  Below horizon 2 spreadability
    compares no two marginals and exchangeability means reversibility, so
    the horizon is refused.  The path table is sorted once down to the law
    of X_0 .. X_horizon on its support; each window and index set is read
    off the law at it and one more index, each adjacent swap off the whole
    law.  Equal laws on the supports are equal dense laws: every table
    weight is positive, so zero cells are absent on both sides.  The
    partially-spreadable entry reads the monoid relations at `horizon` on
    the representation's windows, each decided once per representation."""
    K = model.K if horizon is None else horizon
    if not 2 <= K <= model.K:
        raise ValueError(f"the hierarchy needs horizon >= 2 and at most the model's {model.K}; got {K}")
    view = ProcessView.from_model(model)
    _, (t, t_den), (t2, _) = _transition_powers(model.spec, 2)
    idempotent = bool((t2 == t * t_den).all())
    rep = VerificationReport()
    full = tuple(range(K + 1))
    witnesses = {}

    @cache
    def law(ks):  # increasing ks, read off ks plus the index before ks[0], else the least one missing
        if ks == full:
            return model.paths.marginal(full)
        sup = tuple(sorted({*ks, ks[0] - 1 if ks[0] else min(set(full) - set(ks))}))
        return law(sup).marginal([sup.index(k) for k in ks])

    def answer(name, holds):
        w = witnesses.get(name)
        return ("yes" if holds else "no") + (f" ({w})" if w else "")

    stationary = True
    for r in range(K):
        base = law(full[: r + 1])
        for m in range(1, K - r + 1):
            if law(full[m : m + r + 1]) != base:
                stationary = False
                witnesses.setdefault("stationarity", f"window [{m},{m+r}] differs from [0,{r}]")
    rep.add("stationary", "all marginal windows shift-invariant, as pi T = pi gives",
            stationary, answer("stationarity", stationary))

    spreadable = True
    for r in range(1, K + 1):
        base = law(full[: r + 1])
        for ks in itertools.combinations(full, r + 1):
            if law(ks) != base:
                spreadable = False
                witnesses.setdefault("spreadability", f"marginal at indices {ks} differs from [0,{r}]")
                break
        if not spreadable:
            break
    rep.add("spreadable", "marginals invariant along increasing reindexings iff T^2 = T",
            spreadable == idempotent, answer("spreadability", spreadable))

    exchangeable = True
    for i in range(K):  # adjacent transpositions generate all permutations
        if law(full).marginal([*range(i), i + 1, i, *range(i + 2, K + 1)]) != law(full):
            exchangeable = False
            witnesses.setdefault("exchangeability", f"law changes under swapping times {i},{i+1}")
            break
    rep.add("exchangeable", "path law invariant under time permutations iff T^2 = T",
            exchangeable == idempotent, answer("exchangeability", exchangeable))

    ps = partial_spreadability_check(view, K).passed
    rep.add("partially-spreadable", "representation premise and localization of iota_0",
            ps, "yes" if ps else "no")
    return HierarchyReport(stationary, spreadable, exchangeable, ps, witnesses, rep)


# ---------------------------------------------------------------------------
# the de Finetti suite
# ---------------------------------------------------------------------------


def definetti_suite(spec: ChainSpec, horizon: int, budget: int = 2_000_000) -> VerificationReport:
    """End-to-end verification for one chain: partial and maximal partial
    spreadability, Markov property, dilation powers and moments, tower and
    intertwining."""
    return definetti_checks(build_markov_dilation(spec, horizon, budget=budget))


def definetti_checks(model: ProcessModel) -> VerificationReport:
    """The de Finetti suite's checks on a built model.  Below horizon 3 the
    tower has no cell, so the model is refused.  State preservation is
    decided once, by the PointRep constructor, which refuses a c_map or
    delta that breaks it; by the product lemma of rep that decides every
    level.  The monoid relations are the representation premise of the
    partial spreadability entries.  The relations, the tower
    intersections and intertwining are decided on their windows alone,
    which the representation's window cache keeps, so a later suite on the
    same model decides none of them again.  triangular-tower decides no
    cell: every cell commutes by the head lemma (triangular_tower_check),
    whose premise tower_head_lemma decides on level 0.  The intersections
    are decided just before their entry, so --timing charges the tower's
    cost there."""
    K = model.K
    if K < 3:
        raise ValueError(f"the de Finetti suite needs horizon >= 3; got {K}")
    report = VerificationReport()
    view = ProcessView.from_model(model)
    report.extend(maximal_ps_check(view))
    report.extend(markov_sequence_check(view))
    add_dilation_entries(report, model)

    report.add(
        "triangular-tower",
        "every shifted fixed-point tower cell is a commuting square",
        tower_head_lemma(model.rep),
    )
    report.add(
        "tower-intersections",
        "M_{n+1} ∩ alpha_0(M_{n+1}) = alpha_0(M_n)",
        all(triangular_tower_check(model.rep).values()),
    )

    ok, wit = intertwining_identities_check(model.rep)
    report.add("intertwining", "alpha_k Q_n = Q_{n+1} alpha_k for k < n", ok, wit)
    return report


def add_dilation_entries(report: VerificationReport, model: ProcessModel):
    """Decide the model's dilation property and add its dilation-powers and
    moments-vs-path-law entries, each naming its first failure.  The n = 1
    power decides that the model's coupling compresses to T."""
    dil = dilation_property_check(model)
    bad_powers = [n for n, ok in sorted(dil.power_ok.items()) if not ok]
    report.add(
        "dilation-powers",
        "T^n = iota* alpha^n iota for 0 <= n <= K",
        not bad_powers,
        f"first failing power {bad_powers[0]}" if bad_powers else None,
    )
    report.add(
        "moments-vs-path-law",
        "model moments equal path-law expectations",
        not dil.moment_failures,
        str(dil.moment_failures[0]) if dil.moment_failures else None,
    )
