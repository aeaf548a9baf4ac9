"""Constructive tensor dilation of a finite-state stationary Markov chain.

The chain's transition matrix is realized as the compression of a coupling
acting on (state space) x (noise space): the noise interval [0,1] is cut at
the row cut points only (the compact noise), so that every row distribution
is a union of atoms, and the coupling sends atom (a, c) to the state
prescribed by the piece containing c.  Amplifying over fresh noise slots
gives the graded endomorphism whose compressions are exactly the matrix
powers, and whose random-variable sequence has the chain's path law.

The state-preserving assignment is all the model consumes.  Where the atom
masses of the compact noise allow it, the coupling is also realized as a
measure-preserving bijection of (state x noise) atoms (the map tau, fixing
the diagonal pieces pointwise); tau is searched on the compact noise only,
and only when it is asked for.
A bijective refinement does not exist for every chain: if some state flows
entirely into a single state of different stationary mass, every candidate
atom image must shrink by a fixed ratio, which no finite atom set supports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import lcm

import numpy as np

from . import _kernels as kern
from .finprob import FinSpace, MarkovKernel, Partition
from .rationals import parse_rational
from .rep import (
    GradedSpace,
    PointRep,
    build_fplus_rep,
    delta_second_coordinate,
)


@dataclass(frozen=True)
class ChainSpec:
    """A d-state transition matrix with its (unique, faithful) stationary state."""

    kernel: MarkovKernel

    def __post_init__(self):
        if self.kernel.source != self.kernel.target:
            raise ValueError("chain kernel must be square")

    @property
    def d(self) -> int:
        return self.kernel.d

    @property
    def pi(self) -> FinSpace:
        return self.kernel.source

    @property
    def rows(self):
        return self.kernel.rows

    @staticmethod
    def from_rows(rows, pi=None) -> "ChainSpec":
        """The chain on the given rows.  Its stationary state is always
        solved for, so a chain whose stationary state is not unique is
        refused even when `pi` is given; a given `pi` must equal it."""
        rows = tuple(tuple(parse_rational(x) for x in r) for r in rows)
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("transition matrix must be square")
        solved = stationary_distribution(rows)
        if pi is not None and tuple(parse_rational(p) for p in pi) != solved:
            raise ValueError("given pi is not the stationary distribution of T")
        space = FinSpace(solved)
        return ChainSpec(MarkovKernel(rows, space, space))

    @staticmethod
    def coin(p1, p2) -> "ChainSpec":
        """The two-state chain [[1-p1, p1], [p2, 1-p2]]."""
        p1, p2 = parse_rational(p1), parse_rational(p2)
        return ChainSpec.from_rows([[1 - p1, p1], [p2, 1 - p2]])

    @staticmethod
    def from_dict(obj) -> "ChainSpec":
        rows = obj["T"]
        d = obj.get("d", len(rows))
        if type(d) is not int:
            raise ValueError("field d must be an integer")
        if len(rows) != d:
            raise ValueError("field d disagrees with the matrix size")
        return ChainSpec.from_rows(rows, obj.get("pi"))


def stationary_distribution(rows) -> tuple[Fraction, ...]:
    """The unique strictly positive solution of pi T = pi, sum(pi) = 1.

    Rejects kernels whose stationary vector is non-unique or touches zero,
    since the construction needs a faithful state.
    """
    d = len(rows)
    # exact RREF nullspace of (T^t - I)
    a = [[Fraction(rows[i][j]) - Fraction(int(i == j)) for i in range(d)] for j in range(d)]
    pivots = []
    r = 0
    for c in range(d):
        piv = next((i for i in range(r, d) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(d):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(d) if c not in pivots]
    if len(free) != 1:
        raise ValueError("stationary distribution is not unique")
    sol = [Fraction(0)] * d
    sol[free[0]] = Fraction(1)
    for row, c in zip(a, pivots):
        sol[c] = -row[free[0]]
    total = sum(sol)
    if total == 0:
        raise ValueError("degenerate stationary solution")
    pi = tuple(x / total for x in sol)
    if any(p <= 0 for p in pi):
        raise ValueError("stationary distribution is not strictly positive")
    return pi


# ---------------------------------------------------------------------------
# noise space and coupling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseSpace:
    """A finite interval partition of [0,1] with rational lengths as weights."""

    space: FinSpace
    cuts: tuple[Fraction, ...]

    @staticmethod
    def from_cuts(cuts) -> "NoiseSpace":
        pts = sorted({Fraction(c) for c in cuts if 0 < Fraction(c) < 1})
        bounds = [Fraction(0)] + pts + [Fraction(1)]
        return NoiseSpace(
            FinSpace(tuple(b - a for a, b in zip(bounds, bounds[1:]))), tuple(pts)
        )

    @property
    def n(self):
        return self.space.n

    def intervals(self):
        bounds = (Fraction(0),) + self.cuts + (Fraction(1),)
        return tuple(zip(bounds, bounds[1:]))


@dataclass(frozen=True)
class CouplingMap:
    """First-order coupling of a chain: for every (state, noise atom) the
    state it flows to, with lambda(flow-to-j pieces of row a) = T[a][j].

    ``target`` is the dual of a state-preserving homomorphism and is what
    every model construction consumes.  ``tau()`` searches, on demand, for a
    mass-preserving bijection of the (state x noise) atoms realizing the
    flow (an automorphism of the product space).
    """

    base: FinSpace
    noise: NoiseSpace
    target: np.ndarray  # (d, nc) -> state

    def tau(self) -> np.ndarray | None:
        """The bijection tau, flat (d * nc) -> flat (d * nc), validated, or
        None where the atom masses do not tie out."""
        perm = _try_perm(self.base.weights, self.noise.space.weights, self.target)
        if perm is not None:
            self.validate_perm(perm)
        return perm

    def compression_rows(self) -> tuple:
        """Raw rows of iota* C iota recovered from the piece masses."""
        d, nc = self.target.shape
        lam = self.noise.space.weights
        rows = []
        for a in range(d):
            row = [Fraction(0)] * d
            for c in range(nc):
                row[int(self.target[a, c])] += lam[c]
            rows.append(tuple(row))
        return tuple(rows)

    def compression(self) -> MarkovKernel:
        return MarkovKernel(self.compression_rows(), self.base, self.base)

    def validate_perm(self, perm) -> None:
        """Raise unless perm is a mass-preserving bijection of the atoms that
        sends every atom into its own piece."""
        d, nc = self.target.shape
        flat = np.asarray(perm, dtype=np.int64)
        if sorted(flat.tolist()) != list(range(d * nc)):
            raise ValueError("perm is not a bijection")
        lam = self.noise.space.weights
        pi = self.base.weights
        for i in range(d):
            for c in range(nc):
                j, c2 = divmod(int(flat[i * nc + c]), nc)
                if j != int(self.target[i, c]):
                    raise ValueError(f"perm sends ({i},{c}) off its piece")
                if pi[i] * lam[c] != pi[j] * lam[c2]:
                    raise ValueError(f"perm does not preserve the mass of ({i},{c})")


def _row_cut_points(rows):
    cuts = set()
    for row in rows:
        acc = Fraction(0)
        for x in row[:-1]:
            acc += x
            cuts.add(acc)
    return cuts


def _piece_assignment(rows, noise: NoiseSpace) -> np.ndarray:
    """Which state each (row, atom) flows to; atoms must refine the row cuts."""
    d = len(rows)
    out = np.empty((d, noise.n), dtype=np.int64)
    for a in range(d):
        bounds = []
        acc = Fraction(0)
        for x in rows[a]:
            acc += x
            bounds.append(acc)
        for c, (lo, hi) in enumerate(noise.intervals()):
            # zero-mass pieces are skipped: their right edge equals lo
            j = next(t for t, b in enumerate(bounds) if b > lo)
            if hi > bounds[j]:
                raise ValueError("noise atoms do not refine the row pieces")
            out[a, c] = j
    return out


def _try_perm(pi, lam, target) -> np.ndarray | None:
    """Mass-class matching: a bijection exists iff, for every target fiber,
    the incoming atom masses tie out with the fiber's own atom masses.
    Diagonal atoms are fixed pointwise first."""
    d, nc = target.shape
    receivers: dict[tuple[int, Fraction], list[int]] = {}
    for j in range(d):
        for c in range(nc):
            receivers.setdefault((j, pi[j] * lam[c]), []).append(j * nc + c)
    sources: dict[tuple[int, Fraction], list[int]] = {}
    diag = []
    for i in range(d):
        for c in range(nc):
            j = int(target[i, c])
            if j == i:
                diag.append(i * nc + c)
            else:
                sources.setdefault((j, pi[i] * lam[c]), []).append(i * nc + c)
    perm = np.full(d * nc, -1, dtype=np.int64)
    for flat in diag:  # tau is the identity on the diagonal pieces
        perm[flat] = flat
        i, c = divmod(flat, nc)
        receivers[(i, pi[i] * lam[c])].remove(flat)
    for key, srcs in sources.items():
        rec = receivers.get(key, [])
        if len(rec) < len(srcs):
            return None
        for s, t in zip(srcs, rec[: len(srcs)]):
            perm[s] = t
        del rec[: len(srcs)]
    if any(rest for rest in receivers.values()):
        return None
    return perm


def build_first_order_dilation(spec: ChainSpec) -> tuple[NoiseSpace, CouplingMap]:
    """Cut the noise interval at the row cut points (the compact noise: the
    smallest atom count and weight denominators) and assemble the coupling.
    The bijection tau is searched only when CouplingMap.tau is called."""
    rows = spec.rows
    nspace = NoiseSpace.from_cuts(_row_cut_points(rows))
    target = _piece_assignment(rows, nspace)
    coupling = CouplingMap(spec.pi, nspace, target)
    if coupling.compression_rows() != rows:
        raise AssertionError("coupling does not compress to the chain matrix")
    return nspace, coupling


# ---------------------------------------------------------------------------
# the amplified model
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SupportLaw:
    """A law on its support: distinct value columns, each with its positive
    weight numerator over den.  A marginal lists its columns in
    lexicographic order, so two marginals are one law iff they are equal."""

    values: np.ndarray  # values[t, j] is the t-th variable on column j
    weights: np.ndarray
    den: int

    def marginal(self, ks) -> "SupportLaw":
        """The law at positions ks, in ks order: columns sorted, equal ones summed."""
        rows = self.values[list(ks)]
        order = np.lexsort(rows[::-1])
        rows = rows[:, order]
        starts = np.nonzero(np.concatenate(([True], (rows[:, 1:] != rows[:, :-1]).any(axis=0))))[0]
        return SupportLaw(rows[:, starts], np.add.reduceat(self.weights[order], starts), self.den)

    def __eq__(self, other) -> bool:
        same = self.values.shape == other.values.shape and self.den == other.den
        return same and bool((self.values == other.values).all() and (self.weights == other.weights).all())


@dataclass(frozen=True)
class PathTable:
    """The law of X_0 .. X_K, or of a lumped f(X_0) .. f(X_K), on its
    support: one point per path, in the order of its first level-K atom
    (the least atom on which the process takes that path), weighted by its
    level-K mass.  Every law of X_0 .. X_K is its `marginal`.  It is built
    slot by slot from c_map and lambda (_state_paths), never from level K."""

    first: np.ndarray  # the first level-K atom of each path
    values: np.ndarray  # values[k, p] is X_k on path p
    weights: np.ndarray  # path weight numerators over den, which they sum to
    den: int  # the level-K denominator

    def marginal(self, ks) -> SupportLaw:
        """The law of (X_k)_{k in ks} on its support: paths have positive mass."""
        values = self.values.astype(np.min_scalar_type(self.values.max()))  # small types sort by radix
        return SupportLaw(values, self.weights, self.den).marginal(ks)


def path_table(rep: PointRep, value_map, nvals: int, level: int) -> PathTable:
    """The path table of f(X_0) .. f(X_K), f = value_map taking the base
    atoms to nvals values.  f groups the paths of X (_state_paths) by one
    canonicalize call per time over the support and one group_sum.  Each
    group keeps the least first atom of its paths, which come in first-atom
    order, so the groups do too."""
    states = _state_paths(rep, level)
    values = np.asarray(value_map, dtype=np.int64)[states.values]
    labels = np.zeros(values.shape[1], dtype=np.int64)
    for row in values:
        labels, ngroups = kern.canonicalize(labels * nvals + row)
    lead = Partition._from_canonical(labels, ngroups).first
    weights = kern.group_sum(labels, states.weights, ngroups)
    return PathTable(states.first[lead], values[:, lead], weights, states.den)


def _state_paths(rep: PointRep, level: int) -> PathTable:
    """The path table of the states X_0 .. X_level, one noise slot at a time.

    X_k = c_map(X_{k-1}, c_k) reads slot c_k alone and never delta, so by
    the product lemma the atoms of a path (a, b_1 .. b_level) are the
    product of the slot sets {c : c_map(b_{k-1}, c) = b_k}.  Its weight is
    pi(a) times the step masses S(b_{k-1}, b_k), the lambda mass of that
    set, and its first atom takes the least c of each set.  Each step
    extends every path by the successors of its last state in the order of
    their least c, so the paths stay in first-atom order.  The states of
    each step are kept in the smallest unsigned type and read back along
    the parent links at the end."""
    g = rep.gspace
    d, nc = g.d, g.nc
    rows, slots = np.repeat(np.arange(d), nc), np.tile(np.arange(nc), d)
    cols = rep.c_map.reshape(-1)
    step = kern.group_sum(rows * d + cols, g.noise_num[slots], d * d).reshape(d, d)
    least = np.full((d, d), nc, dtype=np.int64)  # nc where b is no successor of a
    np.minimum.at(least, (rows, cols), slots)
    small = np.min_scalar_type(max(d - 1, 0))
    succ = np.argsort(least, axis=1).astype(small)  # successors first, by least c
    nsucc = (least < nc).sum(axis=1)
    last = np.arange(d).astype(small)
    first = np.arange(d, dtype=np.int64)
    weights = g.base_num.astype(np.int64)
    states, parents = [last], []
    for _ in range(level):
        count = nsucc[last]
        parent = np.repeat(np.arange(len(last)), count)
        rank = np.arange(len(parent)) - np.repeat(np.cumsum(count) - count, count)
        prev = last[parent]
        last = succ[prev, rank]
        first = first[parent] * nc + least[prev, last]
        weights = weights[parent] * step[prev, last]
        states.append(last)
        parents.append(parent)
    values = np.empty((level + 1, len(last)), dtype=np.int64)
    path = np.arange(len(last))
    for k in range(level, -1, -1):
        values[k] = states[k][path]
        if k:
            path = parents[k - 1][path]
    return PathTable(first, values, weights, g.level_denominator(level))


@dataclass
class ProcessModel:
    """A chain amplified over K fresh noise slots, carrying the full
    monoid representation whose 0-th generator is the time evolution."""

    spec: ChainSpec
    rep: PointRep
    K: int

    @property
    def gspace(self) -> GradedSpace:
        return self.rep.gspace

    @cached_property
    def paths(self) -> PathTable:
        """The path table of X_0 .. X_K, built on first use."""
        return _state_paths(self.rep, self.K)

    def compressed_power(self, n: int) -> tuple:
        """iota* alpha^n iota as an exact d x d matrix, read off the law of
        (X_0, X_n) on the path table by one group_sum."""
        d, table = self.spec.d, self.paths
        key = table.values[0] * d + table.values[n]
        num = kern.group_sum(key, table.weights, d * d).reshape(d, d)
        pi = self.spec.pi.weights
        return tuple(tuple(Fraction(int(num[a, j]), table.den) / pi[a] for j in range(d)) for a in range(d))


def build_markov_dilation(
    spec: ChainSpec,
    horizon: int,
    coupling: CouplingMap | None = None,
    budget: int = 2_000_000,
) -> ProcessModel:
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if coupling is None:
        _, coupling = build_first_order_dilation(spec)
    noise = coupling.noise.space
    rep = build_fplus_rep(
        spec.pi,
        noise,
        coupling.target,
        delta_second_coordinate(noise),
        horizon,
        budget=budget,
    )
    return ProcessModel(spec, rep, horizon)


# ---------------------------------------------------------------------------
# path law and the dilation property
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathLaw:
    """Exact chain path probabilities: P(s) = pi[s0] T[s0,s1] ... T[s_,sK]."""

    num: np.ndarray  # shape (d,)*(K+1)
    den: int

    def prob(self, path) -> Fraction:
        return Fraction(int(self.num[tuple(path)]), self.den)

    def marginal(self, ks):
        """Sum out all coordinates except those in ks (kept in given order)."""
        kept = sorted(ks)
        out = self.num.sum(axis=tuple(t for t in range(self.num.ndim) if t not in kept))
        # after summing, the kept axes sit in sorted order
        return np.transpose(out, axes=[kept.index(k) for k in ks]), self.den


def path_law(spec: ChainSpec, horizon: int) -> PathLaw:
    pi_num = np.array(spec.pi.weight_numerators(), dtype=np.int64)
    t_num, t_den = _transition_numerators(spec)
    t_num = t_num.astype(np.int64)
    den = spec.pi.denominator * t_den**horizon
    if not kern.fits_int64(den):
        raise OverflowError("path-law denominator exceeds int64")
    arr = pi_num.copy()
    for _ in range(horizon):
        arr = arr[..., :, None] * t_num
    return PathLaw(arr, den)


@dataclass(frozen=True)
class DilationReport:
    power_ok: dict
    moment_failures: tuple


def dilation_property_check(model: ProcessModel) -> DilationReport:
    """iota* alpha^n iota = T^n for n <= K, and model moments of basis
    indicators equal path-law expectations.

    The moments are decided on the support of the model's path table: each
    path s on it must have weights[s] / level_den = pi(s_0) prod T(s_k,
    s_{k+1}), compared in exact integers over pi_den D^K, D the common
    denominator of T.  The weights sum to the level denominator, so where
    every path of the support passes the chain puts no mass off it.  The
    failures are the first five failing paths, ((0, .., K), path), in
    first-atom order.  State preservation is decided once, when the
    model's PointRep is built."""
    spec, K = model.spec, model.K
    power_ok = {
        n: all(x * den == y for row, nrow in zip(model.compressed_power(n), num) for x, y in zip(row, nrow))
        for n, (num, den) in enumerate(_transition_powers(spec, K))
    }
    table = model.paths
    t_num, t_den = _transition_numerators(spec)
    chain = np.array(spec.pi.weight_numerators(), dtype=object)[table.values[0]]
    for k in range(K):
        chain = chain * t_num[table.values[k], table.values[k + 1]]
    lhs = table.weights.astype(object) * (spec.pi.denominator * t_den**K)
    bad = np.flatnonzero(lhs != chain * table.den)[:5]
    paths = (tuple(int(v) for v in table.values[:, b]) for b in bad)
    return DilationReport(power_ok, tuple((tuple(range(K + 1)), p) for p in paths))


def _transition_numerators(spec: ChainSpec):
    """T as exact integer numerators (an object array) over the least common
    denominator of its entries."""
    t_den = lcm(*(x.denominator for row in spec.rows for x in row))
    return np.array([[int(x * t_den) for x in row] for row in spec.rows], dtype=object), t_den


def _transition_powers(spec: ChainSpec, horizon: int):
    """T^n for 0 <= n <= horizon as exact integer numerators over D^n, D the
    common denominator of T: one object-dtype matrix product per step, with
    no rational arithmetic."""
    t_num, t_den = _transition_numerators(spec)
    num = np.identity(spec.d, dtype=object)
    for n in range(horizon + 1):
        if n:
            num = t_num @ num
        yield num, t_den**n


# ---------------------------------------------------------------------------
# random chains
# ---------------------------------------------------------------------------


def random_irreducible_chain(rng: random.Random, d: int, max_den: int = 6) -> ChainSpec:
    """A random irreducible chain with entry denominators bounded by max_den
    and a unique strictly positive stationary distribution."""
    while True:
        rows = []
        for _ in range(d):
            den = rng.randint(2, max_den)
            cuts = sorted(rng.randint(0, den) for _ in range(d - 1))
            parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
            rng.shuffle(parts)
            rows.append([Fraction(p, den) for p in parts])
        if not _strongly_connected(rows):
            continue
        try:
            return ChainSpec.from_rows(rows)
        except ValueError:
            continue


def _strongly_connected(rows) -> bool:
    d = len(rows)

    def reach(start, transpose):
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in range(d):
                x = rows[v][u] if transpose else rows[u][v]
                if x > 0 and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    return len(reach(0, False)) == d and len(reach(0, True)) == d
