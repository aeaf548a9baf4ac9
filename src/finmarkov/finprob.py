"""Finite commutative probability spaces with exact rational states.

Atoms carry strictly positive Fraction weights summing to 1 (faithfulness).
Unital subalgebras correspond exactly to partitions of the atom set, which
makes conditional expectations weighted block averages and lets operator
identities like E_P E_Q = E_R reduce to block-weight identities checked in
exact integer arithmetic.

The checks take subalgebras as Partitions and weights as plain arrays, so
the same code serves both desk-size spaces and the large graded level
spaces built in :mod:`finmarkov.rep`.  A Partition counts its blocks when it
is built and finds the first atom of each block once, on first use, so no
check recounts or rescans the labels it is given.  Weight numerators are
int64 over a common denominator; comparisons that multiply weights are done
in int64 only when a bound shows the products fit, else on object (big-int)
arrays, so no intermediate result is ever rounded or overflowed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from . import _kernels as kern
from .rationals import common_denominator, numerators_over, parse_rational


@dataclass(frozen=True)
class FinSpace:
    """Finite atom space with a faithful rational state."""

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.weights:
            raise ValueError("empty atom space")
        if any(w <= 0 for w in self.weights):
            raise ValueError("state must be faithful: all weights positive")
        if sum(self.weights) != 1:
            raise ValueError(f"weights sum to {sum(self.weights)}, not 1")

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def denominator(self) -> int:
        return common_denominator(self.weights)

    def weight_numerators(self) -> np.ndarray:
        num = numerators_over(self.weights, self.denominator)
        if not kern.fits_int64(self.denominator, self.n):
            raise OverflowError("weights too fine for int64 numerators")
        return np.array(num, dtype=np.int64)

    @staticmethod
    def from_rationals(items) -> "FinSpace":
        return FinSpace(tuple(parse_rational(x) for x in items))

    @staticmethod
    def uniform(n: int) -> "FinSpace":
        return FinSpace((Fraction(1, n),) * n)

    def element(self, values) -> "AlgebraElement":
        return AlgebraElement(self, tuple(parse_rational(v) for v in values))

    def state(self, f: "AlgebraElement") -> Fraction:
        return sum(w * v for w, v in zip(self.weights, f.values))


@dataclass(frozen=True)
class AlgebraElement:
    """A rational-valued function on the atoms of a FinSpace."""

    space: FinSpace
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != self.space.n:
            raise ValueError("value vector does not match atom count")

    def __add__(self, other):
        self._same_host(other)
        return AlgebraElement(self.space, tuple(a + b for a, b in zip(self.values, other.values)))

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._same_host(other)
            return AlgebraElement(
                self.space, tuple(a * b for a, b in zip(self.values, other.values))
            )
        q = parse_rational(other)
        return AlgebraElement(self.space, tuple(q * a for a in self.values))

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + (-1) * other

    def _same_host(self, other):
        if other.space is not self.space and other.space != self.space:
            raise ValueError("elements live on different spaces")

    def state(self) -> Fraction:
        return self.space.state(self)


class Partition:
    """A partition of n atoms, canonically labeled 0..k-1 by first occurrence.

    Stands for the unital subalgebra of functions constant on its blocks; the
    one-block partition is the scalars.
    """

    def __init__(self, labels):
        labels = np.asarray(labels, dtype=np.int64)
        if len(labels) == 0:
            raise ValueError("empty partition")
        self.labels, self.nblocks = kern.canonicalize(labels)
        self.n = len(self.labels)

    @classmethod
    def _from_canonical(cls, labels, nblocks: int) -> "Partition":
        """Wrap labels that are already canonical, such as the kernels
        return, without sorting them a second time."""
        part = cls.__new__(cls)
        part.labels, part.nblocks, part.n = labels, nblocks, len(labels)
        return part

    @cached_property
    def first(self) -> np.ndarray:
        """The first atom of each block, found on first use by the scan that
        also refuses labels that are not canonical."""
        return _first_occurrence(self.labels, self.nblocks)

    @staticmethod
    def from_blocks(blocks, n: int) -> "Partition":
        labels = np.full(n, -1, dtype=np.int64)
        for b, idxs in enumerate(blocks):
            for i in idxs:
                if not 0 <= i < n:
                    raise ValueError(f"atom index {i} out of range")
                if labels[i] != -1:
                    raise ValueError(f"atom {i} in two blocks")
                labels[i] = b
        if (labels == -1).any():
            raise ValueError("blocks do not exhaust atoms")
        return Partition(labels)

    @staticmethod
    def trivial(n: int) -> "Partition":
        return Partition(np.zeros(n, dtype=np.int64))

    @staticmethod
    def discrete(n: int) -> "Partition":
        if n < 1:
            raise ValueError("empty partition")
        return Partition._from_canonical(np.arange(n, dtype=np.int64), n)

    def join(self, other: "Partition") -> "Partition":
        """Common refinement: the subalgebra generated by both."""
        return Partition._from_canonical(*kern.pair_canon(self.labels, other.labels))

    def meet(self, other: "Partition") -> "Partition":
        """Finest common coarsening: the intersection subalgebra."""
        return Partition._from_canonical(*meet_labels(self.labels, other.labels))

    def coarsens(self, other: "Partition") -> bool:
        """True if self is coarser than other (every other-block fits in one
        self-block), i.e. the subalgebra of self is contained in other's:
        self's labels are constant on every block of other."""
        return bool(np.array_equal(self.labels, self.labels[other.first][other.labels]))

    def refines(self, other: "Partition") -> bool:
        return other.coarsens(self)

    def __eq__(self, other):
        return isinstance(other, Partition) and np.array_equal(self.labels, other.labels)

    def __hash__(self):
        return hash(self.labels.tobytes())

    def __repr__(self):
        return f"Partition({self.nblocks} blocks on {self.n} atoms)"


# ---------------------------------------------------------------------------
# label/weight primitives (shared with the graded-space machinery)
# ---------------------------------------------------------------------------


def _first_occurrence(labels, nblocks):
    """Index of the first atom of each block of canonical labels: block b
    first appears where the running maximum rises to b."""
    labels = np.asarray(labels)
    runmax = np.maximum.accumulate(labels)
    first = np.flatnonzero(np.diff(runmax, prepend=-1))
    # canonical iff no label is negative and the maximum climbs from -1 to
    # nblocks - 1 in nblocks rises, i.e. in steps of one
    if len(first) != nblocks or runmax[-1] != nblocks - 1 or labels.min() < 0:
        raise ValueError(f"labels are not canonical for {nblocks} blocks")
    return first


def meet_labels(a, b):
    """Finest common coarsening of two labelings (connected block graph):
    its canonical labels and block count."""
    n = len(a)
    edges_u, edges_v = [], []
    for lab in (np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)):
        order = np.argsort(lab, kind="stable")
        same = lab[order][1:] == lab[order][:-1]
        edges_u.append(order[:-1][same])
        edges_v.append(order[1:][same])
    return kern.union_components(n, np.concatenate(edges_u), np.concatenate(edges_v))


def join_labels(a, b):
    labels, _ = kern.pair_canon(a, b)
    return labels


def _max_abs(x) -> int:
    return max(abs(int(x.max(initial=0))), abs(int(x.min(initial=0))))


def _products_equal(a, b, c, d):
    """Exact test a[i]*b[i] == c[i]*d[i]; returns index of first failure.

    The products are formed in int64 when max|a|·max|b| and max|c|·max|d|
    provably fit, else on object (big-int) arrays."""
    a, b, c, d = (np.asarray(x) for x in (a, b, c, d))
    if kern.fits_int64(_max_abs(a) * _max_abs(b)) and kern.fits_int64(_max_abs(c) * _max_abs(d)):
        dtype = np.int64
    else:
        dtype = object
    lhs = a.astype(dtype) * b.astype(dtype)
    rhs = c.astype(dtype) * d.astype(dtype)
    bad = np.flatnonzero(lhs != rhs)
    return int(bad[0]) if len(bad) else None


def block_weight_sums(labels, nblocks, wnum):
    """Block sums of nonnegative weights.  No block sum exceeds the total,
    so the sums are refused only when the exact total does not fit int64;
    the bound max * len is tried first because it needs no summing."""
    if not kern.fits_int64(int(wnum.max(initial=0)), len(wnum)):
        if not kern.fits_int64(int(wnum.sum(dtype=object)), margin=1):
            raise OverflowError("weight sums exceed int64")
    return kern.group_sum(labels, wnum, nblocks)


def cond_independence_given(r: Partition, p: Partition, q: Partition, wnum):
    """Check E_R(xy) = E_R(x)E_R(y) for all block indicators x of p, y of q.

    Equivalent block form: for every r-block R and blocks b of p, c of q,
    W(b∩c∩R)·W(R) = W(b∩R)·W(c∩R), and every (b,c) pair meeting R does so
    jointly.  Returns (ok, witness_or_None).
    """
    rp, rq = r.join(p), r.join(q)
    rpq = rp.join(q)

    w_r = block_weight_sums(r.labels, r.nblocks, wnum)
    w_rp = block_weight_sums(rp.labels, rp.nblocks, wnum)
    w_rq = block_weight_sums(rq.labels, rq.nblocks, wnum)
    w_rpq = block_weight_sums(rpq.labels, rpq.nblocks, wnum)

    r_of_t = r.labels[rpq.first]
    rp_of_t = rp.labels[rpq.first]
    rq_of_t = rq.labels[rpq.first]

    # joint-occurrence completeness per r-block
    np_r = kern.group_count(r.labels[rp.first], r.nblocks)
    nq_r = kern.group_count(r.labels[rq.first], r.nblocks)
    npq_r = kern.group_count(r_of_t, r.nblocks)
    bad = np.nonzero(npq_r != np_r * nq_r)[0]
    if len(bad):
        return False, f"blocks of p and q miss each other inside r-block {int(bad[0])}"

    idx = _products_equal(w_rpq, w_r[r_of_t], w_rp[rp_of_t], w_rq[rq_of_t])
    if idx is not None:
        atom = int(rpq.first[idx])
        return False, f"factorization fails on the triple containing atom {atom}"
    return True, None


def cexp_product_equals(p: Partition, q: Partition, r: Partition, wnum, atoms=None, pq=None):
    """Check the operator identity E_P E_Q = E_R on the whole space.

    Necessarily r coarsens p and q; then the identity holds iff inside every
    r-block all p-blocks and q-blocks intersect with the product-weight rule
    W(b∩c)·W(R) = W(b)·W(c).  Returns (ok, witness_or_None).  When the
    space is a quotient, atoms[i] is the atom a witness names for point i.
    A caller that holds the join p ∨ q passes it as `pq`.
    """
    if not r.coarsens(p):
        return False, "target partition does not coarsen the left factor"
    if not r.coarsens(q):
        return False, "target partition does not coarsen the right factor"

    pq = p.join(q) if pq is None else pq
    w_p = block_weight_sums(p.labels, p.nblocks, wnum)
    w_q = block_weight_sums(q.labels, q.nblocks, wnum)
    w_r = block_weight_sums(r.labels, r.nblocks, wnum)
    w_pq = block_weight_sums(pq.labels, pq.nblocks, wnum)

    r_of_t = r.labels[pq.first]
    np_r = kern.group_count(r.labels[p.first], r.nblocks)
    nq_r = kern.group_count(r.labels[q.first], r.nblocks)
    npq_r = kern.group_count(r_of_t, r.nblocks)
    bad = np.nonzero(npq_r != np_r * nq_r)[0]
    if len(bad):
        return False, (
            f"a left and a right block inside r-block {int(bad[0])} are disjoint"
        )

    idx = _products_equal(
        w_pq, w_r[r_of_t], w_p[p.labels[pq.first]], w_q[q.labels[pq.first]]
    )
    if idx is not None:
        t = pq.first[idx]
        atom = int(t if atoms is None else atoms[t])
        return False, f"weight identity fails on the pair containing atom {atom}"
    return True, None


def cexp_image_labels(p: Partition, q: Partition, wnum, pq=None):
    """Labels of the partition generated by E_P applied to all q-block
    indicators.

    Two p-blocks are identified iff their conditional rows over q-blocks are
    proportional; canonical rows are gcd-reduced integer vectors sorted by
    q-block.  The labels of p must be canonical, as those of a Partition
    built from raw labels always are.  A caller that holds the join p ∨ q
    passes it as `pq`.
    """
    p.first  # raises unless the labels of p are canonical
    pq = p.join(q) if pq is None else pq
    w_pq = block_weight_sums(pq.labels, pq.nblocks, wnum)
    p_of_t = p.labels[pq.first]
    q_of_t = q.labels[pq.first]

    # the (q, w) pairs of each p-block, contiguous and sorted by q; every
    # p-block meets some q-block, so no row is empty
    order = np.lexsort((q_of_t, p_of_t))
    counts = kern.group_count(p_of_t, p.nblocks)
    starts = np.cumsum(counts) - counts
    w = w_pq[order]
    g = np.gcd.reduceat(w, starts)
    rows = np.stack((q_of_t[order], w // np.repeat(g, counts)), axis=1)
    # a row's key is the bytes of its (q, w/g) slice: rows sharing a prefix
    # but not a length give keys of different length
    raw = rows.tobytes()
    bounds = (np.append(starts, pq.nblocks) * rows.strides[0]).tolist()
    keys = {}
    block_key = np.array(
        [keys.setdefault(raw[s:e], len(keys)) for s, e in zip(bounds[:-1], bounds[1:])],
        dtype=np.int64,
    )
    # keys are numbered in block order, and the blocks of canonical labels
    # first occur in that order, so the image labels are canonical as built
    return block_key[p.labels]


def cexps_commute(p: Partition, q: Partition, wnum):
    """Check E_P E_Q = E_Q E_P.

    Both are state-symmetric idempotents, so they commute iff their product
    is the conditional expectation onto the intersection algebra M_P ∩ M_Q,
    i.e. onto the meet partition.
    """
    return cexp_product_equals(p, q, p.meet(q), wnum)


@dataclass(frozen=True)
class CommutingSquareReport:
    factorization: bool
    product_collapse: bool
    image_equals_base: bool
    commute_and_meet: bool
    witnesses: tuple

    @property
    def is_commuting_square(self) -> bool:
        return self.factorization

    @property
    def all_agree(self) -> bool:
        return (
            self.factorization
            == self.product_collapse
            == self.image_equals_base
            == self.commute_and_meet
        )


def commuting_square_check(wnum, p0: Partition, p1: Partition, p2: Partition) -> CommutingSquareReport:
    """Evaluate the four equivalent commuting-square conditions independently.

    `wnum` holds the integer weight numerators of the atoms.  Requires
    M_0 ⊂ M_1 ∩ M_2, i.e. p0 coarser than p1 and p2.  The four conditions
    are computed by different routes; their agreement on every instance is
    itself part of what the test suite verifies.  (ii), (iii) and (iv)
    share one join p1 ∨ p2; (i) builds its own joins.
    """
    wnum = np.asarray(wnum, dtype=np.int64)
    if not (p0.coarsens(p1) and p0.coarsens(p2)):
        raise ValueError("commuting square needs p0 coarser than p1 and p2")

    ok_i, wit_i = cond_independence_given(p0, p1, p2, wnum)
    p12 = p1.join(p2)
    ok_ii, wit_ii = cexp_product_equals(p1, p2, p0, wnum, pq=p12)
    ok_iii = bool(np.array_equal(cexp_image_labels(p1, p2, wnum, p12), p0.labels))
    wit_iii = None if ok_iii else "image algebra differs from the base"
    # (iv) as in cexps_commute, with its one meet also compared to the base
    meet = p1.meet(p2)
    commute, wit_iv = cexp_product_equals(p1, p2, meet, wnum, pq=p12)
    ok_iv = commute and meet == p0
    if ok_iv:
        wit_iv = None
    elif wit_iv is None:
        wit_iv = "intersection algebra differs from the base"
    return CommutingSquareReport(
        ok_i, ok_ii, ok_iii, ok_iv, (wit_i, wit_ii, wit_iii, wit_iv)
    )


# ---------------------------------------------------------------------------
# Markov kernels between finite spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarkovKernel:
    """A state-compatible stochastic matrix T: (source, psi) -> (target, phi).

    Rows index target atoms when the map is read on functions:
    (T b)(i) = sum_j T[i][j] b(j).  Conditions: entries nonnegative, rows sum
    to 1, and phi∘T = psi.  States here are tracial, so no further modular
    condition has content.
    """

    rows: tuple[tuple[Fraction, ...], ...]
    source: FinSpace
    target: FinSpace

    def __post_init__(self):
        if len(self.rows) != self.target.n:
            raise ValueError("row count must match target atom count")
        for row in self.rows:
            if len(row) != self.source.n:
                raise ValueError("column count must match source atom count")
            if any(x < 0 for x in row):
                raise ValueError("negative kernel entry")
            if sum(row) != 1:
                raise ValueError("kernel row does not sum to 1")
        for j in range(self.source.n):
            got = sum(self.target.weights[i] * self.rows[i][j] for i in range(self.target.n))
            if got != self.source.weights[j]:
                raise ValueError("state compatibility phi∘T = psi fails")

    @staticmethod
    def square(rows, state: FinSpace) -> "MarkovKernel":
        rows = tuple(tuple(parse_rational(x) for x in r) for r in rows)
        return MarkovKernel(rows, state, state)

    @property
    def d(self) -> int:
        return self.source.n

    def __call__(self, f: AlgebraElement) -> AlgebraElement:
        if f.space != self.source:
            raise ValueError("element not on the source space")
        vals = tuple(
            sum(self.rows[i][j] * f.values[j] for j in range(self.source.n))
            for i in range(self.target.n)
        )
        return AlgebraElement(self.target, vals)


# ---------------------------------------------------------------------------
# local filtrations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiltrationReport:
    isotone: bool
    markov_m: dict
    markov_m_prime: dict
    locally_minimal: bool
    witnesses: tuple

    @property
    def is_markov(self) -> bool:
        return self.isotone and all(self.markov_m_prime.values())

    @property
    def lemma_consistent(self) -> bool:
        """Saturated implies plain Markov; minimal + plain implies saturated."""
        saturated = all(self.markov_m_prime.values())
        plain = all(self.markov_m.values())
        if saturated and not plain:
            return False
        if self.locally_minimal and plain and not saturated:
            return False
        return True


def local_filtration_markov_check(family, horizon: int, wnum, atoms=None) -> FiltrationReport:
    """Exact Markov-property check of an interval-indexed partition family.

    `family(m, n)` must return the Partition for the interval [m, n] within
    [0, horizon]; the half-line [n, ∞) is truncated to [n, horizon].  Checks
    isotony, condition (M) for 1 <= n <= horizon-1, condition (M') for
    0 <= n <= horizon, and local minimality for overlapping unions.  When
    the family lives on a quotient whose points are numbered in first-atom
    order, atoms[i] is the first atom of point i, and witnesses name it.
    """
    wnum = np.asarray(wnum, dtype=np.int64)
    K = horizon
    parts = {}
    for m in range(K + 1):
        for n in range(m, K + 1):
            parts[(m, n)] = family(m, n)

    witnesses = []
    isotone = True
    for (m, n), p in parts.items():
        for (m2, n2) in ((m - 1, n), (m, n + 1)):
            if 0 <= m2 and n2 <= K and not parts[(m2, n2)].refines(p):
                isotone = False
                witnesses.append(f"isotony fails: [{m},{n}] vs [{m2},{n2}]")

    markov_m = {}
    for n in range(1, K):
        left = parts[(0, n - 1)].join(parts[(n, n)])
        right = parts[(n, n)].join(parts[(n + 1, K)])
        ok, wit = cexp_product_equals(left, right, parts[(n, n)], wnum, atoms)
        markov_m[n] = ok
        if wit:
            witnesses.append(f"(M) n={n}: {wit}")

    markov_mp = {}
    for n in range(K + 1):
        ok, wit = cexp_product_equals(parts[(0, n)], parts[(n, K)], parts[(n, n)], wnum, atoms)
        markov_mp[n] = ok
        if wit:
            witnesses.append(f"(M') n={n}: {wit}")

    # the join is symmetric and A_I ∨ A_I = A_I, so each unordered pair of
    # distinct intervals is decided once
    minimal = True
    for i, j in itertools.combinations(parts, 2):
        (m, n), (m2, n2) = i, j
        if m2 > n + 1 or m > n2 + 1:
            continue  # union is not an interval
        u = (min(m, m2), max(n, n2))
        if u in (i, j):
            # nested: A_I ∨ A_U = A_U iff A_U refines A_I
            minimal = parts[u].refines(parts[j if u == i else i])
        else:
            minimal = parts[i].join(parts[j]) == parts[u]
        if not minimal:
            break
    return FiltrationReport(isotone, markov_m, markov_mp, minimal, tuple(witnesses))
