"""Graded point-map representations of the monoids F+ and S+ on truncated
tensor products of finite probability spaces.

The infinite tensor product A ⊗ C ⊗ C ⊗ ... is modeled by its finite stages:
``level m`` is the product atom space A × C^m with product weights.  A
represented generator with index n is stored through its dual point maps
eta_n: level_{m+1} -> level_m (the algebra map raises the tensor length by
one, its dual consumes one coordinate).  Generators with index beyond the
current level act as the plain cylinder embedding, which keeps every
horizon-truncated statement exact.

In every representation alpha_0 couples the base to the first noise slot
through a state-preserving map c_map: A x C -> A, and alpha_n (n >= 1)
merges noise slots (n-1, n) through delta: C x C -> C.  The S+
representation, where beta_n inserts a unit tensor factor in slot n and its
dual deletes coordinate n, is the case c_map(a, c) = a and delta(x, y) = x:
the S+ representation pulled back along F+ ->> S+.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _kernels as kern
from .finprob import (
    FinSpace,
    Partition,
    local_filtration_markov_check,
    _products_equal,
)


class AtomBudgetError(RuntimeError):
    pass


class GradedSpace:
    """Truncated tensor-product atom spaces A x C^m for 0 <= m <= K.

    Atom ids are mixed-radix integers: the base-space atom is the most
    significant digit, noise coordinates follow in slot order.
    """

    def __init__(self, base: FinSpace, noise: FinSpace, horizon: int, budget: int = 2_000_000):
        self.base = base
        self.noise = noise
        self.K = horizon
        self.budget = budget
        self.d = base.n
        self.nc = noise.n
        self.base_num = base.weight_numerators()
        self.base_den = base.denominator
        self.noise_num = noise.weight_numerators()
        self.noise_den = noise.denominator
        self._weights: dict[int, np.ndarray] = {0: self.base_num.astype(np.int64)}
        self.ensure_weights(horizon)  # every level up to the horizon fits the budget and int64

    def level_size(self, m: int) -> int:
        return self.d * self.nc**m

    def ensure(self, m: int):
        # with nc >= 2 a level above budget.bit_length() holds at least
        # 2^m > budget atoms, so its size is never computed
        if (self.nc >= 2 and m > self.budget.bit_length()) or self.level_size(m) > self.budget:
            raise AtomBudgetError(f"level-{m} atom count exceeds budget {self.budget}")

    def ensure_weights(self, m: int):
        """Refuse level m unless its atoms fit the budget and its weight
        numerators fit int64."""
        self.ensure(m)
        # numerators sum to the denominator, so the denominator itself is the
        # only quantity that must stay clear of int64
        if not kern.fits_int64(self.level_denominator(m)):
            raise OverflowError(
                "level weights exceed int64; refine the chain or lower the horizon"
            )

    def level_denominator(self, m: int) -> int:
        return self.base_den * self.noise_den**m

    def level_weights(self, m: int) -> np.ndarray:
        """Integer weight numerators over level_denominator(m).  The cache
        holds levels 0 .. top: each level is built from the one below it,
        so reading every level up to K costs K products."""
        if m >= len(self._weights):
            self.ensure_weights(m)
            for k in range(len(self._weights), m + 1):
                self._weights[k] = (self._weights[k - 1][:, None] * self.noise_num[None, :]).reshape(-1)
        return self._weights[m]

    def base_coord(self, ids, m: int):
        return ids // self.nc**m


def _pushforward_ok(table, src_num, src_den, dst_num, dst_den):
    """Exact check that the point map pushes the source weights to the target."""
    if src_den % dst_den:
        return False
    sums = kern.group_sum(table.reshape(-1), src_num.reshape(-1), len(dst_num))
    return bool(np.array_equal(sums, dst_num.astype(np.int64) * (src_den // dst_den)))


@dataclass
class PointRep:
    """A family of measure-pushforward point maps realizing represented
    monoid generators on a GradedSpace."""

    gspace: GradedSpace
    c_map: np.ndarray  # (d, nc) -> base atom
    delta: np.ndarray  # (nc, nc) -> noise atom
    _eta_cache: dict = field(default_factory=dict, repr=False)
    _fix_cache: dict = field(default_factory=dict, repr=False)
    _window_cache: dict = field(default_factory=dict, repr=False)  # window -> its verdict

    def __post_init__(self):
        g = self.gspace
        self.c_map = np.asarray(self.c_map, dtype=np.int64)
        self.delta = np.asarray(self.delta, dtype=np.int64)
        if self.c_map.shape != (g.d, g.nc):
            raise ValueError("c_map must be a (base x noise) atom table")
        if self.delta.shape != (g.nc, g.nc):
            raise ValueError("delta must be a (noise x noise) atom table")
        for name, table, size in (("c_map", self.c_map, g.d), ("delta", self.delta, g.nc)):
            if table.min() < 0 or table.max() >= size:
                raise ValueError(f"{name} entries must be atoms in [0, {size})")
        # state preservation: by the product lemma these two pushforwards
        # decide it for every eta_n on every level
        pair_num = g.base_num[:, None] * g.noise_num[None, :]
        if not _pushforward_ok(
            self.c_map, pair_num, g.base_den * g.noise_den, g.base_num, g.base_den
        ):
            raise ValueError("c_map does not push the product state to the base state")
        pair_num = g.noise_num[:, None] * g.noise_num[None, :]
        if not _pushforward_ok(
            self.delta, pair_num, g.noise_den**2, g.noise_num, g.noise_den
        ):
            raise ValueError("delta does not push the product state to the noise state")

    # -- point maps ---------------------------------------------------------

    def eta(self, n: int, m: int) -> np.ndarray:
        """Dual point map of generator n from level m+1 onto level m."""
        g = self.gspace
        g.ensure(m + 1)
        key = (min(n, m + 1), m)
        if key in self._eta_cache:
            return self._eta_cache[key]
        nc = g.nc
        if n == 0:  # (a, c_1) -> c_map(a, c_1)
            out = _merged(1, self.c_map, nc**m)
        elif n <= m:  # (c_n, c_{n+1}) -> delta(c_n, c_{n+1})
            out = _merged(g.level_size(n - 1), self.delta, nc ** (m - n))
        else:  # generator beyond the level: cylinder embedding dual
            out = np.repeat(np.arange(g.level_size(m), dtype=np.int64), nc)
        self._eta_cache[key] = out
        return out

    def drop_last(self, m: int) -> np.ndarray:
        g = self.gspace
        return np.arange(g.level_size(m + 1), dtype=np.int64) // g.nc

    def alpha_pullback(self, word_indices, level: int) -> np.ndarray:
        """Point map of the represented word at the given top level.

        The word acts as the composite algebra map into level `level`; the
        returned table maps level `level` down by len(word) levels, applying
        the dual of the leftmost letter first.
        """
        ids = np.arange(self.gspace.level_size(level), dtype=np.int64)
        lvl = level
        for n in word_indices:
            ids = self.eta(n, lvl - 1)[ids]
            lvl -= 1
        return ids

    def x_table(self, k: int, level: int) -> np.ndarray:
        """Base-space value of the k-th random variable, read at a level."""
        if k > level:
            raise ValueError("random variable index exceeds level")
        ids = self.alpha_pullback([0] * k, level)
        return self.gspace.base_coord(ids, level - k)

    # -- exact structural checks -------------------------------------------

    def relation_check(self, k: int, l: int, m: int):
        """Check alpha_k alpha_l = alpha_{l+1} alpha_k as point maps
        level_{m+2} -> level_m.  Returns (ok, witness_atom_or_None)."""
        if not k <= l:
            raise ValueError("the relation needs k <= l")
        left = self.eta(l, m)[self.eta(k, m + 1)]
        right = self.eta(k, m)[self.eta(l + 1, m + 1)]
        if np.array_equal(left, right):
            return True, None
        return False, int(np.argmax(left != right))

    # -- fixed point algebras ------------------------------------------------

    def fixed_point_partition(self, n: int, level: int) -> Partition:
        """Atoms of level `level` glued along eta_n(y) ~ drop_last(y).

        Functions constant on the resulting blocks are exactly those with
        alpha_n(f) equal to the cylinder extension of f.

        For 1 <= n <= level the blocks have a closed form.  eta_n merges
        slots c_n and c_{n+1} through delta and never reads (a, c_1 …
        c_{n-1}).  Two atoms that differ only in their last slot are both
        glued to one drop-last atom, because delta is onto (it pushes the
        faithful noise state to itself), and the graph on the other slots
        is the same graph one slot shorter.  By induction

            fix(n) = discrete(a, c_1 … c_{n-1}) × G(c_n) × one block on (c_{n+1} … c_L),

        where G is the classes of {delta(u, v) ~ u} on the noise atoms.  It
        is built from delta and the level sizes alone and reads no eta
        table, so fix(n) at level L never builds level L+1.  n = 0 and n >
        level are glued by union-find on the eta_n table.
        """
        key = (min(n, level + 1), level)
        if key not in self._fix_cache:
            if 1 <= n <= level:
                part = self._closed_form_fixed_points(n, level)
            else:
                part = Partition._from_canonical(
                    *kern.union_components(self.gspace.level_size(level), self.eta(n, level), self.drop_last(level))
                )
            self._fix_cache[key] = part
        return self._fix_cache[key]

    @cached_property
    def noise_classes(self):
        """G as (canonical labels, count).  The closed form needs delta
        onto, which the constructor validates; a delta edited after that
        to be not onto is refused."""
        if set(self.delta.reshape(-1).tolist()) != set(range(self.gspace.nc)):
            raise ValueError("delta is not onto the noise atoms")
        return _noise_classes(self.delta)

    def _closed_form_fixed_points(self, n: int, level: int) -> Partition:
        """fix(n) at the level as discrete(head) × G(c_n) × one tail block."""
        g = self.gspace
        heads, tail = g.level_size(n - 1), g.nc ** (level - n)
        classes, nclasses = self.noise_classes
        labels = np.arange(heads, dtype=np.int64)[:, None, None] * nclasses + classes[:, None]
        return Partition._from_canonical(
            np.broadcast_to(labels, (heads, g.nc, tail)).reshape(-1), heads * nclasses
        )

    def intersected_fixed_points(self, n: int, level: int) -> Partition:
        """The tower algebra M_n = ∩_{k>=n+1} M^{alpha_k} at a level; indices
        beyond the horizon act as the identity and add no constraint.

        By fix(k)'s closed form (fixed_point_partition), fix(k) coarsens
        fix(k+1) at every level, so the intersection is its first term:
        M_n = fix(n+1) below min(K, level), and the discrete partition
        from there up.
        """
        if n < min(self.gspace.K, level):
            return self.fixed_point_partition(n + 1, level)
        return Partition.discrete(self.gspace.level_size(level))

    def shifted_partition(self, part: Partition, k: int, level: int) -> Partition:
        """Image algebra alpha_0^k(M) as a partition of the given level;
        `part` must live at level - k."""
        chain = self.alpha_pullback([0] * k, level)
        return Partition(part.labels[chain])


def _merged(heads: int, table, tail: int) -> np.ndarray:
    """The flat point map (h, x, y, t) -> (h, table[x, y], t) on heads × X ×
    Y × tail points, the merged coordinate taking table.shape[1] values:
    eta_n merges two adjacent coordinates and keeps the rest."""
    hs = np.arange(heads, dtype=np.int64)[:, None, None, None]
    out = (hs * table.shape[1] + table[:, :, None]) * tail + np.arange(tail)
    return out.reshape(-1)


def _noise_classes(dhat):
    """G: canonical labels and count of the classes of {delta(u, v) ~ u} on
    the noise atoms.  Each class is labeled by its least atom as the rows
    of the table are merged in one at a time."""
    nc = len(dhat)
    least = np.arange(nc, dtype=np.int64)
    for u in range(nc):
        touched = np.isin(least, least[np.append(dhat[u], u)])
        least[touched] = least[touched].min()
    roots = least == np.arange(nc)
    return (np.cumsum(roots) - 1)[least], int(roots.sum())


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------
#
# The product lemma.  Level L is the product of its slots (a, c_1 … c_L)
# under a product state.  Suppose both sides of an identity touch only the
# slot set W: every eta table it reads carries each slot outside W,
# unchanged, to one slot of its image, and every partition it reads is, on
# such a slot, the same factor on both sides, discrete or one block (as in
# fix(n)'s closed form).  Then every count and weight the identity compares
# on the level is its value on W times a positive factor of the other
# slots, the same on both sides, so the identity holds on the level iff it
# holds on W.  Its failing atoms are those of W with every other slot free,
# so its first failing atom in the mixed-radix order of the level is the
# first failing atom of W with 0 in every other slot (_lift_atom), and its
# first failing block is the block of the lifted first atom of W's.  The
# closed form needs delta onto, which the constructor validates.
#
# Each identity below is decided on the smallest instance with its slot
# pattern, which touches W alone, and each window's verdict is kept per
# representation in PointRep._window_cache.


def _window(rep: PointRep, key, decide):
    """The verdict of the window `key`, decided once per representation."""
    if key not in rep._window_cache:
        rep._window_cache[key] = decide()
    return rep._window_cache[key]


def _lift_atom(atom: int, slots, small: int, level: int, nc: int) -> int:
    """The level-`level` atom whose base is that of the level-`small` atom
    `atom`, whose noise slots `slots` hold its noise slots c_1 … c_small,
    and whose other slots hold 0."""
    out = atom // nc**small * nc**level
    for i, s in enumerate(slots, 1):
        out += atom // nc ** (small - i) % nc * nc ** (level - s)
    return out


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_splus_rep(base: FinSpace, noise: FinSpace, horizon: int, budget: int = 2_000_000) -> PointRep:
    """The S+ representation: the dual of beta_n deletes noise slot n."""
    if horizon < 2:
        raise ValueError("horizon must be at least 2")
    c_map = np.repeat(np.arange(base.n, dtype=np.int64), noise.n).reshape(base.n, noise.n)
    return build_fplus_rep(base, noise, c_map, delta_first_coordinate(noise), horizon, budget)


def build_fplus_rep(
    base: FinSpace,
    noise: FinSpace,
    c_map,
    delta,
    horizon: int,
    budget: int = 2_000_000,
) -> PointRep:
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    return PointRep(GradedSpace(base, noise, horizon, budget), c_map, delta)


def delta_second_coordinate(noise: FinSpace) -> np.ndarray:
    """Dual of x -> 1 ⊗ x; makes alpha_n the partial shift beta_{n-1}."""
    n = noise.n
    return np.tile(np.arange(n, dtype=np.int64), (n, 1))


def delta_first_coordinate(noise: FinSpace) -> np.ndarray:
    """Dual of x -> x ⊗ 1; makes alpha_n the partial shift beta_n."""
    n = noise.n
    return np.repeat(np.arange(n, dtype=np.int64), n).reshape(n, n)


# ---------------------------------------------------------------------------
# relations, intertwining and the triangular tower
# ---------------------------------------------------------------------------


def monoid_relations_check(rep: PointRep, K: int):
    """Decide alpha_k alpha_l = alpha_{l+1} alpha_k for 0 <= k < l <= K as
    point maps level_{m+2} -> level_m for every m < K - 1.  Returns (ok,
    witness) naming the first failing instance in the order k, l, m.  Below
    horizon 2 no level is decided, so the horizon is refused.

    Every instance has the verdict of one of six windows, at most level 4,
    decided by relation_check.  The windows are looped over in the order of
    their first instances, and each is its class's first instance, so the
    first failing window is the first failing instance and its witness atom
    is the window's own.  For k < l, eta_k and eta_{l+1} merge disjoint slot
    pairs, so the relations hold for every state-preserving (c_map, delta)
    the CLI accepts; the check is kept as an implementation check on the eta
    tables of the windows."""
    if K < 2:
        raise ValueError(f"the monoid relations need horizon >= 2; got {K}")
    # eta_k merges (a, c_1) for k = 0 and (c_k, c_{k+1}) otherwise; eta_{l+1}
    # merges (c_{l+1}, c_{l+2}) while l <= m; a generator beyond its level
    # drops the last slot.  Both sides pass every other slot through alike,
    # so with k1 = min(k, 1) the instance (k, l, m) has the slot pattern of
    # (k1, k1+1, k1+1) where l <= m, (k1, k1+1, k1) where k <= m < l,
    # (1, 2, 0) where k = m+1 and (2, 3, 0) where k > m+1.  A window is
    # present at K iff it is an instance there.
    for k, l, m in ((0, 1, 0), (0, 1, 1), (1, 2, 0), (1, 2, 1), (1, 2, 2), (2, 3, 0)):
        if k < K and m < K - 1:
            good, atom = _window(rep, ("relation", k, l, m), lambda: rep.relation_check(k, l, m))
            if not good:
                return False, f"alpha_{k} alpha_{l} != alpha_{l+1} alpha_{k} at level-{m+2} atom {atom}"
    return True, None


def intertwining_check(rep: PointRep, k: int, n: int):
    """Check alpha_k Q_n = Q_{n+1} alpha_k on level-(K-1) atom indicators.

    Q_n is the conditional expectation onto the fixed-point algebra of the
    n-th represented generator.  Returns (ok, witness_or_None).

    The identity compares eta_k from level K onto K-1 with fix(n) at level
    K-1 and fix(n+1) at level K.  By fix(n)'s closed form the slots before
    c_k and c_{k+2} … c_n of level K are discrete in both partitions and
    c_{n+2} … c_K one block in both, and eta_k passes them through.  So by
    the product lemma the identity is decided on the window (a, c_k,
    c_{k+1}, c_{n+1}), or (a, c_1, c_{n+1}) for k = 0: the pair (1, 2), or
    (0, 1), on its own levels (n', n'+1).  Its witness atom is lifted to
    level K, and a witness block is the level-K block of the lifted first
    atom of the window's block.
    """
    K = rep.gspace.K
    if not 0 <= k < n:
        raise ValueError("the intertwining identity is only claimed for k < n")
    if n > K - 1:
        raise ValueError("n must stay below the horizon")
    kw = min(k, 1)
    fail = _window(rep, ("intertwining", kw), lambda: _intertwining_failure(rep, kw, kw + 1))
    if fail is None:
        return True, None
    text, atom, in_block = fail
    atom = _lift_atom(atom, (1, n + 1) if kw == 0 else (k, k + 1, n + 1), kw + 2, K, rep.gspace.nc)
    if in_block:
        atom = int(rep.fixed_point_partition(n + 1, K).labels[atom])
    return False, f"{text} {atom}"


def _intertwining_failure(rep: PointRep, k: int, n: int):
    """alpha_k Q_n = Q_{n+1} alpha_k on levels (n, n+1): None where it
    holds, else (message, first failing atom of level n+1, whether the
    witness is the Q_{n+1}-block of that atom)."""
    g = rep.gspace
    lo, hi = n, n + 1
    w_lo = g.level_weights(lo)
    w_hi = g.level_weights(hi)
    bn = rep.fixed_point_partition(n, lo)
    bn1 = rep.fixed_point_partition(n + 1, hi)
    ek = rep.eta(k, lo)  # level hi -> level lo

    # beta(y) = block of eta_k(y) in Q_n's partition must be constant on
    # every Q_{n+1}-block; then no mass leaves its block either: an atom
    # x = eta_k(y) of block b lies in Q_n-block beta(y) = beta_of_block[b]
    beta = bn.labels[ek]
    beta_of_block = beta[bn1.first]
    if not np.array_equal(beta, beta_of_block[bn1.labels]):
        y = int(np.argmax(beta != beta_of_block[bn1.labels]))
        return "left side is not measurable along the right at atom", y, False

    w_bn = kern.group_sum(bn.labels, w_lo, bn.nblocks)
    w_bn1 = kern.group_sum(bn1.labels, w_hi, bn1.nblocks)

    # joint mass J[x, b] of eta_k^{-1}(x) within each Q_{n+1}-block b
    xb = Partition._from_canonical(*kern.pair_canon(ek, bn1.labels))
    j = kern.group_sum(xb.labels, w_hi, xb.nblocks)
    first_t = xb.first
    x_of_t = ek[first_t]
    b_of_t = bn1.labels[first_t]

    # completeness: every x in the block beta(b) must put mass into b
    blk_sizes = kern.group_count(bn.labels, bn.nblocks)
    seen = kern.group_count(b_of_t, bn1.nblocks)
    if not np.array_equal(seen, blk_sizes[beta_of_block]):
        b = int(np.argmax(seen != blk_sizes[beta_of_block]))
        return "some source atom reaches no mass in target block", int(bn1.first[b]), True

    idx = _products_equal(j, w_bn[bn.labels[x_of_t]], w_lo[x_of_t], w_bn1[b_of_t])
    if idx is not None:
        return "projection weights differ at atom", int(first_t[idx]), False
    return None


def intertwining_identities_check(rep: PointRep):
    """Decide alpha_k Q_n = Q_{n+1} alpha_k for every 0 <= k < n < K, the
    horizon of rep.  Returns (ok, witness) naming the first failing (k, n)
    in the order n, k.  Below horizon 2 there is no such pair, so the
    horizon is refused.  Every pair with k = 0 has the window of (0, 1) and
    every other pair that of (1, 2) (intertwining_check); each of the two is
    the first pair of its class, so they are the only pairs decided.  It
    passes on every state-preserving (c_map, delta) the CLI accepts and is
    kept as an implementation check on the eta tables."""
    K = rep.gspace.K
    if K < 2:
        raise ValueError(f"the intertwining identities need horizon >= 2; got {K}")
    for k, n in ((0, 1), (1, 2))[: K - 1]:  # (1, 2) is a pair from K = 3 on
        good, w = intertwining_check(rep, k, n)
        if not good:
            return False, f"k={k}, n={n}: {w}"
    return True, None


def triangular_tower_check(rep: PointRep) -> dict:
    """Decide the intersection identities M_{n+1} ∩ alpha_0(M_{n+1}) =
    alpha_0(M_n) of the shifted fixed-point tower on level L = K-1, for n <
    L-1.  Returns {n: ok}.  Intersection n has the window of intersection 0
    on level 3 (level 2 where n = L-2): c_2 … c_{n+1} are discrete in all
    three partitions and c_{n+4} … c_L one block in all three.  Generation
    by the M_n holds by construction (M_L is discrete at level L).

    The head lemma: every cell (M_{m+k} ⊃ alpha_0^k(M_m); M_{n+k} ⊃
    alpha_0^k(M_n)), 0 <= m < n and n + k <= L, is a commuting square, so
    no cell is decided on its atoms.  The cell reads p0 = alpha_0^k(M_m),
    p1 = M_{m+k} and p2 = alpha_0^k(M_n) on level L.  By fix(n)'s closed
    form (M_t = fix(t+1)) and the product lemma:

    * c_{k+1} … c_{k+m} are discrete in all three, and are dropped;
    * each slot past c_{k+m} carries a triple that commutes on its own,
      (G, G, discrete), (one, one, discrete), (one, one, G) or (one, one,
      one), so the cell commutes iff its head triple does;
    * the head (a, c_1 … c_k) is level k, where M_t of level 0 is the
      discrete base for every t and M_k of level k is discrete.

    So the head triple is (q0, discrete, q0) with q0 = alpha_0^k of the
    discrete base, and E_discrete E_{q0} = E_{q0}, whatever c_map and delta
    are.  The one premise, that a generator beyond the level fixes only the
    discrete partition, is decided by tower_head_lemma."""
    level = rep.gspace.K - 1
    return {
        n: _window(rep, ("tower-intersection", min(3, level - n)), lambda: _tower_intersection(rep, min(3, level - n)))
        for n in range(level - 1)
    }


def tower_head_lemma(rep: PointRep) -> bool:
    """The premise of the head lemma (triangular_tower_check): a generator
    beyond the level acts as the cylinder embedding, its dual eta_n equal
    to drop_last, so it glues nothing and M_t of level 0 and M_k of level k
    are discrete, as intersected_fixed_points gives them by truncation.
    eta_n beyond level m passes (a, c_1 … c_m) through and drops the last
    slot, so by the product lemma level 0 decides it for every level."""
    return bool(np.array_equal(rep.eta(1, 0), rep.drop_last(0)))


def _tower_intersection(rep: PointRep, level: int) -> bool:
    """M_1 ∩ alpha_0(M_1) = alpha_0(M_0) on the given level."""
    def shifted(t: int) -> Partition:
        return rep.shifted_partition(rep.intersected_fixed_points(t, level - 1), 1, level)

    return rep.intersected_fixed_points(1, level).meet(shifted(1)) == shifted(0)


@dataclass(frozen=True)
class RepFiltration:
    """The interval-indexed family M_[0,n] = M_n, M_[m,m+t] = alpha_0^m(M_t),
    with the half-line truncated to the horizon."""

    partitions: dict
    horizon: int
    report: object

    @property
    def is_markov(self):
        return self.report.is_markov


def filtration_from_rep(rep: PointRep, horizon: int | None = None, m: int = 0, n: int = 0) -> RepFiltration:
    """The filtration read off the representation; with (m, n) it is the
    (m,n)-shifted variant, which relabels the generators it reads as
    g_0 -> g_m and g_k -> g_{n+k}."""
    K = rep.gspace.K if horizon is None else horizon
    parts = {}
    for a in range(K + 1):
        for b in range(a, K + 1):
            if b == K:
                low = Partition.discrete(rep.gspace.level_size(K - a))
            else:
                low = rep.intersected_fixed_points(b - a + n, K - a)
            parts[(a, b)] = Partition(low.labels[rep.alpha_pullback([m] * a, K)]) if a else low
    report = local_filtration_markov_check(
        lambda a, b: parts[(a, b)], K, rep.gspace.level_weights(K)
    )
    return RepFiltration(parts, K, report)
