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

import numpy as np

from . import _kernels as kern
from .finprob import (
    FinSpace,
    Partition,
    commuting_square_check,
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
        self.ensure(horizon)
        self.base_num = base.weight_numerators()
        self.base_den = base.denominator
        self.noise_num = noise.weight_numerators()
        self.noise_den = noise.denominator
        self._weights: dict[int, np.ndarray] = {}

    def level_size(self, m: int) -> int:
        return self.d * self.nc**m

    def ensure(self, m: int):
        if self.level_size(m) > self.budget:
            raise AtomBudgetError(
                f"level-{m} atom count {self.level_size(m)} exceeds budget {self.budget}"
            )

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
        """Integer weight numerators over level_denominator(m)."""
        if m not in self._weights:
            self.ensure_weights(m)
            w = self.base_num.astype(np.int64)
            for _ in range(m):
                w = (w[:, None] * self.noise_num[None, :]).reshape(-1)
            self._weights[m] = w
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
    _tower_cache: dict = field(default_factory=dict, repr=False)
    _classes_cache: dict = field(default_factory=dict, repr=False)  # delta_hat bytes -> G
    _relations_cache: dict = field(default_factory=dict, repr=False)  # horizon -> (ok, witness)

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

    def state_preservation_check(self, n: int, m: int) -> bool:
        """Pushforward of the level-(m+1) state under eta_n is the level-m
        state.  It holds for every state-preserving (c_map, delta) the CLI
        accepts; `rep-check` keeps it as an implementation check on eta."""
        g = self.gspace
        sums = kern.group_sum(self.eta(n, m), g.level_weights(m + 1), g.level_size(m))
        return bool(np.array_equal(sums, g.level_weights(m) * g.noise_den))

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

    def relations(self, K: int):
        """monoid_relations_check(self, K), decided once per horizon and
        kept: the monoid-relations entry and every representation premise
        at that horizon read this one decision."""
        if K not in self._relations_cache:
            self._relations_cache[K] = monoid_relations_check(self, K)
        return self._relations_cache[K]

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

        where G is the classes of {delta(u, v) ~ u} on the noise atoms.
        The closed form is read off the cached eta_n table once a compare
        shows that the table is (head, delta_hat(x, y), tail) for an onto
        delta_hat; any other table, and n = 0 or n > level, is glued by
        union-find.
        """
        key = (min(n, level + 1), level)
        if key not in self._fix_cache:
            u = self.eta(n, level)
            part = self._closed_form_fixed_points(u, n, level) if 1 <= n <= level else None
            if part is None:
                v = self.drop_last(level)
                part = Partition._from_canonical(
                    *kern.union_components(self.gspace.level_size(level), u, v)
                )
            self._fix_cache[key] = part
        return self._fix_cache[key]

    def _closed_form_fixed_points(self, table, n: int, level: int) -> Partition | None:
        """fix(n) at the level as discrete(head) × G(c_n) × one tail block,
        or None where the eta_n table does not factor as the lemma reads it."""
        g = self.gspace
        nc = g.nc
        heads, tail = g.level_size(n - 1), nc ** (level - n)
        cube = table.reshape(heads, nc, nc, tail)
        dhat = cube[0, :, :, 0] // tail
        if set(dhat.reshape(-1).tolist()) != set(range(nc)):  # onto the noise atoms
            return None
        if not np.array_equal(table, _merged(heads, dhat, tail)):
            return None
        # every eta_n table of a built model factors through the same delta_hat,
        # so G is found once; a planted or corrupted table keys its own entry
        key = dhat.tobytes()
        if key not in self._classes_cache:
            self._classes_cache[key] = _noise_classes(dhat)
        classes, nclasses = self._classes_cache[key]
        labels = np.arange(heads, dtype=np.int64)[:, None, None] * nclasses + classes[:, None]
        return Partition._from_canonical(
            np.broadcast_to(labels, (heads, nc, tail)).reshape(-1), heads * nclasses
        )

    def intersected_fixed_points(self, n: int, level: int) -> Partition:
        """The tower algebra M_n = ∩_{k>=n+1} M^{alpha_k} at a level; indices
        beyond the horizon act as the identity and add no constraint.

        A level's tower is folded downward once and cached: M_top is
        discrete, M_{top-1} = fix(top) and M_n = M_{n+1} ∧ fix(n+1).  Where
        fix(n+1) coarsens M_{n+1} the meet is fix(n+1) itself and is not
        computed.  For every PointRep, fix(k) at level L is discrete(a, c_1
        … c_{k-1}) × G(c_k) × one block on (c_{k+1} … c_L) (proved in
        fixed_point_partition), which coarsens fix(k+1); so M_n = fix(n+1)
        and no level is met.  Partitions that are not nested (planted in
        the cache, say) are met.
        """
        top = min(self.gspace.K, level)
        if level not in self._tower_cache:
            self._tower_cache[level] = [Partition.discrete(self.gspace.level_size(level))]
        tower = self._tower_cache[level]  # tower[i] is M_{top-i}
        while len(tower) <= top - n:
            k = top + 1 - len(tower)
            fix = self.fixed_point_partition(k, level)
            tower.append(fix if k == top or fix.coarsens(tower[-1]) else tower[-1].meet(fix))
        return tower[max(top - n, 0)]

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
    witness) naming the first failing instance.  Below horizon 2 no level
    is decided, so the horizon is refused.  For k < l, eta_k and eta_{l+1}
    merge disjoint slot pairs, so the relations hold for every
    state-preserving (c_map, delta) the CLI accepts; the check is kept as
    an implementation check on the eta tables every other check reads."""
    if K < 2:
        raise ValueError(f"the monoid relations need horizon >= 2; got {K}")
    for k in range(K):
        for l in range(k + 1, K + 1):
            for m in range(K - 1):
                good, atom = rep.relation_check(k, l, m)
                if not good:
                    return False, f"alpha_{k} alpha_{l} != alpha_{l+1} alpha_{k} at level-{m+2} atom {atom}"
    return True, None


def _reads_head_levels(rep: PointRep, k: int, n: int, tail: int) -> bool:
    """True where eta_k from level K onto K-1 is eta_k from level n+1 onto n
    times the identity on the `tail` = nc^(K-1-n) points of c_{n+2} … c_K,
    and fix(n) at level K-1 and fix(n+1) at level K are their head-level
    partitions, constant along the tail."""
    K = rep.gspace.K
    full = rep.eta(k, K - 1).reshape(-1, tail)
    if not np.array_equal(full, rep.eta(k, n)[:, None] * tail + np.arange(tail)):
        return False
    return all(
        (rep.fixed_point_partition(t, level).labels.reshape(-1, tail)
         == rep.fixed_point_partition(t, t).labels[:, None]).all()
        for t, level in ((n, K - 1), (n + 1, K))
    )


def intertwining_check(rep: PointRep, k: int, n: int):
    """Check alpha_k Q_n = Q_{n+1} alpha_k on level-(K-1) atom indicators.

    Q_n is the conditional expectation onto the fixed-point algebra of the
    n-th represented generator.  Returns (ok, witness_or_None).

    The identity is decided on levels (n, n+1).  For k < n, eta_k reads
    only (a, c_1 … c_{k+1}), and fix(n) at level L is fix(n) at level n
    times one block on c_{n+1} … c_L (see fixed_point_partition).  The
    level weights are head weights times tail weights, so every count and
    weight the check compares on levels (K-1, K) is its head-level value
    times a positive factor of the tail, the same on both sides.  The
    identity holds on (K-1, K) iff it holds on (n, n+1), and head atom h
    is the first failing atom h·T of the full level, T = nc^(K-1-n), as
    blocks keep their first-atom order.  Compares of the cached tables
    show the factoring on every call; where it fails, levels K-1 and K are
    read.
    """
    K = rep.gspace.K
    if not 0 <= k < n:
        raise ValueError("the intertwining identity is only claimed for k < n")
    if n > K - 1:
        raise ValueError("n must stay below the horizon")
    g = rep.gspace
    lo, scale = K - 1, 1
    tail = g.nc ** (K - 1 - n)
    if tail > 1 and _reads_head_levels(rep, k, n, tail):
        lo, scale = n, tail
    hi = lo + 1
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
        return False, f"left side is not measurable along the right at atom {y * scale}"

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
        return False, f"some source atom reaches no mass in target block {b}"

    idx = _products_equal(j, w_bn[bn.labels[x_of_t]], w_lo[x_of_t], w_bn1[b_of_t])
    if idx is not None:
        return False, f"projection weights differ at atom {int(first_t[idx]) * scale}"
    return True, None


def intertwining_identities_check(rep: PointRep):
    """Decide alpha_k Q_n = Q_{n+1} alpha_k for every 0 <= k < n < K, the
    horizon of rep.  Returns (ok, witness) naming the first failing (k, n).
    Below horizon 2 there is no such pair, so the horizon is refused.  It
    passes on every state-preserving (c_map, delta) the CLI accepts and is
    kept as an implementation check on the eta tables."""
    K = rep.gspace.K
    if K < 2:
        raise ValueError(f"the intertwining identities need horizon >= 2; got {K}")
    for n in range(1, K):
        for k in range(n):
            good, w = intertwining_check(rep, k, n)
            if not good:
                return False, f"k={k}, n={n}: {w}"
    return True, None


@dataclass(frozen=True)
class TowerReport:
    """`cells[(m, n, k)]`: the cell commutes; `intersections[n]`, n < L-1:
    M_{n+1} ∩ alpha_0(M_{n+1}) = alpha_0(M_n).  A cell is True by the lemma
    that (q0, q1, q0) with q0 ⊂ q1 commutes, once tail tests show it is its
    head cell scaled, or by the four conditions on the atoms."""

    cells: dict
    intersections: dict

    @property
    def passed(self) -> bool:
        return all(self.cells.values()) and all(self.intersections.values())


def _head_factor(part: Partition, nc: int, level: int, h: int, s: int) -> Partition | None:
    """The partition q of the head (a, c_1 … c_h) with part = q × (the
    discrete partition of c_{h+1} … c_s) on the given level, constant
    beyond c_s; None where part does not factor so.  Reshapes and compares
    test it, and only the head-sized column is canonicalized."""
    cube = part.labels.reshape(-1, nc ** (s - h), nc ** (level - s))
    if not np.array_equal(cube, np.broadcast_to(cube[:, :, :1], cube.shape)):
        return None
    grid = cube[:, :, 0]
    q = Partition(grid[:, 0])
    if part.nblocks != q.nblocks * grid.shape[1]:
        return None
    return q if np.array_equal(grid, grid[q.first][q.labels]) else None


def triangular_tower_check(rep: PointRep) -> TowerReport:
    """Verify that every cell (M_{m+k} ⊃ alpha_0^k(M_m); M_{n+k} ⊃
    alpha_0^k(M_n)) in the shifted tower is a commuting square, plus the
    intersection identities M_{n+1} ∩ alpha_0(M_{n+1}) = alpha_0(M_n).
    Generation by the M_n holds by construction (M_L is discrete at level L).

    Cell (m, n, k) reads p0 = alpha_0^k(M_m), p1 = M_{m+k} and p2 =
    alpha_0^k(M_n) on level L = K-1, with head (a, c_1 … c_h), h = m + k.
    The level weights are the level-h weights times those of the tail
    slots.  So where the tail tests pass (p0 = q0 and p1 = q1 constant
    along the tail; p2 = q2 × the discrete partition of c_{h+1} … c_{n+k},
    constant beyond), each commuting-square condition on the level is its
    condition on the head triple (q0, q1, q2) times one tail factor.  Where
    also q2 = q0 ⊂ q1, the head triple (q0, q1, q0) is a commuting square,
    as E_{q1} E_{q0} = E_{q0}, and the cell is True.  Every other cell goes
    to commuting_square_check on the level's atoms, which also refuses a
    cell whose p0 is not coarser than p1 and p2.  The tail tests are
    reshapes and compares of the level labels.  The intersections keep
    their atom-level meets for n < L-1; at n = L-1 both sides are the top
    of level L-1 pulled back, so that one holds on every PointRep."""
    g = rep.gspace
    level = g.K - 1
    cells = {}
    intersections = {}
    towers = {t: rep.intersected_fixed_points(t, level) for t in range(level)}
    shifted: dict[tuple[int, int], Partition] = {}
    heads: dict[tuple[int, int, int, int], Partition | None] = {}

    def alpha_shift(t: int, k: int) -> Partition:
        if (t, k) not in shifted:
            low = rep.intersected_fixed_points(t, level - k)
            shifted[(t, k)] = rep.shifted_partition(low, k, level)
        return shifted[(t, k)]

    def on_head(t: int, k: int, h: int, s: int) -> Partition | None:
        """alpha_0^k(M_t), or M_t for k = 0, factored as in _head_factor."""
        if (t, k, h, s) not in heads:
            part = alpha_shift(t, k) if k else towers[t]
            heads[(t, k, h, s)] = _head_factor(part, g.nc, level, h, s)
        return heads[(t, k, h, s)]

    for m in range(level + 1):
        for n in range(m + 1, level + 1):
            for k in range(1, level - n + 1):
                h = m + k
                q0, q1, q2 = on_head(m, k, h, h), on_head(h, 0, h, h), on_head(n, k, h, n + k)
                lemma = q0 is not None and q1 is not None and q0 == q2 and q0.coarsens(q1)
                cells[(m, n, k)] = lemma or commuting_square_check(
                    g.level_weights(level), alpha_shift(m, k), towers[h], alpha_shift(n, k)
                ).is_commuting_square

    for n in range(level - 1):
        lhs = towers[n + 1].meet(alpha_shift(n + 1, 1))
        intersections[n] = lhs == alpha_shift(n, 1)
    return TowerReport(cells, intersections)


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
    rep.gspace.ensure(K + 1)  # fixed points at level K read one level up
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
