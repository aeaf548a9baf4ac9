"""Words and word problems for the Thompson monoid F+, the partial shifts
monoid S+, and the extended monoids EF+/ES+/FF+.

Conventions, fixed once and used everywhere:

* a word reads left to right and denotes the composite applied
  rightmost-letter-first (so ``a b`` means "apply b, then a");
* F+ carries the relations g_k g_l = g_{l+1} g_k for 0 <= k < l,
  S+ the same relations for k <= l.

All defining relations of every monoid here are length-preserving, which
keeps the closure oracles finite.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

import numpy as np

FAMILIES = ("g", "h", "c")

Letter = tuple[str, int]


@dataclass(frozen=True)
class Word:
    """A free word over indexed generators g_i / h_i / c_i."""

    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
        for fam, idx in self.letters:
            if fam not in FAMILIES or type(idx) is not int or idx < 0:
                raise ValueError(f"bad letter ({fam}, {idx!r})")

    @classmethod
    def _trusted(cls, letters: tuple[Letter, ...]) -> "Word":
        """A Word on letters already checked, skipping __post_init__."""
        w = object.__new__(cls)
        object.__setattr__(w, "letters", letters)
        return w

    @staticmethod
    def parse(text: str) -> "Word":
        letters = []
        for tok in text.split():
            fam = tok[0]
            if fam not in FAMILIES or not tok[1:].isdigit():
                raise ValueError(f"bad token {tok!r}")
            letters.append((fam, int(tok[1:])))
        return Word(tuple(letters))

    def __str__(self):
        return " ".join(f"{f}{i}" for f, i in self.letters) if self.letters else "e"

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def families(self):
        return {f for f, _ in self.letters}

    def max_index(self) -> int:
        return max((i for _, i in self.letters), default=0)

    def indices(self):
        return tuple(i for _, i in self.letters)


@dataclass(frozen=True)
class NormalForm:
    """Normal form g_k^{a_k} g_{k-1}^{a_{k-1}} ... g_0^{a_0} of an F+ class.

    Stored as (index, exponent) blocks with strictly decreasing indices and
    positive exponents; the empty tuple denotes the identity e.
    """

    blocks: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        prev = None
        for idx, exp in self.blocks:
            if exp <= 0 or idx < 0 or (prev is not None and idx >= prev):
                raise ValueError(f"not a normal form: {self.blocks}")
            prev = idx

    def exponents(self) -> tuple[int, ...]:
        """Full vector (a_k, a_{k-1}, ..., a_0), zeros included."""
        if not self.blocks:
            return ()
        top = self.blocks[0][0]
        out = [0] * (top + 1)
        for idx, exp in self.blocks:
            out[top - idx] = exp
        return tuple(out)

    def to_word(self) -> Word:
        return Word(tuple(("g", i) for i, e in self.blocks for _ in range(e)))

    def __str__(self):
        return " ".join(f"g{i}^{e}" for i, e in self.blocks) if self.blocks else "e"


def _require_family(w: Word, family: str, op: str):
    bad = w.families() - {family}
    if bad:
        raise ValueError(f"{op} expects only {family}-letters, found {sorted(bad)}")


def normal_form_fplus(w: Word) -> NormalForm:
    """Unique F+ normal form, indices strictly decreasing left to right.

    Right-to-left insertion: a letter i bubbles rightward through the
    already-normalized suffix, incrementing every strictly larger index it
    passes (the rewrite g_i g_j -> g_{j+1} g_i for i < j).  Each insertion
    does at most len(suffix) rewrites, so this terminates.
    """
    _require_family(w, "g", "normal_form_fplus")
    suffix: list[int] = []
    for i in reversed(w.indices()):
        t = 0
        new = []
        while t < len(suffix) and i < suffix[t]:
            new.append(suffix[t] + 1)
            t += 1
        new.append(i)
        new.extend(suffix[t:])
        suffix = new
    blocks = []
    for i in suffix:
        if blocks and blocks[-1][0] == i:
            blocks[-1][1] += 1
        else:
            blocks.append([i, 1])
    return NormalForm(tuple((i, e) for i, e in blocks))


def words_equal_fplus(w1: Word, w2: Word) -> bool:
    return normal_form_fplus(w1) == normal_form_fplus(w2)


def shift_mn(m: int, n: int, w: Word) -> Word:
    """(m,n)-partial shift: g_0 -> g_m and g_k -> g_{n+k} for k >= 1."""
    if m > n:
        raise ValueError(f"(m,n)-partial shift needs m <= n, got ({m}, {n})")
    _require_family(w, "g", "shift_mn")
    return Word(tuple(("g", m if i == 0 else n + i) for _, i in w.letters))


def theta(k: int, x: int) -> int:
    """Partial shift on N_0: skips the value k."""
    return x + 1 if x >= k else x


def _omitted_values(w: Word) -> set[int]:
    """The values of N_0 that the composite of partial shifts named by an
    h-word omits, built right to left: theta_k ∘ f omits k and the theta_k
    images of what f omits."""
    missing: set[int] = set()
    for _, k in reversed(w.letters):
        missing = {k} | {theta(k, m) for m in missing}
    return missing


def words_equal_splus(w1: Word, w2: Word) -> bool:
    """Decide S+ equality through the induced injections of N_0.

    A composite of partial shifts is an increasing injection of N_0, so it
    is determined by the values it omits; it omits one value per letter,
    so the sets also separate composites of different lengths.  The sets
    cost O(len^2) whatever the indices.
    """
    _require_family(w1, "h", "words_equal_splus")
    _require_family(w2, "h", "words_equal_splus")
    return _omitted_values(w1) == _omitted_values(w2)


# ---------------------------------------------------------------------------
# Rewriting relations and closure oracles
# ---------------------------------------------------------------------------

# Every relation below swaps one adjacent pair, possibly shifting one index.
# A rule is (name, match(pair) -> new pair or None).


def _shift_rules(fam, strict: bool):
    """x_k x_l = x_{l+1} x_k, for k < l (F+, strict) or k <= l (S+)."""
    gap = 1 if strict else 0

    def fwd(p):
        (fa, a), (fb, b) = p
        if fa == fb == fam and a + gap <= b:
            return ((fam, b + 1), (fam, a))

    def bwd(p):
        (fa, a), (fb, b) = p
        if fa == fb == fam and a >= b + 1 + gap:
            return ((fam, b), (fam, a - 1))

    return [(f"{fam}{fam}+", fwd), (f"{fam}{fam}-", bwd)]


def _cc_far_swap(p):
    (fa, a), (fb, b) = p
    if fa == fb == "c" and abs(a - b) >= 2:
        return (("c", b), ("c", a))


def _cx_far_swap(fam):
    # c_k x_{l+1} = x_{l+1} c_k for k < l, both orders
    def rule(p):
        (fa, a), (fb, b) = p
        if fa == "c" and fb == fam and b >= a + 2:
            return ((fam, b), ("c", a))
        if fa == fam and fb == "c" and a >= b + 2:
            return (("c", b), (fam, a))

    return rule


def _xc_twist(fam):
    # x_k c_l = c_{l+1} x_k for k < l, and its inverse
    def fwd(p):
        (fa, a), (fb, b) = p
        if fa == fam and fb == "c" and a < b:
            return (("c", b + 1), (fam, a))

    def bwd(p):
        (fa, a), (fb, b) = p
        if fa == "c" and fb == fam and a >= b + 2:
            return ((fam, b), ("c", a - 1))

    return [(f"{fam}c+", fwd), (f"{fam}c-", bwd)]


def _xc_plain_swap(fam):
    # FF+ variant: x_k c_l = c_l x_k for k < l, both orders
    def rule(p):
        (fa, a), (fb, b) = p
        if fa == fam and fb == "c" and a < b:
            return (("c", b), (fam, a))
        if fa == "c" and fb == fam and a > b:
            return ((fam, b), ("c", a))

    return rule


def _monoid_name(kind: str) -> str:
    """A monoid name in the spelling the rule tables use: "ef^+" -> "EF+"."""
    return kind.upper().replace("^", "").replace("⁺", "+")


def monoid_rules(kind: str):
    """Adjacent-pair rewrite rules (both directions) for a monoid name."""
    k = _monoid_name(kind)
    if k == "F+":
        return _shift_rules("g", True)
    if k == "S+":
        return _shift_rules("h", False)
    if k == "EF+":
        return (
            _shift_rules("g", True)
            + [("cc~", _cc_far_swap), ("cg~", _cx_far_swap("g"))]
            + _xc_twist("g")
        )
    if k == "ES+":
        return (
            _shift_rules("h", False)
            + [("cc~", _cc_far_swap), ("ch~", _cx_far_swap("h"))]
            + _xc_twist("h")
        )
    if k == "FF+":
        return (
            _shift_rules("g", True)
            + _shift_rules("c", True)
            + [("cg~", _cx_far_swap("g")), ("gc~", _xc_plain_swap("g"))]
        )
    raise ValueError(f"unknown monoid {kind!r}")


class _CodeRewrites:
    """The rewrites of one closure, on words held as mixed-radix codes.

    The alphabet is the start word's families at indices 0..cap, then the
    start's own letters above the cap; a word of letter ids w_0 .. w_{L-1}
    has code sum_p w_p radix^(L-1-p).  Every rule keeps the families of the
    pair it rewrites, so a rewrite within the cap stays in the alphabet (one
    that left it would raise KeyError).  Each adjacent pair code a*radix + b
    maps to the code deltas of its within-cap rewrites; the entries are
    filled for the pair codes a search meets, never for all radix^2 pairs.
    """

    def __init__(self, rules, cap: int, w: Word):
        fams = [f for f in FAMILIES if f in w.families()]
        letters = [(f, i) for f in fams for i in range(cap + 1)]
        letters += sorted({letter for letter in w.letters if letter[1] > cap})
        self.rules = rules
        self.cap = cap
        self.radix = len(letters)
        self.ids = {letter: i for i, letter in enumerate(letters)}
        self.letters = np.fromiter(letters, dtype=object, count=self.radix)
        self.table: dict[int, tuple[int, ...]] = {}
        self.keys = np.zeros(0, np.int64)
        self.deltas = np.zeros((0, 0), np.int64)

    def _fill(self, pair: int):
        r = self.radix
        a, b = divmod(pair, r)
        letters = (self.letters[a], self.letters[b])
        out = []
        for _, rule in self.rules:
            new = rule(letters)
            if new is not None and max(new[0][1], new[1][1]) <= self.cap:
                out.append(self.ids[new[0]] * r + self.ids[new[1]] - pair)
        self.table[pair] = tuple(out)

    def deltas_of(self, pairs: np.ndarray) -> np.ndarray:
        """The code deltas of every pair code in pairs, shape pairs.shape +
        (k,), padded with 0 where a pair has fewer than k rewrites."""
        missing = [p for p in np.unique(pairs).tolist() if p not in self.table]
        if missing:
            for p in missing:
                self._fill(p)
            keys = sorted(self.table)
            self.keys = np.array(keys, np.int64)
            self.deltas = np.zeros((len(keys), max(map(len, self.table.values()))), np.int64)
            for row, key in zip(self.deltas, keys):
                row[: len(self.table[key])] = self.table[key]
        return self.deltas[np.searchsorted(self.keys, pairs)]


def rewriting_closure(w: Word, kind: str = "F+", index_cap=None, node_budget=2_000_000):
    """The full bidirectional-rewriting class of w (a finite set).

    Exploration caps generator indices at max index + word length + 1 unless
    index_cap is given; by the crossing argument of derive_words the class
    stays within max index + word length - 1, so that cap never binds.  The
    start word itself may exceed the cap; every other word of the returned
    set has all its indices at most the cap.  RuntimeError if the class
    holds more than node_budget words.

    The search runs one breadth-first level at a time on the words'
    mixed-radix codes (_CodeRewrites): int64 while radix^len < 2^63, Python
    ints in object arrays beyond.  Each level's codes are decoded into Words
    as the level is found, so no second copy of the whole class is built.
    """
    cap = index_cap if index_cap is not None else w.max_index() + len(w) + 1
    n = len(w)
    if n < 2:
        return {w}
    codes = _CodeRewrites(monoid_rules(kind), cap, w)
    r = codes.radix
    dtype = np.int64 if r**n < 2**63 else object
    powers = [r ** (n - 1 - p) for p in range(n)]
    place = np.array(powers, dtype)
    start = sum(codes.ids[letter] * power for letter, power in zip(w.letters, powers))
    # only the start can carry an index above the cap outside the rewritten
    # pair: its rewrite at p is kept iff every such letter sits at p or p+1
    over = {p for p, (_, i) in enumerate(w.letters) if i > cap}
    cut = np.array([not over <= {p, p + 1} for p in range(n - 1)]) if over else None
    seen = front = np.array([start], dtype)
    out = set()
    while len(front):
        digits = (front[:, None] // place % r).astype(np.int64)
        # every letter was checked when the start word was built or was
        # produced by a rule, so it is not checked again
        out.update(map(Word._trusted, map(tuple, codes.letters[digits].tolist())))
        deltas = codes.deltas_of(digits[:, :-1] * r + digits[:, 1:])
        if cut is not None:
            deltas[:, cut] = 0
            cut = None
        nxt = np.unique((front[:, None, None] + deltas * place[1:, None])[deltas != 0])
        at = np.searchsorted(seen, nxt)
        fresh = seen[np.minimum(at, len(seen) - 1)] != nxt
        front = nxt[fresh]
        if len(seen) + len(front) > node_budget:
            raise RuntimeError("closure node budget exhausted")
        seen = np.insert(seen, at[fresh], front)
    return out


@dataclass(frozen=True)
class DerivationStep:
    relation: str
    position: int
    result: Word


@dataclass(frozen=True)
class DerivationTrace:
    """A replayable chain of single-relation rewrites."""

    monoid: str
    start: Word
    steps: tuple[DerivationStep, ...]

    @property
    def end(self) -> Word:
        return self.steps[-1].result if self.steps else self.start

    def validate(self) -> bool:
        """Replay every step against the monoid's defining relations."""
        rules = dict(monoid_rules(self.monoid))
        cur = self.start
        for step in self.steps:
            ls = cur.letters
            if not 0 <= step.position < len(ls) - 1:
                return False
            rule = rules.get(step.relation)
            if rule is None:
                return False
            new = rule((ls[step.position], ls[step.position + 1]))
            if new is None:
                return False
            cur = Word(ls[: step.position] + new + ls[step.position + 2 :])
            if cur != step.result:
                return False
        return True

    def to_json(self) -> str:
        return json.dumps(
            {
                "monoid": self.monoid,
                "start": str(self.start),
                "steps": [
                    {"relation": s.relation, "position": s.position, "result": str(s.result)}
                    for s in self.steps
                ],
                "end": str(self.end),
            },
            indent=2,
        )


class DerivationNotFound(RuntimeError):
    pass


def derive_words(kind: str, start: Word, target: Word, node_budget=200_000) -> DerivationTrace:
    """Breadth-first derivation of target from start inside the given monoid.

    The search runs on tuples of letters and applies every rule of
    monoid_rules(kind) to each adjacent pair, by position and then rule
    order; the budget bounds explored nodes.  It needs no index cap:
    every word of the class of start has its indices at most M + n - 1,
    M the largest index of start and n its length, so the class is finite.

    The crossing argument.  Every rule swaps an adjacent pair of letters
    and changes at most one index, by one.  Follow each letter through a
    derivation and give it the value theta_{j_1} … theta_{j_r}(i), i its
    index and j_1 … j_r the indices, left to right, of the letters to its
    left of the families that shift it: every letter in F+ and S+, the g-
    or h-letters in EF+ and ES+, the letters of its own family in FF+.
    With theta_k(l) = l + 1 for k <= l and theta_l(k) = k for k < l, every
    rule keeps every value:

    * x_k x_l = x_{l+1} x_k (k < l; k <= l in S+ and ES+; also x = c in
      FF+): x_l passes x_k leftward, theta_k(l) = l + 1, and x_k passes
      x_{l+1} rightward, theta_{l+1}(k) = k;
    * x_k c_l = c_{l+1} x_k (k < l, EF+ and ES+): c_l passes x_k leftward,
      theta_k(l) = l + 1, and x_k passes a c, which shifts nothing;
    * c_k x_{l+1} = x_{l+1} c_k (k < l, EF+ and ES+): c_k passes x_{l+1}
      rightward, theta_{l+1}(k) = k, and x_{l+1} passes a c;
    * c_k c_l = c_l c_k (|k - l| >= 2, EF+ and ES+), and in FF+ each swap
      of a c with a g: neither letter passes one that shifts it.

    theta_j(x) is x or x + 1, so a letter's index is at most its value,
    and in start its value is at most M plus the number of letters to its
    left, at most M + n - 1.
    """
    rules = monoid_rules(kind)
    goal = target.letters
    prev: dict[tuple[Letter, ...], tuple[tuple[Letter, ...], str, int] | None] = {start.letters: None}
    queue = deque([start.letters])
    while queue:
        cur = queue.popleft()
        if cur == goal:
            steps = []
            while prev[cur] is not None:
                parent, name, pos = prev[cur]
                # every letter was checked when start was built or was
                # produced by a rule, so it is not checked again
                steps.append(DerivationStep(name, pos, Word._trusted(cur)))
                cur = parent
            return DerivationTrace(kind, start, tuple(reversed(steps)))
        for pos in range(len(cur) - 1):
            for name, rule in rules:
                new = rule(cur[pos : pos + 2])
                if new is None:
                    continue
                nxt = cur[:pos] + new + cur[pos + 2 :]
                if nxt in prev:
                    continue
                if len(prev) >= node_budget:
                    raise DerivationNotFound(
                        f"no derivation within {node_budget} nodes: {start} -> {target}"
                    )
                prev[nxt] = (cur, name, pos)
                queue.append(nxt)
    raise DerivationNotFound(f"search space exhausted: {start} -> {target} in {kind}")


def extended_relation_check(monoid_kind: str, k: int, l: int) -> DerivationTrace:
    """Derive (c_k x_k)(c_l x_l) -> (c_{l+1} x_{l+1})(c_k x_k) in EF+/ES+/FF+.

    This witnesses that the elements c_n x_n satisfy the Thompson-monoid
    relation for the given pair of indices.
    """
    if not 0 <= k < l:
        raise ValueError(f"need 0 <= k < l, got ({k}, {l})")
    kind = _monoid_name(monoid_kind)
    if kind not in ("EF+", "ES+", "FF+"):
        raise ValueError(f"extended monoid expected, got {monoid_kind!r}")
    fam = "h" if kind == "ES+" else "g"
    start = Word((("c", k), (fam, k), ("c", l), (fam, l)))
    target = Word((("c", l + 1), (fam, l + 1), ("c", k), (fam, k)))
    return derive_words(kind, start, target)
