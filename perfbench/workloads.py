"""Seeded inputs, the items of each workload, and the expected verdicts that
each item's output is checked against.

An item is a named call into finmarkov's public API or CLI.  ``run`` does the
work a user would wait for and returns its output.  ``digest`` fingerprints
the output, which must be the same on every pass of a run (the default JSON
report is byte-identical across repeats).  ``check`` is the benchmark's
independent judgement of the output: None when it agrees with the expected
verdict, else the problem.

The same seed always gives the same inputs.  Seeds vary the inputs without
varying the amount of work: chains are relabelled by state permutations that
keep the noise-atom count, the corpus draws chains to a fixed quota of
(states, noise atoms) shapes, and rewriting closures start from a seeded
representative of a fixed word class under a fixed index cap.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from finmarkov import checks, cli, dilation, monoid
from finmarkov.rationals import format_rational

COIN = (("1/2", "1/2"), ("1/4", "3/4"))  # fixtures/coin_p12_p14.json
# the 4-state chain of the retired benchmarks/bench_kernels.py; 7 noise atoms
D4 = (
    ("1/6", "1/3", "1/3", "1/6"),
    ("1/2", "0", "1/4", "1/4"),
    ("1/4", "1/4", "1/4", "1/4"),
    ("0", "1/2", "1/6", "1/3"),
)

# Sizes of the deep workloads: one model takes about 2 s, so a run holds
# enough passes for its fastest one to miss the host's slow spells.  Coin
# K=8 (levels of 13,122 / 39,366 atoms) and tower depth 9 (84 cells on
# 13,122 atoms) run the same code paths as K=9 / depth 10 at a third of
# the time.
SUITE_K = {"coin": 8, "d4": 4}
TOWER_DEPTH = 9
CORPUS_DEPTH = 4
# (states, compact noise atoms) -> chains per pass; the level read at depth+1
# holds d * nc**5 <= 4096 atoms.  The twelve largest chains keep the corpus's
# p90 item inside their group of `verify` items rather than on its edge.
CORPUS_SHAPES = {(2, 2): 6, (2, 3): 6, (3, 2): 6, (3, 3): 6, (3, 4): 6, (4, 3): 6, (4, 4): 12}
# (monoid, base word): the class of the base word under its default index
# cap holds 6720 / 1008 / 5040 / 40320 words
CLOSURE_BASES = (
    ("F+", "g0 g5 g1 g0 g1 g3 g4 g4"),
    ("F+", "g1 g2 g0 g0 g2 g3 g4 g0"),
    ("S+", "h4 h3 h2 h1 h2 h0 h1"),
    ("S+", "h2 h0 h4 h2 h4 h1 h4 h4"),
)
DERIVE_MAX_L = 6


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _cli_digest(out):
    rc, raw = out
    return sha(b"%d\0" % rc + raw)


@dataclass
class Item:
    key: str
    kind: str
    run: Callable[[], object]
    digest: Callable[[object], str]
    check: Callable[[object], str | None]


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------


def noise_atoms(rows) -> int:
    """Atom count of the compact noise space: one more than the number of
    distinct inner cut points of the rows' cumulative sums."""
    cuts = set()
    for row in rows:
        acc = Fraction(0)
        for x in row[:-1]:
            acc += Fraction(x)
            if 0 < acc < 1:
                cuts.add(acc)
    return len(cuts) + 1


def relabel(rows, perm):
    d = len(rows)
    out = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            out[perm[i]][perm[j]] = rows[i][j]
    return out


def seeded_relabel(rows, rng: random.Random):
    """A state relabelling of `rows` drawn from the permutations that keep
    the noise-atom count, so every seed builds models of the same size."""
    nc = noise_atoms(rows)
    perms = [
        p
        for p in itertools.permutations(range(len(rows)))
        if noise_atoms(relabel(rows, p)) == nc
    ]
    return relabel(rows, rng.choice(perms))


def write_spec(path, spec: dilation.ChainSpec) -> str:
    with open(path, "w") as fh:
        json.dump({"d": spec.d, "T": [[format_rational(x) for x in r] for r in spec.rows]}, fh)
    return path


def _rewrites(letters, kind):
    """Single-relation rewrites of a one-family word (index tuples), written
    here from the defining relations so the walk does not use the library."""
    strict = kind == "F+"  # F+: g_k g_l = g_{l+1} g_k for k < l; S+: k <= l
    for p in range(len(letters) - 1):
        a, b = letters[p], letters[p + 1]
        if a < b or (not strict and a == b):
            yield letters[:p] + (b + 1, a) + letters[p + 2 :]
        if a >= b + (2 if strict else 1):
            yield letters[:p] + (b, a - 1) + letters[p + 2 :]


def closure_start(kind, base: monoid.Word, cap, rng: random.Random, steps=64):
    """A seeded word in the class of `base`: a random walk of rewrites that
    keeps every index at most `cap`, so the closure under that cap is the
    same set whatever the seed."""
    fam = base.letters[0][0]
    cur = tuple(i for _, i in base.letters)
    for _ in range(steps):
        moves = [w for w in _rewrites(cur, kind) if max(w) <= cap]
        cur = rng.choice(moves)
    return monoid.Word(tuple((fam, i) for i in cur))


# ---------------------------------------------------------------------------
# expected verdicts
# ---------------------------------------------------------------------------


def _all_pass(entries):
    bad = [e["check"] for e in entries if e["verdict"] != "pass"]
    return f"failing entries {bad[:3]}" if bad else None


def lumped_is_markov(spec: dilation.ChainSpec, f, horizon: int) -> bool:
    """Brute force on the exact path law: f(X) is Markov up to the horizon iff
    P(y_0..y_n, j) P(y_n) = P(y_0..y_n) P(y_n, j) for every n < horizon."""
    law = dilation.path_law(spec, horizon)
    q = {}
    for path in itertools.product(range(spec.d), repeat=horizon + 1):
        w = int(law.num[path])
        if w:
            y = tuple(f[s] for s in path)
            q[y] = q.get(y, 0) + w

    def marginal(keep):
        out = {}
        for y, w in q.items():
            k = tuple(y[t] for t in keep)
            out[k] = out.get(k, 0) + w
        return out

    for n in range(horizon):
        prefix = marginal(range(n + 1))
        ext = marginal(range(n + 2))
        now = marginal([n])
        step = marginal([n, n + 1])
        for y, w in prefix.items():
            for j in set(f):
                lhs = ext.get(y + (j,), 0) * now[(y[-1],)]
                rhs = w * step.get((y[-1], j), 0)
                if lhs != rhs:
                    return False
    return True


def splus_signature(word: monoid.Word):
    """The values an S+ word's composite map omits.  A composite of partial
    shifts is an increasing injection of N_0, so this set determines it."""
    missing = set()
    for _, k in reversed(word.letters):
        missing = {k} | {m + 1 if m >= k else m for m in missing}
    return frozenset(missing)


# ---------------------------------------------------------------------------
# item builders
# ---------------------------------------------------------------------------


def _cli_item(key, kind, argv, json_path, check):
    argv = ["--json", json_path] + argv

    def run():
        with contextlib.suppress(FileNotFoundError):
            os.remove(json_path)  # a run that writes no report must not read the last one
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        with open(json_path, "rb") as fh:
            return rc, fh.read()

    return Item(key, kind, run, _cli_digest, check)


def _check_verify(expected_cells=None):
    def check(out):
        rc, raw = out
        entries = json.loads(raw)
        problem = _all_pass(entries)
        cells = sum(e["check"].startswith("tower-cell-") for e in entries)
        if problem is None and expected_cells is not None and cells != expected_cells:
            problem = f"{cells} tower cells, expected {expected_cells}"
        if rc != 0:
            problem = f"exit code {rc}, expected 0" + (f"; {problem}" if problem else "")
        return problem

    return check


def _check_lump(spec, f, horizon):
    want = []  # computed on first use, so the oracle stays out of set-up time

    def check(out):
        if not want:
            want.append(lumped_is_markov(spec, f, horizon))
        rc, raw = out
        entries = json.loads(raw)
        got = {e["check"]: e["verdict"] == "pass" for e in entries}
        all_ok = all(got.values())
        if rc not in (0, 1) or (rc == 0) != all_ok:
            return f"exit code {rc} with all-pass={all_ok}"
        if got.get("markov-sequence") != want[0]:
            return f"markov-sequence {got.get('markov-sequence')}, brute force {want[0]}"
        return None

    return check


def _closure_item(kind, base, start, cap):
    def run():
        return monoid.rewriting_closure(start, kind, index_cap=cap)

    def digest(words):
        return sha("\n".join(sorted(map(str, words))))

    def check(words):
        if kind == "F+":
            key, target = monoid.normal_form_fplus, monoid.normal_form_fplus(start)
        else:
            key, target = splus_signature, splus_signature(start)
        stray = next((w for w in words if key(w) != target), None)
        if stray is not None:
            return f"{stray} is not equal to {start} in {kind}"
        if base not in words or start not in words:
            return "closure misses its start or base word"
        return None

    return Item(f"closure-{kind}-{len(base)}-{base.max_index()}", "closure", run, digest, check)


def _derive_item(kind):
    """Every pair k < l <= DERIVE_MAX_L of one extended monoid, as one item:
    each derivation takes well under a millisecond, and 63 such items would
    put the corpus's median item latency on their edge."""
    fam = "h" if kind == "ES+" else "g"
    pairs = [(k, l) for l in range(1, DERIVE_MAX_L + 1) for k in range(l)]

    def check(traces):
        for (k, l), trace in zip(pairs, traces):
            start = monoid.Word((("c", k), (fam, k), ("c", l), (fam, l)))
            end = monoid.Word((("c", l + 1), (fam, l + 1), ("c", k), (fam, k)))
            if not trace.validate():
                return f"({k}, {l}): derivation does not replay"
            if trace.start != start or trace.end != end:
                return f"({k}, {l}): derivation runs {trace.start} -> {trace.end}"
        return None

    return Item(
        f"derive-{kind}",
        "derive",
        lambda: [monoid.extended_relation_check(kind, k, l) for k, l in pairs],
        lambda traces: sha("\n".join(t.to_json() for t in traces)),
        check,
    )


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def suite_deep(seed: int, workdir: str):
    """definetti_suite on coin K=8 and on the 4-state chain at K=4."""
    rng = random.Random(seed)
    items = []
    for label, rows, K in (("coin", COIN, SUITE_K["coin"]), ("d4", D4, SUITE_K["d4"])):
        spec = dilation.ChainSpec.from_rows(seeded_relabel(rows, rng))
        items.append(
            Item(
                f"suite-{label}-K{K}",
                "suite",
                lambda spec=spec, K=K: checks.definetti_suite(spec, K).to_json(),
                sha,
                lambda raw: _all_pass(json.loads(raw)),
            )
        )
    return items


def tower_deep(seed: int, workdir: str):
    """`finmarkov verify <coin> --depth 9 --suite tower`: 84 cells."""
    rng = random.Random(seed)
    spec = dilation.ChainSpec.from_rows(seeded_relabel(COIN, rng))
    path = write_spec(os.path.join(workdir, "coin.json"), spec)
    depth = TOWER_DEPTH
    level = depth - 1
    cells = sum(n * (level - n) for n in range(1, level))
    argv = ["verify", path, "--depth", str(depth), "--suite", "tower"]
    return [
        _cli_item("verify-tower-coin", "verify", argv, os.path.join(workdir, "tower.json"), _check_verify(cells))
    ]


def corpus_small(seed: int, workdir: str):
    """Small random chains through `verify --suite all` and `lump`, then a
    monoid phase of rewriting closures and extended-monoid derivations."""
    rng = random.Random(seed)
    quota = dict(CORPUS_SHAPES)
    chains = []
    while any(quota.values()):
        spec = dilation.random_irreducible_chain(rng, rng.choice((2, 3, 4)), max_den=4)
        shape = (spec.d, noise_atoms(spec.rows))
        if quota.get(shape):
            quota[shape] -= 1
            chains.append(spec)

    items = []
    for i, spec in enumerate(chains):
        path = write_spec(os.path.join(workdir, f"chain{i}.json"), spec)
        depth = str(CORPUS_DEPTH)
        items.append(
            _cli_item(
                f"verify-chain{i}",
                "verify",
                ["verify", path, "--depth", depth, "--suite", "all"],
                os.path.join(workdir, f"verify{i}.json"),
                _check_verify(),
            )
        )
        f = [0, 1] + [rng.randrange(2) for _ in range(spec.d - 2)]
        rng.shuffle(f)
        items.append(
            _cli_item(
                f"lump-chain{i}",
                "lump",
                ["lump", path, "--map", ",".join(map(str, f)), "--depth", depth],
                os.path.join(workdir, f"lump{i}.json"),
                _check_lump(spec, f, CORPUS_DEPTH),
            )
        )
    rng.shuffle(items)

    for kind, text in CLOSURE_BASES:
        base = monoid.Word.parse(text)
        cap = base.max_index() + len(base) + 1
        items.append(_closure_item(kind, base, closure_start(kind, base, cap, rng), cap))
    items += [_derive_item(kind) for kind in ("EF+", "ES+", "FF+")]
    return items


WORKLOADS = {"suite-deep": suite_deep, "tower-deep": tower_deep, "corpus-small": corpus_small}
