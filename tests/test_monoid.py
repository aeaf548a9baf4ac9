import importlib.util
import itertools
import sys
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finmarkov import monoid as M
from finmarkov.monoid import Word

from oracles import gword, hword, project_to_splus, splus_apply


# -- normal forms -----------------------------------------------------------


def test_defining_relation_instance():
    # g_0 g_1 = g_2 g_0
    assert M.normal_form_fplus(gword(0, 1)) == M.normal_form_fplus(gword(2, 0))
    assert str(M.normal_form_fplus(gword(0, 1))) == "g2^1 g0^1"


def test_identity_and_fixed_points():
    assert M.normal_form_fplus(Word()) == M.NormalForm()
    nf = M.normal_form_fplus(gword(3, 1, 0))
    assert nf.blocks == ((3, 1), (1, 1), (0, 1))
    assert nf.to_word() == gword(3, 1, 0)


def test_g00g1_normal_form():
    # derived by breadth-first closure: unique terminal decreasing word
    nf = M.normal_form_fplus(gword(0, 0, 1))
    assert nf.blocks == ((3, 1), (0, 2))
    assert nf.exponents() == (1, 0, 0, 2)
    closure = M.rewriting_closure(gword(0, 0, 1))
    decreasing = [
        w
        for w in closure
        if all(a >= b for a, b in zip(w.indices(), w.indices()[1:]))
    ]
    assert decreasing == [nf.to_word()]


def test_equality_requires_strict_inequality():
    # the relation needs k < l: g_0 g_0 is not g_1 g_0
    assert not M.words_equal_fplus(gword(0, 0), gword(1, 0))
    assert M.rewriting_closure(gword(0, 0)) == {gword(0, 0)}


def words(max_len, max_idx):
    out = [Word()]
    todo = [()]
    for _ in range(max_len):
        todo = [t + (i,) for t in todo for i in range(max_idx + 1)]
        out.extend(gword(*t) for t in todo)
    return out


def test_normal_form_sound_and_complete_small():
    # every word of length <= 3 with indices <= 3: equal normal forms
    # exactly when the rewriting closures coincide
    pool = words(3, 3)
    closures = {w: frozenset(M.rewriting_closure(w)) for w in pool}
    for w in pool:
        assert M.normal_form_fplus(w).to_word() in closures[w]
    for i, w1 in enumerate(pool):
        for w2 in pool[i + 1 :]:
            same_nf = M.words_equal_fplus(w1, w2)
            assert same_nf == (closures[w1] == closures[w2]), (w1, w2)


def test_closure_index_cap_is_stable():
    # enlarging the exploration cap does not change any small class
    for w in words(3, 3):
        cap = w.max_index() + len(w) + 1
        assert M.rewriting_closure(w, index_cap=cap) == M.rewriting_closure(
            w, index_cap=cap + 3
        )


@given(st.lists(st.integers(0, 5), max_size=6))
def test_normal_form_idempotent(idx):
    w = gword(*idx)
    nf = M.normal_form_fplus(w)
    assert M.normal_form_fplus(nf.to_word()) == nf


@given(st.lists(st.integers(0, 4), max_size=4), st.lists(st.integers(0, 4), max_size=4))
def test_normal_form_is_congruence(a, b):
    # normal_form(w1 w2) = normal_form(nf(w1) nf(w2))
    w1, w2 = gword(*a), gword(*b)
    lhs = M.normal_form_fplus(w1 * w2)
    rhs = M.normal_form_fplus(
        M.normal_form_fplus(w1).to_word() * M.normal_form_fplus(w2).to_word()
    )
    assert lhs == rhs


# -- partial shifts ---------------------------------------------------------


def test_shift_examples():
    assert M.shift_mn(0, 0, gword(0, 2, 1)) == gword(0, 2, 1)
    w = M.shift_mn(1, 2, gword(0, 1))
    assert w == gword(1, 3)
    assert M.normal_form_fplus(w).blocks == ((4, 1), (1, 1))
    with pytest.raises(ValueError):
        M.shift_mn(2, 1, gword(0))


def test_shift_on_normal_forms():
    # sh_{m,n}(g_k^{a_k}...g_0^{a_0}) = g_{n+k}^{a_k}...g_{n+1}^{a_1} g_m^{a_0}
    w = gword(3, 3, 1, 0, 0)
    nf = M.normal_form_fplus(w)
    shifted = M.normal_form_fplus(M.shift_mn(2, 3, nf.to_word()))
    assert shifted.blocks == ((6, 2), (4, 1), (2, 2))


@given(
    st.integers(0, 3),
    st.integers(0, 3),
    st.lists(st.integers(0, 4), max_size=4),
    st.lists(st.integers(0, 4), max_size=4),
)
def test_shift_is_monoid_morphism(m, extra, a, b):
    n = m + extra
    w1, w2 = gword(*a), gword(*b)
    lhs = M.normal_form_fplus(M.shift_mn(m, n, w1 * w2))
    rhs = M.normal_form_fplus(M.shift_mn(m, n, w1) * M.shift_mn(m, n, w2))
    assert lhs == rhs


def test_shift_injective_on_small_normal_forms():
    # all normal forms of length <= 5 with indices <= 4: weakly decreasing
    # index tuples, enumerated directly
    from itertools import combinations_with_replacement

    pool = [Word(())]
    for length in range(1, 6):
        for comb in combinations_with_replacement(range(5), length):
            pool.append(gword(*sorted(comb, reverse=True)))
    for m, n in ((1, 2), (0, 3), (2, 2)):
        images = {}
        for w in pool:
            img = M.normal_form_fplus(M.shift_mn(m, n, w))
            assert images.setdefault(img, w) == w
        assert len(images) == len(pool)


# -- the partial shifts monoid ----------------------------------------------


def test_theta_values():
    assert [splus_apply(hword(0), x) for x in range(4)] == [1, 2, 3, 4]
    assert splus_apply(hword(2), 1) == 1
    assert splus_apply(hword(2), 2) == 3
    assert splus_apply(Word(), 9) == 9


def test_theta_relation():
    for k in range(7):
        for l in range(k, 7):
            for x in range(21):
                assert M.theta(k, M.theta(l, x)) == M.theta(l + 1, M.theta(k, x))


def test_splus_equalities():
    assert M.words_equal_splus(hword(0, 0), hword(1, 0))
    assert not M.words_equal_splus(hword(1), hword(2))
    for x in range(11):
        assert splus_apply(hword(0, 0), x) == x + 2
        assert splus_apply(hword(1, 0), x) == x + 2


@given(st.lists(st.integers(0, 4), max_size=4), st.lists(st.integers(0, 4), max_size=4))
def test_splus_apply_composes(a, b):
    w1, w2 = hword(*a), hword(*b)
    for x in range(8):
        assert splus_apply(w1 * w2, x) == splus_apply(w1, splus_apply(w2, x))


def test_splus_function_model_matches_rewriting_closure():
    # cross-validation of the word-problem model against the relations on
    # all words of length <= 4 with indices <= 4; any discrepancy would mean
    # the induced-function model does not separate the monoid
    pool = [hword(*t) for t in _tuples(4, 4)]
    class_of = {}
    next_id = 0
    for w in pool:
        if w in class_of:
            continue
        for u in M.rewriting_closure(w, kind="S+", index_cap=9):
            class_of[u] = next_id
        next_id += 1
    # group by the function model's fingerprint on a separating segment
    by_model = {}
    for w in pool:
        key = tuple(splus_apply(w, x) for x in range(10))
        by_model.setdefault(key, set()).add(class_of[w])
    assert all(len(cids) == 1 for cids in by_model.values())
    assert len(by_model) == next_id


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_splus_equality_matches_the_segment_evaluation(data):
    """The omitted-value sets decide S+ equality as the evaluation on the
    segment [0, 1 + max index + max length] does, on random pairs and on
    pairs from one rewriting class."""
    indices = st.lists(st.integers(0, 4), max_size=5)
    w1 = hword(*data.draw(indices))
    if data.draw(st.booleans()):
        w2 = data.draw(st.sampled_from(sorted(M.rewriting_closure(w1, "S+"), key=str)))
    else:
        w2 = hword(*data.draw(indices))
    bound = 1 + max(w1.max_index(), w2.max_index()) + max(len(w1), len(w2))
    want = all(splus_apply(w1, x) == splus_apply(w2, x) for x in range(bound + 1))
    assert M.words_equal_splus(w1, w2) is want


def _tuples(max_len, max_idx):
    out = [()]
    layer = [()]
    for _ in range(max_len):
        layer = [t + (i,) for t in layer for i in range(max_idx + 1)]
        out.extend(layer)
    return out


# -- projection F+ -> S+ ----------------------------------------------------


def test_projection_examples():
    assert project_to_splus(gword(0, 1)) == hword(0, 1)
    assert M.words_equal_splus(hword(0, 1), hword(2, 0))
    assert project_to_splus(Word()) == Word()


def test_projection_is_well_defined():
    # equal F+ words project to equal S+ words (words of length <= 4, idx <= 4)
    pool = [gword(*t) for t in _tuples(4, 4)]
    for w in pool:
        nf = M.normal_form_fplus(w).to_word()
        assert M.words_equal_splus(project_to_splus(w), project_to_splus(nf))


def test_projection_not_injective_on_classes():
    # h_0 h_0 = h_1 h_0 in S+ although g_0 g_0 != g_1 g_0 in F+
    w1, w2 = gword(0, 0), gword(1, 0)
    assert not M.words_equal_fplus(w1, w2)
    assert M.words_equal_splus(project_to_splus(w1), project_to_splus(w2))


# -- extended monoids -------------------------------------------------------


def test_ef_derivation_displayed_steps():
    tr = M.extended_relation_check("EF+", 0, 1)
    assert tr.validate()
    seen = [str(tr.start)] + [str(s.result) for s in tr.steps]
    assert seen == [
        "c0 g0 c1 g1",
        "c0 c2 g0 g1",
        "c2 c0 g0 g1",
        "c2 c0 g2 g0",
        "c2 g2 c0 g0",
    ]


@pytest.mark.parametrize("kind", ["EF+", "ES+", "FF+"])
def test_extended_relations_all_small_pairs(kind):
    for k in range(4):
        for l in range(k + 1, 4):
            tr = M.extended_relation_check(kind, k, l)
            assert tr.validate()
            fam = "h" if kind == "ES+" else "g"
            assert tr.end == Word(
                (("c", l + 1), (fam, l + 1), ("c", k), (fam, k))
            )


def test_derivation_traces_replay_and_serialize():
    tr = M.extended_relation_check("ES+", 1, 3)
    assert tr.validate()
    import json

    data = json.loads(tr.to_json())
    assert data["end"] == str(tr.end)
    assert len(data["steps"]) == len(tr.steps)


def test_derivation_budget_error():
    with pytest.raises(M.DerivationNotFound):
        M.derive_words("F+", gword(0, 0), gword(1, 0))


@pytest.mark.parametrize("idx", [1.5, 2.0, True, False, "1"])
def test_word_refuses_non_integer_index(idx):
    # str(Word) of such a letter would print a token Word.parse refuses
    with pytest.raises(ValueError):
        Word((("g", idx),))


def test_bad_words_rejected():
    with pytest.raises(ValueError):
        M.normal_form_fplus(hword(0))
    with pytest.raises(ValueError):
        splus_apply(gword(0), 1)
    with pytest.raises(ValueError):
        Word.parse("g0 x1")
    with pytest.raises(ValueError):
        M.extended_relation_check("EF+", 2, 2)


# -- the searches against a reference on Word objects --------------------------

# The closure holds words as mixed-radix codes over the start word's
# families at indices 0..cap (int64 codes, or Python ints once radix^len
# reaches 2^63) and searches one breadth-first level at a time, looking each
# pair code's rewrite deltas up in a per-call table; the derivation search
# holds words as tuples of letters and runs every rule on each adjacent
# pair.  The references below are the same breadth-first searches written
# directly on Word objects, validating every word they build.


def _ref_neighbours(w, rules):
    out = []
    ls = w.letters
    for pos in range(len(ls) - 1):
        pair = (ls[pos], ls[pos + 1])
        for name, rule in rules:
            new = rule(pair)
            if new is not None:
                out.append((Word(ls[:pos] + new + ls[pos + 2 :]), name, pos))
    return out


def _ref_closure(w, kind, index_cap=None, node_budget=2_000_000):
    rules = M.monoid_rules(kind)
    cap = index_cap if index_cap is not None else w.max_index() + len(w) + 1
    seen = {w}
    queue = deque([w])
    while queue:
        cur = queue.popleft()
        for nxt, _, _ in _ref_neighbours(cur, rules):
            if nxt.max_index() > cap or nxt in seen:
                continue
            if len(seen) >= node_budget:
                raise RuntimeError("closure node budget exhausted")
            seen.add(nxt)
            queue.append(nxt)
    return seen


def _ref_derive(kind, start, target):
    rules = M.monoid_rules(kind)
    cap = max(start.max_index(), target.max_index()) + len(start) + 1
    prev = {start: None}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        if cur == target:
            steps = []
            while prev[cur] is not None:
                parent, name, pos = prev[cur]
                steps.append(M.DerivationStep(name, pos, cur))
                cur = parent
            return M.DerivationTrace(kind, start, tuple(reversed(steps)))
        for nxt, name, pos in _ref_neighbours(cur, rules):
            if nxt.max_index() > cap or nxt in prev:
                continue
            prev[nxt] = (cur, name, pos)
            queue.append(nxt)
    raise M.DerivationNotFound(f"{start} -> {target}")


KIND_FAMILIES = {"F+": "g", "S+": "h", "EF+": "gc", "ES+": "hc", "FF+": "gc"}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_closure_equals_word_reference(data):
    kind = data.draw(st.sampled_from(sorted(KIND_FAMILIES)))
    letters = data.draw(
        st.lists(st.tuples(st.sampled_from(KIND_FAMILIES[kind]), st.integers(0, 5)), max_size=6)
    )
    w = Word(tuple(letters))
    # a cap below the start's max index leaves the start over the cap
    top = w.max_index()
    below = st.integers(0, top - 1) if top else st.none()
    cap = data.draw(st.one_of(st.none(), below, st.integers(top, top + len(w) + 2)))
    assert M.rewriting_closure(w, kind, index_cap=cap) == _ref_closure(w, kind, index_cap=cap)


def test_closure_with_start_over_the_cap():
    # only the start may exceed the cap: its rewrite g0 g1 -> g2 g0 stays
    # within the cap but keeps g5, so it is cut; g5 g0 -> g0 g4 is kept
    w = gword(5, 0, 1)
    got = M.rewriting_closure(w, index_cap=4)
    assert got == _ref_closure(w, "F+", index_cap=4)
    assert gword(0, 4, 1) in got and gword(5, 2, 0) not in got
    assert all(u.max_index() <= 4 for u in got - {w})


@pytest.mark.parametrize("w, size", [(gword(*[0] * 30), 1), (gword(*[0] * 14, 2, 1), 120)])
def test_closure_on_python_int_codes(w, size):
    # radix >= cap + 1 = max index + len + 2, so radix^len >= 2^63 and the
    # codes are Python ints in object arrays
    assert (w.max_index() + len(w) + 2) ** len(w) >= 2**63
    got = M.rewriting_closure(w)
    assert got == _ref_closure(w, "F+")
    assert len(got) == size


@pytest.mark.parametrize(
    "w, kind",
    [
        (Word((("g", 5), ("c", 1), ("g", 0), ("c", 2), ("g", 1))), "FF+"),
        (Word((("c", 4), ("g", 0), ("c", 1), ("g", 3), ("c", 0))), "EF+"),
    ],
)
@pytest.mark.parametrize("cap", [60, 75])
def test_closure_under_a_large_cap(w, kind, cap):
    # two families under the cap hold 2 * (cap + 1) letters; the pair table
    # is filled only for the pairs the search meets
    assert M.rewriting_closure(w, kind, index_cap=cap) == _ref_closure(w, kind, index_cap=cap)


def test_closure_node_budget_boundary():
    w = hword(2, 0, 4, 1, 3)
    cls = _ref_closure(w, "S+")
    assert M.rewriting_closure(w, "S+", node_budget=len(cls)) == cls
    with pytest.raises(RuntimeError):
        M.rewriting_closure(w, "S+", node_budget=len(cls) - 1)


@pytest.mark.parametrize("kind", ["EF+", "ES+", "FF+"])
def test_derivation_traces_equal_word_reference(kind):
    fam = KIND_FAMILIES[kind][0]
    for l in range(1, 7):
        for k in range(l):
            start = Word((("c", k), (fam, k), ("c", l), (fam, l)))
            target = Word((("c", l + 1), (fam, l + 1), ("c", k), (fam, k)))
            want = _ref_derive(kind, start, target)
            assert M.extended_relation_check(kind, k, l).to_json() == want.to_json(), (k, l)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_derivation_equals_word_reference(data):
    kind = data.draw(st.sampled_from(sorted(KIND_FAMILIES)))
    letters = data.draw(
        st.lists(st.tuples(st.sampled_from(KIND_FAMILIES[kind]), st.integers(0, 4)), max_size=5)
    )
    w = Word(tuple(letters))
    target = data.draw(st.sampled_from(sorted(_ref_closure(w, kind), key=str)))
    assert M.derive_words(kind, w, target).to_json() == _ref_derive(kind, w, target).to_json()
    if not letters:
        return
    # every relation keeps the length and the family of each letter, so a
    # shorter word and a word holding a family absent from w are unreachable
    absent = data.draw(st.sampled_from([f for f in M.FAMILIES if f not in w.families()]))
    for t in (Word(w.letters[1:]), Word(((absent, 0),) + w.letters[1:])):
        with pytest.raises(M.DerivationNotFound, match="search space exhausted"):
            M.derive_words(kind, w, t)


@pytest.mark.parametrize("kind", sorted(KIND_FAMILIES))
def test_rewriting_classes_stay_within_max_index_plus_length_minus_1(kind):
    """The crossing argument of derive_words, on every start word of length
    1 to 5 with indices at most 3 (at most 2 at length 5): its class holds
    no index above M + n - 1, and some classes reach it.  A class that
    passed the bound would pass it by one first, so the search capped at
    M + n finds any such word."""
    top, reached = {}, 0
    for n in range(1, 6):
        letters = [(f, i) for f in KIND_FAMILIES[kind] for i in range(4 if n < 5 else 3)]
        for w in map(Word, itertools.product(letters, repeat=n)):
            bound = w.max_index() + n - 1
            if w not in top:
                cls = _ref_closure(w, kind, index_cap=bound + 1)
                top.update(dict.fromkeys(cls, max(u.max_index() for u in cls)))
            assert top[w] <= bound, w
            reached += top[w] == bound
    assert reached > 0


def test_derivation_node_budget_boundary():
    w = hword(2, 0, 4, 1, 3)
    cls = _ref_closure(w, "S+")
    for target in cls:
        got = M.derive_words("S+", w, target, node_budget=len(cls))
        assert got.to_json() == _ref_derive("S+", w, target).to_json()
    # h1 h0 = h0 h0 is a class of two words: recording the target exceeds a
    # budget that holds only the start
    w, target = hword(1, 0), hword(0, 0)
    assert _ref_closure(w, "S+") == {w, target}
    with pytest.raises(M.DerivationNotFound) as err:
        M.derive_words("S+", w, target, node_budget=1)
    assert str(err.value) == f"no derivation within 1 nodes: {w} -> {target}"


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def test_corpus_closures_equal_word_reference(monkeypatch):
    """The four closure classes of the benchmark's corpus (6720, 1008, 5040
    and 40320 words) equal the search on validated Words, and every word
    returned without validation passes it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    sizes = []
    for kind, text in workloads.CLOSURE_BASES:
        base = Word.parse(text)
        got = M.rewriting_closure(base, kind)
        assert got == _ref_closure(base, kind)
        assert all(Word(w.letters) == w for w in got)
        sizes.append(len(got))
    assert sizes == [6720, 1008, 5040, 40320]
