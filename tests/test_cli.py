import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finmarkov import _kernels as kern
from finmarkov import checks, dilation, finprob, rep
from finmarkov.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
PYPROJECT = ROOT / "pyproject.toml"
GOLDEN = ROOT / "tests" / "golden"
COIN = str(FIXTURES / "coin_p12_p14.json")
IID = str(FIXTURES / "iid_third.json")
LUMPED = str(FIXTURES / "lumped_3to2.json")


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize(capsys):
    code, out, _ = run(["normalize", "g0 g1"], capsys)
    assert code == 0 and out.strip() == "g2^1 g0^1"


def test_word_eq_splus(capsys):
    code, out, _ = run(["word-eq", "h0 h0", "h1 h0", "--monoid", "splus"], capsys)
    assert code == 0 and out.strip() == "equal"
    code, out, _ = run(["word-eq", "g0 g0", "g1 g0"], capsys)
    assert code == 1 and out.strip() == "not equal"


def test_word_eq_splus_answers_on_a_huge_index():
    # S+ equality reads the values each word omits, one per letter, so an
    # index of 10^12 costs nothing; the timeout fails the test, not the run
    argv = ["word-eq", "h1000000000000", "h1000000000000", "--monoid", "splus"]
    r = subprocess.run([sys.executable, "-m", "finmarkov.cli"] + argv, capture_output=True, text=True, timeout=20)
    assert r.returncode == 0 and r.stdout == "equal\n"


def test_shift(capsys):
    code, out, _ = run(["shift", "1", "2", "g0 g1"], capsys)
    assert code == 0 and out.strip() == "g1 g3 = g4^1 g1^1"


def test_derive(capsys, tmp_path):
    dest = tmp_path / "trace.json"
    code, out, _ = run(["--json", str(dest), "derive", "EF+", "0", "2"], capsys)
    assert code == 0
    data = json.loads(dest.read_text())
    assert data["start"] == "c0 g0 c2 g2"
    assert data["end"] == "c3 g3 c0 g0"


def test_stationary(capsys):
    code, out, _ = run(["stationary", COIN], capsys)
    assert code == 0 and out.strip() == "1/3 2/3"


def test_dilate(capsys):
    code, out, _ = run(["dilate", COIN, "--depth", "4"], capsys)
    assert code == 0
    assert "dilation-powers" in out


DILATE_ENTRIES = ["dilation-powers", "moments-vs-path-law"]


def _no_bijection_chain(tmp_path):
    # state 0 flows entirely into state 1, of larger mass: no atom-level
    # bijection exists on any finite noise
    path = tmp_path / "no_bijection.json"
    path.write_text(json.dumps({"d": 2, "T": [["0", "1"], ["1/2", "1/2"]]}))
    return str(path)


def test_dilate_prints_only_decided_entries(capsys, tmp_path):
    code, out, err = run(["dilate", _no_bijection_chain(tmp_path), "--depth", "3"], capsys)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert [line.split("  ")[1] for line in lines] == DILATE_ENTRIES
    assert all(line.startswith("PASS  ") for line in lines)


def _fail_powers(monkeypatch):
    orig = dilation.ProcessModel.compressed_power
    monkeypatch.setattr(dilation.ProcessModel, "compressed_power", lambda self, n: orig(self, 1 if n == 2 else n))


# four support paths of the no-bijection chain at depth 3 around a
# rectangle (x0, A, B), (x0, A', B'), (x0, A, B'), (x0, A', B): one unit
# moved from the last two to the first two keeps every (X_0, X_n) law
RECTANGLE = {(1, 0, 1, 0): 1, (1, 1, 1, 1): 1, (1, 0, 1, 1): -1, (1, 1, 1, 0): -1}


def _fail_moments(monkeypatch):
    """Move one numerator unit of the model's path table around RECTANGLE,
    so that every marginal dilation-powers reads stays as it was."""
    orig = dilation.ProcessModel.paths.func

    def moved(self):
        table = orig(self)
        weights = table.weights.copy()
        paths = [tuple(p) for p in table.values.T.tolist()]
        for path, unit in RECTANGLE.items():
            weights[paths.index(path)] += unit
        return dataclasses.replace(table, weights=weights)

    monkeypatch.setattr(dilation.ProcessModel, "paths", property(moved))


@pytest.mark.parametrize(
    "entry, mutate",
    list(zip(DILATE_ENTRIES, (_fail_powers, _fail_moments))),
)
def test_dilate_fails_each_decided_entry(entry, mutate, monkeypatch, capsys, tmp_path):
    """Each of dilate's entries reads its own decision: made to fail, it
    alone fails, and dilate exits 1."""
    mutate(monkeypatch)
    code, out, _ = run(["dilate", _no_bijection_chain(tmp_path), "--depth", "3"], capsys)
    assert code == 1
    assert [line.split("  ")[1] for line in out.splitlines() if line.startswith("FAIL")] == [entry]


def test_dilate_moments_witness_names_the_first_failing_path(monkeypatch, capsys, tmp_path):
    chain = _no_bijection_chain(tmp_path)
    spec = dilation.ChainSpec.from_dict(json.loads(Path(chain).read_text()))
    paths = [tuple(p) for p in dilation.build_markov_dilation(spec, 3).paths.values.T.tolist()]
    first = min(RECTANGLE, key=paths.index)
    _fail_moments(monkeypatch)
    code, out, _ = run(["dilate", chain, "--depth", "3"], capsys)
    assert code == 1
    fail = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fail == [f"FAIL  moments-vs-path-law  --  model moments equal path-law expectations  [((0, 1, 2, 3), {first})]"]


def test_rep_check(capsys):
    code, out, _ = run(["rep-check", COIN, "--depth", "3"], capsys)
    assert code == 0
    assert "intertwining" in out


def test_lump_detects_markov_failure(capsys):
    code, out, _ = run(
        ["lump", LUMPED, "--map", "0,1,0", "--depth", "3"], capsys
    )
    assert code == 1
    assert "FAIL  markov-sequence" in out
    assert "FAIL  maximality" in out
    assert "PASS  localization" in out


def test_verify_all(capsys, tmp_path):
    dest = tmp_path / "report.json"
    code, out, _ = run(
        ["--json", str(dest), "verify", COIN, "--depth", "4", "--suite", "all"], capsys
    )
    assert code == 0
    data = json.loads(dest.read_text())
    assert all(item["verdict"] == "pass" for item in data)
    assert all("micros" not in item for item in data)
    checks = {item["check"] for item in data}
    assert {"triangular-tower", "intertwining", "spreadable", "maximality"} <= checks


def test_verify_hierarchy_iid(capsys):
    code, out, _ = run(["verify", IID, "--suite", "hierarchy"], capsys)
    assert code == 0
    assert "exchangeable" in out and "[yes]" in out


def test_timing_flag(capsys, tmp_path):
    dest = tmp_path / "r.json"
    code, _, _ = run(
        ["--json", str(dest), "--timing", "verify", COIN, "--depth", "3", "--suite", "definetti"],
        capsys,
    )
    assert code == 0
    data = json.loads(dest.read_text())
    assert any("micros" in item for item in data)


def test_malformed_input_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(["stationary", str(bad)], capsys)
    assert code == 2 and "error" in err
    nofile = tmp_path / "missing.json"
    code, _, err = run(["verify", str(nofile)], capsys)
    assert code == 2
    decimal = tmp_path / "dec.json"
    decimal.write_text(json.dumps({"T": [["0.5", "0.5"], ["1/4", "3/4"]]}))
    code, _, err = run(["stationary", str(decimal)], capsys)
    assert code == 2
    float_d = tmp_path / "float_d.json"
    float_d.write_text(json.dumps({"d": 2.0, "T": [["1/2", "1/2"], ["1/4", "3/4"]]}))
    code, out, err = run(["stationary", str(float_d)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: bad chain spec {float_d}: field d must be an integer\n"
    binary = tmp_path / "binary.json"
    binary.write_bytes(bytes([0xFF, 0xFE, 0x00, 0x7B]))
    code, out, err = run(["verify", str(binary)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read chain spec {binary}: ") and err.count("\n") == 1


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
@pytest.mark.parametrize(
    "argv", [["verify", COIN, "--depth", "3", "--suite", "definetti"], ["derive", "EF+", "0", "2"]], ids=["verify", "derive"]
)
def test_unwritable_json_refused_exit_2(argv, where, capsys, tmp_path):
    """A --json path in a missing directory, or a directory, is refused
    after the report is printed, with one error line and no traceback."""
    dest = tmp_path / "missing" / "report.json" if where == "missing-directory" else tmp_path
    code, out, err = run(["--json", str(dest)] + argv, capsys)
    assert code == 2 and out
    assert err.startswith(f"error: cannot write --json {dest}: ") and err.count("\n") == 1


def test_bad_lump_map_exit_2(capsys):
    code, _, err = run(["lump", COIN, "--map", "0,7"], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", COIN, "--depth", "4", "--suite", "definetti"],
        ["lump", COIN, "--map", "0,1", "--depth", "4"],
        ["rep-check", COIN, "--depth", "4"],
    ],
)
def test_over_budget_refused_before_work_exit_2(argv):
    # the coin's level 4 holds 162 atoms; no check reads a level above the depth
    cmd = [sys.executable, "-m", "finmarkov.cli", "--budget", "100"] + argv
    r = subprocess.run(cmd, capture_output=True, text=True)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify", COIN, "--depth", "2", "--suite", suite], 2)
        for suite in ("all", "definetti", "tower")
    ]
    + [
        (["verify", COIN, "--depth", "1", "--suite", "hierarchy"], 2),
        (["lump", LUMPED, "--map", "0,1,0", "--depth", "1"], 2),
        (["rep-check", COIN, "--depth", "1"], 2),
        (["verify", COIN, "--depth", "3", "--suite", "all"], 0),
        (["verify", COIN, "--depth", "2", "--suite", "hierarchy"], 0),
        (["lump", COIN, "--map", "0,1", "--depth", "2"], 0),
        (["rep-check", COIN, "--depth", "2"], 0),
        (["dilate", COIN, "--depth", "1"], 2),
        (["dilate", COIN, "--depth", "2"], 0),
    ],
)
def test_depth_deciding_nothing_refused_exit_2(argv, code):
    # at these depths some check's loop is empty and would pass vacuously;
    # the least depth each command accepts still runs
    r = subprocess.run([sys.executable, "-m", "finmarkov.cli"] + argv, capture_output=True, text=True)
    assert r.returncode == code
    assert "Traceback" not in r.stderr
    if code == 2:
        assert r.stdout == ""
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", COIN],
        ["dilate", COIN],
        ["rep-check", COIN],
        ["lump", COIN, "--map", "0,1"],
    ],
)
def test_huge_depth_refused_in_one_line_exit_2(argv):
    # level 100000 holds 2 * 3^100000 atoms, a number of 47,713 digits: it is
    # refused without being computed or printed
    r = subprocess.run(
        [sys.executable, "-m", "finmarkov.cli"] + argv + ["--depth", "100000"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == "error: level-100000 atom count exceeds budget 2000000\n"


def record_levels(monkeypatch):
    """Record every level a GradedSpace checks against its budget: every
    eta table, level weight and model is built through that check."""
    levels = []
    orig = rep.GradedSpace.ensure
    monkeypatch.setattr(rep.GradedSpace, "ensure", lambda self, m: levels.append(m) or orig(self, m))
    return levels


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", COIN, "--depth", "5", "--suite", "all"],
        ["lump", LUMPED, "--map", "0,0,1", "--depth", "5"],
        ["rep-check", COIN, "--depth", "5"],
        ["rep-check", str(FIXTURES / "coin_with_tables.json"), "--depth", "5"],
    ],
)
def test_no_level_above_the_depth_is_built(argv, monkeypatch, capsys):
    """verify --suite all, lump and rep-check at depth K build level K and
    no level above it."""
    levels = record_levels(monkeypatch)
    code, _, _ = run(argv, capsys)
    assert code in (0, 1) and max(levels) == 5, argv


@pytest.mark.parametrize(
    "spec, K",
    [(COIN, 6), (COIN, 12), ({"d": 2, "T": [[0, 1], [1, 0]]}, 300)],
    ids=["coin-6", "coin-12", "2-cycle-300"],
)
def test_definetti_checks_read_no_level_above_3_at_any_depth(spec, K, monkeypatch):
    """definetti_checks builds level K and reads nothing above level 3
    whatever K is: the path table and the powers read no eta table, the
    relation, intertwining and intersection windows lie on levels up to 4
    and pull back onto level 3 at most, and the tower cells read the head
    lemma's premise on level 0.  The representation keeps 10 windows: 6
    relations, 2 intertwining pairs and 2 intersections."""
    levels = record_levels(monkeypatch)
    obj = json.loads(Path(spec).read_text()) if isinstance(spec, str) else spec
    model = dilation.build_markov_dilation(dilation.ChainSpec.from_dict(obj), K)
    assert checks.definetti_checks(model).passed
    assert max(levels) == K and max(m for _, m in model.rep._eta_cache) == 3
    assert max(model.gspace._weights) == 3
    assert len(model.rep._window_cache) == 10


@pytest.mark.parametrize("suite", ["tower", "hierarchy"])
def test_suites_reading_level_k_run_at_that_budget(suite, capsys):
    code, _, _ = run(["--budget", "200", "verify", COIN, "--depth", "4", "--suite", suite], capsys)
    assert code == 0


def _cycle(tmp_path, d):
    """The d-cycle, a permutation chain: its compact noise has one atom, so
    every level holds d atoms."""
    rows = [["1" if j == (i + 1) % d else "0" for j in range(d)] for i in range(d)]
    path = tmp_path / f"cycle{d}.json"
    path.write_text(json.dumps({"d": d, "T": rows}))
    return str(path)


@pytest.mark.parametrize(
    "d, argv",
    [(2, ["verify", "--depth", "30"]), (2, ["dilate", "--depth", "40"]), (4, ["verify", "--depth", "16"])],
)
def test_one_atom_noise_runs_deep(d, argv, capsys, tmp_path):
    """The swap chain and the 4-cycle hold d atoms at every level, so their
    laws are read off a d-point path table, never a d^(K+1) tensor."""
    code, out, err = run([argv[0], _cycle(tmp_path, d)] + argv[1:], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("PASS") and "FAIL" not in out


@pytest.mark.parametrize(
    "d, budget, argv",
    [
        (40, 2_000_000, ["--suite", "hierarchy", "--depth", "5"]),
        (40, 2_000_000, ["--suite", "hierarchy", "--depth", "9"]),
        (40, 2_000_000, ["--suite", "all", "--depth", "4"]),
        (4, 4095, ["--suite", "hierarchy", "--depth", "5"]),
    ],
)
def test_cycles_verify_where_a_dense_hierarchy_law_exceeds_the_budget(d, budget, argv, capsys, tmp_path):
    """A dense law of X_0 .. X_min(depth, 5) would hold d^(min(depth, 5)+1)
    cells, past the budget; the hierarchy reads the law on its d support
    paths and decides every entry."""
    code, out, err = run(["--budget", str(budget), "verify", _cycle(tmp_path, d)] + argv, capsys)
    assert (code, err) == (0, "")
    assert out.startswith("PASS") and "FAIL" not in out
    assert "PASS  exchangeable" in out


def test_lazy_cycle_verifies_with_the_defaults(capsys, tmp_path):
    """The lazy 20-state cycle, T[i][i] = T[i][i+1] = 1/2, holds 320 atoms
    at level 4, though a dense law of X_0 .. X_4 would hold 20^5 cells:
    `verify` with the default depth, suite and budget decides every
    entry, the hierarchy's included."""
    d = 20
    rows = [["1/2" if j in (i, (i + 1) % d) else "0" for j in range(d)] for i in range(d)]
    path = tmp_path / "lazy20.json"
    path.write_text(json.dumps({"d": d, "T": rows}))
    code, out, err = run(["verify", str(path)], capsys)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert all(line.startswith("PASS  ") for line in lines)
    assert [line.split("  ")[1] for line in lines[-4:]] == [
        "stationary", "spreadable", "exchangeable", "partially-spreadable"
    ]


def test_hierarchy_law_at_the_budget_runs(capsys, tmp_path):
    code, _, err = run(["--budget", "4096", "verify", _cycle(tmp_path, 4), "--suite", "hierarchy", "--depth", "5"], capsys)
    assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "fixture, depth",
    [(p.name, 3) for p in sorted(FIXTURES.glob("*.json"))] + [("coin_p12_p14.json", 6)],
)
def test_verify_all_is_the_suites_concatenated(fixture, depth, capsys, tmp_path):
    """The shared model gives each suite's own report; at depth 6 the
    hierarchy reads its capped horizon 5 off the depth-6 model."""
    reports = {}
    for suite in ("all", "definetti", "tower", "hierarchy"):
        dest = tmp_path / f"{suite}.json"
        argv = ["--json", str(dest), "verify", str(FIXTURES / fixture), "--depth", str(depth)]
        code, _, _ = run(argv + ["--suite", suite], capsys)
        assert code == 0
        reports[suite] = json.loads(dest.read_text())
    assert reports["all"] == reports["definetti"] + reports["tower"] + reports["hierarchy"]


@pytest.mark.parametrize(
    "fixture, depth", [(p.stem, d) for p in sorted(FIXTURES.glob("*.json")) for d in (3, 4)]
)
def test_verify_json_matches_golden(fixture, depth, capsys, tmp_path):
    """The --json report of verify --suite all is byte-identical to the
    recorded tests/golden/<fixture>-d<depth>.json."""
    dest = tmp_path / "report.json"
    argv = ["--json", str(dest), "verify", str(FIXTURES / f"{fixture}.json"), "--depth", str(depth)]
    code, _, _ = run(argv + ["--suite", "all"], capsys)
    assert code == 0
    assert dest.read_bytes() == (GOLDEN / f"{fixture}-d{depth}.json").read_bytes()


@pytest.mark.parametrize(
    "fixture, command, depth",
    [(p.stem, c, d) for p in sorted(FIXTURES.glob("*.json")) for c, d in (("rep-check", 3), ("dilate", 4))],
)
def test_rep_check_and_dilate_json_match_golden(fixture, command, depth, capsys, tmp_path):
    """The --json reports of rep-check --depth 3 and dilate --depth 4 are
    byte-identical to the recorded tests/golden/<fixture>-<command>-d<depth>.json."""
    dest = tmp_path / "report.json"
    code, _, _ = run(["--json", str(dest), command, str(FIXTURES / f"{fixture}.json"), "--depth", str(depth)], capsys)
    assert code == 0
    assert dest.read_bytes() == (GOLDEN / f"{fixture}-{command}-d{depth}.json").read_bytes()


def test_rep_check_builds_the_model_verify_builds(monkeypatch, capsys):
    """rep-check builds one model, on the one coupling every command uses."""
    calls, couplings = [], []
    orig_model, orig_coupling = dilation.build_markov_dilation, dilation.build_first_order_dilation

    def model(*args, **kwargs):
        calls.append(args)
        return orig_model(*args, **kwargs)

    def coupling(*args, **kwargs):
        couplings.append((len(args), kwargs))
        return orig_coupling(*args, **kwargs)

    monkeypatch.setattr(dilation, "build_markov_dilation", model)
    monkeypatch.setattr(dilation, "build_first_order_dilation", coupling)
    code, _, _ = run(["rep-check", COIN, "--depth", "3"], capsys)
    assert code == 0
    assert len(calls) == 1 and couplings == [(1, {})]


def test_shared_decisions_fail_alike_in_verify_and_rep_check(monkeypatch, capsys, tmp_path):
    """With two relation windows and two intertwining pairs made to fail,
    verify --suite definetti and rep-check fail the same entries with the
    same witness, naming the first failing instance of each: the relations
    are verify's representation-premise and rep-check's monoid-relations.
    Each relation instance is decided on its window, and the first instance
    of a window is the window itself."""
    orig_relation, orig_intertwining = rep.PointRep.relation_check, rep.intertwining_check

    def relation_check(self, k, l, m):
        return (False, 5) if (k, l, m) in ((0, 1, 1), (1, 2, 0)) else orig_relation(self, k, l, m)

    def intertwining_check(r, k, n):
        return (False, "patched") if (k, n) in ((1, 2), (0, 3)) else orig_intertwining(r, k, n)

    monkeypatch.setattr(rep.PointRep, "relation_check", relation_check)
    monkeypatch.setattr(rep, "intertwining_check", intertwining_check)
    relations = "alpha_0 alpha_1 != alpha_2 alpha_0 at level-3 atom 5"
    intertwining = "k=1, n=2: patched"
    dest = tmp_path / "report.json"
    for argv, relations_entry in (
        (["verify", COIN, "--depth", "4", "--suite", "definetti"], "representation-premise"),
        (["rep-check", COIN, "--depth", "4"], "monoid-relations"),
    ):
        code, _, _ = run(["--json", str(dest)] + argv, capsys)
        assert code == 1
        entries = {e["check"]: e for e in json.loads(dest.read_text())}
        for check, witness in ((relations_entry, relations), ("intertwining", intertwining)):
            assert entries[check]["verdict"] == "fail" and entries[check]["witness"] == witness, argv
    assert list(entries) == ["monoid-relations", "intertwining"]


def test_verify_all_builds_one_model_and_one_tower(monkeypatch, capsys, window_decisions):
    """verify --suite all builds one model, and the definetti and tower
    suites decide each tower window once: the intersection windows on
    levels 3 and 2."""
    builds = []
    orig = dilation.build_markov_dilation
    monkeypatch.setattr(dilation, "build_markov_dilation", lambda *a, **kw: builds.append(1) or orig(*a, **kw))
    code, _, _ = run(["verify", COIN, "--depth", "4", "--suite", "all"], capsys)
    assert code == 0
    assert builds == [1]
    counts = window_decisions.counts()
    assert counts["_tower_intersection"] == 2


def test_verify_all_decides_each_window_once(capsys, window_decisions):
    """verify --suite all decides each relation, tower and intertwining
    window once, for the monoid-relations, representation-premise and
    hierarchy entries alike, the hierarchy's at its own capped horizon 5
    included."""
    for K in (4, 6, 9):
        window_decisions.clear()
        code, _, _ = run(["verify", COIN, "--depth", str(K), "--suite", "all"], capsys)
        assert code == 0
        assert window_decisions.counts() == {
            "relation_check": 6,
            "_tower_intersection": 2,
            "_intertwining_failure": 2,
        }, K


def test_verify_tower_json_matches_golden(capsys, tmp_path):
    """The --json report of verify --suite tower at depth 7 on the coin (35
    cells) is byte-identical to the recorded golden file."""
    dest = tmp_path / "report.json"
    code, _, _ = run(["--json", str(dest), "verify", COIN, "--depth", "7", "--suite", "tower"], capsys)
    assert code == 0
    assert dest.read_bytes() == (GOLDEN / "coin_p12_p14-tower-d7.json").read_bytes()


def test_tower_meets_once_per_cell_and_fold_step(monkeypatch, capsys):
    """At depth 9 the tower has 84 cells and 7 intersection identities on
    level 8.  The cells meet nothing, and the intersections take two
    windows, levels 3 and 2, with one meet each: 2 meets in all (the
    atom-level route took 119)."""
    calls = 0
    orig = finprob.meet_labels

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(finprob, "meet_labels", counted)
    code, _, _ = run(["verify", COIN, "--depth", "9", "--suite", "tower"], capsys)
    assert code == 0
    assert calls == 2


def test_tower_cells_read_their_head_coordinates(monkeypatch, capsys):
    """At depth 9 each of the 84 cells (m, n, k) passes by the head lemma,
    whose premise is decided on level 0: no cell reaches
    commuting_square_check, and the tower relabels its intersection
    windows only, levels 3 and 2, never a full level of 13,122 atoms."""
    calls, canon = [], []
    orig_tower, orig_check, orig_canon = rep.triangular_tower_check, finprob.commuting_square_check, kern.canonicalize
    deciding = False

    def tower(*args):
        nonlocal deciding
        deciding = True
        try:
            return orig_tower(*args)
        finally:
            deciding = False

    def canonicalize(labels):
        if deciding:
            canon.append(len(labels))
        return orig_canon(labels)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "finmarkov" and getattr(mod, "triangular_tower_check", None) is orig_tower:
            monkeypatch.setattr(mod, "triangular_tower_check", tower)
    monkeypatch.setattr(finprob, "commuting_square_check", lambda *args: calls.append(args) or orig_check(*args))
    monkeypatch.setattr(kern, "canonicalize", canonicalize)
    code, out, _ = run(["verify", COIN, "--depth", "9", "--suite", "tower"], capsys)
    assert code == 0
    assert out.count("tower-cell-") == 84
    assert calls == []
    assert canon and max(canon) <= 2 * 3**3


def test_tower_cell_lines_carry_the_head_lemma_premise(monkeypatch, capsys):
    """verify --suite tower prints every cell with tower_head_lemma's
    verdict: made to fail, each of the 10 cell lines at depth 5 fails and
    the intersection lines still pass."""
    monkeypatch.setattr(rep, "tower_head_lemma", lambda r: False)
    code, out, _ = run(["verify", COIN, "--depth", "5", "--suite", "tower"], capsys)
    cells = [line for line in out.splitlines() if "tower-cell-" in line]
    assert code == 1 and len(cells) == 10 and all(line.startswith("FAIL") for line in cells)
    assert all(line.startswith("PASS") for line in out.splitlines() if "tower-intersection-" in line)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--depth", "3", "--suite", "all"],
        ["lump", "--map", "0,1", "--depth", "3"],
        ["rep-check", "--depth", "3"],
    ],
)
def test_reducible_chain_with_given_pi_refused_exit_2(argv, capsys, tmp_path):
    """The identity chain has every state stationary; a given "pi" does not
    make it unique, so the spec is refused at load with one error line."""
    spec = tmp_path / "reducible.json"
    spec.write_text(json.dumps({"d": 2, "T": [["1", "0"], ["0", "1"]], "pi": ["1/2", "1/2"]}))
    code, out, err = run(argv[:1] + [str(spec)] + argv[1:], capsys)
    assert code == 2 and out == ""
    assert err == f"error: bad chain spec {spec}: stationary distribution is not unique\n"


def test_given_pi_must_be_the_stationary_distribution(capsys, tmp_path):
    spec = tmp_path / "coin.json"
    spec.write_text(json.dumps({"d": 2, "T": [["1/2", "1/2"], ["1/4", "3/4"]], "pi": ["1/3", "2/3"]}))
    assert run(["stationary", str(spec)], capsys) == (0, "1/3 2/3\n", "")
    spec.write_text(json.dumps({"d": 2, "T": [["1/2", "1/2"], ["1/4", "3/4"]], "pi": ["1/2", "1/2"]}))
    code, out, err = run(["stationary", str(spec)], capsys)
    assert code == 2 and out == ""
    assert err == f"error: bad chain spec {spec}: given pi is not the stationary distribution of T\n"


def test_int64_overflow_refused_before_work_exit_2(monkeypatch, capsys, tmp_path):
    """Level-3 weights of this chain exceed int64: every command that builds
    a model refuses it there, before its first check and before any
    dilation power, with one error line and exit 2."""
    spec = tmp_path / "fine.json"
    spec.write_text(json.dumps({"d": 2, "T": [["1/1000003", "1000002/1000003"], ["1/2", "1/2"]]}))
    ran = []
    for module, name in (
        (rep, "triangular_tower_check"),
        (rep, "monoid_relations_check"),
        (rep, "intertwining_identities_check"),
        (checks, "maximal_ps_check"),
        (checks, "markov_sequence_check"),
        (checks, "hierarchy_check"),
        (checks, "dilation_property_check"),
        (dilation.ProcessModel, "compressed_power"),
    ):
        monkeypatch.setattr(module, name, lambda *a, name=name, **k: ran.append(name))
    for argv in (
        ["verify", str(spec), "--depth", "3", "--suite", "definetti"],
        ["verify", str(spec), "--depth", "3", "--suite", "tower"],
        ["verify", str(spec), "--depth", "3", "--suite", "hierarchy"],
        ["lump", str(spec), "--map", "0,1", "--depth", "3"],
        ["dilate", str(spec), "--depth", "3"],
        ["rep-check", str(spec), "--depth", "3"],
    ):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err == "error: level weights exceed int64; refine the chain or lower the horizon\n"
    assert ran == []


def test_weights_read_below_the_overflowing_level_are_not_refused(capsys, tmp_path):
    """Level-3 weights of the 1/3001 chain fit int64 and level-4 ones do not;
    no check at depth 3 reads level-4 weights, so every check runs and
    passes.  The level-5 weights of the 1/401 chain fit int64 although
    max * count * 4 does not; their block sums never exceed the total."""
    obj = {"d": 2, "T": [["1/3001", "3000/3001"], ["1/2", "1/2"]]}
    g = dilation.build_markov_dilation(dilation.ChainSpec.from_dict(obj), 3).gspace
    assert kern.fits_int64(g.level_denominator(3)) and not kern.fits_int64(g.level_denominator(4))
    spec = tmp_path / "edge.json"
    spec.write_text(json.dumps(obj))
    obj = {"d": 2, "T": [["1/401", "400/401"], ["1/2", "1/2"]]}
    w = dilation.build_markov_dilation(dilation.ChainSpec.from_dict(obj), 5).gspace.level_weights(5)
    assert not kern.fits_int64(int(w.max()), len(w))
    spec_401 = tmp_path / "edge_401.json"
    spec_401.write_text(json.dumps(obj))
    for argv in (
        ["verify", str(spec), "--depth", "3", "--suite", "definetti"],
        ["lump", str(spec), "--map", "0,1", "--depth", "3"],
        ["rep-check", str(spec), "--depth", "3"],
        ["verify", str(spec_401), "--depth", "5", "--suite", "definetti"],
    ):
        code, _, err = run(argv, capsys)
        assert (code, err) == (0, ""), argv


def test_output_deterministic():
    cmd = [sys.executable, "-m", "finmarkov.cli", "verify", COIN, "--depth", "3", "--suite", "all"]
    r1 = subprocess.run(cmd, capture_output=True)
    r2 = subprocess.run(cmd, capture_output=True)
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout


def test_reused_parser_gives_fresh_parser_reports(capsys, tmp_path):
    """main builds its parser once per process: a verify run after lump and
    after a refused argv reports byte for byte what verify run first on a
    freshly built parser reports, and so does lump."""
    verify = ["verify", COIN, "--depth", "3", "--suite", "all"]
    lump = ["lump", LUMPED, "--map", "0,1,0", "--depth", "3"]

    def report(argv, name):
        dest = tmp_path / name
        code, out, _ = run(["--json", str(dest)] + argv, capsys)
        return code, out, dest.read_bytes()

    from finmarkov.cli import build_parser

    fresh = {}
    for name, argv in (("verify", verify), ("lump", lump)):
        build_parser.cache_clear()
        fresh[name] = report(argv, f"fresh-{name}.json")
    first = report(verify, "verify1.json")
    assert report(lump, "lump.json") == fresh["lump"]
    with pytest.raises(SystemExit) as exc:
        main(["verify", COIN, "--suite", "nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()
    again = report(verify, "verify2.json")
    assert first == again == fresh["verify"]
    assert first[0] == 0 and fresh["lump"][0] == 1


def test_console_script_installed():
    """The declared ``finmarkov`` console script runs ``normalize``.

    The entry point is read from ``pyproject.toml`` and run through the same
    wrapper an installer generates (``sys.exit(main())`` with arguments from
    ``sys.argv``), so the declaration is checked without an install.  An
    installed ``finmarkov`` executable on PATH is run as well.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    module, _, func = project["scripts"]["finmarkov"].partition(":")
    wrapper = f"import sys\nfrom {module} import {func}\nsys.exit({func}())\n"
    commands = [[sys.executable, "-c", wrapper]]
    installed = shutil.which("finmarkov")
    if installed:
        commands.append([installed])
    for cmd in commands:
        r = subprocess.run(cmd + ["normalize", "g0 g1"], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "g2^1 g0^1"


def test_rep_check_with_explicit_tables(capsys):
    """rep-check reads the spec's own tables; their state preservation is
    decided when the representation is built, so no entry restates it."""
    tables = str(FIXTURES / "coin_with_tables.json")
    code, out, _ = run(["rep-check", tables, "--depth", "3"], capsys)
    assert code == 0
    assert [line.split("  ")[:2] for line in out.splitlines()] == [["PASS", "monoid-relations"], ["PASS", "intertwining"]]


def test_rep_check_rejects_bad_tables(capsys, tmp_path):
    bad = tmp_path / "bad_tables.json"
    bad.write_text(
        json.dumps(
            {
                "d": 2,
                "T": [["1/2", "1/2"], ["1/4", "3/4"]],
                "noise": ["1/4", "1/4", "1/2"],
                "c_map": [[0, 0, 1], [1, 1, 1]],
                "delta_map": [[0, 1, 2], [0, 1, 2], [0, 1, 2]],
            }
        )
    )
    code, _, err = run(["rep-check", str(bad), "--depth", "3"], capsys)
    assert code == 2 and "c_map" in err
    tables = {"d": 2, "T": [["1/2", "1/2"], ["1/4", "3/4"]], "delta_map": [[0, 1, 2]] * 3}
    out_of_range = json.loads((FIXTURES / "coin_with_tables.json").read_text())
    for broken in (
        {"noise": ["1/4", "1/4", "1/2"]},
        {"noise": 5, "c_map": [[0, 0, 1], [0, 1, 1]]},
        {**out_of_range, "c_map": [[0, 0, 5], [0, 1, 1]]},
        {**out_of_range, "c_map": [[0, 0, -1], [0, 1, 1]]},
        {**out_of_range, "delta_map": [[0, 1, 2], [0, 9, 2], [0, 1, 2]]},
        # the int64 conversion would read these as the fixture's own tables
        {**out_of_range, "c_map": [[0.9, 0.9, 1.9], [0.9, 1.9, 1.9]]},
        {**out_of_range, "c_map": [[0, 0, True], [0, 1, 1]]},
        {**out_of_range, "c_map": [[0, 0, "1"], [0, 1, 1]]},
        {**out_of_range, "delta_map": [[0, 1, 2.0], [0, 1, 2], [0, 1, 2]]},
        {**out_of_range, "delta_map": [[0, 1, 2], [False, 1, 2], [0, 1, 2]]},
    ):
        bad.write_text(json.dumps({**tables, **broken}))
        code, out, err = run(["rep-check", str(bad), "--depth", "3"], capsys)
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1, broken


ENTRY = st.one_of(
    st.sampled_from(["0", "1", "1/2", "1/3", "2/3", "1/4", "3/4", "-1/2", "3/2", "1/0", "0.5", "x", "", "1/1000000007"]),
    st.integers(-2, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.none(),
    st.booleans(),
)
TABLE = st.one_of(st.lists(st.lists(st.one_of(st.integers(-1, 4), st.floats(0, 2), st.text(max_size=2)), max_size=4), max_size=4), ENTRY)
FIELDS = st.fixed_dictionaries(
    {},
    optional={
        "T": st.one_of(st.lists(st.lists(ENTRY, max_size=4), max_size=4), ENTRY),
        "d": st.one_of(st.integers(-1, 5), ENTRY),
        "pi": st.one_of(st.lists(ENTRY, max_size=4), ENTRY),
        "noise": st.one_of(st.lists(ENTRY, max_size=4), ENTRY),
        "c_map": TABLE,
        "delta_map": TABLE,
    },
)
VALID = [json.loads(Path(p).read_text()) for p in (COIN, LUMPED, str(FIXTURES / "coin_with_tables.json"))]
SPECS = st.one_of(
    st.builds(lambda base, edits: {**base, **edits}, st.sampled_from(VALID), FIELDS),
    FIELDS,
    st.one_of(st.lists(ENTRY, max_size=3), ENTRY),
)
WORD = st.one_of(st.sampled_from(["g0 g1", "h0 h1", "g1 g0 g2", "g-1", "x3", "", "g0 h1", "g99999999999999999999"]), st.text(max_size=6))


@st.composite
def malformed_argv(draw):
    """A subcommand with a spec, word or map that may be malformed; the
    spec is returned to be written to the file the argv names."""
    depth = str(draw(st.integers(0, 4)))
    cmd = draw(st.sampled_from(["stationary", "dilate", "rep-check", "lump", "verify", "normalize", "word-eq", "shift", "derive"]))
    if cmd in ("normalize", "word-eq"):
        return None, [cmd] + [draw(WORD) for _ in range(1 if cmd == "normalize" else 2)]
    if cmd == "shift":
        return None, [cmd, str(draw(st.integers(-1, 3))), str(draw(st.integers(-1, 3))), draw(WORD)]
    if cmd == "derive":
        return None, [cmd, draw(st.sampled_from(["EF+", "ES+", "FF+"])), str(draw(st.integers(-1, 3))), str(draw(st.integers(-1, 3)))]
    spec = draw(SPECS)
    argv = [cmd, "SPEC"]
    if cmd == "lump":
        argv += ["--map", draw(st.one_of(st.sampled_from(["0,1", "0,1,0", "0,0,1", "1,1", "0,7", "a,b", "", "0,,1", "-1,0"]), st.text(max_size=5)))]
    if cmd == "verify":
        argv += ["--suite", draw(st.sampled_from(["all", "definetti", "tower", "hierarchy"]))]
    if cmd != "stationary":
        argv += ["--depth", depth]
    return spec, argv


@given(malformed_argv(), st.booleans())
@example(({"T": [[]]}, ["stationary", "SPEC"]), False)  # not square: once an IndexError
@settings(max_examples=200, deadline=None)
def test_malformed_input_never_gives_a_traceback(case, raw):
    """Every subcommand, driven with malformed chain specs (zero rows,
    floats, strings, huge denominators, bad explicit tables, bad maps,
    words and indices), exits 0, 1 or 2 and prints no traceback."""
    spec, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        if spec is not None:
            path.write_text("{not json" if raw and not spec else json.dumps(spec))
        argv = [str(path) if a == "SPEC" else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses an argv
                code = exc.code
    assert code in (0, 1, 2), (argv, spec, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_internal_error_exits_3_with_its_traceback(monkeypatch, capsys):
    """An error raised inside the library, even a ValueError, is not
    reported as malformed input: it exits 3 with its traceback."""
    def broken(rep):
        raise ValueError("labels are not canonical")

    monkeypatch.setattr(rep, "intertwining_identities_check", broken)
    code, out, err = run(["rep-check", COIN, "--depth", "3"], capsys)
    assert code == 3 and out == ""
    assert "Traceback" in err and err.rstrip().endswith("ValueError: labels are not canonical")
