"""The package holds the program: every module-level definition in
src/finmarkov has a reader there or in the benchmark.  The tests'
independent routes live in tests/oracles.py."""

import ast
import collections
import importlib.util
import sys
from pathlib import Path

import finmarkov

SRC = Path(finmarkov.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# definitions that no command reads yet, each with the ROADMAP direction
# that will read it
NAMED_READERS = {
    "filtration_from_rep": "direction 3: lump decides f(X) against the parent's local Markov filtration",
    "build_splus_rep": "direction 5: rep-check decides the S+ relations",
}


def _read_names(tree):
    """Every ast.Name id and ast.Attribute attr in tree."""
    out = set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _tracer_targets(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {part for attrs in tracer.TARGETS.values() for attr in attrs for part in attr.split(".")}


def test_every_src_definition_has_a_program_reader(monkeypatch):
    """A module-level function or class of src/finmarkov is read by a Name
    or Attribute outside its own definition somewhere in the package, by
    the code or the tracer targets of perfbench, or by a named ROADMAP
    direction.  Test-only routes belong in tests/oracles.py."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    places = collections.defaultdict(set)  # name -> (module, top-level statement) reading it
    for module, tree in trees.items():
        for node in tree.body:
            for name in _read_names(node):
                places[name].add((module, getattr(node, "name", None)))
    bench = _tracer_targets(monkeypatch)
    for path in sorted(PERFBENCH.glob("*.py")):
        bench |= _read_names(ast.parse(path.read_text()))
    unread = []
    for module, tree in trees.items():
        if module == "__init__.py":
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not places[name] - {(module, name)} and name not in bench and name not in NAMED_READERS:
                unread.append(f"{module[:-3]}.{name}")
    assert unread == [], unread
    defined = {n.name for t in trees.values() for n in t.body if hasattr(n, "name")}
    assert set(NAMED_READERS) <= defined
