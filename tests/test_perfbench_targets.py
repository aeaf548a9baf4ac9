"""The benchmark's tracer wraps finmarkov functions by name; every name it
lists must still resolve, or a traced run breaks.  Its workloads judge
`lump` items by a brute-force oracle on the chain's path law, which must
keep running on the library's API."""

import importlib
import json
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for mod, attrs in tracer.TARGETS.items():
        module = importlib.import_module(f"finmarkov.{mod}")
        for attr in attrs:
            owner = module
            for part in attr.split("."):
                owner = getattr(owner, part, None)
            if owner is None:
                missing.append(f"{mod}.{attr}")
    assert missing == []
    assert "build_first_order_dilation" in tracer.TARGETS["dilation"]


def test_lump_oracle_runs_on_the_path_law(monkeypatch):
    """workloads.lumped_is_markov reads path_law(...).num; on lumped_3to2 it
    agrees with markov_sequence_check for each two-block map."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    from finmarkov import checks, dilation

    chain = dilation.ChainSpec.from_dict(json.loads((ROOT / "fixtures" / "lumped_3to2.json").read_text()))
    view = checks.ProcessView.from_model(dilation.build_markov_dilation(chain, 4))
    verdicts = []
    for f in ([0, 1, 1], [0, 1, 0], [0, 0, 1]):
        oracle = workloads.lumped_is_markov(chain, f, 4)
        assert oracle == checks.markov_sequence_check(view.lump(f)).entries[0].ok, f
        verdicts.append(oracle)
    assert verdicts == [False, False, True]
