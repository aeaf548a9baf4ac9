"""The benchmark's tracer wraps finmarkov functions by name; every name it
lists must still resolve, or a traced run breaks."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
