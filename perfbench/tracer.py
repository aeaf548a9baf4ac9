"""In-memory span tracer around finmarkov's layer boundaries.

The tracer replaces each traced function with a wrapper, from outside the
package: module-level functions in every finmarkov namespace that holds them
(several are imported by value into other modules, e.g. ``rep`` holds
``commuting_square_check``, ``_first_occurrence`` and ``_products_equal``),
and methods on their class.  A span is ``[name, start, end, parent, item,
child_s]``; a span's self time is its duration minus the time its child
spans cover.  Probes record counts at the same boundaries; the time a probe
takes is charged to no span's self time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

KERNELS = ("canonicalize", "pair_canon", "union_components", "group_sum")

# module -> traced attributes; "Class.method" names a method, and a class's
# __init__ is reported under the class name
TARGETS = {
    "_kernels": KERNELS + ("group_count",),
    "finprob": (
        "Partition.__init__",
        "Partition.join",
        "Partition.meet",
        "meet_labels",
        "join_labels",
        "cexp_image_labels",
        "cexp_product_equals",
        "cond_independence_given",
        "cexps_commute",
        "commuting_square_check",
        "local_filtration_markov_check",
        "_first_occurrence",
        "_products_equal",
    ),
    "dilation": (
        "stationary_distribution",
        "build_first_order_dilation",
        "build_markov_dilation",
        "dilation_property_check",
        "path_law",
    ),
    "rep": (
        "PointRep.eta",
        "PointRep.fixed_point_partition",
        "PointRep.intersected_fixed_points",
        "PointRep.relation_check",
        "triangular_tower_check",
        "intertwining_check",
        "build_fplus_rep",
    ),
    "checks": (
        "definetti_suite",
        "partial_spreadability_check",
        "maximal_ps_check",
        "markov_sequence_check",
        "hierarchy_check",
        "ProcessView.interval_partition",
        "ProcessView.lump",
    ),
    "monoid": ("normal_form_fplus", "rewriting_closure", "derive_words", "extended_relation_check"),
    "cli": ("main",),
}

# traced calls whose returned object is cached by the program: a return seen
# before (within one item) is a cache hit
CACHED = ("rep.PointRep.eta", "rep.PointRep.fixed_point_partition", "checks.ProcessView.interval_partition")


def _kernel_probe(tr, name, args, out):
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    result = out[0] if isinstance(out, tuple) else out
    tr.add(name, "elems", sum(a.size for a in arrays))
    tr.add("_kernels", "bytes", sum(a.nbytes for a in arrays + [result] if isinstance(a, np.ndarray)))
    if name == "_kernels.canonicalize":
        tr.add(name, "noop", int(np.array_equal(np.asarray(args[0]), result)))


def _cache_probe(tr, name, args, out):
    seen = tr.seen[name]
    if id(out) in seen:
        tr.add(name, "hits", 1)
    else:
        seen[id(out)] = out  # the reference keeps the id from being reused


def _closure_probe(tr, name, args, out):
    tr.add(name, "nodes", len(out))


PROBES = {f"_kernels.{k}": _kernel_probe for k in KERNELS}
PROBES.update({name: _cache_probe for name in CACHED})
PROBES["monoid.rewriting_closure"] = _closure_probe


class Tracer:
    def __init__(self):
        self.item = None
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)
        self.seen = defaultdict(dict)

    @contextlib.contextmanager
    def recording(self):
        """Wrap every target in every finmarkov namespace that holds it, and
        put the originals back on exit, so untraced passes run unwrapped."""
        namespaces = [m for n, m in sys.modules.items() if n == "finmarkov" or n.startswith("finmarkov.")]
        patched = []
        for mod, attrs in TARGETS.items():
            module = sys.modules[f"finmarkov.{mod}"]
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    name = f"{mod}.{cls_name}" if meth == "__init__" else f"{mod}.{attr}"
                    patched.append((cls, meth, vars(cls)[meth]))
                    setattr(cls, meth, self._wrap(name, vars(cls)[meth]))
                    continue
                orig = getattr(module, attr)
                wrapped = self._wrap(f"{mod}.{attr}", orig)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is orig:
                            patched.append((ns, key, orig))
                            setattr(ns, key, wrapped)
        try:
            yield self
        finally:
            for owner, key, orig in reversed(patched):
                setattr(owner, key, orig)

    def _wrap(self, name, fn):
        probe = PROBES.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(name, fn, probe, args, kwargs)

        return wrapper

    def _call(self, name, fn, probe, args, kwargs):
        spans = self.spans
        parent = self.stack[-1] if self.stack else -1
        rec = [name, 0.0, 0.0, parent, self.item, 0.0]
        self.stack.append(len(spans))
        spans.append(rec)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            rec[1], rec[2] = t0, t1
            if parent >= 0:
                spans[parent][5] += t1 - t0
        if probe is not None:
            probe(self, name, args, out)
            if parent >= 0:  # keep the probe out of the parent's self time
                spans[parent][5] += time.perf_counter() - t1
        return out

    # -- recording ------------------------------------------------------------

    def add(self, name, quantity, value):
        self.counts[(name, quantity)] += value

    def start_item(self, key):
        self.item = key
        self.seen.clear()

    def reset(self):
        self.spans, self.stack = [], []
        self.counts.clear()
        self.seen.clear()

    def summary(self):
        """Per-name calls and self time of the recorded spans, plus counts."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        by_item = defaultdict(lambda: defaultdict(int))
        for name, t0, t1, _, item, child in self.spans:
            calls[name] += 1
            self_s[name] += (t1 - t0) - child
            by_item[name][item] += 1
        return {"calls": calls, "self_s": self_s, "counts": self.counts, "by_item": by_item}

    def dump(self, path, pass_index):
        with open(path, "a") as fh:
            for name, t0, t1, parent, item, child in self.spans:
                fh.write(json.dumps([pass_index, name, t0, t1, parent, item, t1 - t0 - child]) + "\n")


def layer_metrics(summary, items):
    """The per-layer metrics of one traced pass.  `items` maps item key to
    kind, so per-`verify` quantities divide by the verify items."""
    calls, self_s, counts = summary["calls"], summary["self_s"], summary["counts"]
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    def ratio(a, b):
        return a / b if b else 0.0

    # metric names start with a letter, so the _kernels module reports as "kernels"
    for k in KERNELS:
        name = f"_kernels.{k}"
        put(f"kernels.{k}.calls", calls.get(name, 0), "count")
        put(f"kernels.{k}.self_s", self_s.get(name, 0.0), "s")
        put(f"kernels.{k}.elems", counts.get((name, "elems"), 0), "count")
    put("kernels.bytes_moved", counts.get(("_kernels", "bytes"), 0), "bytes-computed")
    put(
        "kernels.canonicalize.noop_ratio",
        ratio(counts.get(("_kernels.canonicalize", "noop"), 0), calls.get("_kernels.canonicalize", 0)),
        "ratio",
    )

    put("finprob.Partition.calls", calls.get("finprob.Partition", 0), "count")
    put("finprob.Partition.self_s", self_s.get("finprob.Partition", 0.0), "s")
    put("finprob.Partition.join.calls", calls.get("finprob.Partition.join", 0), "count")
    for f in (
        "local_filtration_markov_check",
        "cexp_image_labels",
        "meet_labels",
        "cexp_product_equals",
        "cond_independence_given",
        "commuting_square_check",
    ):
        put(f"finprob.{f}.self_s", self_s.get(f"finprob.{f}", 0.0), "s")

    put(
        "rep.PointRep.intersected_fixed_points.calls",
        calls.get("rep.PointRep.intersected_fixed_points", 0),
        "count",
    )
    for name in CACHED:
        put(f"{name}.hit_ratio", ratio(counts.get((name, "hits"), 0), calls.get(name, 0)), "ratio")
    put("rep.triangular_tower_check.calls", calls.get("rep.triangular_tower_check", 0), "count")

    verify_items = [k for k, kind in items.items() if kind == "verify"]
    per_item = summary["by_item"]["dilation.build_markov_dilation"]
    builds = sum(per_item[k] for k in verify_items)
    put("dilation.build_markov_dilation.calls_per_verify", ratio(builds, len(verify_items)), "count")
    for f in ("build_first_order_dilation", "dilation_property_check", "stationary_distribution"):
        put(f"dilation.{f}.self_s", self_s.get(f"dilation.{f}", 0.0), "s")

    for f in ("markov_sequence_check", "maximal_ps_check", "hierarchy_check"):
        put(f"checks.{f}.self_s", self_s.get(f"checks.{f}", 0.0), "s")

    for f in ("rewriting_closure", "derive_words"):
        put(f"monoid.{f}.self_s", self_s.get(f"monoid.{f}", 0.0), "s")
    put("monoid.rewriting_closure.nodes", counts.get(("monoid.rewriting_closure", "nodes"), 0), "count")

    put("cli.main.calls", calls.get("cli.main", 0), "count")
    put("cli.main.self_s", self_s.get("cli.main", 0.0), "s")
    return out


def kernel_timings(seed, size=1_000_000, repeat=3):
    """Median wall time of each kernel on seeded arrays of `size` elements."""
    from finmarkov import _kernels as kern

    rng = np.random.default_rng(seed)
    keys = rng.integers(0, size // 16, size=size).astype(np.int64)
    vals = rng.integers(0, 10**9, size=size).astype(np.int64)
    half = rng.integers(0, 1000, size=size).astype(np.int64)
    eu = rng.integers(0, size, size=size).astype(np.int64)
    ev = rng.integers(0, size, size=size).astype(np.int64)
    calls = {
        "canonicalize": lambda: kern.canonicalize(keys),
        "pair_canon": lambda: kern.pair_canon(keys, half),
        "union_components": lambda: kern.union_components(size, eu, ev),
        "group_sum": lambda: kern.group_sum(keys, vals, size // 16),
    }
    out = {}
    for name, fn in calls.items():
        times = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        out[f"kernels.{name}.s_at_1e6"] = (statistics.median(times), "s")
    return out
