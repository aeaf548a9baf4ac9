"""One workload in one fresh process: generate the seeded inputs, run passes
over the items, check every output, and print one JSON line of results.

Started by run.py with numpy/BLAS threads pinned to 1 and finmarkov on the
import path.  ``--setup-only`` stops after generating the inputs: set-up time
is the wall time of such a fresh interpreter, sampled between the passes and
scaled like every other timing (see REF_S).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from workloads import WORKLOADS

SETUP_SAMPLES = 11

# Host-speed reference.  This kind of shared host changes speed by up to
# 1.8x over minutes, whatever the program does, and a fixed reference task
# slows with it: scaling by the reference cut the spread of 40 s medians of
# one tower pass from 0.21 to 0.04 of their median.  Each timing is scaled
# by REF_S / (the reference's mean time just before and after it), which
# gives the time the work takes when the reference takes REF_S, about its
# time on an idle core (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4).
REF_S = 0.045
REF_EVERY_S = 1.0  # least spacing of references between items
_REF_KEYS = np.random.default_rng(0).integers(0, 1 << 40, size=200_000)


def reference():
    """Wall time of a fixed task of the two kinds finmarkov does: an
    interpreted integer loop and a numpy sort."""
    t0 = time.perf_counter()
    acc = 0
    for j in range(300_000):
        acc += j * j
    np.argsort(_REF_KEYS, kind="stable")
    return time.perf_counter() - t0


def scaled(seconds, ref_before, ref_after):
    return seconds * REF_S / ((ref_before + ref_after) / 2)


def run_pass(items, tracer=None, refs=False):
    """Run every item once; return (wall time, per-item latency, outputs).

    With `refs`, the reference task runs before the first item, after the
    last, and between items at least REF_EVERY_S apart, and each latency is
    scaled by the references on either side of its item (see REF_S)."""
    latencies, outputs, between = {}, {}, {}
    ref = [reference()] if refs else []
    t_ref = time.perf_counter()
    t_pass = time.perf_counter()
    for n, item in enumerate(items, 1):
        if tracer is not None:
            tracer.start_item(item.key)
        t0 = time.perf_counter()
        try:
            outputs[item.key] = (True, item.run())
        except (Exception, SystemExit) as e:  # noqa: BLE001 - a raising item is a failed item
            outputs[item.key] = (False, f"{type(e).__name__}: {e}")
        t1 = time.perf_counter()
        latencies[item.key] = t1 - t0
        if refs:
            between[item.key] = len(ref) - 1
            if n == len(items) or t1 - t_ref >= REF_EVERY_S:
                ref.append(reference())
                t_ref = time.perf_counter()
    wall = time.perf_counter() - t_pass
    if refs:
        latencies = {key: scaled(t, ref[between[key]], ref[between[key] + 1]) for key, t in latencies.items()}
    return wall, latencies, outputs


class Verdicts:
    """Checks each output against the expected verdict and against the
    digest the same item produced on the first pass.  An output identical to
    the first gets the first one's verdict without being checked again."""

    def __init__(self, items):
        self.items = {item.key: item for item in items}
        self.first = {}  # key -> (digest, problem) of the first pass
        self.attempted = 0
        self.failures = []

    def judge(self, outputs):
        for key, (ok, out) in outputs.items():
            self.attempted += 1
            if not ok:
                self.failures.append(f"{key}: raised {out}")
                continue
            item = self.items[key]
            try:
                dig = item.digest(out)
                if key not in self.first:
                    self.first[key] = (dig, item.check(out))
            except Exception as e:  # noqa: BLE001 - an unreadable output is a failed item
                self.failures.append(f"{key}: output could not be checked: {type(e).__name__}: {e}")
                continue
            first_dig, problem = self.first[key]
            if problem is None and dig != first_dig:
                problem = "report differs from the first pass"
            if problem is not None:
                self.failures.append(f"{key}: {problem}")


def environment(seed):
    import numpy

    from finmarkov import _kernels

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": _kernels.backend(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def quantile(values, q):
    """Inclusive linear-interpolation quantile, 0 <= q <= 1."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def warm_up(items, verdicts):
    """One checked, untimed pass: the first pass in a process pays for
    growing the heap, which later passes reuse."""
    verdicts.judge(run_pass(items)[2])


def another_fits(t_start, seconds, last_s):
    """True if one more round of `last_s` seconds ends within the budget."""
    return time.perf_counter() - t_start + last_s <= seconds


def time_setup(cmd):
    """One set-up sample, scaled by the references on either side."""
    before = reference()
    # no timeout here: waiting with one polls in steps of up to 50 ms, which
    # would quantize the sample; run.py's timeout stops the whole group
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - t0
    return scaled(wall, before, reference())


def measure(items, seconds, setup_cmd):
    """Untraced passes while the next one, and the set-up samples still
    owed, fit in `seconds` from the start; at least three passes.  One
    set-up sample follows each pass, so they spread over the run.

    Every latency is scaled by the host-speed reference (see REF_S).  An
    item's latency is its median over the passes, the item percentiles are
    over items, and `pass_s` is the median over passes of the sum of the
    pass's item latencies.  The first pass counts like the others: every
    item is a fresh call that users pay for in full."""
    verdicts = Verdicts(items)
    walls, pass_times, latencies = [], [], {item.key: [] for item in items}
    setup = []
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        wall, lat, outputs = run_pass(items, refs=True)
        verdicts.judge(outputs)
        del outputs
        walls.append(wall)
        pass_times.append(sum(lat.values()))
        for key, t in lat.items():
            latencies[key].append(t)
        if len(setup) < SETUP_SAMPLES:
            setup.append(time_setup(setup_cmd))
        owed = (SETUP_SAMPLES - len(setup)) * statistics.median(setup)
        if len(walls) >= 3 and not another_fits(t_start, seconds, time.perf_counter() - t_round + owed):
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(time_setup(setup_cmd))
    per_item = [statistics.median(ts) for ts in latencies.values()]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (statistics.median(pass_times), "s"),
        "item_p50_s": (quantile(per_item, 0.5), "s"),
        "item_p90_s": (quantile(per_item, 0.9), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_frac": ((verdicts.attempted - len(verdicts.failures)) / verdicts.attempted, "ratio"),
    }
    detail = {
        "passes": len(walls),
        "pass_wall_s": walls,
        "pass_scaled_s": pass_times,
        "items_per_pass": len(items),
        "setup_scaled_s": setup,
    }
    return verdicts, metrics, detail


def measure_traced(items, seconds, seed, trace_path):
    """After the warm-up, pairs of an untraced and a traced pass while the
    next pair fits in `seconds` from the start, at least one pair; per-layer
    metrics are medians over the traced passes, and the two pass times are
    scaled by the host-speed reference like `pass_s`."""
    from tracer import Tracer, kernel_timings, layer_metrics

    tracer = Tracer()
    kinds = {item.key: item.kind for item in items}
    verdicts = Verdicts(items)
    plain, traced, layers = [], [], []
    t_start = time.perf_counter()
    warm_up(items, verdicts)
    while not traced or another_fits(t_start, seconds, time.perf_counter() - t_round):
        t_round = time.perf_counter()
        _, lat, outputs = run_pass(items, refs=True)
        verdicts.judge(outputs)
        plain.append(sum(lat.values()))
        del outputs

        tracer.reset()
        with tracer.recording():
            _, lat, outputs = run_pass(items, tracer, refs=True)
        verdicts.judge(outputs)
        traced.append(sum(lat.values()))
        del outputs
        layers.append(layer_metrics(tracer.summary(), kinds))
        tracer.dump(trace_path, len(traced) - 1)
    tracer.reset()

    metrics = {name: (statistics.median(p[name][0] for p in layers), unit) for name, (_, unit) in layers[0].items()}
    metrics.update(kernel_timings(seed))
    untraced_s, traced_s = statistics.median(plain), statistics.median(traced)
    metrics["trace.pass_s_untraced"] = (untraced_s, "s")
    metrics["trace.pass_s_traced"] = (traced_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    detail = {"pairs": len(traced), "trace_file": trace_path}
    return verdicts, metrics, detail


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workdir = os.path.join(args.outdir, f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        items = WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_only:
            return 0
        if args.trace:
            trace_path = os.path.join(args.outdir, f"trace-{args.workload}-s{args.seed}.jsonl")
            if os.path.exists(trace_path):
                os.remove(trace_path)
            verdicts, metrics, detail = measure_traced(items, args.seconds, args.seed, trace_path)
        else:
            setup_cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload]
            setup_cmd += ["--seed", str(args.seed), "--outdir", args.outdir, "--setup-only"]
            verdicts, metrics, detail = measure(items, args.seconds, setup_cmd)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "attempted": verdicts.attempted,
        "failed": len(verdicts.failures),
        "failures": verdicts.failures[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
        "env": environment(args.seed),
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
