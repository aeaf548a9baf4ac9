"""finmarkov benchmark: end-to-end and per-layer metrics of three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload suite-deep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads are listed with their reasons in BENCHMARK.json.  With
``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones (set-up time, pass time, per-item latency,
peak memory, share of items with the expected verdict); with ``--trace 1``
they are the per-layer ones from an in-memory span trace, plus the tracing
overhead.  The line before it records the seed, the Python and numpy
versions, the kernel backend, nproc and the CPU model.  ``--workload all``
runs the three workloads in turn and prints every end-to-end metric by name
and unit.

Everything runs on one thread: numpy/BLAS thread pools are pinned to 1 in
this process's environment, which every child inherits.  Each measurement
runs in a fresh worker process (peak memory is that process's own); set-up
is timed as several fresh interpreters that import finmarkov and generate
the seeded inputs, started by the worker between its passes, and reported
as their median.  Every timing is scaled by a host-speed reference task run
around it (see REF_S in worker.py), because this kind of shared host
changes speed by up to 1.8x over minutes.  Files go to perfbench/out/
only.  Exit status is 0 whenever a result line is printed; its
``correct`` field says whether every item gave its expected verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("suite-deep", "tower-deep", "corpus-small")
WORKER_TIMEOUT_S = 160
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def worker(args, extra):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--outdir", OUT] + extra
    # own process group, so a timeout also stops the set-up interpreters the
    # worker starts
    with subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    ) as proc:
        try:
            out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"worker did not finish within {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{err[-2000:]}")
    return out


def run_workload(args):
    out = worker(args, ["--seconds", str(args.seconds), "--trace", str(args.trace)])
    res = json.loads(out.strip().splitlines()[-1])
    for line in res["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    info = {"workload": args.workload, **res["env"], "detail": res["detail"]}
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }
    return info, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "finmarkov", "__init__.py")):
        print("error: finmarkov sources not found under src/; run from a checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.makedirs(OUT, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            args.workload = name
            info, results[name] = run_workload(args)
            print(json.dumps({"info": info}))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    if len(names) > 1:
        for name, res in results.items():
            for metric, m in res["metrics"].items():
                print(f"{name:<14} {metric:<48} {m['value']:>14.6g} {m['unit']}")
        print(json.dumps(results))
    else:
        print(json.dumps(results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
