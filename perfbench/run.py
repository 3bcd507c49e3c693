#!/usr/bin/env python3
"""cosetcap benchmark: measure one workload and print its metrics.

    python3 perfbench/run.py --workload grouped-stacks --seed 0 --seconds 15 --trace 0

Workloads: small-codes, grouped-stacks, mc-stacks, longrep (NOTES.md says
what each runs and why).  Every measurement happens in a fresh worker
process (worker.py) that imports cosetcap from this checkout's src/, with
OpenBLAS held to one thread through the environment.

--trace 0  starts SETUP_RUNS workers that only set up, then one that times
           passes over the job list for --seconds; prints the end-to-end
           metrics.  setup_s is the median over all of these workers.
--trace 1  starts one worker that alternates untraced and traced passes;
           prints the per-layer metrics and the tracing overhead.

Every call's output is checked.  The last line of stdout is one JSON
object; the full record (environment, failures, every pass time) is
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("small-codes", "grouped-stacks", "mc-stacks", "longrep")
SETUP_RUNS = 4
DEADLINE_S = 170.0
# BLAS threads fixed for every worker; threadpoolctl is not relied on
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def start_worker(args, mode: str, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON report."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **THREADS)
    spawned_at = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker passed the {DEADLINE_S:g} s deadline") from None
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise WorkerError(f"{mode} worker printed no report") from None


def end_to_end(args, deadline):
    setups = [start_worker(args, "setup", deadline)["setup_s"] for _ in range(SETUP_RUNS)]
    rep = start_worker(args, "measure", deadline)
    setups.append(rep["setup_s"])
    calls = rep["call_s"]
    metrics = {
        "wall_s": (statistics.median(rep["pass_wall_s"]), "s"),
        "call_s.p50": (statistics.median(calls) if calls else 0.0, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rep["peak_rss_mb"], "MB"),
        "ok_frac": (1.0 - rep["failed"] / rep["attempted"], "ratio"),
    }
    rep["setup_s_all"] = setups
    lines = [f"  {rep['calls_per_pass']} calls per pass, {len(rep['pass_wall_s'])} passes, "
             f"{SETUP_RUNS + 1} set-ups",
             f"  {'fail_frac':<12} {rep['failed'] / rep['attempted']:.6g} ratio"]
    env = rep.pop("env")
    lines.append("  environment: " + json.dumps(env, sort_keys=True))
    return metrics, rep, lines, env


def per_layer(args, deadline):
    rep = start_worker(args, "trace", deadline)
    metrics = {name: (m["value"], m["unit"]) for name, m in rep.pop("per_layer").items()}
    lines = [f"  {rep['calls_per_pass']} calls per pass, pairs of passes "
             f"(untraced, traced): {len(rep['pass_wall_s']['traced'])}"]
    if rep["not_traced"]:
        lines.append(f"  not traced: {rep['not_traced']}")
    return metrics, rep, lines, None


def main() -> int:
    ap = argparse.ArgumentParser(description="cosetcap benchmark (one workload)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    try:
        metrics, rep, lines, env = (per_layer if args.trace else end_to_end)(args, deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    correct = rep["failed"] == 0 and rep["attempted"] > 0
    print(f"cosetcap benchmark: {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}: "
          f"{rep['attempted']} calls, {rep['failed']} failed")
    for line in lines:
        print(line)
    for call_id, reason in list(rep["failures"].items())[:10]:
        print(f"  FAILED {call_id}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")

    os.makedirs(OUT, exist_ok=True)
    record = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, record), "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "environment": env, "report": rep,
                   "metrics": {k: v for k, (v, _) in metrics.items()}}, fh, indent=1)

    print(json.dumps({"correct": correct, "attempted": rep["attempted"],
                      "failed": rep["failed"],
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
