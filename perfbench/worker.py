#!/usr/bin/env python3
"""One fresh benchmark process for one workload; run.py starts it.

Modes:
  setup    import cosetcap from this checkout, build the job list, make the
           untimed warm-up call, report the set-up time and exit
  measure  setup, then untraced passes over the job list until --seconds
           have passed; report pass and call times, peak RSS and the result
           of checking every call's output
  trace    setup, then pairs of passes until --seconds have passed: one
           untraced, one with every traced function wrapped; report the
           per-layer metrics and write the spans to perfbench/out/

The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, SRC)
import cosetcap  # noqa: E402

if os.path.dirname(os.path.abspath(cosetcap.__file__)) != os.path.join(SRC, "cosetcap"):
    sys.exit(f"cosetcap was imported from {cosetcap.__file__}, not from {SRC}")

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _batched_rows(counters, parent, args, result):
    cells = args["cells"]
    counters["exact.batched_s_rb.rows"] += cells.shape[0]
    counters["exact.batched_s_rb.bytes"] += cells.size * 8  # computed, float64
    if parent == "stacks.s_rb_stack_exact":
        counters["stacks.top_assignments"] += cells.shape[0]


def _mc_samples(counters, parent, args, result):
    counters["stacks.mc_samples"] += args["samples"]


def _fft_len(counters, parent, args, result):
    from scipy.fft import next_fast_len
    if args["m"] > 1:
        counters["longrep.fft_len"] += next_fast_len((len(args["dist"].pos) - 1) * args["m"] + 1)


def _evaluations(counters, parent, args, result):
    counters["optimize.evaluations"] += result.evaluations


# (module, function, label, hook)
TRACED = (
    ("capacity", "threshold", "capacity.threshold", None),
    ("capacity", "evaluate_s_rb", "capacity.evaluate_s_rb", None),
    ("channels", "hashing_point", "channels.hashing_point", None),
    ("exact", "s_rb_code", "exact.s_rb_code", None),
    ("exact", "coset_distribution", "exact.coset_distribution", None),
    ("exact", "batched_s_rb", "exact.batched_s_rb", _batched_rows),
    ("rep", "s_rb_rep", "rep.s_rb_rep", None),
    ("stacks", "s_rb_stack_exact", "stacks.s_rb_stack_exact", None),
    ("stacks", "s_rb_stack_mc", "stacks.s_rb_stack_mc", _mc_samples),
    ("stacks", "parse_stack_spec", "stacks.parse_stack_spec", None),
    ("longrep", "s_rb_estimate", "longrep.s_rb_estimate", None),
    ("longrep", "qr_coefficients", "longrep.qr_coefficients", None),
    ("longrep", "bin_atoms", "longrep.bin_atoms", None),
    ("longrep", "convolve_power", "longrep.convolve_power", _fft_len),
    ("longrep", "expect_neg_log1p_paired", "longrep.expect_paired", None),
    ("longrep", "expect_neg_log1p_signed", "longrep.expect_signed", None),
    ("optimize", "optimize_channel", "optimize.optimize_channel", _evaluations),
    ("tables", "run_manifest", "tables.run_manifest", None),
    ("codes", "registry_get", "codes.registry_get", None),
)
COUNTERS = (("capacity.evals_per_threshold", "count"),
            ("stacks.top_assignments", "count"),
            ("exact.batched_s_rb.rows", "count"),
            ("exact.batched_s_rb.bytes", "B"),
            ("stacks.mc_samples", "count"),
            ("longrep.fft_len", "count"),
            ("optimize.evaluations", "count"))
PER_LAYER = ([(f"{t[2]}.calls", "count") for t in TRACED]
             + [(f"{t[2]}.self_s", "s") for t in TRACED]
             + list(COUNTERS)
             + [("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
                ("trace.overhead_s", "s")])


def run_pass(workload):
    """Time one pass over the job list; a raising job fails all its calls."""
    calls = []
    t0 = time.perf_counter()
    for job in workload.jobs:
        try:
            got = job.run()
        except Exception as exc:  # noqa: BLE001 -- counted as failed calls
            traceback.print_exc()
            got = [workloads.Call(cid, math.nan, error=f"{type(exc).__name__}: {exc}")
                   for cid in job.call_ids]
        seen = {c.call_id for c in got}
        got += [workloads.Call(cid, math.nan, error="no output")
                for cid in job.call_ids if cid not in seen]
        calls += got
    return time.perf_counter() - t0, calls


def run_passes(workload, seconds):
    """At least one pass, then more until ``seconds`` have passed."""
    walls, passes = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, calls = run_pass(workload)
        walls.append(wall)
        passes.append(calls)
    return walls, passes


def check_passes(workload, passes):
    attempted = failed = 0
    failures = {}
    for calls in passes:
        for call in calls:
            attempted += 1
            reason = call.error
            if reason is None:
                try:
                    reason = workload.check(call)
                except Exception as exc:  # noqa: BLE001 -- a check error fails the call
                    traceback.print_exc()
                    reason = f"check raised {type(exc).__name__}: {exc}"
            if reason:
                failed += 1
                failures.setdefault(call.call_id, reason)
    return {"attempted": attempted, "failed": failed, "failures": failures}


def pass_metrics(tracer):
    m = {}
    for _, _, label, _ in TRACED:
        m[f"{label}.calls"] = tracer.calls.get(label, 0)
        m[f"{label}.self_s"] = tracer.self_s.get(label, 0.0)
    for name, _ in COUNTERS:
        m[name] = tracer.counters.get(name, 0)
    thresholds = tracer.calls.get("capacity.threshold", 0)
    evals = tracer.edges.get(("capacity.threshold", "capacity.evaluate_s_rb"), 0)
    m["capacity.evals_per_threshold"] = evals / thresholds if thresholds else 0.0
    return m


def commit():
    """HEAD of the checkout's git metadata, when there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import importlib.util
    import platform

    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
            "commit": commit()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() just before the parent started this process")
    args = ap.parse_args()

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    workload = workloads.WORKLOADS[args.workload](args.seed, reference)
    workload.warm_up()
    setup_s = time.monotonic() - args.spawned_at
    out = {"setup_s": setup_s,
           "calls_per_pass": sum(len(job.call_ids) for job in workload.jobs)}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    if args.mode == "measure":
        walls, passes = run_passes(workload, args.seconds)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["pass_wall_s"] = walls
        out["call_s"] = [c.seconds for calls in passes for c in calls if c.error is None]
        out.update(check_passes(workload, passes))
        out["env"] = environment()
        print(json.dumps(out))
        return 0

    tracer = Tracer()
    for module, name, label, hook in TRACED:
        tracer.install(f"cosetcap.{module}", name, label, hook)
    # untraced and traced passes alternate, so a drift in host speed reaches
    # both alike; the overhead is the median difference of adjacent passes
    untraced, traced, snapshots, passes = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        wall, calls = run_pass(workload)
        untraced.append(wall)
        passes.append(calls)
        tracer.reset_pass()
        tracer.attach()
        try:
            wall, calls = run_pass(workload)
        finally:
            tracer.detach()
        traced.append(wall)
        passes.append(calls)
        snapshots.append(pass_metrics(tracer))
    out.update(check_passes(workload, passes))
    metrics = {name: statistics.median(s[name] for s in snapshots)
               for name in snapshots[0]}
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, untraced))
    out["per_layer"] = {name: {"value": metrics[name], "unit": unit}
                        for name, unit in PER_LAYER}
    out["pass_wall_s"] = {"untraced": untraced, "traced": traced}
    out["not_traced"] = tracer.missing + sorted(tracer.hook_errors)
    os.makedirs(OUT, exist_ok=True)
    tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
