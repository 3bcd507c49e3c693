#!/usr/bin/env python3
"""Record the reference values the benchmark checks every output against.

    OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py [workload ...]

Evaluates every grid point of the named workloads (default: all) with the
engines of this checkout and rewrites perfbench/reference.json, keeping
the sections of workloads not named.  The exact 5x51 values take about
20 s per point, so the whole file takes several minutes.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from cosetcap import capacity, channels, longrep, optimize, rep, stacks, tables  # noqa: E402

import workloads as w  # noqa: E402

PATH = os.path.join(HERE, "reference.json")


def small_codes():
    cells = {}
    for table in w.SMALL_TABLES:
        for r in tables.run_manifest(table):
            cells.setdefault(f"{table}/{r.cell_id}", {})[r.quantity] = r.got
    runs = {}
    for spec in w.OPTIMIZE_TARGETS:
        res = optimize.optimize_channel(stacks.parse_stack_spec(spec),
                                        restarts=w.OPTIMIZE_RESTARTS, seed=w.OPTIMIZE_SEED)
        runs[spec] = {"non_additivity": res.non_additivity,
                      "coefficients": res.coefficients, "p_hash": res.p_hash,
                      "evaluations": res.evaluations}
    return {"cells": cells, "optimize": runs}


def _s_rb(stack, family, p):
    return capacity.evaluate_s_rb(stack, channels.family_eval(family, p))


def grouped_stacks():
    depol = channels.parse_channel_spec("depol")
    return {spec: [_s_rb(stacks.parse_stack_spec(spec), depol, p).s_rb
                   for p in w.grid(centre)]
            for spec, centre, _ in w.GROUPED_STACKS}


def mc_stacks():
    depol = channels.parse_channel_spec("depol")
    mc = stacks.MonteCarlo(samples=w.MC_REFERENCE_SAMPLES, seed=w.MC_REFERENCE_SEED)
    out = {}
    for spec, centre, _ in w.MC_STACKS:
        if any(spec == g for g, _, _ in w.GROUPED_STACKS):
            continue  # checked against the grouped exact values
        stack = stacks.CodeStack(stacks.parse_stack_spec(spec).layers, mc)
        out[spec] = [[ev.s_rb, ev.std_error] for ev in
                     (_s_rb(stack, depol, p) for p in w.grid(centre))]
    return out


def long_rep():
    out = {}
    for n, m, fam, centre, _ in w.LONGREP:
        family = channels.parse_channel_spec(fam)
        entry = {"estimate": []}
        for p in w.grid(centre):
            est = longrep.s_rb_estimate(n, m, family, p)
            if not est.stable:
                raise SystemExit(f"{n}x{m} {fam} at {p}: estimate unstable")
            entry["estimate"].append(est.s_rb)
        if (n, m, fam) in w.LONGREP_EXACT:
            entry["exact"] = [rep.s_rb_rep(n, m, channels.family_eval(family, p))
                              for p in w.grid(centre)]
        out[w.longrep_key(n, m, fam)] = entry
    return out


SECTIONS = {"small-codes": small_codes, "grouped-stacks": grouped_stacks,
            "mc-stacks": mc_stacks, "longrep": long_rep}


def main() -> int:
    names = sys.argv[1:] or list(SECTIONS)
    unknown = set(names) - set(SECTIONS)
    if unknown:
        raise SystemExit(f"unknown workloads {sorted(unknown)}; have {list(SECTIONS)}")
    ref = {}
    if os.path.exists(PATH):
        with open(PATH, encoding="utf-8") as fh:
            ref = json.load(fh)
    for name in names:
        print(f"recording {name} ...", flush=True)
        ref[name] = SECTIONS[name]()
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
