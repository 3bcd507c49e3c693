"""Workload definitions: fixed job lists, seed-chosen inputs, warm-up calls
and the correctness check of every call's output.

A workload seed only picks inputs: which points of each stack's fixed grid
are evaluated, the Monte Carlo seed, and the order of the small-code jobs.
The library sees nothing but the generated inputs.  Every grid point has a
reference value in reference.json, recorded from the engines by
make_reference.py, so the reference checks hold at every seed.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Any, Callable

from cosetcap import capacity, channels, longrep, optimize, stacks, tables

NAMES = ("small-codes", "grouped-stacks", "mc-stacks", "longrep")
GRID_POINTS = 8
HALF_WIDTH = 2e-4  # noise band around each centre, in p

SMALL_TABLES = ("table1", "table6", "table7", "table9", "table10")
# published optimizer targets (criterion 8); restarts and seed as in the paper
OPTIMIZE_TARGETS = {"repZ(4)": 0.012959633, "5qubit": 0.008869175026}
OPTIMIZE_RESTARTS, OPTIMIZE_SEED = 12, 0
# published digits that disagree with their own definitions; the benchmark
# checks these cells against the engine reference only
DISPUTED = {("table1/hashing", "p_hash"), ("table7/5rep", "threshold"),
            ("table10/7qubit", "p_hash")} | {
    (f"table9/{cell}", "threshold") for cell in
    ("3x3", "3x4", "3x5", "3x7", "4x3", "4x4", "4x5", "4x7", "5x4", "5x5",
     "5x7", "7x7")}

# (stack, band centre, points per pass): published table2 thresholds; the
# two shor stacks are not in table2 and are centred on the engine's
# threshold.  The median call is a toric822 one; its three points are
# spread over the pass (see _round_robin).
GROUPED_STACKS = (("repZ(4) x toric822", 0.0633281095, 3),
                  ("repZ(5) x biased9", 0.063514550053, 1),
                  ("repZ(7) x steane", 0.0627916763, 1),
                  ("repZ(3) x shor", 0.0633428879, 1),
                  ("repZ(5) x shor", 0.0630287094, 1))

# (stack, band centre, points per pass): biased9 is compared with the
# grouped exact values on the same grid; the three-layer stack is centred on
# its published Monte Carlo threshold.  Two cheap points against one dear
# one keep the median call inside one stack.
MC_STACKS = (("repZ(5) x biased9", 0.063514550053, 1),
             ("repX(5) x 5qubit x repZ(5)", 0.063552, 2))
MC_SAMPLES = 20_000
# the three-layer stack's reference: one independent, longer Monte Carlo run
MC_REFERENCE_SAMPLES, MC_REFERENCE_SEED = 100_000, 20240811

# (n, m, family, band centre, points per pass).  The depolarizing band ends
# below p = 0.0638, where 7x61 halves its bin width and doubles its FFT.
# The median call is a 7x61 one; its three points are spread over the pass.
LONGREP = ((7, 61, "depol", 0.0635, 3), (5, 51, "depol", 0.0635, 2),
           (7, 301, "depol", 0.0635, 1), (5, 501, "indxz", 0.1120, 1))
LONGREP_EXACT = ((5, 51, "depol"),)  # exact s_rb_rep fits its budget here

THRESHOLD_TOL = capacity.DEFAULT_TOL
HASHING_TOL = 1e-12
CELL_REF_TOL = {"threshold": THRESHOLD_TOL, "p_hash": HASHING_TOL,
                "non_additivity": 1e-10}
GROUPED_REF_TOL = 1e-9    # grouped engine vs its recorded values (c10 bound)
LONGREP_REF_TOL = 1e-8    # estimator vs its recorded values
LONGREP_EXACT_TOL = 1e-5  # estimator vs exact s_rb_rep (c6 bound)
MC_SIGMAS = 4.0


def grid(centre: float) -> list[float]:
    step = 2.0 * HALF_WIDTH / (GRID_POINTS - 1)
    return [round(centre - HALF_WIDTH + i * step, 12) for i in range(GRID_POINTS)]


def longrep_key(n: int, m: int, family: str) -> str:
    return f"{n}x{m} {family}"


@dataclass
class Call:
    """One user-facing call: its id, time, output, and error if it raised."""
    call_id: str
    seconds: float
    output: Any = None
    error: str | None = None


@dataclass
class Job:
    """A top-level library call; returns the Calls it makes visible."""
    run: Callable[[], list[Call]]
    call_ids: list[str]


def _round_robin(entries: list[list[Job]]) -> list[Job]:
    """The first job of every entry, then the second of every entry, and so on.

    A stack or size with several points per pass has them spread over the
    pass, so the median call samples the host's speed across the whole
    run, not at one moment of it.
    """
    return [jobs[r] for r in range(max(map(len, entries)))
            for jobs in entries if r < len(jobs)]


def _timed(call_id: str, fn, *args, **kwargs) -> Call:
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return Call(call_id, time.perf_counter() - t0, out)


class Workload:
    name = ""

    def __init__(self, seed: int, reference: dict):
        self.rng = random.Random(seed)
        self.ref = reference[self.name]
        self.jobs: list[Job] = []

    def warm_up(self) -> None:
        raise NotImplementedError

    def check(self, call: Call) -> str | None:
        """Reason the call's output misses its correctness bound, or None."""
        raise NotImplementedError


def _ratecheck(stack, family, p: float, tol: float) -> str | None:
    """Certify the rate's sign change in [p - tol/2, p + tol/2]."""
    k = stack.k_outer
    below = capacity.evaluate_s_rb(stack, channels.family_eval(family, p - tol / 2))
    above = capacity.evaluate_s_rb(stack, channels.family_eval(family, p + tol / 2))
    if not (below.s_rb - k < 0.0 < above.s_rb - k):
        return (f"rate sign not certified around {p!r}: S_RB - k = "
                f"{below.s_rb - k:.3g}, {above.s_rb - k:.3g}")
    return None


class SmallCodes(Workload):
    name = "small-codes"

    def __init__(self, seed, reference):
        super().__init__(seed, reference)
        self.cells = {}
        for table in SMALL_TABLES:
            manifest = tables.load_manifest(table)
            ids = [f"{table}/{c['id']}" for c in manifest["cells"]]
            self.cells.update(zip(ids, manifest["cells"]))
            self.jobs.append(Job(self._manifest_job(table), ids))
        for spec in OPTIMIZE_TARGETS:
            stack = stacks.parse_stack_spec(spec)
            self.jobs.append(Job(self._optimize_job(spec, stack), [f"optimize/{spec}"]))
        self.rng.shuffle(self.jobs)
        self._certified: dict = {}

    @staticmethod
    def _manifest_job(table):
        def run():
            cells: dict[str, Call] = {}
            for r in tables.run_manifest(table):
                call = cells.setdefault(f"{table}/{r.cell_id}",
                                        Call(f"{table}/{r.cell_id}", 0.0, []))
                call.seconds += r.seconds
                call.output.append(r)
            return list(cells.values())
        return run

    @staticmethod
    def _optimize_job(spec, stack):
        def run():
            return [_timed(f"optimize/{spec}", optimize.optimize_channel, stack,
                           restarts=OPTIMIZE_RESTARTS, seed=OPTIMIZE_SEED)]
        return run

    def warm_up(self):
        capacity.threshold(stacks.parse_stack_spec("5qubit"),
                           channels.parse_channel_spec("depol"))

    def check(self, call):
        if call.call_id.startswith("optimize/"):
            return self._check_optimize(call)
        cell = self.cells[call.call_id]
        ref = self.ref["cells"][call.call_id]
        for r in call.output:
            if not math.isfinite(r.got):
                return f"{r.quantity} is {r.got}"
            if abs(r.got - ref[r.quantity]) > CELL_REF_TOL[r.quantity]:
                return (f"{r.quantity} {r.got!r} differs from reference "
                        f"{ref[r.quantity]!r} by more than {CELL_REF_TOL[r.quantity]:g}")
            if (call.call_id, r.quantity) not in DISPUTED and not r.passed:
                return (f"{r.quantity} {r.got!r} misses published {r.expected!r} "
                        f"at tolerance {r.tol:g}")
        if cell["kind"] in ("threshold", "hashing"):
            key = (call.call_id, call.output[0].got)
            if key not in self._certified:
                self._certified[key] = self._certify(cell, call.output[0].got)
            return self._certified[key]
        return None

    @staticmethod
    def _certify(cell, p):
        family = channels.parse_channel_spec(cell["channel"])
        if cell["kind"] == "threshold":
            return _ratecheck(stacks.parse_stack_spec(cell["stack"]), family, p,
                              THRESHOLD_TOL)
        h_lo = channels.channel_entropy(channels.family_eval(family, p - HASHING_TOL / 2))
        h_hi = channels.channel_entropy(channels.family_eval(family, p + HASHING_TOL / 2))
        if not h_lo < 1.0 <= h_hi:
            return f"entropy does not cross 1 bit around {p!r}"
        return None

    def _check_optimize(self, call):
        spec = call.call_id.split("/", 1)[1]
        res = call.output
        ref = self.ref["optimize"][spec]
        q = res.non_additivity
        if not math.isfinite(q):
            return f"non-additivity is {q}"
        if q < OPTIMIZE_TARGETS[spec] - 1e-4:
            return f"best Q {q!r} below published {OPTIMIZE_TARGETS[spec]} - 1e-4"
        if q < ref["non_additivity"] - 1e-6:
            return f"best Q {q!r} below reference {ref['non_additivity']!r} - 1e-6"
        _, q_again = optimize.nonadditivity_at_hashing(
            stacks.parse_stack_spec(spec), res.coefficients)
        if abs(q_again - q) > 1e-9:
            return f"Q {q!r} not reproduced at its coefficients ({q_again!r})"
        return None


class GroupedStacks(Workload):
    name = "grouped-stacks"

    def __init__(self, seed, reference):
        super().__init__(seed, reference)
        depol = channels.parse_channel_spec("depol")
        self.expected = {}
        entries = []
        for spec, centre, count in GROUPED_STACKS:
            stack = stacks.parse_stack_spec(spec)
            points = grid(centre)
            entries.append([])
            for i in sorted(self.rng.sample(range(GRID_POINTS), count)):
                call_id = f"{spec} @ {points[i]!r}"
                self.expected[call_id] = self.ref[spec][i]
                entries[-1].append(Job(self._job(call_id, stack,
                                                 channels.family_eval(depol, points[i])),
                                       [call_id]))
        self.jobs = _round_robin(entries)

    @staticmethod
    def _job(call_id, stack, ch):
        return lambda: [_timed(call_id, capacity.evaluate_s_rb, stack, ch)]

    def warm_up(self):
        capacity.evaluate_s_rb(stacks.parse_stack_spec("repZ(3) x shor"),
                               channels.family_eval(channels.parse_channel_spec("depol"),
                                                    0.0633))

    def check(self, call):
        ev = call.output
        if ev.method != "grouped" or not ev.stable:
            return f"method {ev.method!r}, stable={ev.stable}"
        ref = self.expected[call.call_id]
        if not abs(ev.s_rb - ref) <= GROUPED_REF_TOL:
            return f"S_RB {ev.s_rb!r} differs from reference {ref!r}"
        return None


class MCStacks(Workload):
    name = "mc-stacks"

    def __init__(self, seed, reference):
        super().__init__(seed, reference)
        depol = channels.parse_channel_spec("depol")
        mc = stacks.MonteCarlo(samples=MC_SAMPLES, seed=self.rng.randrange(2 ** 32))
        self.expected = {}
        for spec, centre, count in MC_STACKS:
            stack = stacks.CodeStack(stacks.parse_stack_spec(spec).layers, mc)
            points = grid(centre)
            for i in sorted(self.rng.sample(range(GRID_POINTS), count)):
                call_id = f"{spec} @ {points[i]!r}"
                if spec in self.ref:  # independent Monte Carlo reference
                    self.expected[call_id] = self.ref[spec][i]
                else:  # grouped exact value at the same point
                    self.expected[call_id] = [reference["grouped-stacks"][spec][i], 0.0]
                self.jobs.append(Job(GroupedStacks._job(
                    call_id, stack, channels.family_eval(depol, points[i])), [call_id]))

    def warm_up(self):
        depol = channels.parse_channel_spec("depol")
        for spec, centre, _ in MC_STACKS:
            stack = stacks.CodeStack(stacks.parse_stack_spec(spec).layers,
                                     stacks.MonteCarlo(samples=256, seed=0))
            capacity.evaluate_s_rb(stack, channels.family_eval(depol, centre))

    def check(self, call):
        ev = call.output
        if ev.method != "mc" or not ev.stable:
            return f"method {ev.method!r}, stable={ev.stable}"
        se = ev.std_error
        if not (math.isfinite(ev.s_rb) and se is not None and 0.0 < se < math.inf):
            return f"estimate {ev.s_rb!r} with standard error {se!r}"
        ref, ref_se = self.expected[call.call_id]
        band = MC_SIGMAS * math.hypot(se, ref_se)
        if abs(ev.s_rb - ref) > band:
            return f"S_RB {ev.s_rb!r} more than {MC_SIGMAS:g} sigma from {ref!r}"
        return None


class LongRep(Workload):
    name = "longrep"

    def __init__(self, seed, reference):
        super().__init__(seed, reference)
        self.expected = {}
        entries = []
        for n, m, fam, centre, count in LONGREP:
            family = channels.parse_channel_spec(fam)
            key = longrep_key(n, m, fam)
            points = grid(centre)
            entries.append([])
            for i in sorted(self.rng.sample(range(GRID_POINTS), count)):
                call_id = f"{key} @ {points[i]!r}"
                self.expected[call_id] = (self.ref[key]["estimate"][i],
                                          self.ref[key].get("exact", [None] * GRID_POINTS)[i])
                entries[-1].append(Job(self._job(call_id, n, m, family, points[i]),
                                       [call_id]))
        self.jobs = _round_robin(entries)

    @staticmethod
    def _job(call_id, n, m, family, p):
        return lambda: [_timed(call_id, longrep.s_rb_estimate, n, m, family, p)]

    def warm_up(self):
        longrep.s_rb_estimate(5, 12, channels.parse_channel_spec("depol"), 0.0636)

    def check(self, call):
        est = call.output
        if not est.stable:
            return "estimate flagged unstable"
        ref, exact = self.expected[call.call_id]
        if not abs(est.s_rb - ref) <= LONGREP_REF_TOL:
            return f"S_RB {est.s_rb!r} differs from reference {ref!r}"
        if exact is not None and not abs(est.s_rb - exact) <= LONGREP_EXACT_TOL:
            return f"S_RB {est.s_rb!r} differs from exact {exact!r}"
        return None


WORKLOADS = {w.name: w for w in (SmallCodes, GroupedStacks, MCStacks, LongRep)}
