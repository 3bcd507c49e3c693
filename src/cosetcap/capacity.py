"""Rates, thresholds and parameter sweeps for code stacks over channel
families.

The rate of a stack of total length l whose outermost layer carries k
logical qubits is (k - S_RB) / l; the empty stack degenerates to the
hashing rate 1 - H(channel).  A threshold is the noise parameter where the
rate crosses zero, found by bracketed root (Chandrupatla) on S_RB - k and
certified by its final bracket.

Evaluation dispatch, in order, all in ``evaluate_s_rb``, which returns
S_RB - k (``Evaluation.excess``):
  * empty stack                   -> channel entropy (method "exact")
  * Monte Carlo strategy          -> syndrome sampling (method "mc")
  * repetition top layer over any inner stack (``codes.rep_type_of``)
                                  -> the atom table of the top over its
    inner entries (``stacks.top_entries``, ``rep.top_atoms``), summed
    exactly over multisets of atoms up to SUM_MULTISETS (method "grouped"),
    past it by the long-rep estimator (method "longrep"); both are exact
    and return S_RB - 1 relatively accurate (1e-18 to 1e-30 near the
    thresholds of long tops, below the rounding of S_RB itself)
  * anything else                 -> effective-channel composition
    (method "grouped"; "exact" for a single layer)

``evaluate_s_rb_batch`` gives S_RB - k for an (A, 4) array of channels:
one engine call for a single Walsh or multiset-sum repetition layer,
``evaluate_s_rb`` per row for every other stack, the empty one included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (_NEG_TOL, _SUM_TOL, ChannelFamily, PauliChannel, bracketed_root,
                       channel_entropy, entropy_peak, family_eval, hashing_point)
from .codes import rep_type_of
from .exact import _batched_cells, batched_s_rb, s_rb_code
from .longrep import s_rb_estimate_atoms
from .rep import SUM_MULTISETS, multiset_count, s_rb_atoms, top_atoms
from .stacks import CodeStack, MonteCarlo, s_rb_stack_exact, s_rb_stack_mc, top_entries

DEFAULT_TOL = 1e-10


class NoThresholdError(RuntimeError):
    """The rate does not change sign on the search bracket."""


@dataclass(frozen=True)
class Evaluation:
    """S_RB of a stack under one channel, carried as S_RB - k (k logical
    qubits in the outermost layer), which the atom engines return."""
    excess: float
    k: int
    method: str
    std_error: float | None = None
    stable: bool = True  # always True; dropped with the benchmark's check of it

    @property
    def s_rb(self) -> float:
        return self.k + self.excess


def _evaluate_atoms(rows, m: int) -> Evaluation:
    """S_RB of a repetition top of length m over its atom table, by the
    multiset sum ("grouped") up to SUM_MULTISETS multisets, by the long-rep
    estimator ("longrep") past it."""
    if multiset_count(m, rows.shape[0]) <= SUM_MULTISETS:
        return Evaluation(s_rb_atoms(rows, m), 1, "grouped")
    return Evaluation(s_rb_estimate_atoms(rows, m), 1, "longrep")


def evaluate_s_rb(stack: CodeStack, ch: PauliChannel) -> Evaluation:
    """S_RB of a stack under one channel, with automatic method choice."""
    k = stack.k_outer
    if not stack.layers:
        return Evaluation(channel_entropy(ch) - k, k, "exact")
    if isinstance(stack.strategy, MonteCarlo):
        mc = stack.strategy
        est, se = s_rb_stack_mc(stack, ch, samples=mc.samples, seed=mc.seed)
        return Evaluation(est - k, k, "mc", std_error=se)
    top_type = rep_type_of(stack.layers[-1])
    if top_type is not None:
        rows = top_atoms(*top_entries(stack, ch), top_type)
        return _evaluate_atoms(rows, stack.layers[-1].n)
    if len(stack.layers) == 1:
        return Evaluation(s_rb_code(stack.layers[0], ch) - k, k, "exact")
    return Evaluation(s_rb_stack_exact(stack, ch) - k, k, "grouped")


def evaluate_s_rb_batch(stack: CodeStack, chans: np.ndarray) -> np.ndarray:
    """S_RB - k of a stack under each channel row of ``chans`` (A, 4), as (A,).

    A single Walsh layer goes through the Walsh engine, and a single
    repetition layer within SUM_MULTISETS through the multiset sum, once
    for all rows.  Every other stack runs ``evaluate_s_rb`` row by row.
    Every row must be a channel by ``PauliChannel``'s rule, or ValueError.
    """
    bad = ~((chans >= -_NEG_TOL).all(axis=1) & (np.abs(chans.sum(axis=1) - 1.0) <= _SUM_TOL))
    if bad.any():
        row = chans[int(np.argmax(bad))].tolist()
        raise ValueError(f"channel row {row} has a negative or NaN probability "
                         "or a sum other than 1")
    if len(stack.layers) == 1 and not isinstance(stack.strategy, MonteCarlo):
        top = stack.layers[0]
        top_type = rep_type_of(top)
        if top_type is None:
            sites = np.broadcast_to(chans[:, None, :], (chans.shape[0], top.n, 4))
            return batched_s_rb(_batched_cells(top, sites)) - stack.k_outer
        # a row has at most two atoms: within the limit at two, every row is
        if multiset_count(top.n, 2) <= SUM_MULTISETS:
            weights = np.ones((chans.shape[0], 1))
            return s_rb_atoms(top_atoms(weights, chans[:, None, :], top_type), top.n)
    return np.array([evaluate_s_rb(stack, PauliChannel(*row)).excess
                     for row in chans.tolist()])


def rate(stack: CodeStack, family: ChannelFamily, p: float) -> float:
    """Coherent-information rate (k - S_RB) / l at noise parameter p."""
    return -evaluate_s_rb(stack, family_eval(family, p)).excess / stack.total_length


@dataclass(frozen=True)
class ThresholdResult:
    stack_spec: str
    family_spec: str
    p_star: float
    method: str
    tol: float
    bracket: tuple[float, float]
    std_error: float | None = None
    evals: int = 0


def threshold(stack: CodeStack, family: ChannelFamily, tol: float = DEFAULT_TOL,
              bracket: tuple[float, float] | None = None) -> ThresholdResult:
    """Largest noise parameter with positive rate, by certified bracketed
    root (Chandrupatla).

    Deterministic methods shrink a bracket on the sign of k - S_RB down to
    ``tol``.  Monte Carlo strategies solve for the estimate under common
    random numbers (so it is a deterministic function of p) and report the
    threshold's standard error through the local slope.  ``evals`` counts
    every S_RB evaluation made, the two bracket ends and, for Monte Carlo,
    the three error-bar evaluations included.  ``tol`` must be finite and
    positive; below the spacing of doubles the bracket ends adjacent, and
    the reported ``tol`` is the final bracket's width where that is larger.
    A repetition top whose S_RB - 1 underflows to 0 near the threshold
    (depolarizing: repZ(m) from m ~ 1,700, repX(3) x repZ(m) from ~4,600)
    raises NoThresholdError rather than solve on zeros.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"threshold tolerance must be finite and positive, got {tol!r}")
    if bracket is None:
        lo = 0.5 * hashing_point(family)
        hi = entropy_peak(family) if family.kind == "custom" else family.p_max() - 1e-9
    else:
        lo, hi = bracket
    is_mc = isinstance(stack.strategy, MonteCarlo)
    # the atom engines' S_RB - 1 is relatively accurate: 0 is underflow
    atoms = not is_mc and bool(stack.layers) and rep_type_of(stack.layers[-1]) is not None

    methods = set()

    def f(p: float) -> float:
        ev = evaluate_s_rb(stack, family_eval(family, p))
        methods.add(ev.method)
        if atoms and ev.excess == 0.0:
            engine = "long-rep estimator" if ev.method == "longrep" else "multiset sum"
            raise NoThresholdError(
                f"S_RB - 1 underflows to 0 in the {engine} at p = {p:.6g}: its sign "
                "needs the long-rep estimator in log form, which is not implemented")
        return ev.excess

    f_lo, f_hi = f(lo), f(hi)
    if not (f_lo < 0.0 < f_hi):
        raise NoThresholdError(
            f"no rate sign change on [{lo:.6g}, {hi:.6g}] "
            f"(S_RB - k: {f_lo:.3g}, {f_hi:.3g})")
    eff_tol = max(tol, 1e-7 if is_mc else 0.0)
    lo, hi, evals = bracketed_root(f, lo, hi, eff_tol, f_lo, f_hi)
    evals += 2
    p_star = 0.5 * (lo + hi)

    std_error = None
    if is_mc:
        # slope from a symmetric difference; CRN noise cancels in the mean
        delta = max(50.0 * eff_tol, 1e-5)
        ev_m = evaluate_s_rb(stack, family_eval(family, p_star - delta))
        ev_p = evaluate_s_rb(stack, family_eval(family, p_star + delta))
        slope = (ev_p.excess - ev_m.excess) / (2.0 * delta)
        ev_c = evaluate_s_rb(stack, family_eval(family, p_star))
        std_error = abs(ev_c.std_error / slope) if slope else math.inf
        evals += 3
    method = ("mc" if is_mc else
              "longrep" if "longrep" in methods else
              "exact" if methods == {"exact"} else "grouped")
    return ThresholdResult(stack.spec(), family.spec(), p_star, method,
                           max(eff_tol, hi - lo), (lo, hi), std_error=std_error,
                           evals=evals)


@dataclass(frozen=True)
class SweepRow:
    p: float
    s_rb: float
    rate: float
    method: str
    std_error: float | None


def sweep(stack: CodeStack, family: ChannelFamily, p_range: tuple[float, float],
          steps: int) -> list[SweepRow]:
    """Evaluate (p, S_RB, rate) on an inclusive uniform grid of ``steps``
    points; a range with lo == hi may have just one."""
    lo, hi = p_range
    if steps < (1 if lo == hi else 2):
        raise ValueError("sweep needs at least 2 steps, or 1 where lo == hi")
    rows = []
    for i in range(steps):
        p = lo + (hi - lo) * i / max(steps - 1, 1)
        ev = evaluate_s_rb(stack, family_eval(family, p))
        rows.append(SweepRow(p, ev.s_rb, -ev.excess / stack.total_length,
                             ev.method, ev.std_error))
    return rows
