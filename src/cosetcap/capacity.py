"""Rates, thresholds and parameter sweeps for code stacks over channel
families.

The rate of a stack of total length l whose outermost layer carries k
logical qubits is (k - S_RB) / l; the empty stack degenerates to the
hashing rate 1 - H(channel).  A threshold is the noise parameter where the
rate crosses zero, found by bracketed root (Chandrupatla) and certified by
its final bracket.

Evaluation dispatch, in order:
  * empty stack                       -> channel entropy (method "exact")
  * one or two pure repetition layers -> closed-form multiset enumeration
    (method "grouped"), falling back to the long-rep estimator when the
    multiset count exceeds its budget (method "longrep")
  * Monte Carlo strategy              -> syndrome sampling (method "mc")
  * anything else                     -> effective-channel composition
    (method "grouped"; "exact" for a single layer)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channels import (ChannelFamily, PauliChannel, bracketed_root, channel_entropy,
                       entropy_peak, family_eval, hashing_point)
from .codes import rep_type_of
from .exact import EXHAUSTIVE_LIMIT, s_rb_code
from .longrep import s_rb_estimate_channel
from .rep import MULTISET_BUDGET, MultisetBudgetError, s_rb_rep
from .stacks import CodeStack, MonteCarlo, s_rb_stack_exact, s_rb_stack_mc

DEFAULT_TOL = 1e-10


class NoThresholdError(RuntimeError):
    """The rate does not change sign on the search bracket."""


@dataclass(frozen=True)
class Evaluation:
    s_rb: float
    method: str
    std_error: float | None = None
    stable: bool = True  # always True; dropped with the benchmark's check of it


def _rep_shape(stack: CodeStack):
    """(n_inner, m_outer, inner_type) for stacks of 1 or 2 repetition layers."""
    layers = stack.layers
    types = [rep_type_of(c) for c in layers]
    if any(t is None for t in types):
        return None
    if len(layers) == 1:
        # a single block is the inner layer of a degenerate concatenation
        if types[0] == "X":
            return layers[0].n, 1, "X"
        return 1, layers[0].n, "X"
    if len(layers) == 2 and types[0] != types[1]:
        return layers[0].n, layers[1].n, types[0]
    return None


def evaluate_s_rb(stack: CodeStack, ch: PauliChannel,
                  limit: int = EXHAUSTIVE_LIMIT,
                  multiset_budget: int = MULTISET_BUDGET,
                  mc: MonteCarlo | None = None) -> Evaluation:
    """S_RB of a stack under one channel, with automatic method choice."""
    if mc is None and isinstance(stack.strategy, MonteCarlo):
        mc = stack.strategy
    if not stack.layers:
        return Evaluation(channel_entropy(ch), "exact")
    if mc is not None:
        est, se = s_rb_stack_mc(stack, ch, samples=mc.samples, seed=mc.seed,
                                limit=limit)
        return Evaluation(est, "mc", std_error=se)
    shape = _rep_shape(stack)
    if shape is not None:
        n, m, inner_type = shape
        try:
            return Evaluation(s_rb_rep(n, m, ch, inner_type=inner_type,
                                       budget=multiset_budget), "grouped")
        except MultisetBudgetError:
            est = s_rb_estimate_channel(n, m, ch, inner_type=inner_type)
            return Evaluation(est.s_rb, "longrep")
    if len(stack.layers) == 1:
        return Evaluation(s_rb_code(stack.layers[0], ch, limit=limit), "exact")
    return Evaluation(s_rb_stack_exact(stack, ch, limit=limit), "grouped")


def rate(stack: CodeStack, family: ChannelFamily, p: float, **kw) -> float:
    """Coherent-information rate (k - S_RB) / l at noise parameter p."""
    ev = evaluate_s_rb(stack, family_eval(family, p), **kw)
    return (stack.k_outer - ev.s_rb) / stack.total_length


def rate_from_channel(stack: CodeStack, ch: PauliChannel, **kw) -> float:
    ev = evaluate_s_rb(stack, ch, **kw)
    return (stack.k_outer - ev.s_rb) / stack.total_length


def nonadditivity(stack: CodeStack, family: ChannelFamily, p: float, **kw) -> float:
    """Rate in excess of the hashing baseline max(0, 1 - H)."""
    ch = family_eval(family, p)
    return rate_from_channel(stack, ch, **kw) - max(0.0, 1.0 - channel_entropy(ch))


@dataclass(frozen=True)
class ThresholdResult:
    stack_spec: str
    family_spec: str
    p_star: float
    method: str
    tol: float
    bracket: tuple[float, float]
    std_error: float | None = None
    crossed: bool = True
    evals: int = 0


def threshold(stack: CodeStack, family: ChannelFamily, tol: float = DEFAULT_TOL,
              bracket: tuple[float, float] | None = None, **kw) -> ThresholdResult:
    """Largest noise parameter with positive rate, by certified bracketed
    root (Chandrupatla).

    Deterministic methods shrink a bracket on the sign of k - S_RB down to
    ``tol``.  Monte Carlo strategies solve for the estimate under common
    random numbers (so it is a deterministic function of p) and report the
    threshold's standard error through the local slope.  ``evals`` counts
    every S_RB evaluation made, the two bracket ends and, for Monte Carlo,
    the three error-bar evaluations included.
    """
    target = float(stack.k_outer)
    if bracket is None:
        lo = 0.5 * hashing_point(family)
        hi = entropy_peak(family) if family.kind == "custom" else family.p_max() - 1e-9
    else:
        lo, hi = bracket
    mc = kw.get("mc") or (stack.strategy if isinstance(stack.strategy, MonteCarlo) else None)
    is_mc = mc is not None

    methods = set()

    def f(p: float) -> float:
        ev = evaluate_s_rb(stack, family_eval(family, p), **kw)
        methods.add(ev.method)
        return ev.s_rb - target

    f_lo, f_hi = f(lo), f(hi)
    if not (f_lo < 0.0 < f_hi):
        raise NoThresholdError(
            f"no rate sign change on [{lo:.6g}, {hi:.6g}] "
            f"(S_RB - k: {f_lo:.3g}, {f_hi:.3g})")
    eff_tol = max(tol, 1e-7 if is_mc else 0.0)
    lo, hi, evals = bracketed_root(f, lo, hi, eff_tol, f_lo=f_lo, f_hi=f_hi)
    evals += 2
    p_star = 0.5 * (lo + hi)

    std_error = None
    if is_mc:
        # slope from a symmetric difference; CRN noise cancels in the mean
        delta = max(50.0 * eff_tol, 1e-5)
        ev_m = evaluate_s_rb(stack, family_eval(family, p_star - delta), **kw)
        ev_p = evaluate_s_rb(stack, family_eval(family, p_star + delta), **kw)
        slope = (ev_p.s_rb - ev_m.s_rb) / (2.0 * delta)
        ev_c = evaluate_s_rb(stack, family_eval(family, p_star), **kw)
        std_error = abs(ev_c.std_error / slope) if slope else math.inf
        evals += 3
    method = ("mc" if is_mc else
              "longrep" if "longrep" in methods else
              "exact" if methods == {"exact"} else "grouped")
    return ThresholdResult(stack.spec(), family.spec(), p_star, method,
                           eff_tol, (lo, hi), std_error=std_error, evals=evals)


@dataclass(frozen=True)
class SweepRow:
    p: float
    s_rb: float
    rate: float
    method: str
    std_error: float | None


def sweep(stack: CodeStack, family: ChannelFamily, p_range: tuple[float, float],
          steps: int, **kw) -> list[SweepRow]:
    """Evaluate (p, S_RB, rate) on an inclusive uniform grid."""
    if steps < 2:
        raise ValueError("sweep needs at least 2 steps")
    lo, hi = p_range
    rows = []
    for i in range(steps):
        p = lo + (hi - lo) * i / (steps - 1)
        ev = evaluate_s_rb(stack, family_eval(family, p), **kw)
        rows.append(SweepRow(p, ev.s_rb,
                             (stack.k_outer - ev.s_rb) / stack.total_length,
                             ev.method, ev.std_error))
    return rows
