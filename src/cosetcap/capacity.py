"""Rates, thresholds and parameter sweeps for code stacks over channel
families.

The rate of a stack of total length l whose outermost layer carries k
logical qubits is (k - S_RB) / l; the empty stack degenerates to the
hashing rate 1 - H(channel).  A threshold is the noise parameter where the
rate crosses zero, found by bracketed root (Chandrupatla) and certified by
its final bracket.

Evaluation dispatch, in order, all in ``evaluate_s_rb``:
  * empty stack                       -> channel entropy (method "exact")
  * Monte Carlo strategy              -> syndrome sampling (method "mc")
  * one or two pure repetition layers -> the exact multiset sum over the
    inner blocks' folded atoms (method "grouped") up to REP_SWITCH
    multisets, the long-rep estimator on the same atoms above it (method
    "longrep"); both are exact, and the switch sits where the estimator's
    roughly constant cost meets the sum's per-multiset cost (7x11 and
    5x19 below it, 7x13 and 5x21 above)
  * anything else                     -> effective-channel composition
    (method "grouped"; "exact" for a single layer)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channels import (ChannelFamily, PauliChannel, bracketed_root, channel_entropy,
                       entropy_peak, family_eval, hashing_point)
from .codes import rep_type_of
from .exact import s_rb_code
from .longrep import s_rb_estimate_channel
from .rep import multiset_count, s_rb_rep
from .stacks import CodeStack, MonteCarlo, s_rb_stack_exact, s_rb_stack_mc

DEFAULT_TOL = 1e-10
# n x m repetition shapes with more multisets of the 2 (n//2 + 1) inner
# block groups than this go to the estimator: 7x11 (31,824) and 5x19
# (42,504) are faster by the sum, 7x13 (77,520) and 5x21 (65,780) by the
# estimator, and the two cost about the same at 7x12 (50,388) and 5x20
# (53,130), ~2.5 ms each at depolarizing p = 0.0637 on one BLAS thread
REP_SWITCH = 50_000


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


def evaluate_s_rb(stack: CodeStack, ch: PauliChannel) -> Evaluation:
    """S_RB of a stack under one channel, with automatic method choice."""
    if not stack.layers:
        return Evaluation(channel_entropy(ch), "exact")
    if isinstance(stack.strategy, MonteCarlo):
        mc = stack.strategy
        est, se = s_rb_stack_mc(stack, ch, samples=mc.samples, seed=mc.seed)
        return Evaluation(est, "mc", std_error=se)
    shape = _rep_shape(stack)
    if shape is not None:
        n, m, inner_type = shape
        if multiset_count(m, 2 * (n // 2 + 1)) <= REP_SWITCH:
            return Evaluation(s_rb_rep(n, m, ch, inner_type=inner_type), "grouped")
        est = s_rb_estimate_channel(n, m, ch, inner_type=inner_type)
        return Evaluation(est.s_rb, "longrep")
    if len(stack.layers) == 1:
        return Evaluation(s_rb_code(stack.layers[0], ch), "exact")
    return Evaluation(s_rb_stack_exact(stack, ch), "grouped")


def rate(stack: CodeStack, family: ChannelFamily, p: float) -> float:
    """Coherent-information rate (k - S_RB) / l at noise parameter p."""
    return rate_from_channel(stack, family_eval(family, p))


def rate_from_channel(stack: CodeStack, ch: PauliChannel) -> float:
    ev = evaluate_s_rb(stack, ch)
    return (stack.k_outer - ev.s_rb) / stack.total_length


def nonadditivity(stack: CodeStack, family: ChannelFamily, p: float) -> float:
    """Rate in excess of the hashing baseline max(0, 1 - H)."""
    ch = family_eval(family, p)
    return rate_from_channel(stack, ch) - max(0.0, 1.0 - channel_entropy(ch))


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
              bracket: tuple[float, float] | None = None) -> ThresholdResult:
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
    is_mc = isinstance(stack.strategy, MonteCarlo)

    methods = set()

    def f(p: float) -> float:
        ev = evaluate_s_rb(stack, family_eval(family, p))
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
        ev_m = evaluate_s_rb(stack, family_eval(family, p_star - delta))
        ev_p = evaluate_s_rb(stack, family_eval(family, p_star + delta))
        slope = (ev_p.s_rb - ev_m.s_rb) / (2.0 * delta)
        ev_c = evaluate_s_rb(stack, family_eval(family, p_star))
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
        rows.append(SweepRow(p, ev.s_rb,
                             (stack.k_outer - ev.s_rb) / stack.total_length,
                             ev.method, ev.std_error))
    return rows
