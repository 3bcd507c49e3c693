"""Entropy estimator for repetition top layers at large outer length m.

Each block of a repetition top over any inner stack puts mass a = A + B
on its kept or flipped bit (``rep.top_atoms``), so that

    P_S = (1/2) * prod_i a_i * (1 + prod_i q_i),   q = (A - B) / a
    P_N =        prod_i a_i * (1 + prod_i r_i),    r = (A' + B') / a

the coset entropies reduce to expectations of -ln(1 + prod q) and
-ln(1 + prod r) over m independent per-block draws, and the m * E[-ln a]
terms cancel in S_RB:

    S_RB - 1 (bits) = (E[-ln(1 + prod q)] - E[-ln(1 + prod r)]) / ln 2.

Both are 1e-18 to 1e-30 near the thresholds of long tops, so the
estimator returns S_RB - 1 itself.  Both run over the rows of the atom
table, with their weight, |q| and r.

q side, an exact moment series.  The letters A and B of an atom have
opposite q and weights in the ratio (1 + |q|) : (1 - |q|), so given the
magnitudes the product is positive with probability (1 + Q) / 2,
Q = prod |q_i|.  Averaging that sign out leaves the even power series

    -((1+Q) ln(1+Q) + (1-Q) ln(1-Q)) / 2 = -sum_{j>=1} Q^{2j} / (2j(2j-1)),

and independence of the blocks gives E[Q^{2j}] = M_{2j}^m with
M_{2j} = sum_i w_i |q_i|^{2j}.  Atoms with |q| = 1 (total weight w1) sum
in closed form, since sum_j 1 / (2j(2j-1)) = ln 2:

    E[-ln(1 + prod q)] = -w1^m ln 2 - sum_j (M_{2j}^m - w1^m) / (2j(2j-1)).

The first SERIES_HEAD terms are summed directly.  The rest is closed by
Euler-Maclaurin, int_J^inf g - g(J)/2 - g'(J)/12 with g the summand at
continuous j, the integral taken by composite Gauss-Legendre in
u = ln(x / J).  The tail matters only when some |q| lies within ~1/J of 1
(low noise, or short outer codes).  The q side is exact to rounding.

r side, a contour integral.  An r = 0 atom zeroes the product.  Over the
live atoms let M(z) = sum w r^z, weights not rescaled, so that M(0)^m is
the chance that no draw is dead.  Since int ln(1 + e^x) e^(-zx) dx =
pi / (z sin pi z) for 0 < Re z < 1, on the line Re z = 1/2

    E[-ln(1 + prod r)] = -int_0^inf Re[M(1/2 + it)^m / ((1/2 + it) cosh pi t)] dt.

Each inner entry gives atoms (w a, r) and (w a', 1/r) with a r = a', so
M(c) = M(1 - c): the line passes through the saddle point of M, and
M(1/2 + it) = sum w sqrt(r) cos(t ln r) is real.  M(1/2 + it)^m has no
phase growing with m, its lobe at t = 0 (width ~1/sqrt(m)) dominates,
and the estimate is relatively accurate however small it is.  The
integral, cut at t = 14 (1 / cosh pi t < e^-43), is taken in units of
M(1/2)^m by a trapezoid rule from 256 intervals, doubled until two
estimates agree to _R_RTOL of the integral of |integrand| (the estimate
itself, but for small m over a few widely spaced ln r, whose lobes
cancel); it raises past _R_INTERVALS[1].  It converges geometrically:
512 to 2,048 intervals near the thresholds, 8,192 for a bare repZ(101)
at depolarizing p = 1e-6.  Long enough tops underflow near a threshold:
M(1/2)^m and M_2^m read 0, and so do both sides, from repX(3) x
repZ(4577) at depolarizing p = 0.0622.  The log form is not implemented.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .channels import family_eval
from .rep import block_entries, check_budget, top_atoms

SERIES_HEAD = 1 << 14  # J: moment-series terms summed directly
_HEAD_CHUNK = 2048
T_MAX = 14.0          # r-side cut
_R_INTERVALS = (256, 1 << 16)  # r-side trapezoid: first and most intervals
_R_RTOL = 1e-14       # r-side doubling stops where two estimates agree to this


@functools.cache
def _tail_rule():
    """Nodes and weights in u = ln(x / J) on [0, 40]: 80 panels of 24-point
    Gauss-Legendre.  At x = J e^40 ~ 4e21 every |q| < 1 (so
    |q| <= 1 - 2^-53) has |q|^(2x) = 0 in double precision.  Built on first
    use: the Legendre roots cost an eigensolve that imports should not pay."""
    x, w = np.polynomial.legendre.leggauss(24)
    start = np.arange(80, dtype=float)[:, None]
    nodes, weights = ((start + 0.5 * (x + 1.0)) * 0.5).ravel(), np.tile(0.5 * (0.5 * w), 80)
    nodes.flags.writeable = weights.flags.writeable = False  # cached
    return nodes, weights


def _series_term(x: np.ndarray, logq: np.ndarray, wq: np.ndarray,
                 w1: float, m: int):
    """Summand g(x) = ((w1 + S)^m - w1^m) / (2x(2x-1)) at continuous j = x,
    S = sum_i w_i |q_i|^(2x), and its derivative g'(x).

    The difference is written as (w1 + S)^m (1 - (w1 / (w1 + S))^m), so
    that neither w1^m underflowing nor S vanishing against w1 loses it.
    """
    # in place: each (nodes, atoms) temporary freed to the system costs faults
    pw = np.multiply.outer(x, 2.0 * logq)
    np.exp(pw, out=pw)
    s = pw @ wq
    total = w1 + s
    frac = np.divide(s, total, out=np.zeros_like(s), where=s > 0.0)
    with np.errstate(divide="ignore"):
        t = total ** m * -np.expm1(m * np.log1p(-frac))
    dt = m * total ** (m - 1) * (pw @ (2.0 * logq * wq))
    den = 2.0 * x * (2.0 * x - 1.0)
    return t / den, dt / den - t * (8.0 * x - 2.0) / den ** 2


def expect_neg_log1p_moments(absq: np.ndarray, weights: np.ndarray, m: int) -> float:
    """E[-ln(1 + prod q)] over m draws of sign-paired atoms, from |q| alone.

    Needs the atoms' signs to be paired as in a repetition block: given
    the magnitudes, the product is positive with probability (1 + Q) / 2.
    """
    one = absq >= 1.0
    w1 = float(weights[one].sum())
    live = ~one & (absq > 0.0) & (weights > 0.0)
    atoms = (np.log(absq[live]), weights[live], w1, m)
    head = 0.0
    for lo in range(1, SERIES_HEAD + 1, _HEAD_CHUNK):
        j = np.arange(lo, min(lo + _HEAD_CHUNK, SERIES_HEAD + 1), dtype=float)
        head += float(_series_term(j, *atoms)[0].sum())
    # Euler-Maclaurin: sum_{j > J} g(j) = int_J^inf g - g(J)/2 - g'(J)/12
    u, wu = _tail_rule()
    x = SERIES_HEAD * np.exp(u)
    integral = float(wu @ (_series_term(x, *atoms)[0] * x))
    g_j, dg_j = _series_term(np.array([float(SERIES_HEAD)]), *atoms)
    tail = integral - 0.5 * float(g_j[0]) - float(dg_j[0]) / 12.0
    return -w1 ** m * math.log(2.0) - (head + tail)


def _contour_estimates(logr: np.ndarray, v: np.ndarray, m: int):
    """Trapezoid estimates of int_0^T_MAX Re[R(t)^m / ((1/2 + it) cosh pi t)] dt
    and of the integral of its absolute value, R(t) = sum_i v_i cos(t logr_i)
    = M(1/2 + it) / M(1/2), at _R_INTERVALS[0], twice that, ... intervals."""
    def integrand(t):
        # (1 - R) / 2 and (1 + R) / 2, each accurate where it is small, so
        # that R^m keeps its digits at the peaks R -> 1 and R -> -1; their
        # sum is 1 only to rounding, so the smaller is clamped at 1/2 (R = 0)
        theta = 0.5 * np.multiply.outer(t, logr)
        sin2 = np.sin(theta) ** 2 @ v
        cos2 = np.cos(theta) ** 2 @ v
        with np.errstate(divide="ignore"):  # R = 0
            power = np.exp(m * np.log1p(-2.0 * np.minimum(np.minimum(sin2, cos2), 0.5)))
        if m % 2:
            power[cos2 < sin2] *= -1.0
        return power * 2.0 / ((1.0 + 4.0 * t * t) * np.cosh(np.pi * t))

    intervals, last = _R_INTERVALS
    y = integrand(np.linspace(0.0, T_MAX, intervals + 1))
    y[[0, -1]] *= 0.5
    sums = np.array([y.sum(), np.abs(y).sum()])
    yield sums * T_MAX / intervals
    while intervals < last:
        # the new nodes are the midpoints of the old intervals
        y = integrand(np.arange(1, 2 * intervals, 2) * (0.5 * T_MAX / intervals))
        sums += (y.sum(), np.abs(y).sum())
        intervals *= 2
        yield sums * T_MAX / intervals


def expect_neg_log1p_positive(logr: np.ndarray, weights: np.ndarray, m: int) -> float:
    """E[-ln(1 + prod r)] over m draws of atoms r = e^logr > 0.

    ``weights`` may sum to less than 1: the missing mass is r = 0, which
    zeroes the product.  The atoms must pair as in a repetition top, each
    (w, r) with a (w r, 1/r), so that M(c) = M(1 - c) (module docstring).
    Raises ArithmeticError where the trapezoid does not converge within
    _R_INTERVALS[1] intervals.
    """
    if logr.size == 0:
        return 0.0
    half = weights * np.exp(0.5 * logr)  # sums to M(1/2)
    scale = float(half.sum())
    if scale ** m == 0.0:  # underflow: the log form is not implemented
        return 0.0
    estimates = _contour_estimates(logr, half / scale, m)
    prev = next(estimates)[0]
    for est, est_abs in estimates:
        if abs(est - prev) <= _R_RTOL * est_abs:
            return -scale ** m * float(est)
        prev = est
    raise ArithmeticError(
        f"r-side trapezoid not converged at {_R_INTERVALS[1]} intervals (m = {m})")


def s_rb_estimate_atoms(rows: np.ndarray, m: int) -> float:
    """S_RB - 1 (bits) of a repetition top of length m over the atom table
    ``rows`` (``rep.top_atoms``), relatively accurate.  StackBudgetError,
    before anything is built, where atoms x SERIES_HEAD exceeds
    ASSIGNMENT_BUDGET: above 6,103 atoms, whose q-side arrays pass ~100 MB."""
    if m < 1:
        raise ValueError("m must be >= 1")
    w, absq, r = rows.T
    check_budget(SERIES_HEAD * w.size, f"{w.size} atoms x {SERIES_HEAD} series terms")
    e_q = expect_neg_log1p_moments(absq, w, m)
    pos = r > 0.0
    e_r = expect_neg_log1p_positive(np.log(r[pos]), w[pos], m)
    return (e_q - e_r) / math.log(2.0)


def s_rb_estimate(n: int, m: int, family, p: float):
    """Estimated S_RB (bits) of the n x m concatenated repetition code
    repX(n) x repZ(m) on a channel family at parameter p, as the
    ``capacity.Evaluation`` (method "longrep") that ``evaluate_s_rb`` gives
    that stack past SUM_MULTISETS."""
    from .capacity import Evaluation  # capacity imports this module
    rows = top_atoms(*block_entries(n, "X", family_eval(family, p)), "Z")
    return Evaluation(s_rb_estimate_atoms(rows, m), 1, "longrep")
