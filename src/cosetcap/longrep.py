"""Entropy estimator for repetition top layers at large outer length m.

Each block of a repetition top over any inner stack puts mass a = A + B
on its kept or flipped bit (``rep.top_atoms``), so that

    P_S = (1/2) * prod_i a_i * (1 + prod_i q_i),   q = (A - B) / a
    P_N =        prod_i a_i * (1 + prod_i r_i),    r = (A' + B') / a

the coset entropies reduce to expectations of -ln(1 + prod q) and
-ln(1 + prod r) over m independent per-block draws, and the m * E[-ln a]
terms cancel in S_RB:

    S_RB (bits) = 1 + (E[-ln(1 + prod q)] - E[-ln(1 + prod r)]) / ln 2.

Both run over the rows of the atom table, with their weight, |q| and r.

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

r side, a characteristic-function quadrature.  The ratios are
non-negative; an r = 0 atom zeroes the product, so with w0 the total
weight of those atoms E[-ln(1 + prod r)] = -(1 - w0)^m E[ln(1 + e^X)],
where X is the sum of m i.i.d. draws of Y = ln r over the live atoms
(weights rescaled).  Since ln(1 + e^x) = x/2 + ln 2 + ln cosh(x/2) and
the second derivative of ln cosh(x/2), (1/4) sech^2(x/2), has Fourier
transform pi t / sinh(pi t),

    E[ln(1 + e^X)] = m E[Y] / 2 + ln 2
                     + int_0^inf (1 - Re phi(t)^m) / (t sinh(pi t)) dt,

phi(t) = sum_i w_i e^(i t Y_i).  The identity is exact.  phi - 1 is
summed as sum_i w_i (-2 sin^2(t Y_i / 2) + i sin(t Y_i)) and phi^m taken
through a complex log1p, so the integrand keeps its digits as t -> 0.
The kernel is below e^-43 at t = 14, where the integral is cut; it is
taken by 32-point Gauss-Legendre panels, ceil(14 m max|Y| / 2 pi) + 8 of
them (at least one per period of the fastest oscillation), evaluated in
fixed-size node blocks.  Against the exact multiset sum the estimate
agrees to ~3e-14 (m <= 12).  What is left is rounding of the phase
m t Y and of the m E[Y] / 2 term the integral cancels, ~2.5e-15 m max|Y|
in S_RB: 4x the panels moves it by ~1e-12 at m = 301 and by up to 6e-11
at m = 2000, p = 1e-6.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import family_eval
from .rep import block_entries, top_atoms

SERIES_HEAD = 1 << 14  # J: moment-series terms summed directly
_HEAD_CHUNK = 2048
T_MAX = 14.0          # r-side cut: 1 / (t sinh(pi t)) < e^-43 beyond it
_R_ORDER = 32         # Gauss-Legendre points per r-side panel
_NODE_BLOCK = 4096    # r-side nodes evaluated together


@functools.cache
def _unit_rule(order: int):
    """Gauss-Legendre nodes and weights on [0, 1].  Built on first use: the
    Legendre roots cost an eigensolve that imports should not pay."""
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def _panels(width: float, first: int, count: int, order: int):
    """Composite Gauss-Legendre rule on panels first .. first+count-1 of
    [0, inf) cut at multiples of ``width``."""
    x, w = _unit_rule(order)
    start = np.arange(first, first + count, dtype=float)[:, None]
    return ((start + x) * width).ravel(), np.tile(width * w, count)


def _r_panels(logr: np.ndarray, m: int) -> int:
    """r-side panels: at least one per period of the fastest oscillation."""
    return math.ceil(T_MAX * m * float(np.abs(logr).max()) / (2.0 * math.pi)) + 8


def _tail_rule():
    """Nodes and weights in u = ln(x / J) on [0, 40]: 80 panels of 24-point
    Gauss-Legendre.  At x = J e^40 ~ 4e21 every |q| < 1 (so
    |q| <= 1 - 2^-53) has |q|^(2x) = 0 in double precision."""
    return _panels(0.5, 0, 80, 24)


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


def _one_minus_re_power(t: np.ndarray, logr: np.ndarray, w: np.ndarray,
                        m: int) -> np.ndarray:
    """1 - Re phi(t)^m, phi(t) = sum_i w_i e^(i t Y_i), accurate as t -> 0."""
    ty = np.multiply.outer(t, logr)
    u_im = np.sin(ty) @ w
    ty *= 0.5  # in place, as in _series_term
    np.sin(ty, out=ty)
    ty *= ty
    u_re = -2.0 * (ty @ w)   # Re(phi - 1)
    # ln|phi|^2 = log1p(2 Re u + |u|^2); from |phi|^2 itself where phi is
    # small, so that rounding cannot push the log1p argument below -1
    s = 2.0 * u_re + u_re * u_re + u_im * u_im
    abs2 = np.maximum((1.0 + u_re) ** 2 + u_im * u_im, np.finfo(float).tiny)
    ln_abs2 = np.where(s > -0.5, np.log1p(np.maximum(s, -0.5)), np.log(abs2))
    a = 0.5 * m * ln_abs2
    b = m * np.arctan2(u_im, 1.0 + u_re)
    return -(np.expm1(a) * np.cos(b) - 2.0 * np.sin(0.5 * b) ** 2)


def expect_neg_log1p_positive(logr: np.ndarray, weights: np.ndarray, m: int,
                              refine: int = 1) -> float:
    """E[-ln(1 + prod r)] over m draws of atoms r = e^logr > 0.

    ``weights`` may sum to less than 1: the missing mass is r = 0, which
    zeroes the product.  ``refine`` multiplies the panel count (a
    self-check of the quadrature).
    """
    if logr.size == 0:
        return 0.0
    live_mass = float(weights.sum())
    w = weights / live_mass
    panels = refine * _r_panels(logr, m)
    width = T_MAX / panels
    per_block = _NODE_BLOCK // _R_ORDER
    integral = 0.0
    for first in range(0, panels, per_block):
        t, wt = _panels(width, first, min(per_block, panels - first), _R_ORDER)
        kernel = wt / (t * np.sinh(np.pi * t))
        integral += float(kernel @ _one_minus_re_power(t, logr, w, m))
    mean = 0.5 * m * float(w @ logr) + math.log(2.0) + integral
    return -live_mass ** m * mean


@dataclass(frozen=True)
class LongRepEstimate:
    s_rb: float
    stable: bool = True  # always True; dropped with the benchmark's check of it


def s_rb_estimate_atoms(rows: np.ndarray, m: int) -> float:
    """S_RB (bits) of a repetition top of length m over the atom table
    ``rows`` (``rep.top_atoms``)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    w, absq, r = rows.T
    e_q = expect_neg_log1p_moments(absq, w, m)
    pos = r > 0.0
    e_r = expect_neg_log1p_positive(np.log(r[pos]), w[pos], m)
    return 1.0 + (e_q - e_r) / math.log(2.0)


def estimate_nodes(rows: np.ndarray, m: int) -> int:
    """Series terms and quadrature nodes of one ``s_rb_estimate_atoms``
    call, each evaluated once per atom."""
    r = rows[:, 2]
    r = r[r > 0.0]
    panels = _r_panels(np.log([r.min(), r.max()]), m) if r.size else 0
    return SERIES_HEAD + 80 * 24 + _R_ORDER * panels  # head, _tail_rule, r side


def s_rb_estimate(n: int, m: int, family, p: float) -> LongRepEstimate:
    """Estimated S_RB (bits) of the n x m concatenated repetition code
    repX(n) x repZ(m) on a channel family at parameter p."""
    weights, channels = block_entries(n, "X", family_eval(family, p))
    return LongRepEstimate(s_rb_estimate_atoms(top_atoms(weights, channels, "Z"), m))
