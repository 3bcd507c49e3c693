"""Entropy estimator for n x m concatenated repetition codes at large m.

Writing each stabilizer-coset probability of the concatenation in terms of
the per-block sums a = h^b_k + h^b_{n-k},

    P_S = (1/2) * prod_i a_i * (1 + prod_i q_i),   q = (h_k - h_{n-k}) / a
    P_N =        prod_i a_i * (1 + prod_i r_i),    r = a(1-b) / a(b)

the coset entropies reduce to expectations of -ln(1 + prod q) and
-ln(1 + prod r) over m independent per-block draws, and the m * E[-ln a]
terms cancel in S_RB:

    S_RB (bits) = 1 + (E[-ln(1 + prod q)] - E[-ln(1 + prod r)]) / ln 2.

q side, an exact moment series.  The atoms k and n-k of a block have
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
(low noise, or short outer codes).  No binning and no FFT: the q side is
exact to rounding.

r side, an FFT convolution power.  The ratios are strictly positive, so
-ln(1 + prod r) is a function of the sum of ln r: per-block atoms are
binned on a uniform log grid with linear mass splitting (second-order
accurate), the m-fold convolution power is taken through one FFT
(transform, pointwise m-th power, inverse), and the expectation of
-ln(1 + e^x) is evaluated on the result with log1p-stable branches.
r = 0 atoms short-circuit the product (zero channel).  The bin width alpha
comes from a geometric ladder: the finest scale whose grid fits the bin
budget is used, and the result is flagged unstable when that forces a
scale coarser than the stability cap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len, irfft, rfft

from .channels import PauliChannel
from .rep import block_table

ALPHA_0 = 1e-4
ALPHA_LADDER_STEPS = 40
BIN_BUDGET = 1 << 24
ALPHA_STABLE_MAX = 2e-4

SERIES_HEAD = 1 << 14  # J: moment-series terms summed directly
_HEAD_CHUNK = 2048


@dataclass(frozen=True)
class QRTable:
    """Per-(k, b) convolution inputs of one inner block."""

    n: int
    q: np.ndarray        # (2, n+1), signed, zero where h sums vanish
    r: np.ndarray        # (2, n+1)
    ln_h_sum: np.ndarray  # (2, n+1), ln(h^b_k + h^b_{n-k})
    weight: np.ndarray   # (2, n+1), sums to 1


def qr_coefficients(n: int, ch: PauliChannel, inner_type: str = "X") -> QRTable:
    """q, r, log h-sums and block weights from the closed-form block table."""
    if inner_type == "Z":
        ch = ch.swap_xz()
    bt = block_table(n, "X", ch)
    h = bt.h
    hk = h
    hnk = h[:, ::-1]
    a = hk + hnk
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(a > 0.0, (hk - hnk) / np.where(a > 0.0, a, 1.0), 0.0)
        r = np.where(a > 0.0, (hk[::-1] + hnk[::-1]) / np.where(a > 0.0, a, 1.0), 0.0)
        ln_h_sum = np.where(a > 0.0, np.log(np.where(a > 0.0, a, 1.0)), -np.inf)
    comb = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    weight = h * comb
    total = weight.sum()
    if not 0.0 < total < np.inf:
        raise ValueError("degenerate block table")
    weight = weight / total
    return QRTable(n, q, r, ln_h_sum, weight)


@functools.cache
def _tail_rule():
    """Nodes and weights in u = ln(x / J) on [0, 40]: 80 panels of 24-point
    Gauss-Legendre.  At x = J e^40 ~ 4e21 every |q| < 1 (so
    |q| <= 1 - 2^-53) has |q|^(2x) = 0 in double precision.  Built on first
    use: the Legendre roots cost an eigensolve that imports should not pay."""
    panels, width = 80, 0.5
    gx, gw = np.polynomial.legendre.leggauss(24)
    u = ((np.arange(panels)[:, None] + 0.5 * (gx + 1.0)) * width).ravel()
    return u, np.tile(0.5 * width * gw, panels)


def _series_term(x: np.ndarray, logq: np.ndarray, wq: np.ndarray,
                 w1: float, m: int):
    """Summand g(x) = ((w1 + S)^m - w1^m) / (2x(2x-1)) at continuous j = x,
    S = sum_i w_i |q_i|^(2x), and its derivative g'(x).

    The difference is written as (w1 + S)^m (1 - (w1 / (w1 + S))^m), so
    that neither w1^m underflowing nor S vanishing against w1 loses it.
    """
    pw = np.exp(2.0 * np.multiply.outer(x, logq))
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


@dataclass(frozen=True)
class LogDistribution:
    """Binned mass over alpha * integer log-magnitude plus a point mass for
    exactly-zero magnitudes."""

    alpha: float
    offset: int          # grid value of bin j is alpha * (offset + j)
    pos: np.ndarray
    zero_mass: float

    def total_mass(self) -> float:
        return float(self.pos.sum()) + self.zero_mass

    def check_invariants(self, tol: float = 1e-9) -> None:
        if abs(self.total_mass() - 1.0) > tol:
            raise AssertionError(f"log-distribution mass {self.total_mass()!r} != 1")


def bin_atoms(log_values: np.ndarray, weights: np.ndarray, alpha: float,
              zero_mass: float = 0.0) -> LogDistribution:
    """Linear-split binning of weighted atoms onto the alpha grid.

    Splitting each atom between its two neighbouring grid points preserves
    the first moment exactly and makes the binning error second order in
    alpha for smooth integrands.
    """
    if log_values.size == 0:
        return LogDistribution(alpha, 0, np.zeros(1), zero_mass)
    scaled = log_values / alpha
    lo = np.floor(scaled).astype(np.int64)
    frac = scaled - lo
    offset = int(lo.min())
    pos = np.zeros(int(lo.max()) - offset + 2)
    np.add.at(pos, lo - offset, weights * (1.0 - frac))
    np.add.at(pos, lo - offset + 1, weights * frac)
    return LogDistribution(alpha, offset, pos, zero_mass)


def convolve_power(dist: LogDistribution, m: int) -> LogDistribution:
    """Distribution of the sum of log magnitudes over m draws."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return dist
    zero_out = 1.0 - float(dist.pos.sum()) ** m
    out_len = (dist.pos.shape[0] - 1) * m + 1
    nfft = next_fast_len(out_len)
    pos = irfft(rfft(dist.pos, nfft) ** m, nfft)[:out_len]
    np.clip(pos, 0.0, None, out=pos)
    return LogDistribution(dist.alpha, dist.offset * m, pos, zero_out)


def expect_neg_log1p_signed(dist: LogDistribution) -> float:
    """E[-ln(1 + e^x)] over the binned distribution; the zero channel
    contributes -ln(1 + 0) = 0."""
    x = dist.alpha * (dist.offset + np.arange(dist.pos.shape[0]))
    term = np.where(x > 0.0, -(x + np.log1p(np.exp(-np.clip(x, 0.0, None)))),
                    -np.log1p(np.exp(np.clip(x, None, 0.0))))
    return float(dist.pos @ term)


def _pick_alpha(span: float, alpha0: float = ALPHA_0,
                budget: int = BIN_BUDGET) -> float:
    """Finest scale of the geometric ladder alpha0 * 2^j whose grid fits."""
    alpha = alpha0
    for _ in range(ALPHA_LADDER_STEPS):
        if span / alpha <= budget:
            return alpha
        alpha *= 2.0
    return alpha


@dataclass(frozen=True)
class LongRepEstimate:
    s_rb: float
    stable: bool
    alpha_r: float


def s_rb_estimate_channel(n: int, m: int, ch: PauliChannel,
                          inner_type: str = "X",
                          alpha0: float = ALPHA_0,
                          bin_budget: int = BIN_BUDGET) -> LongRepEstimate:
    """Estimated S_RB (bits) of the n x m concatenated repetition code."""
    table = qr_coefficients(n, ch, inner_type=inner_type)
    w = table.weight.ravel()
    q = table.q.ravel()
    r = table.r.ravel()
    live = w > 0.0
    w, q, r = w[live], q[live], r[live]

    if m == 1:  # single block: both expectations are finite sums
        e_q = float(w @ -np.log1p(q))
        e_r = float(w @ -np.log1p(r))
        return LongRepEstimate(1.0 + (e_q - e_r) / math.log(2.0), True, alpha0)

    e_q = expect_neg_log1p_moments(np.abs(q), w, m)

    # r side: strictly positive ratios, no truncation of the upper tail
    logr = np.log(np.where(r > 0.0, r, 1.0))
    zero_r = r <= 0.0
    span_r = max((float(logr.max()) - float(logr.min())) * m, 1.0)
    alpha_r = _pick_alpha(span_r, alpha0, bin_budget)
    dist_r = bin_atoms(logr[~zero_r], w[~zero_r], alpha_r, float(w[zero_r].sum()))
    e_r = expect_neg_log1p_signed(convolve_power(dist_r, m))

    s_rb = 1.0 + (e_q - e_r) / math.log(2.0)
    return LongRepEstimate(s_rb, alpha_r <= ALPHA_STABLE_MAX, alpha_r)


def s_rb_estimate(n: int, m: int, family, p: float,
                  inner_type: str = "X",
                  alpha0: float = ALPHA_0,
                  bin_budget: int = BIN_BUDGET) -> LongRepEstimate:
    """Estimator entry point on a channel family at parameter p."""
    from .channels import family_eval
    return s_rb_estimate_channel(n, m, family_eval(family, p),
                                 inner_type=inner_type, alpha0=alpha0,
                                 bin_budget=bin_budget)
