"""Closed-form coset enumerators for repetition codes and n x m
bit/phase-flip concatenations.

For an [[n,1]] repetition code the stabilizer cosets are indexed by the
support size k of the letters the stabilizer type cannot absorb and a
parity bit b; each has probability

    h^b_k = ((u+v)^k (s+t)^(n-k) + (-1)^b (u-v)^k (s-t)^(n-k)) / 2

where for Z-type blocks (u, v, s, t) = (p_X, p_Y, p_I, p_Z) and for X-type
blocks (p_Z, p_Y, p_I, p_X).  On the depolarizing channel this reduces to
the f^e / f^o / g polynomials of the single-variable theory.

An n x m concatenation (inner X-type blocks feeding an outer Z-type code)
has stabilizer-coset probabilities built from per-block h values by the
even/odd product combiners F^e / F^o.  The exact S_RB sums over multisets
of per-block (k, b) outcomes; blocks are interchangeable, and cells with
k and n-k fold together because only |h_k - h_{n-k}| and h_k + h_{n-k}
enter, with the residual sign freedom integrating out in closed form:
conditioned on group counts the product's magnitude Q is fixed and its
sign is + with probability (1+Q)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, xlogy

from .channels import PauliChannel

MULTISET_BUDGET = 6_000_000


class MultisetBudgetError(ValueError):
    """Exact multiset enumeration too large; use the long-rep estimator."""


def fgh_eval(kind: str, n: int, k: int, x: float, y: float) -> float:
    """The single-variable enumerators f^e, f^o and g_{k,n}."""
    if not 0 <= k <= n:
        raise ValueError(f"k={k} outside 0..{n}")
    if kind == "f_e":
        return 0.5 * ((x + y) ** n + (x - y) ** n)
    if kind == "f_o":
        return 0.5 * ((x + y) ** n - (x - y) ** n)
    if kind == "g":
        return 0.5 * (x + y) ** (n - k) * (2.0 * y) ** k
    raise ValueError(f"unknown enumerator kind {kind!r}")


@dataclass(frozen=True)
class BlockTable:
    """h^b_{k,n} for one repetition block: shape (2, n+1) array indexed [b, k]."""

    n: int
    stabilizer_type: str
    h: np.ndarray

    def multiplicity(self, k: int) -> int:
        return math.comb(self.n, k)

    def cell_weights(self) -> np.ndarray:
        """Probability C(n,k) * h^b_k of landing in each (b, k) cell; sums to 1."""
        comb = np.array([math.comb(self.n, k) for k in range(self.n + 1)], dtype=float)
        return self.h * comb

    def check_invariants(self, tol: float = 1e-12) -> None:
        if float(self.h.min()) < -1e-15:
            raise AssertionError("negative block coset probability")
        total = float(self.cell_weights().sum())
        if abs(total - 1.0) > tol:
            raise AssertionError(f"block table mass {total!r} != 1")


def block_table(n: int, stabilizer_type: str, ch: PauliChannel) -> BlockTable:
    """Coset probabilities of an [[n,1]] repetition block under ``ch``."""
    if n < 1:
        raise ValueError("block length must be >= 1")
    if stabilizer_type == "Z":
        u, v, s, t = ch.p_x, ch.p_y, ch.p_i, ch.p_z
    elif stabilizer_type == "X":
        u, v, s, t = ch.p_z, ch.p_y, ch.p_i, ch.p_x
    else:
        raise ValueError("stabilizer_type must be 'X' or 'Z'")
    ks = np.arange(n + 1)
    plus = (u + v) ** ks * (s + t) ** (n - ks)
    minus = (u - v) ** ks * (s - t) ** (n - ks)
    h = 0.5 * np.stack([plus + minus, plus - minus])
    # clamp tiny negative residue from cancellation
    np.clip(h, 0.0, None, out=h)
    return BlockTable(n, stabilizer_type, h)


def _f_even_odd(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    plus = float(np.prod(xs + ys))
    minus = float(np.prod(xs - ys))
    return 0.5 * (plus + minus), 0.5 * (plus - minus)


def concat_rep_coset_probs(n: int, m: int, ch: PauliChannel,
                           kvec, bvec) -> tuple[float, float, float, float]:
    """Stabilizer-coset probabilities of one class of the n x m concatenation.

    Inner blocks are X-type, the outer layer Z-type.  ``kvec`` holds each
    block's unabsorbed support size, ``bvec`` its parity bit.  Returns the
    probabilities of the coset itself and of its logical Z, X and Y
    translates.
    """
    kvec = np.asarray(kvec, dtype=int)
    bvec = np.asarray(bvec, dtype=int)
    if kvec.shape != (m,) or bvec.shape != (m,):
        raise ValueError(f"kvec/bvec must have length m={m}")
    bt = block_table(n, "X", ch)
    hk = bt.h[bvec, kvec]
    hnk = bt.h[bvec, n - kvec]
    hk_c = bt.h[1 - bvec, kvec]
    hnk_c = bt.h[1 - bvec, n - kvec]
    p_s, p_sz = _f_even_odd(hk, hnk)
    p_sx, p_sy = _f_even_odd(hk_c, hnk_c)
    return p_s, p_sz, p_sx, p_sy


@lru_cache(maxsize=32)
def _compositions(total: int, parts: int) -> np.ndarray:
    """All length-``parts`` nonnegative integer vectors summing to ``total``."""
    if parts == 1:
        return np.array([[total]], dtype=np.int32)
    blocks = []
    for t in range(total + 1):
        sub = _compositions(total - t, parts - 1)
        first = np.full((sub.shape[0], 1), t, dtype=np.int32)
        blocks.append(np.hstack([first, sub]))
    return np.vstack(blocks)


def multiset_count(m: int, alphabet: int) -> int:
    return math.comb(m + alphabet - 1, alphabet - 1)


@dataclass(frozen=True)
class _GroupedBlock:
    """Folded (k <-> n-k) per-block outcome groups of an inner block table."""

    log_w: np.ndarray    # log group weight
    log_a: np.ndarray    # log(h^b_k + h^b_{n-k})
    log_absq: np.ndarray  # log |q|, with 0 stored for q = 0 groups
    zero_q: np.ndarray   # True where q = 0 (any draw kills the product)
    log_r: np.ndarray    # log of the b-flip mass ratio, 0 stored for r = 0
    zero_r: np.ndarray


def _grouped_block(bt: BlockTable) -> _GroupedBlock:
    n = bt.n
    h = bt.h
    log_w, log_a, log_absq, zero_q, log_r, zero_r = [], [], [], [], [], []
    for k in range(n // 2 + 1):
        for b in (0, 1):
            a = h[b, k] + h[b, n - k]
            ac = h[1 - b, k] + h[1 - b, n - k]
            if k == n - k:
                w = math.comb(n, k) * h[b, k]
            else:
                w = math.comb(n, k) * a
            if w <= 0.0:
                continue
            q = abs(h[b, k] - h[b, n - k]) / a
            log_w.append(math.log(w))
            log_a.append(math.log(a))
            log_absq.append(math.log(q) if q > 0.0 else 0.0)
            zero_q.append(q == 0.0)
            log_r.append(math.log(ac) - math.log(a) if ac > 0.0 else 0.0)
            zero_r.append(ac == 0.0)
    return _GroupedBlock(np.array(log_w), np.array(log_a),
                         np.array(log_absq), np.array(zero_q, dtype=bool),
                         np.array(log_r), np.array(zero_r, dtype=bool))


def s_rb_rep(n: int, m: int, ch: PauliChannel, inner_type: str = "X",
             budget: int = MULTISET_BUDGET) -> float:
    """Exact S_RB (bits) of the n x m concatenated repetition code.

    ``inner_type`` names the stabilizer type of the inner blocks; the outer
    layer has the complementary type.  inner_type="Z" is evaluated by
    conjugating the channel with X<->Z.  m = 1 degenerates to a single
    [[n,1]] block; n = 1 to a single [[m,1]] outer code.
    """
    if inner_type == "Z":
        ch = ch.swap_xz()
    elif inner_type != "X":
        raise ValueError("inner_type must be 'X' or 'Z'")
    bt = block_table(n, "X", ch)
    g = _grouped_block(bt)
    ngroups = g.log_w.size
    count = multiset_count(m, ngroups)
    if count > budget:
        raise MultisetBudgetError(
            f"{count} multisets for n={n}, m={m} exceed budget {budget}")
    counts = _compositions(m, ngroups).astype(np.float64)
    log_mult = (gammaln(m + 1.0) - gammaln(counts + 1.0).sum(axis=1))
    log_w = log_mult + counts @ g.log_w
    w = np.exp(log_w)
    q_hat = np.exp(counts @ g.log_absq)
    if g.zero_q.any():
        q_hat[counts[:, g.zero_q].sum(axis=1) > 0] = 0.0
    r_hat_log = counts @ g.log_r
    if g.zero_r.any():
        r_hat_log[counts[:, g.zero_r].sum(axis=1) > 0] = -np.inf
    # phi_q = E[-ln(1 + prod q) | counts]: the magnitude Q is fixed by the
    # counts and the sign is + with probability (1+Q)/2
    phi_q = -0.5 * (xlogy(1.0 + q_hat, 1.0 + q_hat) + xlogy(1.0 - q_hat, 1.0 - q_hat))
    phi_r = -np.logaddexp(0.0, r_hat_log)
    return 1.0 + float(w @ (phi_q - phi_r)) / math.log(2.0)
