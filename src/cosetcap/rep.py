"""Closed-form coset enumerators for repetition codes, and the exact S_RB
of repetition top layers.

For an [[n,1]] repetition code the stabilizer cosets are indexed by the
support size k of the letters the stabilizer type cannot absorb and a
parity bit b; each has probability

    h^b_k = ((u+v)^k (s+t)^(n-k) + (-1)^b (u-v)^k (s-t)^(n-k)) / 2

where for Z-type blocks (u, v, s, t) = (p_X, p_Y, p_I, p_Z) and for X-type
blocks (p_Z, p_Y, p_I, p_X).  On the depolarizing channel this reduces to
the f^e / f^o / g polynomials of the single-variable theory.

Its conditional logical channels follow in closed form, one per syndrome
(``block_entries``).  A repetition top over any inner stack needs only the
weighted conditional channels of its inner blocks: one atom of weight, |q|
and r per (entry, bit flip) (``top_atoms``), summed exactly over the
multisets of atoms (``s_rb_atoms``); the n x m bit/phase-flip
concatenation (``s_rb_rep``) is the case of repetition inner blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import PauliChannel

# cells of one exact enumeration: count-table entries (multisets x parts)
# of a multiset table, ordered assignments of a stack layer's product
ASSIGNMENT_BUDGET = 100_000_000
_SUM_BLOCK = 1 << 17  # multisets per block of s_rb_atoms; > capacity.SUM_MULTISETS
_SUM_DIFF = np.array([[1.0, 1.0], [1.0, -1.0]])


class StackBudgetError(ValueError):
    """Exact enumeration exceeds ASSIGNMENT_BUDGET; use Monte Carlo or the
    long-rep estimator."""


def check_budget(cells: int, what: str) -> None:
    """Refuse an enumeration of more than ASSIGNMENT_BUDGET cells."""
    if cells > ASSIGNMENT_BUDGET:
        raise StackBudgetError(f"{what} exceed budget {ASSIGNMENT_BUDGET}")


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
    h: np.ndarray

    def cell_weights(self) -> np.ndarray:
        """Probability C(n,k) * h^b_k of landing in each (b, k) cell; sums to 1."""
        comb = np.array([math.comb(self.n, k) for k in range(self.n + 1)], dtype=float)
        return self.h * comb

    def check_invariants(self) -> None:
        if float(self.h.min()) < -1e-15:
            raise AssertionError("negative block coset probability")
        total = float(self.cell_weights().sum())
        if abs(total - 1.0) > 1e-12:
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
    # rows (u+v)^k (s+t)^(n-k) and (u-v)^k (s-t)^(n-k), then their sum
    # and difference
    terms = np.array([[u + v], [u - v]]) ** ks * np.array([[s + t], [s - t]]) ** (n - ks)
    h = 0.5 * (_SUM_DIFF @ terms)
    # clamp tiny negative residue from cancellation
    np.maximum(h, 0.0, out=h)
    return BlockTable(n, h)


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


def multiset_count(m: int, alphabet: int) -> int:
    return math.comb(m + alphabet - 1, alphabet - 1)


def multisets(total: int, parts: int) -> tuple[np.ndarray, np.ndarray]:
    """Every multiset of ``total`` items of ``parts`` kinds, with its log
    multinomial coefficient ln(total! / prod counts!).

    The (count, parts) float rows of item counts are in lexicographic
    order, first part slowest.  Both arrays are cached and read-only.
    Raises StackBudgetError above ASSIGNMENT_BUDGET count cells, before
    allocating any.
    """
    count = multiset_count(total, parts)
    check_budget(count * parts, f"{count} multisets x {parts} entries")
    return _multisets(total, parts)


@lru_cache(maxsize=32)
def _multisets(total: int, parts: int) -> tuple[np.ndarray, np.ndarray]:
    # place one part at a time: a row with ``left`` items still to place
    # has children t = 0 .. left in order; then read each column back
    # through the chain of parents
    left, steps = np.array([total]), []
    for _ in range(parts - 1):
        parent = np.repeat(np.arange(left.size), left + 1)
        t = np.arange(parent.size) - (np.cumsum(left + 1) - left - 1)[parent]
        left = left[parent] - t
        steps.append((parent, t))
    counts = np.empty((left.size, parts), dtype=np.intp)
    counts[:, -1] = left
    row = np.arange(left.size)
    for j in range(parts - 2, -1, -1):
        parent, t = steps[j]
        counts[:, j] = t[row]
        row = parent[row]
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(total + 1)])
    log_coeff = log_fact[total] - log_fact[counts].sum(axis=1)
    counts = counts.astype(np.float64)
    counts.flags.writeable = log_coeff.flags.writeable = False
    return counts, log_coeff


def block_entries(n: int, stabilizer_type: str, ch: PauliChannel):
    """Weights and conditional logical channels (I, X, Y, Z) of an [[n,1]]
    repetition block in the frame of ``codes.make_repetition_code``, one
    entry per live syndrome k <-> n-k, k = 0 .. n//2.  For an X-type block
    the entry is (h^0_k, h^1_k, h^1_{n-k}, h^0_{n-k}) / a with weight
    C(n,k) a, halved at k = n/2; a Z-type block swaps X and Z on both sides.
    """
    h = block_table(n, stabilizer_type, ch).h
    half = n // 2 + 1
    near, far = h[:, :half], h[:, ::-1][:, :half]  # cells k and n-k, rows b
    joint = np.vstack([near, far[::-1]]).T * _fold_comb(n)
    if stabilizer_type == "Z":
        joint = joint[:, [0, 3, 2, 1]]
    weights = joint.sum(axis=1)
    live = weights > 0.0
    return weights[live], joint[live] / weights[live, None]


@lru_cache(maxsize=64)
def _fold_comb(n: int) -> np.ndarray:
    """Entry weight per unit a: C(n, k) for k = 0 .. n//2 as a column,
    halved at k = n/2, whose a counts its one cell twice."""
    comb = [math.comb(n, k) * (0.5 if 2 * k == n else 1.0) for k in range(n // 2 + 1)]
    return np.array(comb)[:, None]


# (I, X, Y, Z) -> (A + B, A - B, A' + B') for f = 0, then f = 1, of a Z-type
# top: (A, B) = (I, Z) or (X, Y), (A', B') from the other f
_MIX_Z = np.array([[1, 1, 0, 0, 0, 1], [0, 0, 1, 1, 1, 0],
                   [0, 0, 1, 1, -1, 0], [1, -1, 0, 0, 0, 1]], dtype=float)
_TOP_MIX = {"Z": _MIX_Z, "X": _MIX_Z[[0, 3, 2, 1]]}  # an X-type top swaps X and Z


def top_atoms(weights: np.ndarray, channels: np.ndarray, top_type: str) -> np.ndarray:
    """Atom table of a repetition top of stabilizer type ``top_type`` over
    weighted inner entries (channels in (I, X, Y, Z) order): per entry e and
    kept (f = 0) or flipped (f = 1) bit, the row w_e (A + B), |q| = |A - B|
    / (A + B), r = (A' + B') / (A + B) (``_TOP_MIX``).  Both S_RB engines
    read only these rows.

    ``weights`` (E,) and ``channels`` (E, 4) give a (atoms, 3) table with
    the rows of zero weight left out; a leading batch axis, (B, E) and
    (B, E, 4), gives (B, 2E, 3) with those rows kept as zeros.
    """
    rows = ((weights[..., None] * channels) @ _TOP_MIX[top_type])
    rows = rows.reshape(*rows.shape[:-2], -1, 3)
    dead = rows[..., 0] <= 0.0
    if rows.ndim == 2:
        rows = rows[~dead]
    else:
        rows[dead] = (1.0, 0.0, 0.0)  # divides cleanly; the weight is zeroed below
    np.abs(rows[..., 1], out=rows[..., 1])
    rows[..., 1:] /= rows[..., :1]
    if rows.ndim > 2:
        rows[dead, 0] = 0.0
    return rows


def s_rb_rep(n: int, m: int, ch: PauliChannel) -> float:
    """Exact S_RB (bits) of the n x m concatenated repetition code
    repX(n) x repZ(m): X-type inner blocks under a Z-type outer layer.

    Z-type inner blocks under an X-type outer layer see the channel with
    X and Z swapped: ``s_rb_rep(n, m, ch.swap_xz())``.  m = 1 degenerates
    to a single [[n,1]] block; n = 1 to a single [[m,1]] outer code.
    Raises StackBudgetError where the multisets exceed ASSIGNMENT_BUDGET
    (a memory guard).
    """
    weights, channels = block_entries(n, "X", ch)
    return 1.0 + s_rb_atoms(top_atoms(weights, channels, "Z"), m)


def s_rb_atoms(rows: np.ndarray, m: int):
    """Exact S_RB - 1 (bits) of a repetition top of length m over its atom
    table (``top_atoms``) by a sum over multisets of atoms; StackBudgetError
    where they exceed ASSIGNMENT_BUDGET.  A batch of tables (B, atoms, 3)
    gives a (B,) array; zero rows there are atoms of zero weight."""
    counts, log_mult = multisets(m, rows.shape[-2])
    # log weight, log |q| and log r summed over the blocks, with 0 stored
    # where a weight, |q| or r vanishes; a multiset holding such an atom
    # gets a log sum of -inf in that column
    zero = rows == 0.0
    log_rows = np.log(np.where(zero, 1.0, rows))
    total = 0.0
    for lo in range(0, counts.shape[0], _SUM_BLOCK):
        block = counts[lo:lo + _SUM_BLOCK]
        log_sums = block @ log_rows
        if zero.any():
            log_sums[block @ zero > 0.0] = -np.inf
        w = np.exp(log_mult[lo:lo + _SUM_BLOCK] + log_sums[..., 0])
        # phi_q = E[-ln(1 + prod q) | counts]: the magnitude Q is fixed by
        # the counts and the sign is + with probability (1+Q)/2, so phi_q =
        # -(Q (l+ - l-) + l+ + l-) / 2 with l+- = ln(1 +- Q).  At small Q the
        # sum l+ + l- = ln(1 - Q^2) would cancel the leading Q^2 / 2, so it is
        # taken by log1p(-Q^2) there; Q = 1 is taken at 1 - 2^-53, within 2e-15
        q_hat = np.exp(np.minimum(log_sums[..., 1], -2.0 ** -53))
        log_plus, log_minus = np.log1p(q_hat), np.log1p(-q_hat)
        phi_q = -0.5 * (q_hat * (log_plus - log_minus) + np.where(
            q_hat < 0.5, np.log1p(-q_hat * q_hat), log_plus + log_minus))
        # phi_q - phi_r, phi_r = E[-ln(1 + prod r) | counts]
        phi = phi_q + np.logaddexp(0.0, log_sums[..., 2])
        total += float(w @ phi) if rows.ndim == 2 else np.einsum("...i,...i->...", w, phi)
    return total / math.log(2.0)
