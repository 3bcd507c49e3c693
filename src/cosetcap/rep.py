"""Closed-form coset enumerators for repetition codes, and the exact S_RB
of repetition top layers.

For an [[n,1]] repetition code the stabilizer cosets are indexed by the
support size k of the letters the stabilizer type cannot absorb and a
parity bit b; each has probability

    h^b_k = ((u+v)^k (s+t)^(n-k) + (-1)^b (u-v)^k (s-t)^(n-k)) / 2

where for Z-type blocks (u, v, s, t) = (p_X, p_Y, p_I, p_Z) and for X-type
blocks (p_Z, p_Y, p_I, p_X): ``block_table``, a (2, n+1) array [b, k].  On
the depolarizing channel this reduces to the f^e / f^o / g polynomials of
the single-variable theory (the tests' oracle writes those out).

Its conditional logical channels follow in closed form, one per syndrome
(``block_entries``).  A repetition top over any inner stack needs only the
weighted conditional channels of its inner blocks: one atom of weight, |q|
and r per (entry, bit flip) (``top_atoms``), summed exactly over the
multisets of atoms (``s_rb_atoms``); the n x m bit/phase-flip
concatenation (``s_rb_rep``) is the case of repetition inner blocks.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .channels import PauliChannel

# cells of one exact enumeration: count-table entries (multisets x parts)
# of a multiset table, ordered assignments of a stack layer's product
ASSIGNMENT_BUDGET = 100_000_000
# the multiset sum up to this many multisets of a repetition top's atom
# table, the long-rep estimator past it: 19,329 estimator nodes x 9.0 ns /
# 2.2 ns per multiset, fitted with a factor (20 + atoms) on both that
# cancels.  Sum / estimator in ms (best of 31, one BLAS thread of a shared
# 2-core host, depolarizing p = 0.0637): 7x12 2.2 / 2.4, 7x14 5.0 / 2.3,
# 5x20 1.9 / 2.2, 5x23 4.4 / 2.0, 3x70 2.7 / 4.1, 3x110 10.3 / 4.2, 1x20000
# 1.5 / 1.8; repX(3) x 5qubit x repZ(3) (56 atoms at p = 1e-3) 3.8 / 9.7
SUM_MULTISETS = 79_073
_SUM_BLOCK = 1 << 17  # multisets per block of s_rb_atoms and of a table; > SUM_MULTISETS
_SUM_DIFF = np.array([[1.0, 1.0], [1.0, -1.0]])


class StackBudgetError(ValueError):
    """Exact enumeration exceeds ASSIGNMENT_BUDGET; use Monte Carlo or the
    long-rep estimator."""


def check_budget(cells: int, what: str) -> None:
    """Refuse an enumeration of more than ASSIGNMENT_BUDGET cells."""
    if cells > ASSIGNMENT_BUDGET:
        raise StackBudgetError(f"{what} exceed budget {ASSIGNMENT_BUDGET}")


def block_table(n: int, stabilizer_type: str, ch: PauliChannel) -> np.ndarray:
    """Coset probabilities h^b_k of an [[n,1]] repetition block under
    ``ch``, as a (2, n+1) array indexed [b, k]."""
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
    return h


def multiset_count(m: int, alphabet: int) -> int:
    return math.comb(m + alphabet - 1, alphabet - 1)


def multisets(total: int, parts: int) -> tuple[np.ndarray, np.ndarray]:
    """Every multiset of ``total`` items of ``parts`` kinds, with its log
    multinomial coefficient ln(total! / prod counts!).

    The (count, parts) float rows of item counts are in lexicographic
    order, first part slowest.  Both arrays are read-only, and cached up to
    SUM_MULTISETS multisets, the tables root solves reuse; larger ones are
    built on every call.  Raises StackBudgetError above ASSIGNMENT_BUDGET
    count cells, before allocating any.
    """
    count = multiset_count(total, parts)
    check_budget(count * parts, f"{count} multisets x {parts} entries")
    return (_multisets if count <= SUM_MULTISETS else _multisets.__wrapped__)(total, parts)


@lru_cache(maxsize=32)
def _multisets(total: int, parts: int) -> tuple[np.ndarray, np.ndarray]:
    # place one part at a time: a row with ``left`` items still to place
    # has children t = 0 .. left, in order.  The last level is the table,
    # built block by block with no table-sized temporary: each row finds
    # its parent by where the parents' children start, and the first
    # parts - 2 columns are read back through the chain of parents
    left, steps = np.array([total]), []
    for _ in range(parts - 2):
        parent = np.repeat(np.arange(left.size), left + 1)
        t = np.arange(parent.size) - (np.cumsum(left + 1) - left - 1)[parent]
        left = left[parent] - t
        steps.append((parent, t))
    first = np.cumsum(left + 1) - left - 1
    count = multiset_count(total, parts)
    counts, log_coeff = np.empty((count, parts)), np.empty(count)
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(total + 1)])
    for lo in range(0, count, _SUM_BLOCK):
        rows = np.arange(lo, min(lo + _SUM_BLOCK, count))
        block = np.empty((rows.size, parts), dtype=np.intp)
        row = np.searchsorted(first, rows, side="right") - 1  # each one's parent
        t = rows - first[row]
        block[:, -1] = left[row] - t
        if parts > 1:
            block[:, -2] = t
        for j in range(parts - 3, -1, -1):
            parent, t = steps[j]
            block[:, j] = t[row]
            row = parent[row]
        counts[lo:lo + rows.size] = block
        log_coeff[lo:lo + rows.size] = log_fact[total] - log_fact[block].sum(axis=1)
    counts.flags.writeable = log_coeff.flags.writeable = False
    return counts, log_coeff


def block_entries(n: int, stabilizer_type: str, ch: PauliChannel):
    """Weights and conditional logical channels (I, X, Y, Z) of an [[n,1]]
    repetition block in the frame of ``codes.make_repetition_code``, one
    entry per live syndrome k <-> n-k, k = 0 .. n//2.  For an X-type block
    the entry is (h^0_k, h^1_k, h^1_{n-k}, h^0_{n-k}) / a with weight
    C(n,k) a, halved at k = n/2; a Z-type block swaps X and Z on both sides.
    """
    h = block_table(n, stabilizer_type, ch)
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
