"""Extended-precision oracle for the disputed reference values.

Recomputes hashing points and repetition-concatenation thresholds from
their defining equations in mpmath at ``DPS`` significant digits.  It
imports nothing from ``cosetcap``: channels, entropies, check sets and
logical operators are all written out here, so agreement with the engines
is evidence about both.

Conventions.  Entropies are in bits.  ``S_RB`` of a code carrying one
logical qubit is the conditional entropy H(L|S) of the logical class of
the error given its syndrome; the rate is (1 - S_RB) / N, the threshold is
the p where S_RB = 1, and the hashing point is the p where the channel's
own entropy is 1 bit.

``repX(n) x repZ(m)`` is m inner blocks of an n-qubit repetition code
(checks Z Z inside each block) under an m-block repetition code on the
block logicals (checks X^n X^n on neighbouring blocks); ``n = 1`` is the
single repetition code ``repZ(m)``, and Shor's code is the 3 x 3 case.
Under the independent X/Z channel the X and Z parts factor:

* Z errors pass the inner code as a block flip with probability
  q = (1 - (1-2p)^n) / 2, and the outer code sees m independent flips:
  H_x = sum over block-parity vectors b of P(b) log2(P(s(b)) / P(b)).
* X errors are seen by the inner code; a block whose syndrome class has
  weights {w, n-w} holds the complement with posterior
  c(w) = p^(n-w)(1-p)^w / (p^w(1-p)^(n-w) + p^(n-w)(1-p)^w), and the
  logical is the parity of the block flips:
  H_z = E[h2((1 - prod_j (1 - 2 c(w_j))) / 2)], w_j ~ Bin(n, p),
  summed over weight multisets.

``s_rb_enumerated`` checks that formula by summing over every x- and
z-string for N = n m <= 12.

The closed-form coset probabilities of repetition blocks and of the
n x m concatenation (``rep_block_cosets``, ``fgh_eval``,
``concat_rep_coset_probs``) are evaluated here too, at ``DPS`` digits and
returned as floats, for the tests that hold the engines' tables to them.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter

from mpmath import mp, mpf

DPS = 40
MAX_ENUMERATED = 12  # qubits; raw enumeration visits 2 * 2^N strings


def _mpf(x) -> mpf:
    """Exact decimal reading of a printed value (str avoids binary noise)."""
    return mpf(str(x)) if isinstance(x, float) else mpf(x)


def _plogp(x) -> mpf:
    return x * mp.log(x, 2) if x > 0 else mpf(0)


def entropy(probs) -> mpf:
    return -mp.fsum(_plogp(x) for x in probs)


def h2(x) -> mpf:
    return entropy((x, 1 - x))


# --- channels ---------------------------------------------------------------

def depolarizing(p):
    """(I, X, Y, Z) probabilities of the depolarizing family."""
    return (1 - 3 * p, p, p, p)


def independent_xz(p):
    return ((1 - p) ** 2, p * (1 - p), p * p, p * (1 - p))


def custom(coefficients):
    """(1-p, cX p, cY p, cZ p) with the printed triple rescaled to sum 1."""
    with mp.workdps(DPS):
        c = [_mpf(x) for x in coefficients]
        s = mp.fsum(c)
        cx, cy, cz = (x / s for x in c)
    return lambda p: (1 - p, cx * p, cy * p, cz * p)


# --- root solves ------------------------------------------------------------

def _root(f, lo, hi):
    """The root of increasing f on [lo, hi], by mp.findroot on the bracket."""
    lo, hi = _mpf(lo), _mpf(hi)
    if not f(lo) < 0 < f(hi):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    x = mp.findroot(f, (lo, hi), solver="anderson")
    if not lo < x < hi or abs(f(x)) > mpf(10) ** (10 - DPS):
        raise ArithmeticError(f"root solve left the bracket or did not converge: {x}")
    return x


def hashing_point(channel, p_max, steps=64):
    """Smallest p at which the channel's entropy reaches 1 bit.

    A forward scan finds the first upcrossing (biased families can peak
    and fall back), then the root is solved on that grid cell.
    """
    with mp.workdps(DPS):
        f = lambda p: entropy(channel(p)) - 1
        grid = [_mpf(p_max) * i / steps for i in range(1, steps + 1)]
        lo = mpf(0)
        for p in grid:
            if f(p) >= 0:
                return _root(f, lo, p)
            lo = p
        raise ValueError("channel entropy never reaches 1 bit")


# --- repX(n) x repZ(m) under the independent X/Z channel --------------------

def s_rb_rep_concat(n, m, p):
    """S_RB = H_x + H_z of repX(n) x repZ(m) at independent X/Z noise p."""
    with mp.workdps(DPS):
        p = _mpf(p)
        # Z errors: block flips with probability q, then the outer code
        q = (1 - (1 - 2 * p) ** n) / 2
        flips = [q ** w * (1 - q) ** (m - w) for w in range(m + 1)]
        h_x = mp.fsum(math.comb(m, w) * flips[w]
                      * mp.log((flips[w] + flips[m - w]) / flips[w], 2)
                      for w in range(m + 1))
        # X errors: inner syndrome weights, then the parity of block flips
        prob = [math.comb(n, w) * p ** w * (1 - p) ** (n - w) for w in range(n + 1)]
        tilt = []
        for w in range(n + 1):
            a = p ** w * (1 - p) ** (n - w)
            b = p ** (n - w) * (1 - p) ** w
            tilt.append(1 - 2 * b / (a + b))
        h_z = mpf(0)
        for weights in itertools.combinations_with_replacement(range(n + 1), m):
            counts = Counter(weights)
            mult = math.factorial(m)
            for k in counts.values():
                mult //= math.factorial(k)
            pw = mp.fprod(prob[w] ** k for w, k in counts.items())
            t = mp.fprod(tilt[w] ** k for w, k in counts.items())
            h_z += mult * pw * h2((1 - t) / 2)
        return h_x + h_z


def _conditional_entropy(n_bits, p, syndrome, logical):
    """H(L|S) over all n_bits-strings with iid flips of probability p."""
    mass: Counter = Counter()
    for e in range(1 << n_bits):
        mass[(syndrome(e), logical(e), e.bit_count())] += 1
    joint: dict = {}
    for (s, l, w), count in mass.items():
        joint[(s, l)] = joint.get((s, l), 0) + count * p ** w * (1 - p) ** (n_bits - w)
    marginal: dict = {}
    for (s, _), v in joint.items():
        marginal[s] = marginal.get(s, 0) + v
    return entropy(joint.values()) - entropy(marginal.values())


def _parities(e, masks):
    return tuple((e & mask).bit_count() & 1 for mask in masks)


def s_rb_enumerated(n, m, p):
    """S_RB of repX(n) x repZ(m) by summing over all 2^N x- and z-strings.

    Qubit i of block b is bit b*n + i.  Z-type checks Z Z inside each block
    see x-strings; X-type checks X^n X^n on neighbouring blocks see
    z-strings.  The logical Z is Z on qubit 0 of every block, the logical X
    is X^n on block 0.
    """
    size = n * m
    if size > MAX_ENUMERATED:
        raise ValueError(f"{size} qubits is too many to enumerate")
    block = (1 << n) - 1
    z_checks = [(3 << i) << (b * n) for b in range(m) for i in range(n - 1)]
    x_checks = [(block | block << n) << (b * n) for b in range(m - 1)]
    z_logical = [sum(1 << (b * n) for b in range(m))]
    x_logical = [block]
    with mp.workdps(DPS):
        p = _mpf(p)
        h_x = _conditional_entropy(size, p, lambda e: _parities(e, z_checks),
                                   lambda e: _parities(e, z_logical))
        h_z = _conditional_entropy(size, p, lambda e: _parities(e, x_checks),
                                   lambda e: _parities(e, x_logical))
        return h_x + h_z


@functools.lru_cache(maxsize=None)
def rep_concat_threshold(n, m, bracket=(0.10, 0.13)):
    """Independent X/Z threshold of repX(n) x repZ(m): S_RB(p) = 1."""
    with mp.workdps(DPS):
        return _root(lambda p: s_rb_rep_concat(n, m, p) - 1, *bracket)


# --- repetition-block coset probabilities ------------------------------------

def fgh_eval(kind, n, k, x, y):
    """The single-variable enumerators f^e, f^o and g_{k,n} of an [[n,1]]
    repetition block (x = 1 - 3p, y = p on the depolarizing channel)."""
    if not 0 <= k <= n:
        raise ValueError(f"k={k} outside 0..{n}")
    with mp.workdps(DPS):
        x, y = _mpf(x), _mpf(y)
        if kind == "f_e":
            return float(((x + y) ** n + (x - y) ** n) / 2)
        if kind == "f_o":
            return float(((x + y) ** n - (x - y) ** n) / 2)
        if kind == "g":
            return float((x + y) ** (n - k) * (2 * y) ** k / 2)
    raise ValueError(f"unknown enumerator kind {kind!r}")


@functools.lru_cache(maxsize=None)
def rep_block_cosets(n, stabilizer_type, channel):
    """h[b][k] of an [[n,1]] repetition block under an (I, X, Y, Z) channel:

        h^b_k = ((u+v)^k (s+t)^(n-k) + (-1)^b (u-v)^k (s-t)^(n-k)) / 2

    with (u, v, s, t) = (p_X, p_Y, p_I, p_Z) for Z-type blocks and
    (p_Z, p_Y, p_I, p_X) for X-type blocks.  Entries are mpf.
    """
    with mp.workdps(DPS):
        p_i, p_x, p_y, p_z = (_mpf(x) for x in channel)
        u, v, s, t = (p_x, p_y, p_i, p_z) if stabilizer_type == "Z" else (p_z, p_y, p_i, p_x)
        return tuple(tuple(((u + v) ** k * (s + t) ** (n - k)
                            + sign * (u - v) ** k * (s - t) ** (n - k)) / 2
                           for k in range(n + 1))
                     for sign in (1, -1))


def _f_even_odd(xs, ys):
    plus, minus = mp.fprod(x + y for x, y in zip(xs, ys)), mp.fprod(x - y for x, y in zip(xs, ys))
    return (plus + minus) / 2, (plus - minus) / 2


def concat_rep_coset_probs(n, m, channel, kvec, bvec):
    """Stabilizer-coset probabilities of one class of repX(n) x repZ(m)
    under an (I, X, Y, Z) channel.

    Inner blocks are X-type, the outer layer Z-type.  ``kvec`` holds each
    block's unabsorbed support size, ``bvec`` its parity bit.  Returns the
    probabilities of the coset itself and of its logical Z, X and Y
    translates, as floats.
    """
    if len(kvec) != m or len(bvec) != m:
        raise ValueError(f"kvec/bvec must have length m={m}")
    h = rep_block_cosets(n, "X", tuple(channel))
    with mp.workdps(DPS):
        p_s, p_sz = _f_even_odd([h[b][k] for k, b in zip(kvec, bvec)],
                                [h[b][n - k] for k, b in zip(kvec, bvec)])
        p_sx, p_sy = _f_even_odd([h[1 - b][k] for k, b in zip(kvec, bvec)],
                                 [h[1 - b][n - k] for k, b in zip(kvec, bvec)])
        return float(p_s), float(p_sz), float(p_sx), float(p_sy)


# --- repX(n) x repZ(m) under any Pauli channel, S_RB - 1 ----------------------

def _compositions(total, parts):
    """Every tuple of ``parts`` non-negative counts summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _block_atoms(n, channel):
    """(weight, |q|, r) of the inner blocks, one per syndrome class weight
    k <= n/2 and z-parity b of the block error.

    The checks Z Z see the x-part of a block's error up to its complement,
    the block logical X^n; the class of x-weights {k, n-k} is the syndrome.
    Within it, the x-part (x or its complement) is the block's logical X
    bit, which the outer X^n X^n checks do not see, and the z-parity is its
    logical Z bit, which they do.  With letters X, Y inside the x-support
    and I, Z outside, a pattern of weight k has z-parity b with probability
    g_b(k) = ((pX+pY)^k (pI+pZ)^(n-k) + (-1)^b (pX-pY)^k (pI-pZ)^(n-k)) / 2.
    Per (class, b): A = g_b(k) + g_b(n-k), q = (g_b(k) - g_b(n-k)) / A and
    r = A(1-b) / A(b), the weight counting the C(n, k) patterns of weight k
    (half of them at k = n/2, where a pattern and its complement both are).
    """
    p_i, p_x, p_y, p_z = channel

    def g(b, k):
        sign = 1 if b == 0 else -1
        return ((p_x + p_y) ** k * (p_i + p_z) ** (n - k)
                + sign * (p_x - p_y) ** k * (p_i - p_z) ** (n - k)) / 2

    atoms = []
    for k in range(n // 2 + 1):
        classes = mpf(math.comb(n, k)) / (2 if 2 * k == n else 1)
        for b in (0, 1):
            a = g(b, k) + g(b, n - k)
            if a > 0:
                other = g(1 - b, k) + g(1 - b, n - k)
                atoms.append((classes * a, abs(g(b, k) - g(b, n - k)) / a, other / a))
    return atoms


def s_rb_minus_one_rep(n, m, channel):
    """S_RB - 1 (bits) of repX(n) x repZ(m) under an (I, X, Y, Z) channel,
    by a sum over the multisets of the m blocks' atoms.

    Given the inner syndromes and the outer syndrome (the blocks' z-bits up
    to complementing all of them), the logical X is the parity of the
    blocks' x-bits and the logical Z picks the z-vector or its complement.
    For a multiset with Q = prod |q| and R = prod r (the complement's
    probability over the vector's) the conditional entropy is, in nats,
    ln 2 - ((1+Q) ln(1+Q) + (1-Q) ln(1-Q)) / 2 + ln(1 + R), so

        S_RB - 1 = E[-((1+Q) ln(1+Q) + (1-Q) ln(1-Q)) / 2 + ln(1 + R)] / ln 2,

    with the first term written as -(2Q atanh Q + log1p(-Q^2)) / 2 so that
    its leading Q^2 / 2 is not lost.
    """
    with mp.workdps(DPS):
        atoms = _block_atoms(n, tuple(_mpf(x) for x in channel))
        log_fact = [mp.log(mp.factorial(c)) for c in range(m + 1)]
        total = mpf(0)
        for counts in _compositions(m, len(atoms)):
            live = [(c, atom) for c, atom in zip(counts, atoms) if c]
            weight = mp.exp(log_fact[m] - mp.fsum(log_fact[c] for c, _ in live))
            weight *= mp.fprod(w ** c for c, (w, _, _) in live)
            big_q = mp.fprod(q ** c for c, (_, q, _) in live)
            big_r = mp.fprod(r ** c for c, (_, _, r) in live)
            phi_q = (-mp.log(2) if big_q == 1 else
                     -(2 * big_q * mp.atanh(big_q) + mp.log1p(-big_q ** 2)) / 2)
            total += weight * (phi_q + mp.log1p(big_r))
        return total / mp.log(2)


# --- Steane code under a general Pauli channel -------------------------------

_HAMMING = (0b1010101, 0b0110011, 0b0001111)


def s_rb_steane(channel):
    """S_RB of the [[7,1,3]] Steane code by summing over all 4^7 Paulis.

    X and Z checks are both the [7,4] Hamming parity checks; the logicals
    are X^7 and Z^7.  ``channel`` is an (I, X, Y, Z) probability tuple.
    """
    full = (1 << 7) - 1
    mass: Counter = Counter()
    for x in range(1 << 7):
        for z in range(1 << 7):
            # an x-part is seen by the Z checks and by the logical Z
            key = (_parities(x, _HAMMING), _parities(z, _HAMMING),
                   _parities(x, (full,)), _parities(z, (full,)))
            n_y = (x & z).bit_count()
            n_x = x.bit_count() - n_y
            n_z = z.bit_count() - n_y
            mass[key + (n_x, n_y, n_z)] += 1
    with mp.workdps(DPS):
        p_i, p_x, p_y, p_z = channel
        joint: dict = {}
        for (*cell, n_x, n_y, n_z), count in mass.items():
            pr = count * p_i ** (7 - n_x - n_y - n_z) * p_x ** n_x * p_y ** n_y * p_z ** n_z
            joint[tuple(cell)] = joint.get(tuple(cell), 0) + pr
        marginal: dict = {}
        for (sx, sz, _, _), v in joint.items():
            marginal[(sx, sz)] = marginal.get((sx, sz), 0) + v
        return entropy(joint.values()) - entropy(marginal.values())
