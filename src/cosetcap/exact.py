"""Exact coset-probability tables for arbitrary stabilizer codes.

For an error e drawn letterwise from per-site Pauli channels, each
classification bit (commutation with one generator or logical) is a sum
over sites of single-letter symplectic products, mod 2.  The distribution
of the full (syndrome, logical-class) bit vector is therefore the XOR
convolution, over sites, of per-site 4-point distributions on that bit
space.  Accumulating site by site gives every one of the 4^n error strings
the exact same cell it would get from exhaustive enumeration, at cost
O(n * 4 * 2^(checks + 2k)) instead of O(4^n): 13-qubit codes take
milliseconds and hold 10+ significant digits in float64.

Class-bit layout per logical qubit j: bit 2j is the commutation with
logical X[j], bit 2j+1 with logical Z[j].  For k = 1 the class indices
therefore read (I, Z, X, Y) = (0, 1, 2, 3).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .channels import PauliChannel
from .codes import StabilizerCode

EXHAUSTIVE_LIMIT = 13
_ENTROPY_BLOCK = 1 << 16  # elements per row block of batched_s_rb
_TINY = np.finfo(float).tiny

# class index -> position in a (p_I, p_X, p_Y, p_Z) vector, and its inverse:
# class bits (anti w/ X?, anti w/ Z?) give I->0, Z->1, X->2, Y->3.
CLASS_OF_LETTER = (0, 2, 3, 1)  # I, X, Y, Z


class ExhaustiveLimitError(ValueError):
    """Code too long for the exact engine's configured limit."""


@dataclass(frozen=True)
class CosetTable:
    """Probabilities of every (syndrome, logical-class) cell of a code.

    probs[s, c] is the total probability of errors with syndrome index s
    (generator commutation bits, generator 0 least significant) and
    logical-class index c (layout above).  Rows sum to the normalizer-coset
    probabilities P_T.
    """

    code_name: str
    n: int
    k: int
    probs: np.ndarray

    def syndrome_probs(self) -> np.ndarray:
        return self.probs.sum(axis=1)

    def check_invariants(self, total_tol: float = 1e-10) -> None:
        total = float(self.probs.sum())
        if abs(total - 1.0) > total_tol:
            raise AssertionError(f"coset table mass {total!r} != 1")
        if float(self.probs.min()) < -1e-14:
            raise AssertionError("negative coset probability")

    def to_json(self) -> str:
        """Debug dump: syndrome hex key -> list of class probabilities."""
        payload = {
            "code": self.code_name,
            "n": self.n,
            "k": self.k,
            "cells": {
                format(s, "x"): [float(v) for v in row]
                for s, row in enumerate(self.probs)
                if row.any()
            },
        }
        return json.dumps(payload, indent=1, sort_keys=True)


def _letter_bit_masks(code: StabilizerCode) -> np.ndarray:
    """masks[site, letter] = classification-bit flips caused by that letter.

    Letter order (I, X, Y, Z); bit order: generators then (X, Z) logical
    pairs, all little-endian.
    """
    checks = list(code.generators)
    for j in range(code.k):
        checks.append(code.logical_x[j])
        checks.append(code.logical_z[j])
    letters = ((0, 0), (1, 0), (1, 1), (0, 1))  # (x, z) of I, X, Y, Z
    masks = np.zeros((code.n, 4), dtype=np.int64)
    for i in range(code.n):
        for li, (ex, ez) in enumerate(letters):
            m = 0
            for b, chk in enumerate(checks):
                gx = (chk.x_bits >> i) & 1
                gz = (chk.z_bits >> i) & 1
                if (ex & gz) ^ (ez & gx):
                    m |= 1 << b
            masks[i, li] = m
    return masks


def coset_distribution(code: StabilizerCode, site_channels,
                       limit: int = EXHAUSTIVE_LIMIT) -> CosetTable:
    """Exact CosetTable of ``code`` under independent per-site channels.

    ``site_channels`` is a sequence of ``code.n`` PauliChannel values (or
    4-vectors in (I, X, Y, Z) order).
    """
    if code.n > limit:
        raise ExhaustiveLimitError(
            f"{code.name}: n={code.n} exceeds exhaustive limit {limit}")
    if len(site_channels) != code.n:
        raise ValueError(f"need {code.n} site channels, got {len(site_channels)}")
    site_probs = np.empty((code.n, 4))
    for i, ch in enumerate(site_channels):
        site_probs[i] = ch.as_array() if isinstance(ch, PauliChannel) else np.asarray(ch)
    masks = _letter_bit_masks(code)
    nbits = len(code.generators) + 2 * code.k
    dist = _bit_distribution(site_probs, masks, nbits)
    table = dist.reshape(4 ** code.k, 2 ** len(code.generators)).T
    return CosetTable(code.name, code.n, code.k, np.ascontiguousarray(table))


def _bit_distribution(site_probs: np.ndarray, masks: np.ndarray, nbits: int) -> np.ndarray:
    """XOR-convolve per-site letter distributions over the classification bits."""
    size = 1 << nbits
    idx = np.arange(size)
    dist = np.zeros(size)
    dist[0] = 1.0
    for i in range(site_probs.shape[0]):
        new = site_probs[i, 0] * dist  # identity letter never flips a bit
        for li in range(1, 4):
            p = site_probs[i, li]
            if p != 0.0:
                new += p * dist[idx ^ int(masks[i, li])]
        dist = new
    return dist


def entropy_from_cells(cells: np.ndarray) -> float:
    """S_RB in bits from a (syndromes, classes) probability array.

    Equals both the probability-weighted conditional class entropy and the
    difference between the stabilizer-coset and normalizer-coset entropies.
    """
    return float(_row_plogp(cells.sum(axis=-1)[None])[0]
                 - _row_plogp(cells.reshape(1, -1))[0]) / math.log(2.0)


def s_rb_exact(table: CosetTable) -> float:
    """Entropy S_RB (bits) of a coset table."""
    return entropy_from_cells(table.probs)


def _row_plogp(rows: np.ndarray) -> np.ndarray:
    """sum p ln p along each row of a non-negative 2-D array (0 ln 0 = 0).

    Cells below the smallest normal float take ln of it instead, which moves
    the sum by less than 1e-305.
    """
    logs = np.maximum(rows, _TINY)
    np.log(logs, out=logs)
    logs *= rows
    return logs.sum(axis=1)


def batched_s_rb(cells: np.ndarray) -> np.ndarray:
    """S_RB per assignment for a (A, syndromes, classes) batch, in bits.

    Reduces blocks of rows of the (A, classes, syndromes) layout, which is
    contiguous for the Walsh engine's cells (other layouts are copied).
    """
    by_class = np.ascontiguousarray(cells.transpose(0, 2, 1))
    a = by_class.shape[0]
    rows = max(1, _ENTROPY_BLOCK // max(1, cells.shape[1] * cells.shape[2]))
    out = np.empty(a)
    for start in range(0, a, rows):
        block = by_class[start:start + rows]
        out[start:start + rows] = (_row_plogp(block.sum(axis=1))
                                   - _row_plogp(block.reshape(block.shape[0], -1)))
    return out / math.log(2.0)


def s_rb_code(code: StabilizerCode, ch: PauliChannel,
              limit: int = EXHAUSTIVE_LIMIT) -> float:
    """S_RB of a single code with the same channel on every qubit."""
    table = coset_distribution(code, [ch] * code.n, limit=limit)
    return s_rb_exact(table)
