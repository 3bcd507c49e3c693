"""Exact coset-probability tables: the one Walsh engine of the library.

For an error e drawn letterwise from per-site Pauli channels, each
classification bit (commutation with one generator or logical) is a sum
over sites of single-letter symplectic products, mod 2.  The distribution
of the full (syndrome, logical-class) bit vector is therefore the XOR
convolution, over sites, of per-site 4-point distributions on that bit
space: in the Walsh domain, a pointwise product of per-site spectra.

A site's spectrum at Walsh point v depends on v only through the site's
character pattern 2 parity(v & mask_X) + parity(v & mask_Z), where mask_L
holds the classification bits a letter L on that site flips (mask_Y =
mask_X ^ mask_Z, so the Y character is the product of the other two).  It
is (channel @ E4)[pattern] for a fixed 4x4 +-1 matrix E4.  One cached
uint8 (n, 2^bits) table of patterns per code and E4 are the whole input of
the engine: a single row (``coset_distribution``) gathers its spectrum
from it; the spectrum tables of stack layers and sampled rows expand it
once per call into per-site +-1 matrices E4[:, pattern] for 4-column
matmuls.  The inverse transform is H_a X H_b on an (a, b) reshape of the
2^bits points, two matmuls with Sylvester factors.  Every one of the 4^n
error strings lands in the cell exhaustive enumeration would give it, at
cost O(n 2^bits) per row: 13-qubit codes take under a millisecond and hold
10+ significant digits in float64.

Class-bit layout per logical qubit j: bit 2j is the commutation with
logical X[j], bit 2j+1 with logical Z[j].  For k = 1 the class indices
therefore read (I, Z, X, Y) = (0, 1, 2, 3).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .channels import PauliChannel
from .codes import StabilizerCode

EXHAUSTIVE_LIMIT = 13
_ENTROPY_BLOCK = 1 << 16  # elements per row block of batched_s_rb
_WHT_BLOCK = 1 << 16  # elements per row block of the inverse transform
_TINY = np.finfo(float).tiny

# class index -> position in a (p_I, p_X, p_Y, p_Z) vector, and its inverse:
# class bits (anti w/ X?, anti w/ Z?) give I->0, Z->1, X->2, Y->3.
CLASS_OF_LETTER = (0, 2, 3, 1)  # I, X, Y, Z

# E4[letter, pattern]: character of letter (I, X, Y, Z) at a Walsh point
# where the site's pattern is 2 parity(v & mask_X) + parity(v & mask_Z)
_E4 = np.array([[1.0, 1.0, 1.0, 1.0],
                [1.0, 1.0, -1.0, -1.0],
                [1.0, -1.0, -1.0, 1.0],
                [1.0, -1.0, 1.0, -1.0]])


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


@functools.lru_cache(maxsize=64)
def _character_table(code: StabilizerCode) -> np.ndarray:
    """uint8 (n, 2^bits) character pattern of every site at every Walsh point.

    Bits are the generators, then the (X, Z) logical pairs, little-endian.
    Bit b of v toggles the X parity of the sites where check b has a Z and
    the Z parity of those where it has an X.  Read-only: it is shared.
    """
    checks = list(code.generators)
    for j in range(code.k):
        checks += [code.logical_x[j], code.logical_z[j]]
    pattern = np.zeros((code.n, 1), dtype=np.uint8)
    for chk in checks:
        flip = np.array([2 * ((chk.z_bits >> i) & 1) + ((chk.x_bits >> i) & 1)
                         for i in range(code.n)], dtype=np.uint8)
        pattern = np.concatenate([pattern, pattern ^ flip[:, None]], axis=1)
    pattern.flags.writeable = False
    return pattern


def _site_signs(code: StabilizerCode) -> np.ndarray:
    """(n, 4, 2^bits) +-1 characters of every letter on every site."""
    return np.stack([np.take(_E4, row, axis=1) for row in _character_table(code)])


@functools.lru_cache(maxsize=None)
def _hadamard_factors(bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Sylvester factors (H_a / 2^bits, H_b) with a * b = 2^bits, a >= b."""
    sylvester = [np.ones((1, 1))]
    for _ in range(bits - bits // 2):
        h = sylvester[-1]
        sylvester.append(np.block([[h, h], [h, -h]]))
    return sylvester[bits - bits // 2] / (1 << bits), sylvester[bits // 2]


def _inverse_wht(arr: np.ndarray) -> np.ndarray:
    """In-place inverse Walsh-Hadamard transform along the last axis.

    On the (a, b) reshape of 2^bits points the Sylvester matrix factors as
    H_a (x) H_b, so each row transforms as H_a X H_b / 2^bits: two matmuls
    per block of rows, through one block-sized scratch buffer.  ``arr``
    must be C-contiguous; it is returned.
    """
    if not arr.flags.c_contiguous:
        raise ValueError("_inverse_wht transforms C-contiguous arrays in place")
    size = arr.shape[-1]
    ha, hb = _hadamard_factors(size.bit_length() - 1)
    a, b = ha.shape[0], hb.shape[0]
    flat = arr.reshape(-1, size)
    rows = max(1, _WHT_BLOCK // size)
    scratch = np.empty((min(rows, flat.shape[0]), a, b))
    for start in range(0, flat.shape[0], rows):
        block = flat[start:start + rows].reshape(-1, a, b)
        tmp = scratch[:block.shape[0]]
        np.matmul(block.reshape(-1, b), hb, out=tmp.reshape(-1, b))
        np.matmul(ha, tmp, out=block)
    return arr


def _cells(code: StabilizerCode, spec: np.ndarray) -> np.ndarray:
    """Coset cells (A, S, C) of a batch of Walsh spectra (A, 2^bits).

    The spectra are transformed in place; the cells are a transposed view
    of them, contiguous as (A, C, S).
    """
    dist = _inverse_wht(spec)
    np.clip(dist, 0.0, None, out=dist)
    return dist.reshape(spec.shape[0], 4 ** code.k,
                        2 ** len(code.generators)).transpose(0, 2, 1)


def _batched_cells(code: StabilizerCode, chans: np.ndarray) -> np.ndarray:
    """Coset cells for per-row site channels: chans (A, n, 4) -> (A, S, C).

    One 4-column matmul with the site's +-1 characters per site and block
    of rows, one inverse transform at the end.  Used for sampled rows,
    where a gather per element would cost more than the matmul.
    """
    signs = _site_signs(code)
    spec = np.empty((chans.shape[0], signs.shape[-1]))
    rows = max(1, _WHT_BLOCK // signs.shape[-1])
    for start in range(0, spec.shape[0], rows):
        block, sites = spec[start:start + rows], chans[start:start + rows]
        np.matmul(sites[:, 0, :], signs[0], out=block)
        for i in range(1, code.n):
            block *= sites[:, i, :] @ signs[i]
    return _cells(code, spec)


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
    pattern = _character_table(code)
    spec = np.ones((1, pattern.shape[1]))
    for vals, row in zip(site_probs @ _E4, pattern):
        spec[0] *= np.take(vals, row)
    cells = _cells(code, spec)[0]
    return CosetTable(code.name, code.n, code.k, np.ascontiguousarray(cells))


def s_rb_exact(table: CosetTable) -> float:
    """Entropy S_RB (bits) of a coset table.

    Equals both the probability-weighted conditional class entropy and the
    difference between the stabilizer-coset and normalizer-coset entropies.
    """
    return float(batched_s_rb(table.probs[None])[0])


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
