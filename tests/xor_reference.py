"""Coset tables by the gather-loop XOR convolution, without the Walsh engine.

Reference for the cross-engine tests.  It reads only a code's generators
and logicals and builds the distribution of the (syndrome, logical-class)
bit vector site by site: each letter moves its probability from cell u to
cell u ^ mask, where mask holds the classification bits the letter flips
on that site.  The library computes the same tables in the Walsh domain.
Tables are (syndromes, classes) arrays in the layout of
``cosetcap.exact.coset_distribution``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import xlogy

_LETTERS = ((0, 0), (1, 0), (1, 1), (0, 1))  # (x, z) of I, X, Y, Z


def letter_masks(code) -> np.ndarray:
    """masks[site, letter]: classification bits flipped by letter (I, X, Y, Z).

    Bits are the generators, then the (X, Z) logical pairs, little-endian.
    """
    checks = list(code.generators)
    for j in range(code.k):
        checks += [code.logical_x[j], code.logical_z[j]]
    masks = np.zeros((code.n, 4), dtype=np.int64)
    for i in range(code.n):
        for li, (ex, ez) in enumerate(_LETTERS):
            for b, chk in enumerate(checks):
                gx, gz = (chk.x_bits >> i) & 1, (chk.z_bits >> i) & 1
                if (ex & gz) ^ (ez & gx):
                    masks[i, li] |= 1 << b
    return masks


def gather_table(code, site_channels) -> np.ndarray:
    """(syndromes, classes) coset probabilities under per-site channels."""
    masks = letter_masks(code)
    size = 1 << (len(code.generators) + 2 * code.k)
    idx = np.arange(size)
    dist = np.zeros(size)
    dist[0] = 1.0
    for i, ch in enumerate(site_channels):
        p = ch.as_array()
        new = p[0] * dist  # the identity letter never flips a bit
        for li in range(1, 4):
            if p[li] != 0.0:
                new += p[li] * dist[idx ^ masks[i, li]]
        dist = new
    return dist.reshape(4 ** code.k, 2 ** len(code.generators)).T


def gather_s_rb(code, ch) -> float:
    """S_RB (bits) of ``code`` with ``ch`` on every qubit."""
    cells = gather_table(code, [ch] * code.n)
    synd = cells.sum(axis=1)
    return float(xlogy(synd, synd).sum() - xlogy(cells, cells).sum()) / math.log(2.0)
