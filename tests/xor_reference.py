"""Coset tables by the gather-loop XOR convolution, without the Walsh engine.

Reference for the cross-engine tests.  It reads only a code's generators
and logicals and builds the distribution of the (syndrome, logical-class)
bit vector site by site: each letter moves its probability from cell u to
cell u ^ mask, where mask holds the classification bits the letter flips
on that site.  The library computes the same tables in the Walsh domain.
Tables are (syndromes, classes) arrays in the layout of
``cosetcap.exact.coset_distribution``.  The flat codes it reads for a
stack come from ``compose_stack``, which writes out the concatenation
explicitly, and ``classify`` gives the bits of one error by its symplectic
products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from cosetcap import (CodeStack, PauliString, StabilizerCode, anticommutes, pauli_mul,
                      trivial_code)
from cosetcap.codes import validate_code

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


@dataclass(frozen=True)
class Classification:
    syndrome: tuple[int, ...]
    logical_class: tuple[int, ...]


def classify(code: StabilizerCode, e: PauliString) -> Classification:
    """Syndrome and logical-class bits of an error.

    syndrome[i] = anticommutes(e, generators[i]); class bits come in
    (logical_x[j], logical_z[j]) pairs.  Two errors share both vectors
    exactly when they sit in the same stabilizer coset.
    """
    if e.n != code.n:
        raise ValueError(f"error length {e.n} != code n {code.n}")
    syndrome = tuple(anticommutes(e, g) for g in code.generators)
    cls = []
    for j in range(code.k):
        cls.append(anticommutes(e, code.logical_x[j]))
        cls.append(anticommutes(e, code.logical_z[j]))
    return Classification(syndrome, tuple(cls))


def _concat_two(inner: StabilizerCode, outer: StabilizerCode) -> StabilizerCode:
    """Explicit stabilizer code of outer acting on inner logical qubits."""
    if inner.k != 1:
        raise ValueError("inner layer of a concatenation must have k = 1")
    n = inner.n * outer.n
    gens = []
    for blk in range(outer.n):
        for g in inner.generators:
            gens.append(PauliString(n, g.x_bits << (blk * inner.n),
                                    g.z_bits << (blk * inner.n)))
    logical_of = {
        "I": PauliString.identity(inner.n),
        "X": inner.logical_x[0],
        "Z": inner.logical_z[0],
        "Y": pauli_mul(inner.logical_x[0], inner.logical_z[0]),
    }

    def lift(p: PauliString) -> PauliString:
        x = z = 0
        for blk in range(outer.n):
            rep = logical_of[p.letter(blk)]
            x |= rep.x_bits << (blk * inner.n)
            z |= rep.z_bits << (blk * inner.n)
        return PauliString(n, x, z)

    gens.extend(lift(g) for g in outer.generators)
    code = StabilizerCode(f"{inner.name} x {outer.name}", n, outer.k, tuple(gens),
                          tuple(lift(p) for p in outer.logical_x),
                          tuple(lift(p) for p in outer.logical_z))
    validate_code(code)
    return code


def compose_stack(stack: CodeStack) -> StabilizerCode:
    """Explicit flat code of a whole stack (oracle for the grouped engine)."""
    if not stack.layers:
        return trivial_code()
    code = stack.layers[0]
    for layer in stack.layers[1:]:
        code = _concat_two(code, layer)
    return code
