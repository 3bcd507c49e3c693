"""Concatenated code stacks: effective channels, exact grouped evaluation,
explicit composition, and Monte Carlo estimation.

A stack is an ordered list of layers, position 0 innermost (its physical
qubits see the channel directly; its syndromes are measured first).  The
stack S_RB decomposes recursively: conditioned on an assignment of inner
syndrome classes, the inner blocks induce independent logical channels on
the next layer's qubits, and

    S_RB(stack) = sum over assignments  P(assignment) * S_RB(outer layers).

Syndromes of a layer whose conditional logical channels coincide (within a
tolerance) are grouped; for permutation-symmetric layers assignments are
grouped further into multisets with multinomial weights.  Neither grouping
changes the value.  When exact enumeration exceeds the budget, the Monte
Carlo path samples assignments from their product distribution and
evaluates the outermost layer exactly per sample.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .channels import PauliChannel, channel_entropy
from .codes import StabilizerCode, registry_get, validate_code
from .exact import (CLASS_OF_LETTER, EXHAUSTIVE_LIMIT, batched_s_rb,
                    coset_distribution, entropy_from_cells)
from .pauli import PauliString, pauli_mul

ASSIGNMENT_BUDGET = 100_000_000
_CHUNK_ROWS = 4096
_GROUP_TOL = 1e-12


class StackBudgetError(ValueError):
    """Exact assignment enumeration exceeds the configured budget."""


@dataclass(frozen=True)
class MonteCarlo:
    samples: int = 100_000
    seed: int = 0


@dataclass(frozen=True)
class CodeStack:
    """Ordered concatenation layers, innermost first."""

    layers: tuple[StabilizerCode, ...] = ()
    strategy: object = "exact"  # "exact" or a MonteCarlo instance

    def __post_init__(self):
        for layer in self.layers[:-1]:
            if layer.k != 1:
                raise ValueError(
                    f"inner layer {layer.name} has k={layer.k}; only the "
                    "outermost layer may carry k > 1")

    @property
    def total_length(self) -> int:
        return math.prod(layer.n for layer in self.layers) if self.layers else 1

    @property
    def k_outer(self) -> int:
        return self.layers[-1].k if self.layers else 1

    def spec(self) -> str:
        return " x ".join(layer.name for layer in self.layers)


def _resolve_layer(token: str) -> StabilizerCode:
    try:
        return registry_get(token)
    except KeyError:
        import os
        if os.path.isfile(token):
            from .codes import parse_code
            with open(token, encoding="utf-8") as fh:
                return parse_code(fh.read())
        raise


def parse_stack_spec(text: str) -> CodeStack:
    """Parse a stack specifier: registry names or code-file paths joined by
    ``x``, inner first."""
    text = text.strip()
    if not text:
        return CodeStack(())
    layers = []
    for token in text.split(" x "):
        token = token.strip()
        if not token:
            raise ValueError(f"empty layer in stack spec {text!r}")
        layers.append(_resolve_layer(token))
    return CodeStack(tuple(layers))


@dataclass(frozen=True)
class EffectiveChannelSet:
    """Weighted conditional logical channels of an inner construction."""

    weights: np.ndarray   # (E,)
    channels: np.ndarray  # (E, 4) in (I, X, Y, Z) order

    def check_invariants(self, tol: float = 1e-10) -> None:
        if abs(float(self.weights.sum()) - 1.0) > tol:
            raise AssertionError("effective-set weights do not sum to 1")
        rows = self.channels.sum(axis=1)
        if np.abs(rows - 1.0).max() > 1e-9:
            raise AssertionError("effective channel row not normalized")


# translations of a conditional channel by a logical I/X/Y/Z: relabeling a
# block's logical error by a fixed Pauli permutes the outer code's cosets
# and therefore never changes any downstream entropy
_TRANSLATIONS = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))


def _canonical_translation(channels: np.ndarray, tol: float) -> np.ndarray:
    """Replace each channel by its lexicographically largest translate."""
    cands = np.stack([channels[:, perm] for perm in _TRANSLATIONS], axis=1)
    keys = np.round(cands / tol) if tol > 0.0 else cands
    alive = np.ones(cands.shape[:2], dtype=bool)
    for col in range(4):
        vals = np.where(alive, keys[:, :, col], -np.inf)
        alive &= vals == vals.max(axis=1, keepdims=True)
    best = alive.argmax(axis=1)
    return cands[np.arange(cands.shape[0]), best]


def _merge_entries(weights: np.ndarray, channels: np.ndarray,
                   tol: float = _GROUP_TOL,
                   canonicalize: bool = True) -> EffectiveChannelSet:
    keep = weights > 0.0
    weights, channels = weights[keep], channels[keep]
    if canonicalize and channels.shape[0]:
        channels = _canonical_translation(channels, tol)
    if tol > 0.0:
        keys = np.round(channels / tol).astype(np.int64)
    else:
        keys = channels
    _, inverse = np.unique(keys, axis=0, return_inverse=True)
    ngroups = int(inverse.max()) + 1 if inverse.size else 0
    w = np.zeros(ngroups)
    np.add.at(w, inverse, weights)
    ch = np.zeros((ngroups, 4))
    # weight-averaged representative channel of each group
    np.add.at(ch, inverse, channels * weights[:, None])
    ch /= w[:, None]
    order = np.argsort(-w, kind="stable")
    return EffectiveChannelSet(w[order], ch[order])


_sign_cache: dict = {}


def _site_sign_matrices(code: StabilizerCode) -> np.ndarray:
    """(n, 4, 2^bits) Walsh characters of each site's letter bit-masks."""
    from .exact import _letter_bit_masks
    key = (code.n, code.k,
           tuple((g.x_bits, g.z_bits) for g in code.generators),
           tuple((p.x_bits, p.z_bits) for p in (*code.logical_x, *code.logical_z)))
    cached = _sign_cache.get(key)
    if cached is not None:
        return cached
    masks = _letter_bit_masks(code)
    nbits = len(code.generators) + 2 * code.k
    size = 1 << nbits
    chi = np.arange(size)
    signs = np.empty((code.n, 4, size))
    for i in range(code.n):
        for li in range(4):
            overlap = chi & int(masks[i, li])
            par = np.zeros(size, dtype=np.int64)
            o = overlap.copy()
            while o.any():
                par ^= o & 1
                o >>= 1
            signs[i, li] = 1.0 - 2.0 * par
    _sign_cache[key] = signs
    if len(_sign_cache) > 64:
        _sign_cache.pop(next(iter(_sign_cache)))
    return signs


def _inverse_wht(arr: np.ndarray) -> np.ndarray:
    """In-place fast Walsh-Hadamard transform along the last axis, / length."""
    size = arr.shape[-1]
    flat = arr.reshape(-1, size)
    tmp = np.empty_like(flat[:, : size // 2]) if size > 1 else None
    h = 1
    while h < size:
        view = flat.reshape(-1, size // (2 * h), 2, h)
        v0 = view[:, :, 0, :]
        v1 = view[:, :, 1, :]
        t = tmp.reshape(v0.shape) if tmp is not None else None
        np.subtract(v0, v1, out=t)
        np.add(v0, v1, out=v0)
        v1[...] = t
        h *= 2
    arr /= size
    return arr


def _batched_cells(code: StabilizerCode, chans: np.ndarray) -> np.ndarray:
    """Coset cells for per-row site channels: chans (A, n, 4) -> (A, S, C).

    The XOR convolution over sites is a pointwise product in the Walsh
    domain: one 4-column matmul per site, one inverse transform at the end.
    """
    signs = _site_sign_matrices(code)
    a = chans.shape[0]
    spec = chans[:, 0, :] @ signs[0]
    for i in range(1, code.n):
        spec *= chans[:, i, :] @ signs[i]
    dist = _inverse_wht(spec)
    np.clip(dist, 0.0, None, out=dist)
    return dist.reshape(a, 4 ** code.k, 2 ** len(code.generators)).transpose(0, 2, 1)


def _conditional_channels(cells: np.ndarray):
    """Per-syndrome weights and conditional logical channels (k = 1 layers)."""
    synd = cells.sum(axis=-1)
    cond = np.divide(cells, synd[..., None], out=np.zeros_like(cells),
                     where=synd[..., None] > 0.0)
    return synd, np.ascontiguousarray(cond[..., list(CLASS_OF_LETTER)])


def effective_channels(code: StabilizerCode, site_channels,
                       limit: int = EXHAUSTIVE_LIMIT,
                       tol: float = _GROUP_TOL,
                       canonicalize: bool = True) -> EffectiveChannelSet:
    """Syndrome-conditioned logical channels of a k = 1 code, grouped.

    Syndromes whose conditional (I, X, Y, Z) vectors agree componentwise
    within ``tol`` are merged into one entry with their summed probability;
    with ``canonicalize`` (the default) vectors are first reduced modulo
    the four logical translations, which downstream entropies cannot see.
    """
    if code.k != 1:
        raise ValueError(f"effective_channels needs k=1, got k={code.k}")
    table = coset_distribution(code, site_channels, limit=limit)
    synd, cond = _conditional_channels(table.probs[None, :, :])
    return _merge_entries(synd[0], cond[0], tol=tol, canonicalize=canonicalize)


def _assignments_product(n_entries: int, n_sites: int, budget: int):
    total = n_entries ** n_sites
    if total > budget:
        raise StackBudgetError(
            f"{n_entries}^{n_sites} = {total} assignments exceed budget {budget}")
    grids = np.indices((n_entries,) * n_sites).reshape(n_sites, total).T
    return np.ascontiguousarray(grids, dtype=np.int64)


def _assignments_multiset(n_entries: int, n_sites: int, budget: int):
    total = math.comb(n_entries + n_sites - 1, n_sites)
    # the count matrix below holds total * n_entries floats
    if total * n_entries > budget:
        raise StackBudgetError(
            f"{total} multisets x {n_entries} entries exceed budget {budget}")
    assign = np.array(list(itertools.combinations_with_replacement(
        range(n_entries), n_sites)), dtype=np.int64)
    # log multinomial coefficient of each multiset
    counts = np.zeros((assign.shape[0], n_entries))
    for j in range(n_sites):
        np.add.at(counts, (np.arange(assign.shape[0]), assign[:, j]), 1.0)
    log_coeff = gammaln(n_sites + 1.0) - gammaln(counts + 1.0).sum(axis=1)
    return assign, log_coeff


def _layer_assignments(layer: StabilizerCode, entries: EffectiveChannelSet,
                       budget: int):
    """Assignment index array and log-weights for one layer's inputs."""
    n_entries = entries.weights.shape[0]
    logw_entry = np.log(entries.weights)
    if layer.permutation_symmetric:
        assign, log_coeff = _assignments_multiset(n_entries, layer.n, budget)
        logw = log_coeff + logw_entry[assign].sum(axis=1)
    else:
        assign = _assignments_product(n_entries, layer.n, budget)
        logw = logw_entry[assign].sum(axis=1)
    return assign, logw


def _layer_effective_set(layer: StabilizerCode, entries: EffectiveChannelSet,
                         budget: int, tol: float, limit: int,
                         canonicalize: bool) -> EffectiveChannelSet:
    if layer.k != 1:
        raise ValueError("inner layers must have k = 1")
    if layer.n > limit:
        raise StackBudgetError(f"layer {layer.name} exceeds exhaustive limit")
    assign, logw = _layer_assignments(layer, entries, budget)
    all_w, all_ch = [], []
    for start in range(0, assign.shape[0], _CHUNK_ROWS):
        sl = slice(start, start + _CHUNK_ROWS)
        chans = entries.channels[assign[sl]]
        cells = _batched_cells(layer, chans)
        synd, cond = _conditional_channels(cells)
        w = np.exp(logw[sl])[:, None] * synd
        all_w.append(w.ravel())
        all_ch.append(cond.reshape(-1, 4))
    return _merge_entries(np.concatenate(all_w), np.vstack(all_ch), tol=tol,
                          canonicalize=canonicalize)


def s_rb_stack_exact(stack: CodeStack, ch: PauliChannel,
                     budget: int = ASSIGNMENT_BUDGET,
                     limit: int = EXHAUSTIVE_LIMIT,
                     group_tol: float = _GROUP_TOL,
                     canonicalize: bool = True) -> float:
    """Exact S_RB (bits) of a stack by effective-channel composition.

    The zero-layer stack degenerates to the bare channel entropy, so that
    rate = k - S_RB reproduces the hashing rate 1 - H.
    """
    if not stack.layers:
        return channel_entropy(ch)
    entries = EffectiveChannelSet(np.ones(1), ch.as_array()[None, :])
    for layer in stack.layers[:-1]:
        entries = _layer_effective_set(layer, entries, budget, group_tol, limit,
                                       canonicalize)
    top = stack.layers[-1]
    if top.n > limit:
        raise StackBudgetError(f"layer {top.name} exceeds exhaustive limit")
    assign, logw = _layer_assignments(top, entries, budget)
    total = 0.0
    for start in range(0, assign.shape[0], _CHUNK_ROWS):
        sl = slice(start, start + _CHUNK_ROWS)
        chans = entries.channels[assign[sl]]
        cells = _batched_cells(top, chans)
        total += float(np.exp(logw[sl]) @ batched_s_rb(cells))
    return total


def s_rb_stack_mc(stack: CodeStack, ch: PauliChannel, samples: int = 100_000,
                  seed: int = 0, limit: int = EXHAUSTIVE_LIMIT,
                  chunk: int = 20_000) -> tuple[float, float]:
    """Monte Carlo S_RB estimate over inner-syndrome assignments.

    Every sample draws the syndrome class of each block below the top
    layer from its conditional distribution and evaluates the top layer
    exactly; the estimator is the sample mean and is unbiased.  Sampling
    uses a counter-based Philox generator keyed by (seed, chunk index), so
    results are reproducible and chunks are independent.
    """
    if len(stack.layers) < 2:
        raise ValueError("Monte Carlo path needs at least two layers")
    for layer in stack.layers:
        if layer.n > limit:
            raise StackBudgetError(f"layer {layer.name} exceeds exhaustive limit")
    # number of blocks of each layer
    nblocks = []
    acc = 1
    for layer in reversed(stack.layers):
        nblocks.append(acc)
        acc *= layer.n
    nblocks.reverse()  # nblocks[i] = count of layer-i blocks

    # innermost layer sees the physical channel on every block: one table
    inner = stack.layers[0]
    table0 = coset_distribution(inner, [ch] * inner.n, limit=limit)
    synd0, cond0 = _conditional_channels(table0.probs[None, :, :])
    w0, cond0 = synd0[0], cond0[0]
    cum0 = np.cumsum(w0)
    cum0[-1] = 1.0

    total = 0.0
    total_sq = 0.0
    done = 0
    chunk_index = 0
    while done < samples:
        nsamp = min(chunk, samples - done)
        rng = np.random.Generator(np.random.Philox(key=[seed, chunk_index]))
        draws = rng.random((nsamp, nblocks[0]))
        idx = np.searchsorted(cum0, draws, side="right")
        chans = cond0[idx]  # (nsamp, blocks0, 4)
        for li in range(1, len(stack.layers) - 1):
            layer = stack.layers[li]
            rows = chans.reshape(nsamp * nblocks[li], layer.n, 4)
            cells = _batched_cells(layer, rows)
            synd, cond = _conditional_channels(cells)
            cum = np.cumsum(synd, axis=1)
            cum[:, -1] = 1.0
            u = rng.random((rows.shape[0], 1))
            pick = (u > cum).sum(axis=1)
            chans = cond[np.arange(rows.shape[0]), pick].reshape(nsamp, nblocks[li], 4)
        top = stack.layers[-1]
        cells = _batched_cells(top, chans.reshape(nsamp, top.n, 4))
        vals = batched_s_rb(cells)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += nsamp
        chunk_index += 1
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    std_error = math.sqrt(var / samples)
    return mean, std_error


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
        from .codes import trivial_code
        return trivial_code()
    code = stack.layers[0]
    for layer in stack.layers[1:]:
        code = _concat_two(code, layer)
    return code
