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

Every layer is evaluated in the Walsh domain, where the XOR convolution of
per-site letter distributions over classification bits is a pointwise
product of spectra.  Each site of a layer takes one of E input channels,
so the (n, E, 2^bits) table of their spectra is built once per layer;
enumerated assignments multiply rows of it, and product layers reuse the
products of every combination of their last sites as one block.  Sampled
rows take one 4-column matmul per site.  The inverse transform is H_a X H_b
on an (a, b) reshape of the 2^bits points, two matmuls with Sylvester
factors.
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
                    coset_distribution)
from .pauli import PauliString, pauli_mul

ASSIGNMENT_BUDGET = 100_000_000
_CHUNK_ELEMS = 1 << 19  # spectrum elements per enumerated chunk
_WHT_BLOCK = 1 << 16  # elements per row block of the inverse transform
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
_hadamard_cache: dict = {}


def _parity_table(nbits: int) -> np.ndarray:
    """parity[v] = popcount(v) mod 2 for every v < 2^nbits."""
    parity = np.zeros(1, dtype=np.int8)
    for _ in range(nbits):
        parity = np.concatenate([parity, parity ^ 1])
    return parity


def _site_sign_matrices(code: StabilizerCode) -> np.ndarray:
    """(n, 4, 2^bits) Walsh characters of each site's letter bit-masks."""
    from .exact import _letter_bit_masks
    key = (code.n, code.k,
           tuple((g.x_bits, g.z_bits) for g in code.generators),
           tuple((p.x_bits, p.z_bits) for p in (*code.logical_x, *code.logical_z)))
    cached = _sign_cache.get(key)
    if cached is not None:
        return cached
    nbits = len(code.generators) + 2 * code.k
    chi = np.arange(1 << nbits)
    parity = _parity_table(nbits)[chi & _letter_bit_masks(code)[:, :, None]]
    signs = 1.0 - 2.0 * parity
    _sign_cache[key] = signs
    if len(_sign_cache) > 64:
        _sign_cache.pop(next(iter(_sign_cache)))
    return signs


def _hadamard_factors(bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Sylvester factors (H_a / 2^bits, H_b) with a * b = 2^bits, a >= b."""
    cached = _hadamard_cache.get(bits)
    if cached is None:
        sylvester = [np.ones((1, 1))]
        for _ in range(bits - bits // 2):
            h = sylvester[-1]
            sylvester.append(np.block([[h, h], [h, -h]]))
        cached = (sylvester[bits - bits // 2] / (1 << bits), sylvester[bits // 2])
        _hadamard_cache[bits] = cached
    return cached


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

    The XOR convolution over sites is a pointwise product in the Walsh
    domain: one 4-column matmul per site and block of rows, one inverse
    transform at the end.  Used for sampled rows; enumerated assignments
    use ``_layer_batches``.
    """
    signs = _site_sign_matrices(code)
    spec = np.empty((chans.shape[0], signs.shape[-1]))
    rows = max(1, _WHT_BLOCK // signs.shape[-1])
    for start in range(0, spec.shape[0], rows):
        block, sites = spec[start:start + rows], chans[start:start + rows]
        np.matmul(sites[:, 0, :], signs[0], out=block)
        for i in range(1, code.n):
            block *= sites[:, i, :] @ signs[i]
    return _cells(code, spec)


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


def _layer_batches(layer: StabilizerCode, entries: EffectiveChannelSet,
                   budget: int):
    """Yield (log-weights, Walsh spectra) chunks over every assignment of
    ``entries`` to the sites of ``layer``.

    ``table[i, e]`` is the spectrum of entry e on site i.  Multiset
    assignments multiply rows gathered from it.  The product of all E^n
    assignments is enumerated in lexicographic order, last site fastest: the
    products of every combination of the last sites form one block of at
    most ``chunk`` rows, built once, and each chunk is a few prefix
    products times that block, one multiply per element.
    """
    table = entries.channels @ _site_sign_matrices(layer)  # (n, E, 2^bits)
    logw_entry = np.log(entries.weights)
    n_entries, n, size = table.shape[1], layer.n, table.shape[2]
    chunk = max(1, _CHUNK_ELEMS // size)
    if layer.permutation_symmetric:
        assign, log_coeff = _assignments_multiset(n_entries, n, budget)
        logw = log_coeff + logw_entry[assign].sum(axis=1)
        for start in range(0, assign.shape[0], chunk):
            idx = assign[start:start + chunk]
            spec = table[0, idx[:, 0]]
            for i in range(1, n):
                spec *= table[i, idx[:, i]]
            yield logw[start:start + chunk], spec
        return
    total = n_entries ** n
    if total > budget:
        raise StackBudgetError(
            f"{n_entries}^{n} = {total} assignments exceed budget {budget}")
    block, block_logw = np.ones((1, size)), np.zeros(1)
    n_prefix = n
    while n_prefix > 0 and block.shape[0] * n_entries <= chunk:
        n_prefix -= 1
        block = (table[n_prefix][:, None, :] * block[None, :, :]).reshape(-1, size)
        block_logw = (logw_entry[:, None] + block_logw[None, :]).ravel()
    place = n_entries ** np.arange(n_prefix - 1, -1, -1)
    per_chunk = max(1, chunk // block.shape[0])
    for start in range(0, n_entries ** n_prefix, per_chunk):
        stop = min(start + per_chunk, n_entries ** n_prefix)
        digits = np.arange(start, stop)[:, None] // place % n_entries
        prefix = np.ones((stop - start, size))
        for i in range(n_prefix):
            prefix *= table[i, digits[:, i]]
        spec = (prefix[:, None, :] * block[None, :, :]).reshape(-1, size)
        logw = logw_entry[digits].sum(axis=1)[:, None] + block_logw[None, :]
        yield logw.ravel(), spec


def _layer_effective_set(layer: StabilizerCode, entries: EffectiveChannelSet,
                         budget: int, tol: float, limit: int,
                         canonicalize: bool) -> EffectiveChannelSet:
    if layer.k != 1:
        raise ValueError("inner layers must have k = 1")
    if layer.n > limit:
        raise StackBudgetError(f"layer {layer.name} exceeds exhaustive limit")
    all_w, all_ch = [], []
    for logw, spec in _layer_batches(layer, entries, budget):
        synd, cond = _conditional_channels(_cells(layer, spec))
        all_w.append((np.exp(logw)[:, None] * synd).ravel())
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
    total = 0.0
    for logw, spec in _layer_batches(top, entries, budget):
        total += float(np.exp(logw) @ batched_s_rb(_cells(top, spec)))
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
