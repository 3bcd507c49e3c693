"""Concatenated code stacks: effective channels, exact grouped evaluation,
explicit composition, and Monte Carlo estimation.

A stack is an ordered list of layers, position 0 innermost (its physical
qubits see the channel directly; its syndromes are measured first).  The
stack S_RB decomposes recursively: conditioned on an assignment of inner
syndrome classes, the inner blocks induce independent logical channels on
the next layer's qubits, and

    S_RB(stack) = sum over assignments  P(assignment) * S_RB(outer layers).

Syndromes of a layer whose conditional logical channels coincide (within a
tolerance) are grouped.  Repetition layers, recognised from their
generators (``codes.rep_type_of``), have a stabilizer group that every site
permutation fixes, so their assignments are grouped further into multisets
with multinomial weights.  Neither grouping changes the value.  When exact
enumeration exceeds the budget, the Monte Carlo path samples assignments
from their product distribution and evaluates the outermost layer exactly
per sample.

Every layer goes through the Walsh engine of ``exact``.  Each site of a
layer takes one of E input channels, so the (n, E, 2^bits) table of their
spectra is built once per layer from the code's character table;
enumerated assignments multiply rows of it, and product layers reuse the
products of every combination of their last sites as one block.  Sampled
rows are evaluated in blocks of rows by per-site matmuls.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .channels import PauliChannel, channel_entropy
from .codes import StabilizerCode, registry_get, rep_type_of, validate_code
from .exact import (CLASS_OF_LETTER, EXHAUSTIVE_LIMIT, _batched_cells, _cells,
                    _site_signs, batched_s_rb, coset_distribution)
from .pauli import PauliString, pauli_mul

ASSIGNMENT_BUDGET = 100_000_000
_CHUNK_ELEMS = 1 << 19  # spectrum elements per enumerated chunk or sampled block
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
    assignments of repetition layers multiply rows gathered from it.  The
    product of all E^n assignments is enumerated in lexicographic order,
    last site fastest: the products of every combination of the last sites
    form one block of at most ``chunk`` rows, built once, and each chunk is
    a few prefix products times that block, one multiply per element.
    """
    table = entries.channels @ _site_signs(layer)  # (n, E, 2^bits)
    logw_entry = np.log(entries.weights)
    n_entries, n, size = table.shape[1], layer.n, table.shape[2]
    chunk = max(1, _CHUNK_ELEMS // size)
    if rep_type_of(layer) is not None:
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


def _row_blocks(code: StabilizerCode, count: int) -> list[slice]:
    """Slices of at most ``_CHUNK_ELEMS`` spectrum elements of sampled rows."""
    step = max(1, _CHUNK_ELEMS >> (len(code.generators) + 2 * code.k))
    return [slice(start, start + step) for start in range(0, count, step)]


def s_rb_stack_mc(stack: CodeStack, ch: PauliChannel, samples: int = 100_000,
                  seed: int = 0, limit: int = EXHAUSTIVE_LIMIT,
                  chunk: int = 20_000) -> tuple[float, float]:
    """Monte Carlo S_RB estimate over inner-syndrome assignments.

    Every sample draws the syndrome class of each block below the top
    layer from its conditional distribution and evaluates the top layer
    exactly; the estimator is the sample mean and is unbiased.  Each
    sampled layer is evaluated in row blocks of at most ``_CHUNK_ELEMS``
    spectrum elements, which bound the memory of a chunk.  Sampling
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
            u = rng.random((rows.shape[0], 1))
            picked = np.empty((rows.shape[0], 4))
            for blk in _row_blocks(layer, rows.shape[0]):
                synd, cond = _conditional_channels(_batched_cells(layer, rows[blk]))
                cum = np.cumsum(synd, axis=1)
                cum[:, -1] = 1.0
                pick = (u[blk] > cum).sum(axis=1)
                picked[blk] = cond[np.arange(pick.size), pick]
            chans = picked.reshape(nsamp, nblocks[li], 4)
        top = stack.layers[-1]
        rows = chans.reshape(nsamp, top.n, 4)
        vals = np.empty(nsamp)
        for blk in _row_blocks(top, nsamp):
            vals[blk] = batched_s_rb(_batched_cells(top, rows[blk]))
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
