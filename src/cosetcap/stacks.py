"""Concatenated code stacks: effective channels, exact grouped evaluation
and Monte Carlo estimation.

A stack is an ordered list of layers, position 0 innermost (its physical
qubits see the channel directly; its syndromes are measured first).  The
stack S_RB decomposes recursively: conditioned on an assignment of inner
syndrome classes, the inner blocks induce independent logical channels on
the next layer's qubits, and

    S_RB(stack) = sum over assignments  P(assignment) * S_RB(outer layers).

Syndromes of a layer whose conditional logical channels coincide (within a
tolerance) are grouped, and syndromes below the Walsh engine's round-off
dropped.  A site permutation that keeps every stabilizer in S and every
logical in its coset L.S (``codes.site_automorphisms``) leaves S_RB of an
assignment, and its effective channels up to logical translations, as
they are, so each layer evaluates one assignment per orbit of that group,
weighted by the orbit size: multisets with multinomial weights for a
repetition layer (``codes.rep_type_of``, every permutation), least images
under ``codes.automorphism_group`` for any other, as for sampled top rows.
No grouping changes the value.
When exact enumeration exceeds the budget, the Monte Carlo path samples
assignments from their product distribution and evaluates the outermost
layer exactly per sample.

Weighted channels pass between layers as the pair ``rep.block_entries``
returns and ``rep.top_atoms`` takes: weights (E,) and (I, X, Y, Z)
channels (E, 4).  An innermost repetition layer takes its entries in
closed form (``rep.block_entries``, ``top_entries``), for any length, on
the exact and Monte Carlo paths alike; every other layer goes through the
Walsh engine of ``exact``.  Each site of a
layer takes one of E input channels, so the (n, E, 2^bits) table of their
spectra is built once per layer from the code's character table; each
orbit representative multiplies a product of its first sites' rows with
one row of a block holding the products of every combination of its last
sites.  Sampled blocks are rows of indices into a table of distinct
channels; each distinct middle-layer row, and each orbit of top rows under
the top's site automorphisms, is evaluated once, in blocks of rows by
per-site matmuls.  Draws become indices in linear passes, with no sort: a
guide table gives each innermost draw its entry, a binary search along a
row's cumulative syndrome weights its syndrome, and marking over the
bounded range of (row, syndrome) keys numbers the distinct pairs.  Each
gives what ``np.searchsorted``, counting the weights below the draw and
``np.unique`` would, so a seed fixes every sample and the estimate.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .channels import PauliChannel, channel_entropy
from .codes import StabilizerCode, automorphism_group, registry_get, rep_type_of
from .exact import (CLASS_OF_LETTER, ROUND_OFF, _batched_cells, _cells, _character_table,
                    _site_signs, batched_s_rb)
from .pauli import PauliString
from .rep import (StackBudgetError, block_entries,  # the error re-exported
                  check_budget, multisets)

_CHUNK_ELEMS = 1 << 19  # spectrum elements per enumerated chunk or sampled block
_GROUP_TOL = 1e-12
_MC_CHUNK = 20_000  # Monte Carlo samples per Philox stream


@dataclass(frozen=True)
class MonteCarlo:
    samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        _check_samples(self.samples)


@dataclass(frozen=True)
class CodeStack:
    """Ordered concatenation layers, innermost first, evaluated exactly
    unless ``strategy`` is a MonteCarlo instance."""

    layers: tuple[StabilizerCode, ...] = ()
    strategy: MonteCarlo | None = None

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


# translations of a conditional channel by a logical I/X/Y/Z: relabeling a
# block's logical error by a fixed Pauli permutes the outer code's cosets
# and therefore never changes any downstream entropy
_TRANSLATIONS = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))


def _canonical_translation(channels: np.ndarray) -> np.ndarray:
    """Replace each channel by its lexicographically largest translate."""
    cands = np.stack([channels[:, perm] for perm in _TRANSLATIONS], axis=1)
    keys = np.round(cands / _GROUP_TOL)
    alive = np.ones(cands.shape[:2], dtype=bool)
    for col in range(4):
        vals = np.where(alive, keys[:, :, col], -np.inf)
        alive &= vals == vals.max(axis=1, keepdims=True)
    best = alive.argmax(axis=1)
    return cands[np.arange(cands.shape[0]), best]


def _merge_entries(weights: np.ndarray, channels: np.ndarray,
                   raw: bool = False) -> tuple[np.ndarray, np.ndarray]:
    keep = weights > 0.0
    weights, channels = weights[keep], channels[keep]
    keys = channels
    if not raw and channels.shape[0]:
        channels = _canonical_translation(channels)
        keys = np.round(channels / _GROUP_TOL).astype(np.int64)
    _, inverse = np.unique(keys, axis=0, return_inverse=True)
    ngroups = int(inverse.max()) + 1 if inverse.size else 0
    w = np.zeros(ngroups)
    np.add.at(w, inverse, weights)
    ch = np.zeros((ngroups, 4))
    # weight-averaged representative channel of each group
    np.add.at(ch, inverse, channels * weights[:, None])
    ch /= w[:, None]
    order = np.argsort(-w, kind="stable")
    return w[order], ch[order]


def _syndrome_probs(cells: np.ndarray) -> np.ndarray:
    """Per-syndrome weights of k = 1 cells, 0 below the Walsh engine's
    round-off: such cells are noise, and so would be their channels."""
    synd = cells.sum(axis=-1)
    synd[synd <= ROUND_OFF] = 0.0
    return synd


def _conditional_channels(cells: np.ndarray):
    """Per-syndrome weights and conditional logical channels (k = 1 layers)."""
    synd = _syndrome_probs(cells)
    cond = np.divide(cells, synd[..., None], out=np.zeros_like(cells),
                     where=synd[..., None] > 0.0)
    return synd, np.ascontiguousarray(cond[..., list(CLASS_OF_LETTER)])


def effective_channels(code: StabilizerCode,
                       ch: PauliChannel) -> tuple[np.ndarray, np.ndarray]:
    """Syndrome-conditioned logical channels of a k = 1 code with ``ch`` on
    every qubit, grouped, by the Walsh engine of every stack layer: their
    weights (E,) and (I, X, Y, Z) channels (E, 4), heaviest first.

    Syndromes whose conditional (I, X, Y, Z) vectors, reduced modulo the
    four logical translations (which downstream entropies cannot see),
    agree componentwise within 1e-12 are merged into one entry with their
    summed probability.
    """
    if code.k != 1:
        raise ValueError(f"effective_channels needs k=1, got k={code.k}")
    return _layer_effective_set(code, np.ones(1), ch.as_array()[None, :], raw=False)


def _orbit_table(layer: StabilizerCode, n_entries: int) -> tuple[np.ndarray, np.ndarray]:
    """One representative per orbit of the assignments of ``n_entries``
    entries to the sites of ``layer`` under its site automorphisms
    (``codes.site_automorphisms``), and the log size of each orbit.

    An assignment is its index in lexicographic order, last site fastest;
    the representatives are sorted.  A repetition layer's group is every
    site permutation, so its orbits are the multisets, each represented by
    its sorted assignment (middle layers, and ``s_rb_stack_exact`` tops;
    ``capacity`` reads a repetition top by its atom table).  Any other
    layer's are the assignments that are their own least image
    (``_least_orbits``).  Both are refused above the assignment budget
    before anything is built.
    """
    n, e = layer.n, n_entries
    if rep_type_of(layer) is None:
        check_budget(e ** n, f"{e}^{n} = {e ** n} assignments")
        return _least_orbits(layer, e)
    counts, log_size = multisets(n, e)
    assign = np.repeat(np.tile(np.arange(e), counts.shape[0]),
                       counts.ravel().astype(np.intp)).reshape(-1, n)
    reps = assign @ (e ** np.arange(n - 1, -1, -1, dtype=np.int64))
    order = np.argsort(reps)
    return reps[order], log_size[order]


@functools.lru_cache(maxsize=32)
def _least_orbits(layer: StabilizerCode, n_entries: int) -> tuple[np.ndarray, np.ndarray]:
    """``_orbit_table`` of a layer by least image (``_canonical_rows``, as
    for Monte Carlo tops), in blocks of assignments: site 0 is the most
    significant digit, so an orbit's least image is its least index, and
    its size is |G| over the permutations that fix it.  Read-only: shared."""
    n, e = layer.n, n_entries
    group = automorphism_group(layer)
    place = e ** np.arange(n - 1, -1, -1, dtype=np.int64)
    step = max(1, _CHUNK_ELEMS // group.shape[0])
    reps, sizes = [], []
    for start in range(0, e ** n, step):
        index = np.arange(start, min(start + step, e ** n), dtype=np.int64)
        digits = index[:, None] // place % e
        canon, fixed = _canonical_rows(digits, group, e)
        least = (canon == digits).all(axis=1)
        reps.append(index[least])
        sizes.append(group.shape[0] // fixed[least])
    reps, log_size = np.concatenate(reps), np.log(np.concatenate(sizes))
    reps.flags.writeable = log_size.flags.writeable = False
    return reps, log_size


def _layer_batches(layer: StabilizerCode, weights: np.ndarray, channels: np.ndarray):
    """Yield (log-weights, Walsh spectra) chunks over one representative
    assignment of the entries ``weights`` (E,), ``channels`` (E, 4) to the
    sites of ``layer`` per orbit of its site automorphisms (``_orbit_table``).

    ``table[i, e]`` is the spectrum of entry e on site i.  A representative
    stands for its whole orbit, so its log weight is the log orbit size
    plus the ln w of its sites' entries.  The products of every combination
    of the last sites form one block, of at most ``chunk`` rows and no more
    than there are representatives, built once.  Each chunk holds whole
    blocks' worth of representatives, sorted, so those sharing their first
    sites are contiguous; the first sites' product is formed once per
    distinct prefix and multiplies the block rows of its representatives,
    the whole block where it takes every row (as with a trivial group): one
    multiply per element.
    """
    table = channels @ _site_signs(layer)  # (n, E, 2^bits)
    logw_entry = np.log(weights)
    n_entries, n, size = table.shape[1], layer.n, table.shape[2]
    reps, log_size = _orbit_table(layer, n_entries)
    chunk = max(1, _CHUNK_ELEMS // size)
    block, block_logw = np.ones((1, size)), np.zeros(1)
    n_prefix = n
    while n_prefix > 0 and block.shape[0] * n_entries <= min(chunk, reps.size):
        n_prefix -= 1
        block = (table[n_prefix][:, None, :] * block[None, :, :]).reshape(-1, size)
        block_logw = (logw_entry[:, None] + block_logw[None, :]).ravel()
    place = n_entries ** np.arange(n_prefix - 1, -1, -1, dtype=np.int64)
    step = chunk // block.shape[0] * block.shape[0]
    for start in range(0, reps.size, step):
        prefix, suffix = np.divmod(reps[start:start + step], block.shape[0])
        heads, first, row = np.unique(prefix, return_index=True, return_inverse=True)
        digits = heads[:, None] // place % n_entries
        head = np.ones((heads.size, size))
        for i in range(n_prefix):
            head *= table[i, digits[:, i]]
        spec = np.empty((prefix.size, size))
        for h, (a, b) in enumerate(zip(first, [*first[1:], prefix.size])):
            if b - a == block.shape[0]:
                np.multiply(block, head[h], out=spec[a:b])
            else:
                # "clip" never clips valid rows; it lets take write out unbuffered
                np.take(block, suffix[a:b], axis=0, out=spec[a:b], mode="clip")
                spec[a:b] *= head[h]
        logw = (log_size[start:start + step] + logw_entry[digits].sum(axis=1)[row]
                + block_logw[suffix])
        yield logw, spec


def _layer_effective_set(layer: StabilizerCode, weights: np.ndarray, channels: np.ndarray,
                         raw: bool) -> tuple[np.ndarray, np.ndarray]:
    all_w, all_ch = [], []
    for logw, spec in _layer_batches(layer, weights, channels):
        synd, cond = _conditional_channels(_cells(layer, spec))
        all_w.append((np.exp(logw)[:, None] * synd).ravel())
        all_ch.append(cond.reshape(-1, 4))
    return _merge_entries(np.concatenate(all_w), np.vstack(all_ch), raw)


@functools.lru_cache(maxsize=64)
def _rep_frame(code: StabilizerCode, typ: str) -> list[int]:
    """Columns taking the closed-form entries of a repetition code of type
    ``typ`` to the frame of its own logicals, whose class is the parity of
    their stabilizer-type letters plus 2 for the other letter on any site."""
    def cls(p: PauliString) -> int:
        same, other = (p.x_bits, p.z_bits) if typ == "X" else (p.z_bits, p.x_bits)
        return same.bit_count() % 2 + 2 * (other != 0)

    letter = [0, 1, 3, 2] if typ == "X" else [0, 3, 1, 2]  # class -> I X Y Z
    cx, cz = cls(code.logical_x[0]), cls(code.logical_z[0])
    return [0, letter[cx], letter[cx ^ cz], letter[cz]]


def top_entries(stack: CodeStack, ch: PauliChannel,
                raw: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Weights (E,) and conditional channels (E, 4) that the layers below
    the top feed to each of its sites; the bare channel for a single layer.

    An innermost repetition layer gives them in closed form, for any length
    (``rep.block_entries``), merged like Walsh entries unless a repetition
    top reads them as its atom table.  Other layers go through the Walsh
    engine.  Entries are grouped as ``effective_channels`` describes, or
    with ``raw`` only where their channels are identical.
    """
    layers = stack.layers[:-1]
    typ = rep_type_of(layers[0]) if layers else None
    if typ is None:
        weights, channels = np.ones(1), ch.as_array()[None, :]
    else:
        weights, channels = block_entries(layers[0].n, typ, ch)
        channels = channels[:, _rep_frame(layers[0], typ)]
        if len(layers) > 1 or rep_type_of(stack.layers[-1]) is None:
            weights, channels = _merge_entries(weights, channels, raw)
        layers = layers[1:]
    for layer in layers:
        weights, channels = _layer_effective_set(layer, weights, channels, raw)
    return weights, channels


def s_rb_stack_exact(stack: CodeStack, ch: PauliChannel, raw: bool = False) -> float:
    """Exact S_RB (bits) of a stack by effective-channel composition, every
    top layer by the Walsh engine.

    The zero-layer stack degenerates to the bare channel entropy, so that
    rate = k - S_RB reproduces the hashing rate 1 - H.  Layer entries are
    grouped as ``effective_channels`` describes; ``raw`` merges only
    identical channels.
    """
    if not stack.layers:
        return channel_entropy(ch)
    top = stack.layers[-1]
    total = 0.0
    for logw, spec in _layer_batches(top, *top_entries(stack, ch, raw)):
        total += float(np.exp(logw) @ batched_s_rb(_cells(top, spec)))
    return total


def _row_blocks(code: StabilizerCode, count: int) -> list[slice]:
    """Slices of at most ``_CHUNK_ELEMS`` spectrum elements of sampled rows."""
    step = max(1, _CHUNK_ELEMS >> (len(code.generators) + 2 * code.k))
    return [slice(start, start + step) for start in range(0, count, step)]


def _distinct_rows(rows: np.ndarray, radix: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of an (R, n) array of indices below ``radix``, in
    lexicographic order, and the position of each row among them.

    The columns fold into one int64 key per row in mixed radix.  Before the
    key could pass 2^62 it is replaced by its rank among the distinct keys
    so far, which keeps their order, so R * radix <= 2^62 suffices.  Keys
    are ranked by sorting, or by marking where their range is no wider
    than R, which is linear.
    """
    key = np.zeros(rows.shape[0], dtype=np.int64)
    bound = 1
    for col in rows.T:
        if bound * radix > 1 << 62:
            _, key = np.unique(key, return_inverse=True)
            bound = int(key.max()) + 1
        key = key * radix + col
        bound *= radix
    if bound <= rows.shape[0]:
        seen = np.zeros(bound, dtype=bool)
        seen[key] = True
        count, inverse = np.count_nonzero(seen), (np.cumsum(seen) - 1)[key]
    else:
        key, inverse = np.unique(key, return_inverse=True)
        count = key.size
    at = np.empty(count, dtype=np.intp)
    at[inverse] = np.arange(rows.shape[0])  # any one row of each key
    return rows[at], inverse


def _sample_syndromes(layer: StabilizerCode, table: np.ndarray, rows: np.ndarray,
                      u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Draw the syndrome class of each sampled block of ``layer``.

    ``rows`` (R, n) index the site channels ``table`` (E, 4); ``u`` (R,)
    holds one uniform draw per row.  The Walsh engine runs once per
    distinct row, in row blocks, and each row picks the first syndrome
    whose cumulative weight reaches its draw, by a binary search along the
    2^generators syndromes of its row of cumulative weights.  Each
    (row, syndrome) pair is the key row * syndromes + syndrome, below
    syndromes times the rows of the block; marking the keys seen numbers
    the distinct pairs in key order.  Returns the conditional channels of
    the distinct pairs and each row's index into them.
    """
    uniq, inv = _distinct_rows(rows, table.shape[0])
    blocks = _row_blocks(layer, uniq.shape[0])
    if len(blocks) > 1:  # the rows of each block of distinct rows, together
        order = np.argsort(inv)
        bounds = np.searchsorted(inv[order], [blk.start for blk in blocks] + [len(uniq)])
    index = np.empty(rows.shape[0], dtype=np.intp)
    chans, count = [], 0
    for i, blk in enumerate(blocks):
        cells = _batched_cells(layer, table[uniq[blk]])
        cum = np.cumsum(_syndrome_probs(cells), axis=1)
        cum[:, -1] = 1.0
        if len(blocks) > 1:
            members = order[bounds[i]:bounds[i + 1]]
            key, draws = (inv[members] - blk.start) * cum.shape[1], u[members]
        else:
            members, key, draws = slice(None), inv * cum.shape[1], u
        # u > cum[j] holds for a prefix of j: cum is non-decreasing but for
        # its last entry, set to 1, which falls only where the one before
        # it exceeds 1 > u
        flat, half = cum.ravel(), cum.shape[1] >> 1
        while half:
            np.add(key, half, out=key, where=draws > flat[key + (half - 1)])
            half >>= 1
        seen = np.zeros(cum.size, dtype=bool)
        seen[key] = True
        pairs = np.flatnonzero(seen)
        index[members] = count + (np.cumsum(seen) - 1)[key]
        at, synd = np.divmod(pairs, cum.shape[1])
        chans.append(_conditional_channels(cells[at, synd, None])[1][:, 0])
        count += pairs.size
    return np.concatenate(chans), index


def _canonical_rows(rows: np.ndarray, group: np.ndarray,
                    radix: int) -> tuple[np.ndarray, np.ndarray]:
    """The lexicographically least image of each row of indices below
    ``radix`` under the site permutations ``group`` (|G|, n), which move the
    index on site i to site perm[i], and how many permutations give it.

    An image's sites fold in mixed radix into as many float64 words as hold
    them exactly, radix^width <= 2^53: word w of the image of the rows
    under perm is ``place[w][perm] @ rows.T``, one BLAS matmul over the group.
    The least image is found word by word among the permutations still tied
    on the earlier words; mostly one word does.  Keys are formed in blocks
    of rows of at most ``_CHUNK_ELEMS`` (row, perm) pairs.
    """
    n = rows.shape[1]
    width = 1
    while width < n and radix ** (width + 1) <= 1 << 53:
        width += 1
    site = np.arange(n)
    place = np.where(site // width == np.arange(-(-n // width))[:, None],
                     radix ** (width - 1 - site % width), 0)  # (words, n)
    weights = place[:, group].astype(float)  # (words, |G|, n)
    best = np.empty(rows.shape[0], dtype=np.intp)
    ties = np.empty(rows.shape[0], dtype=np.intp)
    step = max(1, _CHUNK_ELEMS // group.shape[0])
    for start in range(0, rows.shape[0], step):
        block = rows[start:start + step].T.astype(float)
        keys = weights[0] @ block  # (|G|, rows): the minimum over G is elementwise
        alive = keys == keys.min(axis=0)
        for w in weights[1:]:
            keys = np.where(alive, w @ block, np.inf)
            alive &= keys == keys.min(axis=0)
        best[start:start + step] = alive.argmax(axis=0)
        ties[start:start + step] = np.count_nonzero(alive, axis=0)
    canon = np.empty_like(rows)
    np.put_along_axis(canon, group[best], rows, axis=1)
    return canon, ties


def _top_values(top: StabilizerCode, table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """S_RB of ``top`` for each row of indices into the site channels
    ``table``, evaluated once per orbit of its site automorphisms, at the
    least row of the orbit (``_canonical_rows``): rows of an orbit share
    their S_RB up to rounding.  A repetition top's group is every site
    permutation, too large to list, and sorting is its canonical form."""
    if rep_type_of(top) is not None:
        uniq, inv = _distinct_rows(np.sort(rows, axis=1), table.shape[0])
    else:
        uniq, inv = _distinct_rows(rows, table.shape[0])
        group = automorphism_group(top)
        if group.shape[0] > 1:
            uniq, orbit = _distinct_rows(_canonical_rows(uniq, group, table.shape[0])[0],
                                         table.shape[0])
            inv = orbit[inv]
    vals = np.empty(uniq.shape[0])
    for blk in _row_blocks(top, uniq.shape[0]):
        vals[blk] = batched_s_rb(_batched_cells(top, table[uniq[blk]]))
    return vals[inv]


def _entry_lookup(cum: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """``np.searchsorted(cum, draws, side="right")`` for arrays of uniform
    draws in [0, 1), by a guide table.

    ``cum`` (E,) holds cumulative weights, the last set to 1.  The draws
    fall in K = 2^j >= 16 E equal buckets [b/K, (b+1)/K), and x K is exact,
    so x's bucket is floor(x K).  The table holds the index that every draw
    of a bucket takes, or -1 where an entry of ``cum`` falls inside the
    bucket: only draws there, at most E/K <= 1/16 of them on average, are
    searched.
    """
    scale = 1 << (16 * cum.size - 1).bit_length()
    edges = np.arange(scale + 1) / scale
    low = np.searchsorted(cum, edges[:-1], side="right")
    guide = np.where(low == np.searchsorted(cum, edges[1:]), low, -1)

    def lookup(draws: np.ndarray) -> np.ndarray:
        index = guide[(draws * scale).astype(np.intp)]
        odd = np.flatnonzero(index < 0)
        index.flat[odd] = np.searchsorted(cum, draws.flat[odd], side="right")
        return index
    return lookup


def _check_samples(samples: int) -> None:
    if samples < 1:
        raise ValueError(f"Monte Carlo needs at least one sample, got {samples}")


def s_rb_stack_mc(stack: CodeStack, ch: PauliChannel, samples: int = 100_000,
                  seed: int = 0) -> tuple[float, float]:
    """Monte Carlo S_RB estimate over inner-syndrome assignments.

    Every sample draws the conditional channel of each innermost block
    from the entries the exact path feeds to the second layer
    (``top_entries``: closed form for an innermost repetition layer of any
    length), then, layer by layer up to the top, the syndrome class of each
    block from its conditional distribution, and evaluates the top layer
    exactly; the estimator is the sample mean and is unbiased.  Every other
    layer, a repetition top too, goes through the Walsh engine, so one past
    ``exact.EXHAUSTIVE_LIMIT`` qubits is refused before any other work.

    A sampled block is a row of indices into a small table of distinct
    channels: the innermost entries, then each middle layer's distinct
    (row, syndrome) pairs.  Each middle layer runs the Walsh engine once
    per distinct row of a chunk, and the top once per orbit of its rows
    under its site automorphisms (``_top_values``), at most the number of
    orbits of the E^n assignments of E table entries; the results are
    gathered back to the samples.  Rows are evaluated in blocks of at most
    ``_CHUNK_ELEMS`` spectrum elements, which bound the memory of a chunk.
    Sampling uses a counter-based Philox generator keyed by (seed, chunk
    index), chunks of ``_MC_CHUNK`` samples, so results are reproducible
    and chunks are independent.  A chunk draws one uniform per innermost
    block, whose entry is the first whose cumulative weight exceeds it
    (``_entry_lookup``), then one per block of each middle layer, whose
    syndrome is the first whose cumulative weight reaches it
    (``_sample_syndromes``).  Neither step sorts, and neither changes what
    a seed draws.
    """
    if len(stack.layers) < 2:
        raise ValueError("Monte Carlo path needs at least two layers")
    _check_samples(samples)
    for layer in stack.layers[1:] if rep_type_of(stack.layers[0]) else stack.layers:
        _character_table(layer)  # the one place that refuses long Walsh layers
    weights, channels = top_entries(CodeStack(stack.layers[:2]), ch)
    cum0 = np.cumsum(weights)
    cum0[-1] = 1.0
    entry_index = _entry_lookup(cum0)
    top = stack.layers[-1]
    total = 0.0
    total_sq = 0.0
    for chunk_index, start in enumerate(range(0, samples, _MC_CHUNK)):
        nsamp = min(_MC_CHUNK, samples - start)
        rng = np.random.Generator(np.random.Philox(key=[seed, chunk_index]))
        draws = rng.random((nsamp, stack.total_length // stack.layers[0].n))
        table, index = channels, entry_index(draws)
        for layer in stack.layers[1:-1]:
            rows = index.reshape(-1, layer.n)
            table, index = _sample_syndromes(layer, table, rows, rng.random(rows.shape[0]))
        vals = _top_values(top, table, index.reshape(nsamp, top.n))
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    std_error = math.sqrt(var / samples)
    return mean, std_error
