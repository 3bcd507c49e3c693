"""Row-by-row Monte Carlo sampler, without deduplication of sampled rows.

Reference for the equivalence tests of ``cosetcap.stacks.s_rb_stack_mc``.
It draws the same Philox stream in the same shapes and order, carries
every sample's site channels as float (rows, n, 4) arrays and runs the
Walsh engine on every sampled row of every layer.  The library runs it
once per distinct row and gathers the results back to the samples, so
the two agree up to summation order.
"""

from __future__ import annotations

import math

import numpy as np

from cosetcap.exact import _batched_cells, batched_s_rb
from cosetcap.stacks import (_MC_CHUNK, CodeStack, _conditional_channels, _row_blocks,
                             _syndrome_probs, top_entries)


def s_rb_stack_mc_rows(stack, ch, samples, seed) -> tuple[float, float]:
    """Monte Carlo S_RB estimate and standard error, one row at a time."""
    weights, inner = top_entries(CodeStack(stack.layers[:2]), ch)
    cum0 = np.cumsum(weights)
    cum0[-1] = 1.0
    top = stack.layers[-1]
    total = 0.0
    total_sq = 0.0
    for chunk_index, start in enumerate(range(0, samples, _MC_CHUNK)):
        nsamp = min(_MC_CHUNK, samples - start)
        rng = np.random.Generator(np.random.Philox(key=[seed, chunk_index]))
        draws = rng.random((nsamp, stack.total_length // stack.layers[0].n))
        chans = inner[np.searchsorted(cum0, draws, side="right")]
        for layer in stack.layers[1:-1]:
            rows = chans.reshape(-1, layer.n, 4)
            u = rng.random((rows.shape[0], 1))
            chans = np.empty((rows.shape[0], 4))
            for blk in _row_blocks(layer, rows.shape[0]):
                cells = _batched_cells(layer, rows[blk])
                cum = np.cumsum(_syndrome_probs(cells), axis=1)
                cum[:, -1] = 1.0
                pick = (u[blk] > cum).sum(axis=1)
                at = np.arange(pick.size)
                chans[blk] = _conditional_channels(cells[at, pick, None])[1][:, 0]
        rows = chans.reshape(nsamp, top.n, 4)
        vals = np.empty(nsamp)
        for blk in _row_blocks(top, nsamp):
            vals[blk] = batched_s_rb(_batched_cells(top, rows[blk]))
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return mean, math.sqrt(var / samples)
