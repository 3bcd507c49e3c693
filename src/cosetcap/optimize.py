"""Channel optimization: for a fixed stack, find the biased Pauli channel
(1-p, cX*p, cY*p, cZ*p) maximizing the rate at that channel's own hashing
point, i.e. the demonstrated non-additivity.

The search runs a hand-rolled Nelder-Mead simplex on a two-parameter
softmax chart of the coefficient simplex, multi-started from three
near-vertex points plus a fixed quasi-random lattice, with the 0.0001
coefficient floor enforced by projection.  The restarts run in lockstep:
each is a generator that yields its next point, and every step maps the
pending points of all active restarts to coefficients, solves their
hashing points on each family's rising branch and evaluates the stack
rate there in one batched call (``capacity.evaluate_s_rb_batch``).  Each
restart follows the trajectory it would follow alone.  No
global-optimality claim is made: the result is the best point found.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channels import COEFF_FLOOR, custom_family, hashing_point
from .capacity import evaluate_s_rb_batch, rate
from .stacks import CodeStack

DEFAULT_RESTARTS = 12
MAX_EVALS = 400
SIMPLEX_DIAMETER_TOL = 1e-6

# 2D low-discrepancy lattice increments (fractional parts of the plastic
# constant powers)
_LATTICE_G = (0.7548776662466927, 0.5698402909980532)


def _project_rows(c: np.ndarray) -> np.ndarray:
    """Project every nonnegative row of an (A, 3) array onto the floored
    probability simplex."""
    c = np.maximum(c, 0.0)
    c[c.sum(axis=1) <= 0.0] = 1.0
    c = c / c.sum(axis=1, keepdims=True)
    for _ in range(4):
        lo = c < COEFF_FLOOR
        rows = lo.any(axis=1)
        if not rows.any():
            break
        free = ~lo
        scale = (1.0 - COEFF_FLOOR * lo.sum(axis=1)) / np.where(free, c, 0.0).sum(axis=1)
        c = np.where(lo, COEFF_FLOOR, np.where(free & rows[:, None], c * scale[:, None], c))
    return c


def _theta_to_c(theta: np.ndarray) -> list[tuple[float, float, float]]:
    """Floored coefficient triples of the softmax chart points (A, 2)."""
    z = np.column_stack([theta, np.zeros(theta.shape[0])])
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return [tuple(c) for c in _project_rows(e / e.sum(axis=1, keepdims=True)).tolist()]


def _c_to_theta(c) -> np.ndarray:
    return np.array([math.log(c[0] / c[2]), math.log(c[1] / c[2])])


@dataclass(frozen=True, slots=True)
class RestartResult:
    """One restart: its start, the best triple it found, and the
    non-additivity, hashing point and evaluations behind it."""
    restart: int
    start: tuple[float, float, float]
    c: tuple[float, float, float]
    q: float
    p_hash: float
    evals: int


@dataclass(frozen=True)
class OptimizationResult:
    stack_spec: str
    coefficients: tuple[float, float, float]
    p_hash: float
    non_additivity: float
    restarts: int
    seed: int
    evaluations: int
    steps: int  # lockstep batches: evaluations of the longest restart
    trace: tuple[RestartResult, ...]

    def to_dict(self) -> dict:
        return {
            "stack": self.stack_spec,
            "c_x": self.coefficients[0],
            "c_y": self.coefficients[1],
            "c_z": self.coefficients[2],
            "p_hash": self.p_hash,
            "non_additivity": self.non_additivity,
            "restarts": self.restarts,
            "seed": self.seed,
            "evaluations": self.evaluations,
            "steps": self.steps,
        }


def nonadditivity_at_hashing(stack: CodeStack, c) -> tuple[float, float]:
    """(p_hash, rate at p_hash) of the custom channel with coefficients c.

    Printed coefficient triples are rescaled exactly before use; at the
    hashing point the hashing baseline vanishes, so the rate is the
    non-additivity itself.
    """
    family = custom_family(*c)
    p_hash = hashing_point(family)
    return p_hash, rate(stack, family, p_hash)


def _starts(restarts: int, seed: int) -> list[tuple[float, float, float]]:
    v = 1.0 - 2.0 * COEFF_FLOOR
    points = [(v, COEFF_FLOOR, COEFF_FLOOR),
              (COEFF_FLOOR, v, COEFF_FLOOR),
              (COEFF_FLOOR, COEFF_FLOOR, v)]
    phase = math.modf(0.5 + seed * 0.6180339887498949)[0]
    i = np.arange(1, max(restarts - 3, 0) + 1)[:, None]
    u, w = np.modf(phase + i * np.array(_LATTICE_G))[0].T
    s = np.sqrt(u)
    lattice = _project_rows(np.column_stack([1.0 - s, s * (1.0 - w), s * w]))
    return (points + [tuple(c) for c in lattice.tolist()])[:restarts]


def _objective(stack: CodeStack, theta: np.ndarray):
    """Minus the non-additivity at the hashing point of each chart point
    (A, 2), as (A,), and the coefficient triples it was taken at: the
    batched ``nonadditivity_at_hashing``."""
    cs = _theta_to_c(theta)
    families = [custom_family(*c) for c in cs]
    p = np.array([hashing_point(f) for f in families])[:, None]
    chans = np.hstack([1.0 - p, np.array([f.coefficients for f in families]) * p])
    return evaluate_s_rb_batch(stack, chans) / stack.total_length, cs


def _nelder_mead(theta0: np.ndarray):
    """Minimize over R^2; convergence measured in coefficient space.

    A generator: it yields each point to evaluate and is sent back that
    point's (value, coefficient triple).  Every vertex keeps its triple.
    Returns (value, triple, evaluations) of the best vertex.
    """
    pts = [theta0, theta0 + np.array([0.5, 0.0]), theta0 + np.array([0.0, 0.5])]
    evals, cs = [], []
    for t in pts:
        f, c = yield t
        evals.append(f)
        cs.append(c)
    n_evals = 3
    while n_evals < MAX_EVALS:
        order = np.argsort(evals)
        pts = [pts[i] for i in order]
        evals = [evals[i] for i in order]
        cs = [cs[i] for i in order]
        diameter = max(abs(x - y) for a, b in itertools.combinations(cs, 2)
                       for x, y in zip(a, b))
        if diameter < SIMPLEX_DIAMETER_TOL:
            break
        centroid = 0.5 * (pts[0] + pts[1])
        reflect = centroid + (centroid - pts[2])
        f_r, c_r = yield reflect
        n_evals += 1
        if f_r < evals[0]:
            expand = centroid + 2.0 * (centroid - pts[2])
            f_e, c_e = yield expand
            n_evals += 1
            if f_e < f_r:
                pts[2], evals[2], cs[2] = expand, f_e, c_e
            else:
                pts[2], evals[2], cs[2] = reflect, f_r, c_r
        elif f_r < evals[1]:
            pts[2], evals[2], cs[2] = reflect, f_r, c_r
        else:
            contract = centroid + 0.5 * (pts[2] - centroid)
            f_c, c_c = yield contract
            n_evals += 1
            if f_c < evals[2]:
                pts[2], evals[2], cs[2] = contract, f_c, c_c
            else:
                for i in (1, 2):
                    pts[i] = pts[0] + 0.5 * (pts[i] - pts[0])
                    evals[i], cs[i] = yield pts[i]
                    n_evals += 1
    best = int(np.argmin(evals))
    return evals[best], cs[best], n_evals


def optimize_channel(stack: CodeStack, restarts: int = DEFAULT_RESTARTS,
                     seed: int = 0) -> OptimizationResult:
    """Best coefficient triple found over all restarts, run in lockstep.

    Each step evaluates the pending point of every active restart in one
    batch (``_objective``).  Ties on the achieved rate break to the
    lexicographically smallest coefficient triple, making the reduction
    deterministic.
    """
    if restarts < 1:
        raise ValueError(f"optimize needs at least one restart, got {restarts}")
    starts = _starts(restarts, seed)
    runs = [_nelder_mead(_c_to_theta(start)) for start in starts]
    pending = {idx: next(run) for idx, run in enumerate(runs)}
    done = {}
    steps = 0
    while pending:
        values, cs = _objective(stack, np.array(list(pending.values())))
        steps += 1
        for idx, f, c in zip(list(pending), values.tolist(), cs):
            try:
                pending[idx] = runs[idx].send((f, c))
            except StopIteration as stop:
                del pending[idx]
                done[idx] = stop.value
    trace = []
    best = None
    for idx, start in enumerate(starts):
        f, c, used = done[idx]
        q = -f
        p_hash = hashing_point(custom_family(*c))
        trace.append(RestartResult(idx, start, c, q, p_hash, used))
        key = (-q, c)
        if best is None or key < best[0]:
            best = (key, c, p_hash, q)
    _, c, p_hash, q = best
    return OptimizationResult(stack.spec(), c, p_hash, q, restarts, seed,
                              sum(t.evals for t in trace), steps, tuple(trace))
