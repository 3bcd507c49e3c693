"""Channel optimization: for a fixed stack, find the biased Pauli channel
(1-p, cX*p, cY*p, cZ*p) maximizing the rate at that channel's own hashing
point, i.e. the demonstrated non-additivity.

The search runs a hand-rolled Nelder-Mead simplex on a two-parameter
softmax chart of the coefficient simplex, multi-started from three
near-vertex points plus a fixed quasi-random lattice, with the 0.0001
coefficient floor enforced by projection.  Each objective evaluation
solves the inner hashing-point root on the family's whole rising branch
and evaluates the stack rate there.  No global-optimality claim
is made: the result is the best point found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import custom_family, hashing_point
from .capacity import rate
from .stacks import CodeStack

COEFF_FLOOR = 0.0001
DEFAULT_RESTARTS = 12
MAX_EVALS = 400
SIMPLEX_DIAMETER_TOL = 1e-6

# 2D low-discrepancy lattice increments (fractional parts of the plastic
# constant powers)
_LATTICE_G = (0.7548776662466927, 0.5698402909980532)


def project_floor(c) -> tuple[float, float, float]:
    """Project a nonnegative triple onto the floored probability simplex."""
    c = np.maximum(np.asarray(c, dtype=float), 0.0)
    if c.sum() <= 0.0:
        c = np.ones(3)
    c = c / c.sum()
    for _ in range(4):
        lo = c < COEFF_FLOOR
        if not lo.any():
            break
        free = ~lo
        c[lo] = COEFF_FLOOR
        c[free] *= (1.0 - COEFF_FLOOR * lo.sum()) / c[free].sum()
    return float(c[0]), float(c[1]), float(c[2])


def _theta_to_c(theta: np.ndarray) -> tuple[float, float, float]:
    z = np.array([theta[0], theta[1], 0.0])
    z -= z.max()
    e = np.exp(z)
    return project_floor(e / e.sum())


def _c_to_theta(c) -> np.ndarray:
    return np.array([math.log(c[0] / c[2]), math.log(c[1] / c[2])])


@dataclass(frozen=True)
class OptimizationResult:
    stack_spec: str
    coefficients: tuple[float, float, float]
    p_hash: float
    non_additivity: float
    restarts: int
    seed: int
    evaluations: int
    trace: tuple[dict, ...]

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
        }


def nonadditivity_at_hashing(stack: CodeStack, c) -> tuple[float, float]:
    """(p_hash, rate at p_hash) of the custom channel with coefficients c.

    Printed coefficient triples are renormalized exactly before use; at the
    hashing point the hashing baseline vanishes, so the rate is the
    non-additivity itself.
    """
    family = custom_family(*c, renormalize=True)
    p_hash = hashing_point(family)
    return p_hash, rate(stack, family, p_hash)


def _starts(restarts: int, seed: int) -> list[tuple[float, float, float]]:
    v = 1.0 - 2.0 * COEFF_FLOOR
    points = [(v, COEFF_FLOOR, COEFF_FLOOR),
              (COEFF_FLOOR, v, COEFF_FLOOR),
              (COEFF_FLOOR, COEFF_FLOOR, v)]
    phase = math.modf(0.5 + seed * 0.6180339887498949)[0]
    for i in range(1, max(restarts - 3, 0) + 1):
        u = math.modf(phase + i * _LATTICE_G[0])[0]
        w = math.modf(phase + i * _LATTICE_G[1])[0]
        s = math.sqrt(u)
        points.append(project_floor((1.0 - s, s * (1.0 - w), s * w)))
    return points[:restarts]


def _nelder_mead(objective, theta0: np.ndarray):
    """Minimize over R^2; convergence measured in coefficient space."""
    pts = [theta0, theta0 + np.array([0.5, 0.0]), theta0 + np.array([0.0, 0.5])]
    evals = [objective(t) for t in pts]
    n_evals = 3
    while n_evals < MAX_EVALS:
        order = np.argsort(evals)
        pts = [pts[i] for i in order]
        evals = [evals[i] for i in order]
        cs = [np.array(_theta_to_c(t)) for t in pts]
        diameter = max(np.abs(a - b).max() for a in cs for b in cs)
        if diameter < SIMPLEX_DIAMETER_TOL:
            break
        centroid = 0.5 * (pts[0] + pts[1])
        reflect = centroid + (centroid - pts[2])
        f_r = objective(reflect)
        n_evals += 1
        if f_r < evals[0]:
            expand = centroid + 2.0 * (centroid - pts[2])
            f_e = objective(expand)
            n_evals += 1
            if f_e < f_r:
                pts[2], evals[2] = expand, f_e
            else:
                pts[2], evals[2] = reflect, f_r
        elif f_r < evals[1]:
            pts[2], evals[2] = reflect, f_r
        else:
            contract = centroid + 0.5 * (pts[2] - centroid)
            f_c = objective(contract)
            n_evals += 1
            if f_c < evals[2]:
                pts[2], evals[2] = contract, f_c
            else:
                for i in (1, 2):
                    pts[i] = pts[0] + 0.5 * (pts[i] - pts[0])
                    evals[i] = objective(pts[i])
                    n_evals += 1
    best = int(np.argmin(evals))
    return pts[best], evals[best], n_evals


def optimize_channel(stack: CodeStack, restarts: int = DEFAULT_RESTARTS,
                     seed: int = 0) -> OptimizationResult:
    """Best coefficient triple found over all restarts.

    Ties on the achieved rate break to the lexicographically smallest
    coefficient triple, making the reduction deterministic.
    """
    def objective(theta: np.ndarray) -> float:
        c = _theta_to_c(theta)
        _, q = nonadditivity_at_hashing(stack, c)
        return -q

    trace = []
    best = None
    total_evals = 0
    for idx, start in enumerate(_starts(restarts, seed)):
        theta, f, used = _nelder_mead(objective, _c_to_theta(start))
        total_evals += used
        c = _theta_to_c(theta)
        p_hash, q = nonadditivity_at_hashing(stack, c)
        trace.append({"restart": idx, "start": start, "c": c, "q": q,
                      "p_hash": p_hash, "evals": used})
        key = (-q, c)
        if best is None or key < best[0]:
            best = (key, c, p_hash, q)
    _, c, p_hash, q = best
    return OptimizationResult(stack.spec(), c, p_hash, q, restarts, seed,
                              total_evals, tuple(trace))
