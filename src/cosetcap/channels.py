"""Pauli channels, parametric channel families, entropy and hashing points.

A Pauli channel is the probability 4-vector (p_I, p_X, p_Y, p_Z).  The
one-parameter families used throughout:

  depolarizing   (1-3p, p, p, p)
  independent_xz ((1-p)^2, p(1-p), p^2, p(1-p))
  two_pauli      (1-2p, p, 0, p)
  custom         (1-p, cX*p, cY*p, cZ*p)   with cX+cY+cZ = 1

All entropies are in bits (log base 2): thresholds and hashing points are
defined by the channel entropy crossing 1 bit per qubit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# a channel's probabilities: none below -_NEG_TOL, their sum within _SUM_TOL of 1
_NEG_TOL = 1e-15
_SUM_TOL = 1e-12
_COEFF_SUM_TOL = 1e-9
COEFF_FLOOR = 0.0001
# hashing_point: Newton steps at most, and the relative step that ends them
_NEWTON_MAX_STEPS = 64
_NEWTON_STEP_TOL = 4 * np.finfo(float).eps

# CLI spec name -> family kind; a custom family's spec carries its coefficients
_SPEC_KINDS = {"depol": "depolarizing", "indxz": "independent_xz", "twopauli": "two_pauli"}
FAMILY_KINDS = (*_SPEC_KINDS.values(), "custom")


@dataclass(frozen=True)
class PauliChannel:
    """Probability 4-vector of a mixed Pauli channel."""

    p_i: float
    p_x: float
    p_y: float
    p_z: float

    def __post_init__(self):
        probs = (self.p_i, self.p_x, self.p_y, self.p_z)
        # written so that NaN fails both checks
        if not all(p >= -_NEG_TOL for p in probs):
            raise ValueError(f"negative or NaN channel probability in {probs}")
        if not abs(sum(probs) - 1.0) <= _SUM_TOL:
            raise ValueError(f"channel probabilities sum to {sum(probs)!r}, not 1")

    def as_array(self) -> np.ndarray:
        """(p_I, p_X, p_Y, p_Z) as a float64 array."""
        return np.array([self.p_i, self.p_x, self.p_y, self.p_z])

    def swap_xz(self) -> "PauliChannel":
        """Channel conjugated by Hadamard on every qubit (X <-> Z)."""
        return PauliChannel(self.p_i, self.p_z, self.p_y, self.p_x)


@dataclass(frozen=True)
class ChannelFamily:
    """One-parameter Pauli channel family.

    ``coefficients`` is only used for kind == "custom" and must sum to 1
    within 1e-9 (the printed precision of published optimization results);
    out-of-tolerance triples are rejected rather than silently fixed.
    ``custom_family`` rescales rounded inputs.
    """

    kind: str
    coefficients: tuple[float, float, float] | None = None

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown channel family {self.kind!r}")
        if self.kind == "custom":
            c = self.coefficients
            if c is None or len(c) != 3:
                raise ValueError("custom family needs three coefficients")
            if abs(sum(c) - 1.0) > _COEFF_SUM_TOL:
                raise ValueError(f"custom coefficients sum to {sum(c)!r}, not 1")
            if any(ci < COEFF_FLOOR - 1e-12 or ci > 1.0 for ci in c):
                raise ValueError(f"custom coefficients outside [{COEFF_FLOOR}, 1]: {c}")

    def p_max(self) -> float:
        """Upper end of the usable parameter range."""
        if self.kind == "depolarizing":
            return 1.0 / 3.0
        if self.kind in ("independent_xz", "two_pauli"):
            return 0.5
        return 1.0

    def spec(self) -> str:
        """Canonical CLI specifier string."""
        if self.kind == "custom":
            cx, cy, cz = self.coefficients
            return f"custom:{cx:.10g},{cy:.10g},{cz:.10g}"
        return next(name for name, kind in _SPEC_KINDS.items() if kind == self.kind)


def custom_family(c_x: float, c_y: float, c_z: float) -> ChannelFamily:
    """Build a custom family from a rounded triple, rescaled to sum to 1;
    a triple whose sum is outside (0.999, 1.001) is refused."""
    s = c_x + c_y + c_z
    if not 0.999 < s < 1.001:
        raise ValueError(f"coefficients too far from normalized: sum={s}")
    return ChannelFamily("custom", (c_x / s, c_y / s, c_z / s))


def parse_channel_spec(text: str) -> ChannelFamily:
    """Parse a CLI channel specifier: depol | indxz | twopauli | custom:cX,cY,cZ.

    Custom coefficients are rescaled when their sum is within 1e-6 of 1,
    so triples printed at 8 decimals round-trip.
    """
    t = text.strip()
    if t in _SPEC_KINDS:
        return ChannelFamily(_SPEC_KINDS[t])
    if t.startswith("custom:"):
        parts = t[len("custom:"):].split(",")
        if len(parts) != 3:
            raise ValueError(f"custom spec needs three coefficients: {text!r}")
        try:
            c = [float(p) for p in parts]
        except ValueError:
            raise ValueError(f"bad coefficient in channel spec {text!r}") from None
        if abs(sum(c) - 1.0) > 1e-6:
            raise ValueError(f"custom coefficients sum to {sum(c)}, not 1")
        return custom_family(*c)
    raise ValueError(f"unknown channel spec {text!r}")


def family_eval(family: ChannelFamily, p: float) -> PauliChannel:
    """Channel of the family at noise parameter p."""
    if not 0.0 <= p <= family.p_max() + 1e-15:
        raise ValueError(f"p={p} outside [0, {family.p_max()}] for {family.kind}")
    return PauliChannel(*_family_line(family, p)[0])


def _family_line(family: ChannelFamily, p: float):
    """(p_I, p_X, p_Y, p_Z) of the family at p, and their derivatives in p."""
    if family.kind == "depolarizing":
        return (1.0 - 3.0 * p, p, p, p), (-3.0, 1.0, 1.0, 1.0)
    if family.kind == "independent_xz":
        q = 1.0 - p
        return (q * q, p * q, p * p, p * q), (-2.0 * q, q - p, 2.0 * p, q - p)
    if family.kind == "two_pauli":
        return (1.0 - 2.0 * p, p, 0.0, p), (-2.0, 1.0, 0.0, 1.0)
    cx, cy, cz = family.coefficients
    return (1.0 - p, cx * p, cy * p, cz * p), (-1.0, cx, cy, cz)


def entropy_bits(probs) -> float:
    """Shannon entropy in bits with the 0*log0 = 0 convention."""
    h = 0.0
    for p in probs:
        if p > 0.0:
            h -= p * math.log2(p)
    return h


def channel_entropy(ch: PauliChannel) -> float:
    """Entropy of the error distribution, in bits."""
    return entropy_bits((ch.p_i, ch.p_x, ch.p_y, ch.p_z))


def entropy_peak(family: ChannelFamily) -> float:
    """Noise parameter of the family's largest channel entropy.

    The entropy is concave in p for every family (a linear family is a
    concave function of a linear map; independent_xz is twice a binary
    entropy), so this is its only maximum.  For custom families
    dH/dp = log2((1 - p) / p) + H(c) vanishes at p = 1 / (1 + 2^-H(c)).
    """
    if family.kind == "depolarizing":
        return 0.25
    if family.kind == "independent_xz":
        return 0.5
    if family.kind == "two_pauli":
        return 1.0 / 3.0
    return 1.0 / (1.0 + 2.0 ** -entropy_bits(family.coefficients))


def bracketed_root(f, lo: float, hi: float, tol: float, f_lo: float, f_hi: float):
    """Shrink a bracket with f_lo = f(lo) < 0 <= f_hi = f(hi) to width <= tol,
    or to adjacent doubles where tol is finer than their spacing.

    Chandrupatla's method (Adv. Eng. Software 28 (1997) 145): inverse
    quadratic interpolation through the last three points when it is safe,
    bisection otherwise, every step kept at least tol/2 inside it.  An
    interpolated point that lands across the root but leaves more than half
    the bracket has overshot; after two overshoots (a kink or noise at the
    root, where interpolation converges more slowly than bisection) every
    later step bisects.  Returns (lo, hi, evaluations of f inside the
    bracket); both ends are evaluated points.
    """
    evals = 0
    if not f_lo < 0.0 <= f_hi:
        raise ValueError(f"f does not change sign on [{lo!r}, {hi!r}]: {f_lo!r}, {f_hi!r}")
    # x1 is the newest point, x2 the other bracket end, x3 the one dropped
    x1, f1, x2, f2, x3, f3 = hi, f_hi, lo, f_lo, lo, f_lo
    t, interpolated, overshoots = 0.5, False, 0
    while abs(x1 - x2) > tol and math.nextafter(x1, x2) != x2:
        x = x1 + t * (x2 - x1)
        fx, evals = f(x), evals + 1
        if (fx >= 0.0) == (f1 >= 0.0):
            x3, f3 = x1, f1
        else:
            if interpolated and abs(x - x1) > 0.5 * abs(x2 - x1):
                overshoots += 1
            x3, f3, x2, f2 = x2, f2, x1, f1
        x1, f1 = x, fx
        xi = (x1 - x2) / (x3 - x2)
        phi = (f1 - f2) / (f3 - f2)
        t, interpolated = 0.5, False
        if overshoots < 2 and 1.0 - math.sqrt(1.0 - xi) < phi < math.sqrt(xi):
            t = (f1 / (f1 - f2) * f3 / (f3 - f2)
                 - (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f2 - f3))
            interpolated = True
        t_min = 0.5 * tol / abs(x1 - x2)
        t = min(max(t, t_min), 1.0 - t_min)
    return (x1, x2, evals) if x1 < x2 else (x2, x1, evals)


def hashing_point(family: ChannelFamily) -> float:
    """Smallest p with channel entropy exactly 1 bit, by safeguarded Newton
    iteration.

    The entropy rises from 0 at p = 0 to its peak, where it exceeds 1 bit for
    every family (custom ones by the coefficient floor), so the upcrossing
    of 1 bit is the only root on [0, entropy_peak(family)].  The slope is
    dH/dp = -sum p_L' log2 p_L (the p_L' sum to 0), in closed form from the
    family's probabilities; every iterate shrinks the bracket, and a Newton
    step that would leave it bisects instead.  Iteration stops once a step
    moves p by at most 4 ulps: 5-11 steps, within 4e-16 of the exact root
    on every family tested.
    """
    lo, hi = 0.0, entropy_peak(family)
    p = 0.5 * hi
    for _ in range(_NEWTON_MAX_STEPS):
        probs, slopes = _family_line(family, p)
        h = dh = 0.0
        for q, s in zip(probs, slopes):
            if q > 0.0:
                log_q = math.log2(q)
                h -= q * log_q
                dh -= s * log_q
        f = h - 1.0
        if f == 0.0:
            return p
        if f < 0.0:
            lo = p
        else:
            hi = p
        nxt = p - f / dh if dh > 0.0 else lo
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - p) <= _NEWTON_STEP_TOL * p:
            return nxt
        p = nxt
    return p
