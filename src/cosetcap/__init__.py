"""Coherent-information rates, hashing points and error thresholds of
stabilizer codes (and their concatenations) over Pauli channels, computed
from exact coset weight enumerators, closed-form repetition-code
enumerators, Monte Carlo sampling, and a moment-series and quadrature estimator
for long concatenated repetition codes."""

from .pauli import PauliString, anticommutes, pauli_mul, weights
from .channels import (ChannelFamily, PauliChannel, channel_entropy,
                       custom_family, family_eval, hashing_point,
                       parse_channel_spec)
from .codes import (StabilizerCode, classify, make_repetition_code, parse_code,
                    registry_get, registry_names, serialize_code, trivial_code)
from .exact import CosetTable, coset_distribution, s_rb_code, s_rb_exact
from .stacks import (CodeStack, EffectiveChannelSet, MonteCarlo, compose_stack,
                     effective_channels, parse_stack_spec, s_rb_stack_exact,
                     s_rb_stack_mc)
from .rep import block_table, concat_rep_coset_probs, fgh_eval, s_rb_rep
from .longrep import qr_coefficients, s_rb_estimate
from .capacity import ThresholdResult, rate, sweep, threshold
from .optimize import OptimizationResult, nonadditivity_at_hashing, optimize_channel

__version__ = "0.1.0"

__all__ = [
    "PauliString", "pauli_mul", "anticommutes", "weights",
    "PauliChannel", "ChannelFamily", "family_eval", "channel_entropy",
    "hashing_point", "custom_family", "parse_channel_spec",
    "StabilizerCode", "parse_code", "serialize_code", "registry_get",
    "registry_names", "classify", "make_repetition_code", "trivial_code",
    "CosetTable", "coset_distribution", "s_rb_exact", "s_rb_code",
    "CodeStack", "MonteCarlo", "EffectiveChannelSet", "parse_stack_spec",
    "compose_stack", "effective_channels", "s_rb_stack_exact", "s_rb_stack_mc",
    "fgh_eval", "block_table", "concat_rep_coset_probs", "s_rb_rep",
    "qr_coefficients", "s_rb_estimate",
    "rate", "threshold", "sweep", "ThresholdResult",
    "nonadditivity_at_hashing", "optimize_channel", "OptimizationResult",
    "__version__",
]
