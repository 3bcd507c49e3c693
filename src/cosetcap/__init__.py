"""Coherent-information rates, hashing points and error thresholds of
stabilizer codes (and their concatenations) over Pauli channels, computed
from exact coset weight enumerators, closed-form repetition-code
enumerators, Monte Carlo sampling, and a moment-series and contour-integral
estimator for long concatenated repetition codes."""

from .pauli import PauliString, anticommutes, pauli_mul, weights
from .channels import (ChannelFamily, PauliChannel, channel_entropy,
                       custom_family, family_eval, hashing_point,
                       parse_channel_spec)
from .codes import (StabilizerCode, make_repetition_code, parse_code, registry_get,
                    registry_names, serialize_code, trivial_code)
from .exact import coset_distribution, s_rb_code
from .stacks import (CodeStack, MonteCarlo, effective_channels, parse_stack_spec,
                     s_rb_stack_exact, s_rb_stack_mc)
from .rep import block_entries, block_table, s_rb_rep, top_atoms
from .longrep import s_rb_estimate
from .capacity import ThresholdResult, rate, sweep, threshold
from .optimize import OptimizationResult, nonadditivity_at_hashing, optimize_channel

__version__ = "0.1.0"

__all__ = [
    "PauliString", "pauli_mul", "anticommutes", "weights",
    "PauliChannel", "ChannelFamily", "family_eval", "channel_entropy",
    "hashing_point", "custom_family", "parse_channel_spec",
    "StabilizerCode", "parse_code", "serialize_code", "registry_get",
    "registry_names", "make_repetition_code", "trivial_code",
    "coset_distribution", "s_rb_code",
    "CodeStack", "MonteCarlo", "parse_stack_spec",
    "effective_channels", "s_rb_stack_exact", "s_rb_stack_mc",
    "block_table", "block_entries", "top_atoms", "s_rb_rep", "s_rb_estimate",
    "rate", "threshold", "sweep", "ThresholdResult",
    "nonadditivity_at_hashing", "optimize_channel", "OptimizationResult",
    "__version__",
]
