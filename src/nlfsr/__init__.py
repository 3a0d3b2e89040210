"""NLFSR algebra toolkit.

Boolean feedback polynomials in algebraic normal form, register
simulation, the Fibonacci-to-Galois shifting transformation with its
structural guards, matching-initial-state computation, and exhaustive
simulation oracles that double-check all of it at small register sizes.
"""

from .anf import Anf, Monomial, ParseError
from .generate import random_lowering, random_profile
from .register import (
    EXHAUSTIVE_LIMIT,
    ExhaustiveLimitError,
    Nlfsr,
    StructureError,
    Violation,
    format_state,
    int_to_state,
    parse_state,
    state_to_int,
)
from .statemap import (
    StateCorrection,
    build_correction,
    single_shift_map,
)
from .transform import (
    GaloisProfile,
    ShiftMove,
    ShiftRejected,
    apply_shift,
    lower_to_profile,
    reconstruct_fibonacci,
)
from .verify import (
    EquivalenceReport,
    PeriodCensus,
    brute_force_match,
    output_classes,
    output_set_equivalent,
    period_census,
    step_is_bijection,
)

__all__ = [
    "Anf",
    "Monomial",
    "ParseError",
    "EXHAUSTIVE_LIMIT",
    "ExhaustiveLimitError",
    "Nlfsr",
    "StructureError",
    "Violation",
    "format_state",
    "int_to_state",
    "parse_state",
    "state_to_int",
    "GaloisProfile",
    "ShiftMove",
    "ShiftRejected",
    "apply_shift",
    "lower_to_profile",
    "reconstruct_fibonacci",
    "StateCorrection",
    "build_correction",
    "single_shift_map",
    "EquivalenceReport",
    "PeriodCensus",
    "brute_force_match",
    "output_classes",
    "output_set_equivalent",
    "period_census",
    "step_is_bijection",
    "random_lowering",
    "random_profile",
]
