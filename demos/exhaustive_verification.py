"""The simulation oracles: equivalence verdicts, periods, and cross-checks.

Nothing here trusts the algebra.  Registers are compared by enumerating
every initial state and matching exact output-stream classes; cycle structure
comes from walking the successor graph.  The same oracles double-check
the closed-form state mapping on random register pairs.
"""

import random

from nlfsr import samples
from nlfsr.generate import random_lowering
from nlfsr.register import format_state, int_to_state
from nlfsr.statemap import build_correction
from nlfsr.verify import (
    brute_force_match,
    output_set_equivalent,
    period_census,
    step_is_bijection,
)

a, f, rot = samples.GALOIS_A, samples.FIBONACCI, samples.ROTATION

print("GALOIS_A vs FIBONACCI:", output_set_equivalent(a, f).verdict)
report = output_set_equivalent(f, rot)
print("FIBONACCI vs ROTATION:", report.verdict,
      f"(witness state {format_state(report.witness)})")

print("\ncycle census over all 16 states:")
print("  GALOIS_A :", period_census(a))
print("  ROTATION :", period_census(rot))

print("\nbrute-force matching vs the correction formula, random 7-bit pairs:")
rng = random.Random(77)
for trial in range(3):
    fib, profile, galois, _ = random_lowering(rng, 7)
    corr = build_correction(galois)
    s = int_to_state(rng.randrange(128), 7)
    scanned = brute_force_match(fib, galois, s)
    mapped = corr.apply(s)
    length = 135
    assert galois.output_sequence(scanned, length) == galois.output_sequence(mapped, length)
    print(f"  state {format_state(s)}: scan found {format_state(scanned)}, "
          f"formula gives {format_state(mapped)}, outputs identical")

print("\nuniform registers always permute their state space:")
for trial in range(3):
    _, _, galois, _ = random_lowering(rng, rng.randint(4, 8))
    census = period_census(galois)
    print(f"  {galois.n}-bit, terminal {galois.terminal_bit()}: bijective="
          f"{step_is_bijection(galois)}, tails={census.tail_states}, census: {census}")
