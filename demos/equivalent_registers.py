"""Three equivalent 4-bit registers and their matching initial states.

The bundled trio shares one set of output sequences but walks through
different state sequences.  This script prints the three walks side by
side, shows which initial states correspond, and checks the outputs
agree bit for bit.
"""

from nlfsr import samples
from nlfsr.register import format_state, parse_state
from nlfsr.statemap import build_correction

a, b, f = samples.GALOIS_A, samples.GALOIS_B, samples.FIBONACCI

print("The Fibonacci register:")
print(f)
print("\nGALOIS_A, one stage lowered (terminal bit 2):")
print(a)
print("\nGALOIS_B, one more term pushed down (terminal bit 1):")
print(b)

# Matching initial states: bits at or below each terminal bit carry over,
# bits above pick up corrections built from the residuals.
corr_a = build_correction(a)
corr_b = build_correction(b)
start_f = parse_state("0001")
start_a = corr_a.apply(start_f)
start_b = corr_b.apply(start_f)
print(f"\nFibonacci start {format_state(start_f)} maps to "
      f"{format_state(start_a)} for GALOIS_A and {format_state(start_b)} for GALOIS_B")
print(f"corrections of GALOIS_B: {[str(p) for p in corr_b.polys]} for bits 2 and 3")

print("\nstate walks (highest bit first):   A  |   B  |   F")
cols = [
    a.state_sequence(start_a, 15),
    b.state_sequence(start_b, 15),
    f.state_sequence(start_f, 15),
]
for row in zip(*cols):
    print("      " + " | ".join(format_state(s) for s in row))

out_f = f.output_sequence(start_f, 15)
assert a.output_sequence(start_a, 15) == out_f
assert b.output_sequence(start_b, 15) == out_f
print("\nall three emit:", "".join(map(str, out_f)))

# A state that is zero at and below both terminal bits starts every
# configuration identically, no mapping needed.
shared = parse_state("1000")
assert corr_a.is_fixed(shared) and corr_b.is_fixed(shared)
out = f.output_sequence(shared, 15)
assert a.output_sequence(shared, 15) == out == b.output_sequence(shared, 15)
print(f"from the shared state {format_state(shared)} they emit:", "".join(map(str, out)))
