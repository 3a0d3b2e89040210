"""Lowering a Fibonacci register to a Galois shape, step by step.

A lowering is a chain of one-bit shiftings: at each stage the terms not
staying behind move one bit down, with their variable indices renumbered.
Each stage is guarded (the register must stay uniform and well-formed)
and each stage comes with a one-bit state fix-up, a ``StateCorrection``
built by ``shift_correction``; composing the fix-ups gives the full
initial-state correction in one formula.
"""

import random

from nlfsr.generate import random_lowering
from nlfsr.register import format_state, int_to_state
from nlfsr.statemap import build_correction, shift_correction
from nlfsr.transform import apply_shift, reconstruct_fibonacci
from nlfsr.verify import output_set_equivalent

rng = random.Random(7)
fib, profile, galois, moves = random_lowering(rng, 6)

print("random 6-bit Fibonacci register:")
print(fib)
print("\nrequested profile:")
print(profile)

print("\nstaged moves:")
cur = fib
for mv in moves:
    nxt = apply_shift(cur, mv)
    print(f"  move {mv}     (terminal bit {cur.terminal_bit()} -> {nxt.terminal_bit()})")
    cur = nxt
assert cur == galois
print("\nresulting register:")
print(galois)

back = reconstruct_fibonacci(galois)
assert back == fib
print("\nreconstruction recovers the source register exactly")

report = output_set_equivalent(fib, galois)
print(f"exhaustive oracle verdict: {report.verdict} "
      "(exact output classes, all 64 states, both ways)")

# the per-stage state fix-ups compose to the one-shot correction
corr = build_correction(galois)
print(f"\ncorrection polynomials for bits {corr.tau + 1}..5:",
      [str(p) for p in corr.polys])
start = next(
    s for x in range(63, -1, -1)
    if corr.apply(s := int_to_state(x, 6)) != s
)
staged = start
for mv in moves:
    staged = shift_correction(mv, 6).apply(staged)
assert staged == corr.apply(start)
print(f"\nstate {format_state(start)} maps to {format_state(staged)}, "
      "by stage-wise fix-ups and by the closed-form correction alike")

out_f = fib.output_sequence(start, 70)
out_g = galois.output_sequence(corr.apply(start), 70)
assert out_f == out_g
print("and both registers emit the same 70 bits from that pair of states")
