"""Matching initial states across equivalent register configurations.

A Fibonacci register and a uniform Galois register obtained from it by
shifting follow different state sequences, so producing the same output
stream requires different initial states.  The bits at or below the
Galois register's terminal bit carry over unchanged; every bit above it
picks up a correction computed from the register's residuals.  This
module builds those correction polynomials once per register and applies
them per state, in both directions.

It also provides the one-shifting building block: the single-bit state
fix-up for a move from the terminal bit to the bit below, and a checker
that two registers related by such a move walk through state sequences
differing in the source bit only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .anf import Anf
from .register import Nlfsr, State, check_state, int_to_state, state_to_int
from .transform import GaloisProfile, ShiftMove, apply_shift


@dataclass(frozen=True)
class StateCorrection:
    """Correction polynomials of a uniform Galois register.

    polys[j] corrects bit tau + 1 + j: it is the XOR of the register's
    residuals below that bit, each shifted up to sit just under it.
    Every correction reads only bits strictly below the bit it corrects,
    which is what makes the mapping invertible by forward substitution.

    zero_prefix_fixed reports a structural property: when every
    correction monomial reads at least one bit at or below the terminal
    bit, all corrections vanish on states whose low bits are zero, so
    such states map to themselves.
    """

    n: int
    tau: int
    polys: tuple[Anf, ...]

    @property
    def zero_prefix_fixed(self) -> bool:
        for p in self.polys:
            for t in p.terms:
                if not t.indices or t.indices[0] > self.tau:
                    return False
        return True

    def poly(self, i: int) -> Anf:
        """The correction polynomial of bit i, zero for bits at or below tau."""
        if i <= self.tau:
            return Anf.zero()
        return self.polys[i - self.tau - 1]

    def is_fixed(self, state: Sequence[int]) -> bool:
        """True when the state provably maps to itself.

        Holds when bits 0..tau of the state are zero and the corrections
        vanish on every such state, so the Fibonacci source and the Galois
        register generate the same output from this very state.  Note the
        weaker, tempting criterion "no residual has a constant term" is not
        enough: residuals shifted upward can end up reading only bits above
        the terminal bit, where the state is not constrained.
        """
        check_state(state, self.n)
        return self.zero_prefix_fixed and not any(state[: self.tau + 1])

    def apply(self, state: Sequence[int]) -> State:
        """Map a Fibonacci initial state to the matching Galois initial state."""
        check_state(state, self.n)
        out = list(state)
        for j, p in enumerate(self.polys):
            out[self.tau + 1 + j] ^= p.evaluate(state)
        return tuple(out)

    def invert(self, state: Sequence[int]) -> State:
        """Map a Galois initial state back to the Fibonacci initial state.

        Corrections are evaluated against the partially recovered state:
        correction j reads only bits below tau + 1 + j, and those are
        already in Fibonacci form when it runs.
        """
        check_state(state, self.n)
        out = list(state)
        for j, p in enumerate(self.polys):
            out[self.tau + 1 + j] ^= p.evaluate(out)
        return tuple(out)


def build_correction(g: Nlfsr) -> StateCorrection:
    """Precompute the state corrections of a uniform Galois register."""
    profile = GaloisProfile.of_register(g)
    polys = tuple(profile.telescoped(i) for i in range(profile.tau + 1, g.n))
    return StateCorrection(g.n, profile.tau, polys)


def single_shift_map(terms: Anf, source_bit: int, state: Sequence[int]) -> State:
    """State fix-up for one shifting from ``source_bit`` to the bit below.

    When the moved terms read only bits 1..source_bit, the register
    after the shifting generates the same output as the register before
    it, provided its start state has bit ``source_bit`` replaced by the
    old value XOR the moved terms evaluated one position down.
    """
    sup = terms.support()
    if 0 in sup:
        raise ValueError("moved terms may not read x0")
    high = max(sup, default=0)
    if high > source_bit:
        raise ValueError(f"moved terms read x{high} above the source bit {source_bit}")
    if source_bit >= len(state):
        raise ValueError(f"source bit {source_bit} outside the {len(state)}-bit state")
    out = list(state)
    out[source_bit] ^= terms.shifted(-1).evaluate(state)
    return tuple(out)


@dataclass(frozen=True)
class DivergenceReport:
    """How the state sequences of a shifted register pair differ.

    diffs[t] holds the bit positions where the two sequences disagree at
    step t; ok means they never disagree outside the moved-from bit.
    predictions_hold confirms the per-step difference at that bit equals
    the moved terms, shifted one position down, evaluated at the shifted
    register's current state.
    """

    bit: int
    steps: int
    diffs: tuple[frozenset[int], ...]
    ok: bool
    predictions_hold: bool


def sequence_divergence(
    original: Nlfsr,
    shifted: Nlfsr,
    move: ShiftMove,
    state: Sequence[int],
    steps: int,
) -> DivergenceReport:
    """Compare the state walks of a register and its one-bit shifted form.

    ``shifted`` must be exactly apply_shift(original, move) with the move
    going one bit down; the shifted register starts from the
    single_shift_map image of ``state``.
    """
    if move.to_bit != move.from_bit - 1:
        raise ValueError("divergence tracking needs a one-bit move")
    if apply_shift(original, move) != shifted:
        raise ValueError("shifted register does not match the move")
    check_state(state, original.n)
    if steps < 0:
        raise ValueError("steps must be non-negative")
    moved_down = move.terms.shifted(-1)
    x = state_to_int(state)
    y = state_to_int(single_shift_map(move.terms, move.from_bit, state))
    diffs = []
    ok = predictions_hold = True
    allowed = 1 << move.from_bit
    for _ in range(steps):
        d = x ^ y
        diffs.append(frozenset(i for i in range(original.n) if d >> i & 1))
        if d & ~allowed:
            ok = False
        predicted = moved_down.evaluate(int_to_state(y, original.n))
        if bool(d & allowed) != bool(predicted):
            predictions_hold = False
        x = original.step_packed(x)
        y = shifted.step_packed(y)
    return DivergenceReport(move.from_bit, steps, tuple(diffs), ok, predictions_hold)
