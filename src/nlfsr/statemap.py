"""Matching initial states across equivalent register configurations.

A Fibonacci register and a uniform Galois register obtained from it by
shifting follow different state sequences, so producing the same output
stream requires different initial states.  The bits at or below the
Galois register's terminal bit carry over unchanged; every bit above it
picks up a correction computed from the register's residuals.  This
module builds those correction polynomials once per register and applies
them per state, in both directions.  The fix-up of a single one-bit
shifting has the same triangular form, so it is a ``StateCorrection`` too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .anf import Anf
from .register import Nlfsr, State, check_state
from .transform import GaloisProfile, ShiftMove, check_terminal_bit


@dataclass(frozen=True)
class StateCorrection:
    """A triangular state map: each bit above tau is XORed with a polynomial.

    polys[j] corrects bit tau + 1 + j.  In a uniform Galois register it
    is the XOR of the residuals below that bit, each shifted up to sit
    just under it.  Every correction reads only bits strictly below the
    bit it corrects, which makes the map invertible by forward substitution.

    zero_prefix_fixed reports a structural property: when every
    correction monomial reads at least one bit at or below the terminal
    bit, all corrections vanish on states whose low bits are zero, so
    such states map to themselves.
    """

    n: int
    tau: int
    polys: tuple[Anf, ...]

    def __post_init__(self):
        object.__setattr__(self, "polys", tuple(self.polys))
        check_terminal_bit(self.n, self.tau)
        if len(self.polys) != self.n - self.tau - 1:
            raise ValueError(
                f"expected {self.n - self.tau - 1} correction polynomials for bits "
                f"{self.tau + 1}..{self.n - 1}, got {len(self.polys)}"
            )
        for bit, p in enumerate(self.polys, self.tau + 1):
            if not isinstance(p, Anf):
                raise TypeError(f"correction of bit {bit} is not an Anf")
            high = max(p.support(), default=-1)
            if high >= bit:
                raise ValueError(f"correction of bit {bit} reads x{high}, not only bits below it")

    @property
    def zero_prefix_fixed(self) -> bool:
        for p in self.polys:
            for t in p.terms:
                if not t.indices or t.indices[0] > self.tau:
                    return False
        return True

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
        """Map a state to its image."""
        check_state(state, self.n)
        out = list(state)
        for j, p in enumerate(self.polys):
            out[self.tau + 1 + j] ^= p.evaluate(state)
        return tuple(out)

    def invert(self, state: Sequence[int]) -> State:
        """Map an image back to its state.

        Corrections are evaluated against the partially recovered state:
        correction j reads only bits below tau + 1 + j, and those are
        already recovered when it runs.
        """
        check_state(state, self.n)
        out = list(state)
        for j, p in enumerate(self.polys):
            out[self.tau + 1 + j] ^= p.evaluate(out)
        return tuple(out)


def build_correction(g: Nlfsr) -> StateCorrection:
    """Precompute the state corrections of a uniform Galois register.

    ``apply`` maps a Fibonacci start state to the matching Galois one,
    and ``invert`` maps back.
    """
    profile = GaloisProfile.of_register(g)
    return StateCorrection(g.n, profile.tau, profile.telescopes[:-1])


def shift_correction(move: ShiftMove, n: int) -> StateCorrection:
    """The start-state fix-up of a one-bit shifting in an n-bit register.

    When the moved terms read only bits 1..from_bit, the register after
    the shifting generates the same output as the register before it
    from the start state whose bit ``from_bit`` is XORed with the moved
    terms evaluated one position down.
    """
    if move.from_bit - move.to_bit != 1:
        raise ValueError(f"fix-up needs a one-bit shifting, got {move.from_bit} -> {move.to_bit}")
    if move.from_bit >= n:
        raise ValueError(f"source bit {move.from_bit} outside the {n}-bit state")
    if 0 in move.terms.support():
        raise ValueError("moved terms may not read x0")
    zeros = (Anf.zero(),) * (n - 1 - move.from_bit)
    return StateCorrection(n, move.to_bit, (move.terms.shifted(-1),) + zeros)
