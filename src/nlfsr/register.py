"""The register machine: state, stepping, output, and structural classification.

An n-bit feedback shift register holds bits s_0..s_{n-1} and updates all
of them simultaneously: the next value of bit i is f_i evaluated at the
current state, where f_i is an ANF polynomial.  The output stream is the
value of bit 0 over time.

Bit-order conventions: states are stored index-ascending, ``(s_0, ...,
s_{n-1})``.  All *text* I/O prints the highest index first, so the string
``0001`` means s_0 = 1 and s_1 = s_2 = s_3 = 0.  Packed integers use bit i
for s_i, which makes the packed value equal to the displayed string read
as binary.

Everything here is immutable and the operations are pure functions, so
concurrent use needs no coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .anf import Anf, Monomial, ParseError

#: Largest register size for which whole-state-space scans run by default.
EXHAUSTIVE_LIMIT = 20

State = tuple[int, ...]


class StructureError(ValueError):
    """A register does not have the structure an operation requires."""

    def __init__(self, message: str, violations: Sequence["Violation"] = ()):
        if violations:
            message = message + ": " + "; ".join(str(v) for v in violations)
        super().__init__(message)
        self.violations = tuple(violations)


class ExhaustiveLimitError(ValueError):
    """A whole-state-space operation was asked for a register above the limit."""


def check_limit(n: int, limit: int | None) -> None:
    """Refuse an n-bit whole-state-space scan above ``limit`` (default EXHAUSTIVE_LIMIT)."""
    lim = EXHAUSTIVE_LIMIT if limit is None else limit
    if n > lim:
        raise ExhaustiveLimitError(
            f"register has {n} bits, exhaustive scans are capped at {lim}"
        )


@dataclass(frozen=True)
class Violation:
    """One structural defect, machine-readable for guard diagnostics.

    kind is one of:
      ``missing-shift-tap``     f_i does not read x_{(i+1) mod n}
      ``reads-outside-window``  f_i reads a variable outside {x_0..x_i, tap}
      ``non-singular``          the residual of f_i still reads the tap
      ``reads-above-terminal``  a residual above the terminal bit reads past it
    """

    kind: str
    bit: int
    variable: int | None = None

    def __str__(self) -> str:
        v = f" x{self.variable}" if self.variable is not None else ""
        return f"bit {self.bit}: {self.kind}{v}"


def is_ascii_digits(text: str) -> bool:
    """True for a non-empty run of ASCII digits, the only integers the file formats accept."""
    return text.isascii() and text.isdigit()


def parse_state(text: str, n: int | None = None) -> State:
    """Parse a display-order bit string (highest index first) into a state."""
    text = text.strip()
    if not text or any(c not in "01" for c in text):
        raise ValueError(f"state must be a non-empty string of 0/1, got {text!r}")
    if n is not None and len(text) != n:
        raise ValueError(f"state {text!r} has {len(text)} bits, register has {n}")
    return tuple(int(c) for c in reversed(text))


def format_state(state: Sequence[int]) -> str:
    """Format a state in display order, highest index first."""
    return "".join(str(b) for b in reversed(state))


def state_to_int(state: Sequence[int]) -> int:
    """Pack a state into an integer with bit i holding s_i."""
    x = 0
    for i, b in enumerate(state):
        if b:
            x |= 1 << i
    return x


def int_to_state(x: int, n: int) -> State:
    """Unpack an integer into an n-bit state."""
    return tuple((x >> i) & 1 for i in range(n))


class Nlfsr:
    """An n-bit register defined by one feedback polynomial per bit."""

    __slots__ = ("n", "feedbacks", "_masks", "_terminal")

    def __init__(self, feedbacks: Iterable[Anf]):
        fbs = tuple(feedbacks)
        if len(fbs) < 2:
            raise ValueError(f"register needs at least 2 bits, got {len(fbs)}")
        n = len(fbs)
        for i, f in enumerate(fbs):
            if not isinstance(f, Anf):
                raise TypeError(f"feedback {i} is not an Anf")
            high = max(f.support(), default=-1)
            if high >= n:
                raise ValueError(f"feedback f{i} reads x{high} but the register has {n} bits")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "feedbacks", fbs)
        object.__setattr__(
            self, "_masks", tuple(tuple(t.mask() for t in f.terms) for f in fbs)
        )
        terminal = n - 1
        for i in range(n - 1):
            if fbs[i] != Anf.var(i + 1):
                terminal = i
                break
        object.__setattr__(self, "_terminal", terminal)

    def __setattr__(self, name, value):
        raise AttributeError("Nlfsr is immutable")

    @classmethod
    def fibonacci(cls, n: int, top: Anf) -> Nlfsr:
        """Build the register where every bit shifts and bit n-1 computes top."""
        return cls([Anf.var(i + 1) for i in range(n - 1)] + [top])

    def __eq__(self, other) -> bool:
        return isinstance(other, Nlfsr) and self.feedbacks == other.feedbacks

    def __hash__(self) -> int:
        return hash(self.feedbacks)

    def __repr__(self) -> str:
        return f"<Nlfsr n={self.n} terminal={self.terminal_bit()}>"

    # -- stepping ---------------------------------------------------------

    def _check_state(self, state: Sequence[int]) -> None:
        if len(state) != self.n:
            raise ValueError(f"state has {len(state)} bits, register has {self.n}")

    def step(self, state: Sequence[int]) -> State:
        """One clock cycle: every bit updates simultaneously from the old state."""
        self._check_state(state)
        return int_to_state(self.step_packed(state_to_int(state)), self.n)

    def step_packed(self, x: int) -> int:
        """step() on an integer-packed state; the fast path for scans."""
        out = 0
        for i, term_masks in enumerate(self._masks):
            acc = 0
            for m in term_masks:
                acc ^= x & m == m
            out |= acc << i
        return out

    def output_sequence(self, state: Sequence[int], steps: int) -> list[int]:
        """The first ``steps`` output bits (bit 0), starting with the given state."""
        self._check_state(state)
        if steps < 0:
            raise ValueError("steps must be non-negative")
        x = state_to_int(state)
        out = []
        for _ in range(steps):
            out.append(x & 1)
            x = self.step_packed(x)
        return out

    def state_sequence(self, state: Sequence[int], steps: int) -> list[State]:
        """The first ``steps`` states, starting with the given state itself."""
        self._check_state(state)
        if steps < 0:
            raise ValueError("steps must be non-negative")
        x = state_to_int(state)
        seq = []
        for _ in range(steps):
            seq.append(int_to_state(x, self.n))
            x = self.step_packed(x)
        return seq

    # -- structure --------------------------------------------------------

    def terminal_bit(self) -> int:
        """Largest t such that every bit below t is a pure shift f_i = x_{i+1}."""
        return self._terminal

    def is_fibonacci(self) -> bool:
        """True when every bit except the top one is a pure shift."""
        return self._terminal == self.n - 1

    def residual(self, i: int) -> Anf:
        """The feedback of bit i with its shift tap x_{(i+1) mod n} removed.

        Fails with StructureError when the remainder still reads the tap,
        i.e. the feedback is not singular.
        """
        tap = (i + 1) % self.n
        g = self.feedbacks[i] ^ Anf.var(tap)
        if tap in g.support():
            raise StructureError(
                f"feedback of bit {i} is not singular",
                [Violation("non-singular", i, tap)],
            )
        return g

    def dependence_violations(self) -> list[Violation]:
        """Check the structural register contract on every bit.

        Each f_i must read its shift tap x_{(i+1) mod n} and may otherwise
        read only variables x_0..x_i.  Degenerate registers can still be
        built and simulated; transformations and state mappings refuse them.
        """
        out = []
        for i, f in enumerate(self.feedbacks):
            tap = (i + 1) % self.n
            sup = f.support()
            if tap not in sup:
                out.append(Violation("missing-shift-tap", i, tap))
            for k in sorted(sup):
                if k > i and k != tap:
                    out.append(Violation("reads-outside-window", i, k))
        return out

    def uniformity_violations(self) -> list[Violation]:
        """Why the register is not uniform; empty when it is.

        Uniform means every feedback is singular (f_i = tap XOR residual
        with the residual free of the tap) and every residual above the
        terminal bit reads only variables at or below it.
        """
        out = []
        tau = self._terminal
        for i in range(self.n):
            tap = (i + 1) % self.n
            g = self.feedbacks[i] ^ Anf.var(tap)
            if tap in g.support():
                out.append(Violation("non-singular", i, tap))
                continue
            if i > tau:
                for k in sorted(g.support()):
                    if k > tau:
                        out.append(Violation("reads-above-terminal", i, k))
        return out

    def is_uniform(self) -> bool:
        return not self.uniformity_violations()

    # -- whole-orbit analysis ----------------------------------------------

    def period_from(self, state: Sequence[int], limit: int | None = None) -> int:
        """Length of the cycle the orbit of ``state`` falls into.

        The walk from a state may have a non-repeating tail before it
        enters a cycle; only the cycle length is reported.
        """
        self._check_state(state)
        check_limit(self.n, limit)
        seen: dict[int, int] = {}
        x = state_to_int(state)
        t = 0
        while x not in seen:
            seen[x] = t
            x = self.step_packed(x)
            t += 1
        return t - seen[x]

    def period(self, limit: int | None = None) -> int:
        """Longest cycle length over all 2^n initial states."""
        from .verify import period_census  # verify imports this module

        return period_census(self, limit).period

    # -- text form ----------------------------------------------------------

    def __str__(self) -> str:
        lines = [f"n = {self.n}"]
        for i in range(self.n - 1, -1, -1):
            lines.append(f"f{i} = {self.feedbacks[i]}")
        return "\n".join(lines)

    @classmethod
    def parse(cls, text: str) -> Nlfsr:
        """Parse the register file format::

            n = 4
            f3 = x0 + x1
            f2 = x3 + x1 + x0*x1
            f1 = x2
            f0 = x1

        Every bit must be assigned exactly once; errors carry line numbers.
        """
        n: int | None = None
        feedbacks: dict[int, Anf] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected 'name = value', got {line!r}")
            name, _, value = line.partition("=")
            name = name.strip()
            value = value.strip()
            if name == "n":
                if n is not None:
                    raise ValueError(f"line {lineno}: duplicate n")
                if not is_ascii_digits(value):
                    raise ValueError(f"line {lineno}: n must be an integer")
                n = int(value)
                if n < 2:
                    raise ValueError(f"line {lineno}: n must be at least 2")
            elif name.startswith("f") and is_ascii_digits(name[1:]):
                if n is None:
                    raise ValueError(f"line {lineno}: n must be declared before feedbacks")
                i = int(name[1:])
                if i >= n:
                    raise ValueError(f"line {lineno}: bit {i} out of range for n = {n}")
                if i in feedbacks:
                    raise ValueError(f"line {lineno}: duplicate assignment for bit {i}")
                try:
                    feedbacks[i] = Anf.parse(value, n_vars=n)
                except ParseError as e:
                    raise ValueError(f"line {lineno}: {e}") from None
            else:
                raise ValueError(f"line {lineno}: unknown assignment {name!r}")
        if n is None:
            raise ValueError("missing 'n = <size>' line")
        missing = [i for i in range(n) if i not in feedbacks]
        if missing:
            raise ValueError(f"missing feedback for bit(s) {', '.join(map(str, missing))}")
        return cls([feedbacks[i] for i in range(n)])


def successor_table(m: Nlfsr, limit: int | None = None) -> list[int]:
    """Entry x is the packed successor of packed state x, over all 2^n states.

    Every whole-state-space scan starts from this table.
    """
    check_limit(m.n, limit)
    return [m.step_packed(x) for x in range(1 << m.n)]


def require_well_formed(m: Nlfsr) -> None:
    """Raise StructureError unless the register is uniform and well-formed.

    Transformations and state mappings demand both: every bit reads its
    shift tap and otherwise only its own window, and the residuals meet
    the uniformity conditions.
    """
    violations = m.dependence_violations() + m.uniformity_violations()
    if violations:
        raise StructureError("register is not uniform and well-formed", violations)
