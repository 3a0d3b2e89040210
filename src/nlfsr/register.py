"""The register machine: state, stepping, output, and structural classification.

An n-bit feedback shift register holds bits s_0..s_{n-1} and updates all
of them simultaneously: the next value of bit i is f_i evaluated at the
current state, where f_i is an ANF polynomial.  The output stream is the
value of bit 0 over time.

Each feedback is stored split once as f_i = x_{(i+1) mod n} XOR r_i, an
identity that holds for every register.  Fibonacci and Galois forms
differ only in where the nonzero residuals r_i sit, and a step is one
rotation with each nonzero residual XORed in at its bit.

Bit-order conventions: states are stored index-ascending, ``(s_0, ...,
s_{n-1})``.  All *text* I/O prints the highest index first, so the string
``0001`` means s_0 = 1 and s_1 = s_2 = s_3 = 0.  Packed integers use bit i
for s_i, which makes the packed value equal to the displayed string read
as binary.

Everything here is immutable and the operations are pure functions, so
concurrent use needs no coordination.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .anf import Anf, Monomial, digits_value, is_ascii_digits

#: Largest register size for which whole-state-space scans run.
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
    """A whole-state-space operation was asked for a register above EXHAUSTIVE_LIMIT."""


def check_limit(n: int) -> None:
    """Refuse an n-bit whole-state-space scan above EXHAUSTIVE_LIMIT."""
    if n > EXHAUSTIVE_LIMIT:
        raise ExhaustiveLimitError(
            f"register has {n} bits, exhaustive scans are capped at {EXHAUSTIVE_LIMIT}"
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


def check_state(state: Sequence[int], n: int) -> None:
    """Refuse a state that does not have exactly n bits, each the int 0 or 1."""
    if len(state) != n:
        raise ValueError(f"state has {len(state)} bits, register has {n}")
    if any(type(b) is not int or b not in (0, 1) for b in state):
        raise ValueError(f"state {tuple(state)} has an entry other than 0 or 1")


def read_assignments(
    text: str, header: str, letter: str, bits: Callable[[int], range]
) -> tuple[int, dict[int, tuple[int, Anf]]]:
    """Read a register or profile file: one ``header = K`` line, then
    ``<letter>I = <poly>`` lines.  Returns K and, for each bit I assigned,
    its line number and polynomial.

    Blank lines are skipped.  K and I are runs of ASCII digits.  K comes
    first and once; ``bits(K)`` is the range I may take, or raises
    ValueError.  No bit is assigned twice, and a polynomial reads only
    variables below ``bits(K).stop``.  Every refusal names its line.
    """
    k: int | None = None
    given: dict[int, tuple[int, Anf]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            if "=" not in line:
                raise ValueError(f"expected 'name = value', got {line!r}")
            name, value = map(str.strip, line.split("=", 1))
            if name == header:
                if k is not None:
                    raise ValueError(f"duplicate {header}")
                if not is_ascii_digits(value):
                    raise ValueError(f"{header} must be an integer")
                k = digits_value(value)
                if k is None:
                    raise ValueError(f"{header} out of range")
                span = bits(k)
            elif name[:1] == letter and is_ascii_digits(name[1:]):
                if k is None:
                    raise ValueError(f"{header} must be declared before any {letter}I line")
                i = digits_value(name[1:])
                # None first: `None in span` would scan the whole range
                if i is None or i not in span:
                    raise ValueError(f"bit {name[1:]} outside {span.start}..{span.stop - 1}")
                if i in given:
                    raise ValueError(f"duplicate assignment for bit {i}")
                given[i] = lineno, Anf.parse(value, n_vars=span.stop)
            else:
                raise ValueError(f"unknown assignment {name!r}")
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from None
    if k is None:
        raise ValueError(f"missing '{header}' line")
    return k, given


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

    __slots__ = ("n", "feedbacks", "_residuals", "_residual_masks")

    def __init__(self, feedbacks: Iterable[Anf]):
        fbs = tuple(feedbacks)
        if len(fbs) < 2:
            raise ValueError(f"register needs at least 2 bits, got {len(fbs)}")
        n = len(fbs)
        zero = Anf.zero()  # one object for every pure shift's residual
        residuals: list[Anf] = []
        masks: list[tuple[int, tuple[int, ...]]] = []
        for i, f in enumerate(fbs):
            if not isinstance(f, Anf):
                raise TypeError(f"feedback {i} is not an Anf")
            # indices are sorted, so a term's last one is its highest
            high = max((t.indices[-1] for t in f.terms if t.indices), default=-1)
            if high >= n:
                raise ValueError(f"feedback f{i} reads x{high} but the register has {n} bits")
            # f's terms were checked when f was built, and the tap is an index in 0..n-1
            r = f.terms ^ {Monomial._trusted(((i + 1) % n,))}
            if r:
                residuals.append(Anf._wrap(r))
                masks.append((i, tuple(sum(1 << k for k in t.indices) for t in r)))
            else:
                residuals.append(zero)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "feedbacks", fbs)
        object.__setattr__(self, "_residuals", tuple(residuals))
        object.__setattr__(self, "_residual_masks", tuple(masks))

    def __setattr__(self, name, value):
        raise AttributeError("Nlfsr is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, not __setattr__
        return Nlfsr, (self.feedbacks,)

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

    def step(self, state: Sequence[int]) -> State:
        """One clock cycle: every bit updates simultaneously from the old state."""
        check_state(state, self.n)
        return int_to_state(self.step_packed(state_to_int(state)), self.n)

    def step_packed(self, x: int) -> int:
        """step() on a packed state, one orbit: rotate right one bit, then XOR
        each nonzero residual in at its bit.  ``walk_columns`` steps many states at once."""
        y = (x >> 1) | (x & 1) << (self.n - 1)
        for i, term_masks in self._residual_masks:
            acc = 0
            for m in term_masks:
                acc ^= x & m == m
            y ^= acc << i
        return y

    def output_sequence(self, state: Sequence[int], steps: int) -> list[int]:
        """The first ``steps`` output bits (bit 0), starting with the given state."""
        return [x & 1 for x in self.run(state, steps)]

    def state_sequence(self, state: Sequence[int], steps: int) -> list[State]:
        """The first ``steps`` states, starting with the given state itself."""
        return [int_to_state(x, self.n) for x in self.run(state, steps)]

    def run(self, state: Sequence[int], steps: int) -> Iterator[int]:
        """The first ``steps`` packed states, starting with the given state
        itself, made one at a time as they are read."""
        check_state(state, self.n)
        if type(steps) is not int or steps < 0:
            raise ValueError(f"steps must be non-negative and of type int, got {steps!r}")

        def states(x: int) -> Iterator[int]:
            for _ in range(steps):
                yield x
                x = self.step_packed(x)

        return states(state_to_int(state))

    # -- structure --------------------------------------------------------

    def terminal_bit(self) -> int:
        """The first bit below n - 1 that is not a pure shift f_i = x_{i+1}, else n - 1."""
        return next((i for i, r in enumerate(self._residuals[:-1]) if r), self.n - 1)

    def is_fibonacci(self) -> bool:
        """True when every bit except the top one is a pure shift."""
        return self.terminal_bit() == self.n - 1

    def residual(self, i: int) -> Anf:
        """The feedback of bit i with its shift tap x_{(i+1) mod n} removed.

        Fails with StructureError when the remainder still reads the tap,
        i.e. the feedback is not singular, and with ValueError for a bit
        outside 0..n-1.
        """
        if not 0 <= i < self.n:
            raise ValueError(f"bit {i} out of range for n = {self.n}")
        tap = (i + 1) % self.n
        g = self._residuals[i]
        if tap in g.support():
            raise StructureError(
                f"feedback of bit {i} is not singular",
                [Violation("non-singular", i, tap)],
            )
        return g

    def violations(self) -> list[Violation]:
        """Every breach of the register contract; empty when the register keeps it.

        The window: each f_i must read its shift tap x_{(i+1) mod n} and
        may otherwise read only variables x_0..x_i.  Uniformity: every
        feedback is singular (f_i = tap XOR residual with the residual
        free of the tap) and every residual above the terminal bit reads
        only variables at or below it.  All window violations come first,
        then all uniformity ones, each group by bit.  Degenerate registers
        can still be built and simulated; transformations and state
        mappings refuse them.
        """
        window: list[Violation] = []
        uniformity: list[Violation] = []
        tau = self.terminal_bit()
        for i, (f, r) in enumerate(zip(self.feedbacks, self._residuals)):
            tap = (i + 1) % self.n
            if tap not in f.support():
                window.append(Violation("missing-shift-tap", i, tap))
            # f = x_tap + r, so f and r read the same variables besides the tap
            reads = sorted(r.support())
            window += [Violation("reads-outside-window", i, k) for k in reads if k > i and k != tap]
            if tap in reads:
                uniformity.append(Violation("non-singular", i, tap))
            elif i > tau:
                uniformity += [Violation("reads-above-terminal", i, k) for k in reads if k > tau]
        return window + uniformity

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

        The grammar of ``read_assignments``, header ``n`` >= 2, letter ``f``; every bit is assigned.
        """

        def bits(n: int) -> range:
            if n < 2:
                raise ValueError("n must be at least 2")
            return range(n)

        n, given = read_assignments(text, "n", "f", bits)
        if len(given) < n:
            lowest = next(i for i in range(len(given) + 1) if i not in given)
            unassigned = n - len(given)
            raise ValueError(
                f"missing feedback for bit(s) {lowest}: {unassigned} of {n} bits unassigned"
            )
        return cls([given[i][1] for i in range(n)])


def _tile(word: int, width: int, size: int) -> int:
    """The size-bit int that repeats a width-bit word, both powers of two.

    The word is doubled up to 64 bits, or to size if smaller, then its
    bytes are copied: doubling to size would hold about 2.5 times the result.
    """
    while width < min(size, 64):
        word |= word << width
        width *= 2
    if width == size:
        return word
    return int.from_bytes(word.to_bytes(width // 8, "little") * (size // width), "little")


def state_space(n: int) -> tuple[list[int], int]:
    """The start of every whole-space walk: ``(columns, ones)``, from which
    ``walk_columns`` starts lane x at state x.  The limit is checked before
    any column is built.  Column k is a 2^n-bit int whose bit x is bit k of
    x, so 2^k zeros then 2^k ones, tiled; ones is the 2^n-lane mask."""
    check_limit(n)
    columns = [_tile(((1 << (1 << k)) - 1) << (1 << k), 2 << k, 1 << n) for k in range(n)]
    return columns, (1 << (1 << n)) - 1


def walk_columns(
    m: Nlfsr, steps: int, start: Sequence[int], ones: int
) -> tuple[list[int], list[int]]:
    """Step many states of the register ``steps`` times at once, bit-sliced.

    Each variable x_k over W lanes is one W-bit column: bit j of
    ``start[k]`` is bit k of lane j's start state, and ``ones`` is the
    W-lane all-ones column, the value of a constant term.  A whole-space
    walk starts from ``state_space(n)``, which checks the limit.  A step
    rotates the columns and XORs each nonzero residual, an XOR of ANDs of
    columns, in at its bit.  Returns ``(outputs, state)``: outputs[t] is
    column 0 before step t, so bit j of it is the output at time t from
    lane j, and state[i] is column i of the states reached after the last
    step.  ``transpose`` turns either list into one lane per state.
    """
    state = list(start)
    outputs = []
    for _ in range(steps):
        outputs.append(state[0])
        nxt = state[1:] + state[:1]
        for i, _ in m._residual_masks:
            nxt[i] ^= m._residuals[i].evaluate(state, ones)
        state = nxt
    return outputs, state


#: The three delta swaps that transpose each 64-bit word as an 8x8 bit
#: matrix: a shift and its 64-bit mask.
_DELTA_SWAPS = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))


@lru_cache(maxsize=1)
def _swap_masks(padded: int) -> tuple[tuple[int, int], ...]:
    """``_DELTA_SWAPS`` with each mask tiled over a padded-byte int.

    Only the last lane count's masks are kept, so every group of a
    ``transpose`` and every slice of ``successor_table`` share one build.
    """
    return tuple((shift, _tile(mask, 64, 8 * padded)) for shift, mask in _DELTA_SWAPS)


def transpose(columns: Sequence[int], n: int) -> memoryview:
    """Lane x packs bit x of every 2^n-bit column, column i into bit i.

    Each group of eight columns becomes one byte of a 4-byte native-order
    lane per state, which holds the n + 1 <= 21 columns the library
    passes.  The group's column bytes are interleaved, so that 64-bit
    word w of the interleaved int holds byte w of each column, one column
    per row of an 8x8 bit matrix.  Three delta swaps on the whole int
    transpose every word at once (Warren, *Hacker's Delight*, section
    7-3), after which byte x holds bit x of the eight columns, and the
    bytes are written as one byte plane of the lanes.  Below n = 3 the
    states are padded to one whole byte and the plane is cut back to 2^n
    entries.  The swaps' masks come from ``_swap_masks``, built once per
    lane count, and the last count's three masks, max(2^n, 8) bytes each,
    stay held.  The lanes come back as a memoryview of unsigned ints, so
    that the columns can be freed before ``tolist()`` reads them out.
    """
    size = 1 << n
    padded = max(size, 8)
    swaps = _swap_masks(padded)
    lanes = bytearray(4 * size)
    for j in range(0, len(columns), 8):
        words = bytearray(padded)  # byte 8w + k is byte w of column j + k
        for k, column in enumerate(columns[j : j + 8]):
            words[k::8] = column.to_bytes(padded // 8, "little")
        x = int.from_bytes(words, "little")
        del words
        for shift, mask in swaps:
            t = (x ^ (x >> shift)) & mask
            x ^= t ^ (t << shift)
        del t
        byte = j // 8 if sys.byteorder == "little" else 3 - j // 8
        lanes[byte::4] = x.to_bytes(padded, "little")[:size]
    return memoryview(lanes).cast("I")


#: log2 of the states in one slice of ``successor_table``.
_SLICE_BITS = 15


def successor_table(m: Nlfsr) -> memoryview:
    """Entry x is the packed successor of packed state x, over all 2^n states.

    This table is the one-step case of ``walk_columns``, and the cycle
    census walks it.  It is a read-only view of one 4-byte lane per
    state, and its ``tolist()`` equals
    ``[m.step_packed(x) for x in range(1 << m.n)]``.

    The limit is checked before any column is built.  The table is built
    one slice of up to 2^15 states at a time, so that the walk's columns
    and the transpose's temporaries stay those of one slice: a slice
    fixes the top n - 15 bits, or none up to n = 15, its start columns
    are ``state_space(min(n, 15))`` plus one all-ones or all-zero column
    per fixed bit, and its transposed lanes are copied into their place
    in the table.  Every slice has the same lane count, so all of them
    share one build of the transpose's masks.
    """
    n = m.n
    check_limit(n)
    width = min(n, _SLICE_BITS)
    low, ones = state_space(width)
    table = memoryview(bytearray(4 << n)).cast("I")
    for top in range(1 << (n - width)):
        fixed = [ones if top >> k & 1 else 0 for k in range(n - width)]
        state = walk_columns(m, 1, low + fixed, ones)[1]
        table[top << width : (top + 1) << width] = transpose(state, width)
    return table.toreadonly()


def require_well_formed(m: Nlfsr) -> None:
    """Raise StructureError unless the register is uniform and well-formed.

    Transformations and state mappings demand both: every bit reads its
    shift tap and otherwise only its own window, and the residuals meet
    the uniformity conditions.
    """
    violations = m.violations()
    if violations:
        raise StructureError("register is not uniform and well-formed", violations)
