"""Ground-truth oracles: exhaustive simulation over whole state spaces.

These checks never use the algebraic machinery they are meant to judge.
One bit-sliced walk per register, started from ``state_space(n)``, which
checks the size limit, steps all 2^n states n + 1 times at once and
labels each state with its (n+1)-bit output window.  Each
side's labels are marked in one bytearray.  Only equal marks that fail
Moore's test (two windows differ only in their last bit) are refined,
into exact output classes, by pointer doubling from the (n+1)-step jump
the same walk ends on.  Then one rule decides: equal marks mean the
registers are equivalent, and a state whose label the other side never
marks starts no stream of the other, so it witnesses that they are not.
Against a Fibonacci register, whose windows are the graph of its top
feedback, only the other register is walked, and it is marked only when
its n-bit output prefixes are not triangular in its state; a triangular
prefix map is a bijection, so the walk's own columns decide.
Cycle structure comes from walks over the successor table: each walk
first expects to close a cycle, as every walk of a bijection does, and
only a walk that does not, which proves the update is not a bijection,
sends the census back over the table to split tails from cycles.

Everything is a pure function of immutable registers; scans over initial
states can be partitioned freely and merged by min/union/sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Literal, Mapping, Sequence

from .register import (
    Nlfsr,
    State,
    check_state,
    int_to_state,
    state_space,
    state_to_int,
    successor_table,
    transpose,
    walk_columns,
)


def _windows(m: Nlfsr) -> tuple[memoryview, list[int]]:
    """Walk every state of the register n + 1 steps at once.

    Returns each state's (n+1)-bit output window, one lane per state
    with bit t the output at time t, and the columns of the states the
    walk ends on, which give the (n+1)-step jump.
    """
    outputs, state = walk_columns(m, m.n + 1, *state_space(m.n))
    return transpose(outputs, m.n), state


def _marks(labels: Iterable[int], n: int) -> bytearray:
    """One byte per possible label below 2^(n+1), set for each label given."""
    marks = bytearray(2 << n)
    for c in labels:
        marks[c] = 1
    return marks


def _moore(marks: bytearray, n: int) -> bool:
    """Moore's stop test (Moore 1956) on marked (n+1)-bit windows: no two
    differ only in their last bit, so the low and high halves of the marks
    share none.  Then the n- and (n+1)-bit output prefixes split the states
    alike, so every longer prefix does too, and the windows are exact."""
    half = 1 << n
    return not int.from_bytes(marks[:half], "little") & int.from_bytes(marks[half:], "little")


def output_classes(a: Nlfsr, b: Nlfsr) -> tuple[list[int], list[int]]:
    """Label every state of two registers so that equal labels mean equal outputs.

    Entry x of each list labels packed state x; two states, of the same
    register or not, get the same label exactly when they emit the same
    infinite output stream.  Every label is below 2^(n+1).  The labels
    are the (n+1)-bit output windows of ``_windows`` when the windows of
    both registers pass ``_moore``, and ``_refined_classes`` otherwise.
    """
    if a.n != b.n:
        raise ValueError(f"registers have different sizes {a.n} and {b.n}")
    walks = [_windows(m) for m in (a, b)]
    marks = _marks(chain(walks[0][0], walks[1][0]), a.n)
    if _moore(marks, a.n):
        return walks[0][0].tolist(), walks[1][0].tolist()
    return _refined_classes(walks, a.n, marks.count(1))


def _refined_classes(
    walks: list[tuple[memoryview, list[int]]], n: int, count: int
) -> tuple[list[int], list[int]]:
    """Exact output classes of the two registers whose ``_windows`` walks
    are given, which mark ``count`` distinct windows between them.

    Each state's first label is its (n+1)-bit output window, and the
    states after the walk give the (n+1)-step jump.  Each round of
    pointer doubling relabels every state of both registers by its own
    label and the label of the state one jump ahead, and squares the
    jump, so the labels stand for prefixes of 2(n+1), 4(n+1), ... bits.
    When a round adds no label, a prefix and its double split the states
    alike, and the labels are exact.  Labels are numbered in order of
    first appearance, so every label stays below the 2^(n+1) states.
    """
    size = 1 << n
    label = walks[0][0].tolist() + walks[1][0].tolist()
    jump = transpose(walks[0][1], n).tolist() + [y + size for y in transpose(walks[1][1], n)]
    width = n + 1
    while True:
        ids = {}
        label = [ids.setdefault(c << width | label[j], len(ids)) for c, j in zip(label, jump)]
        if len(ids) == count:
            return label[:size], label[size:]
        count = len(ids)
        jump = [jump[j] for j in jump]


def brute_force_match(a: Nlfsr, b: Nlfsr, state: Sequence[int]) -> State | None:
    """The smallest state of b whose output stream equals a's from ``state``.

    Returns None when no state of b reproduces that stream.
    """
    check_state(state, a.n)
    ca, cb = output_classes(a, b)
    try:
        y = cb.index(ca[state_to_int(state)])
    except ValueError:
        return None
    return int_to_state(y, b.n)


Verdict = Literal["equivalent", "not-equivalent"]


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of the exhaustive output-set comparison of two registers.

    witness is a state of one register whose output stream no state of
    the other reproduces, present exactly for the not-equivalent verdict
    (witness_side tells which register it belongs to).  It is the
    smallest state of the first register whose label the second register
    never carries, or else the smallest such state of the second.  The
    labels are the (n+1)-bit output windows, and window is the witness's
    window: window[t] is its output at time t.  When the windows are
    equal sets that fail Moore's test, the labels are the refined
    ``output_classes`` of the infinite streams, and window is None.
    """

    verdict: Verdict
    witness: State | None = None
    witness_side: Literal["first", "second"] | None = None
    window: State | None = None


def output_set_equivalent(a: Nlfsr, b: Nlfsr) -> EquivalenceReport:
    """Decide whether two registers generate the same set of output sequences.

    When either register is Fibonacci, ``_against_fibonacci`` decides
    from one walk of the other.  Otherwise each side's (n+1)-bit windows
    are marked by ``_marks``.  Equal marks that fail ``_moore`` are
    swapped for the ``_refined_classes`` labels of the same walks and
    their marks.  Then equal marks mean equivalent, and otherwise the
    witness is a state whose label the other side never marks, as
    ``EquivalenceReport`` states.
    """
    if a.n != b.n:
        raise ValueError(f"registers have different sizes {a.n} and {b.n}")
    if a.is_fibonacci() or b.is_fibonacci():
        return _against_fibonacci(a, b)
    n = a.n
    walks = [_windows(m) for m in (a, b)]
    labels = [lanes for lanes, _ in walks]
    marks = [_marks(lanes, n) for lanes in labels]
    refined = marks[0] == marks[1] and not _moore(marks[0], n)
    if refined:
        labels = _refined_classes(walks, n, marks[0].count(1))
        marks = [_marks(classes, n) for classes in labels]
    if marks[0] == marks[1]:
        return EquivalenceReport("equivalent")
    side, x, c = next(
        (side, x, c)
        for side, own, other in (("first", labels[0], marks[1]), ("second", labels[1], marks[0]))
        for x, c in enumerate(own)
        if not other[c]
    )
    window = None if refined else int_to_state(c, n + 1)
    return EquivalenceReport("not-equivalent", int_to_state(x, n), side, window)


def _against_fibonacci(a: Nlfsr, b: Nlfsr) -> EquivalenceReport:
    """``output_set_equivalent`` when a or b is Fibonacci, from one walk
    of the other, g (b when both are).

    A Fibonacci register's state is its own first n output bits, so its
    window from state p is p then top(p): the graph of its top feedback,
    which always passes ``_moore``.  Bit y of the column d is set where
    g's window from y breaks that recurrence, so is no Fibonacci window.
    The Fibonacci side's smallest unmatched state is the smallest prefix
    p that g never emits with a window that follows the recurrence, and
    g's is the lowest set bit of d.  When g's prefix map P is triangular
    (``_triangular``), it is a bijection, so p is unmatched exactly where
    d is set at P^-1(p), and ``_smallest_prefix`` finds the smallest from
    the walk's columns.  Otherwise g's n-bit prefixes are marked with d's
    bit on top, so marks[p] for p < 2^n means g emits the Fibonacci window
    from p, and the smallest unmarked p is the one.  With neither, every
    stream of g follows the recurrence from its prefix and every prefix
    starts one, so the registers are equivalent.
    """
    if a.is_fibonacci():
        fib, g, fib_side, g_side = a, b, "first", "second"
    else:
        fib, g, fib_side, g_side = b, a, "second", "first"
    n = g.n
    top = fib.feedbacks[-1]
    start, ones = state_space(n)
    outputs, _ = walk_columns(g, n + 1, start, ones)
    d = outputs[n] ^ top.evaluate(outputs[:n], ones)
    if _triangular(outputs[:n], ones):
        p = _smallest_prefix(outputs[:n], d)
    else:
        p = _marks(transpose(outputs[:n] + [d], n), n).find(0, 0, 1 << n)
    unmatched = {}  # side: (state, window)
    if p >= 0:
        unmatched[fib_side] = p, p | top.evaluate(int_to_state(p, n)) << n
    if d:
        y = (d & -d).bit_length() - 1
        window = sum((column >> y & 1) << t for t, column in enumerate(outputs))
        unmatched[g_side] = y, window
    if not unmatched:
        return EquivalenceReport("equivalent")
    side = "first" if "first" in unmatched else "second"
    x, window = unmatched[side]
    return EquivalenceReport("not-equivalent", int_to_state(x, n), side, int_to_state(window, n + 1))


def _triangular(outputs: list[int], ones: int) -> bool:
    """Whether output t of every state is x_t plus a function of x_0..x_{t-1}.

    Adding 2^t to x flips bit t and keeps the bits below it, so this holds
    exactly when column t differs between lanes x and x + 2^t for every
    x < 2^n - 2^t.  The prefix map is then triangular, so a bijection.
    """
    for t, column in enumerate(outputs):
        low = ones >> (1 << t)
        if (column ^ column >> (1 << t)) & low != low:
            return False
    return True


def _smallest_prefix(outputs: list[int], lanes: int) -> int:
    """The smallest n-bit output prefix over the set bits of lanes, or -1
    when none is set: from the top bit down, keep the lanes whose output
    t is 0 if any are left, and else set bit t of the prefix."""
    if not lanes:
        return -1
    p = 0
    for t in reversed(range(len(outputs))):
        zero = lanes & ~outputs[t]
        if zero:
            lanes = zero
        else:
            p |= 1 << t
    return p


@dataclass(frozen=True)
class PeriodCensus:
    """Cycle structure of a register's step function over all 2^n states.

    cycles maps each occurring cycle length to the number of states lying
    on cycles of that length; tail_states counts states not on any cycle
    (possible only when the update is not a bijection).  cycles is a
    read-only copy of the mapping given.
    """

    n: int
    cycles: Mapping[int, int] = field(hash=False)
    tail_states: int

    def __post_init__(self):
        object.__setattr__(self, "cycles", MappingProxyType(dict(self.cycles)))

    def __reduce__(self):
        # a mappingproxy does not pickle, so rebuild from a plain dict
        return PeriodCensus, (self.n, dict(self.cycles), self.tail_states)

    @property
    def period(self) -> int:
        return max(self.cycles)

    @property
    def total(self) -> int:
        return sum(self.cycles.values()) + self.tail_states

    def __str__(self) -> str:
        parts = [f"{length}: {count}" for length, count in sorted(self.cycles.items(), reverse=True)]
        if self.tail_states:
            parts.append(f"tails: {self.tail_states}")
        return ", ".join(parts)


def period_census(m: Nlfsr) -> PeriodCensus:
    """Partition all states into cycles and tails by walking the successor graph.

    ``_closed_walks`` walks the table as a bijection, in which every walk
    closes a cycle.  If one walk does not close, the update is not a
    bijection, and ``_tail_walks`` walks the same table again, splitting
    each walk into its tail and the cycle it closes, if any.
    """
    succ = successor_table(m)
    cycles = _closed_walks(succ)
    if cycles is None:
        return PeriodCensus(m.n, *_tail_walks(succ))
    return PeriodCensus(m.n, cycles, 0)


def step_is_bijection(m: Nlfsr) -> bool:
    """Whether the update permutes the state space (no two states collide).

    A map of a finite set to itself is a permutation exactly when every
    element lies on a cycle, so when every walk of ``_closed_walks``
    closes; it stops at the first walk that does not.
    """
    return _closed_walks(successor_table(m)) is not None


#: Steps a census walk takes between looks at whether it has met a seen
#: state.  CPython caches the ints up to 256, so counting these steps
#: allocates nothing.
_CHECK_STEPS = 256


def _closed_walks(succ: memoryview) -> dict[int, int] | None:
    """The cycles of a successor table, as ``PeriodCensus.cycles``, when
    every state lies on one; otherwise None.

    Each walk starts from the lowest unseen state and marks the states it
    steps from until it is back at its start.  While every walk closes,
    the seen states are whole cycles, so in a bijection a walk meets no
    seen state before its start, and it is stepped ``_CHECK_STEPS`` times
    between looks at its marks.  A walk that meets a seen state other
    than its start has reached a state with two predecessors, or one of
    an earlier cycle, and from there it only steps between seen states
    and never reaches its start, so the next look ends it with None.
    """
    seen = bytearray(len(succ))
    cycles: dict[int, int] = {}
    start = seen.find(0)
    while start >= 0:
        x = start
        length = 0
        while not seen[x]:
            for step in range(1, _CHECK_STEPS + 1):
                seen[x] = 1
                x = succ[x]
                if x == start:
                    break
            length += step
        if x != start:
            return None
        cycles[length] = cycles.get(length, 0) + length
        start = seen.find(0, start)
    return cycles


def _tail_walks(succ: memoryview) -> tuple[dict[int, int], int]:
    """The cycles of any successor table and the number of its tail states.

    Each walk runs from the next unseen state, marking states, until it
    meets a seen one, x.  A re-walk from the start, at most as long as
    the walk, finds x if the walk met itself there: the states before x
    are tail and the rest closed a new cycle (all of them when x is the
    start).  If the re-walk never meets x, the walk ran into an earlier
    one and is all tail.
    """
    seen = bytearray(len(succ))
    cycles: dict[int, int] = {}
    tail_states = 0
    start = seen.find(0)
    while start >= 0:
        x = start
        steps = 0
        while not seen[x]:
            seen[x] = 1
            x = succ[x]
            steps += 1
        y = start
        cut = 0
        while cut < steps and y != x:
            y = succ[y]
            cut += 1
        if cut < steps:
            length = steps - cut
            cycles[length] = cycles.get(length, 0) + length
        tail_states += cut
        start = seen.find(0, start)
    return cycles, tail_states
