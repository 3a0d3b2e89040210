"""Ground-truth oracles: exhaustive simulation over whole state spaces.

These checks never use the algebraic machinery they are meant to judge.
One bit-sliced walk per register steps all 2^n states n + 1 times at
once and gives each state its (n+1)-bit output window.  Equivalence is
decided from the two sets of windows.  A window that one register emits
and the other never does starts no stream of the other, so the registers
are not equivalent.  Equal sets that pass Moore's test (no two windows
differ only in their last bit) are the exact output classes, so the
registers are equivalent.  Only equal sets that fail it are refined into
exact classes, by pointer doubling from the (n+1)-step jump the same
walk ends on.  Cycle structure, and with it whether the update is a
bijection, is decided by one walk over the full successor graph.

Everything is a pure function of immutable registers; scans over initial
states can be partitioned freely and merged by min/union/sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Literal, Mapping, Sequence

from .register import (
    Nlfsr,
    State,
    check_state,
    int_to_state,
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
    outputs, state = walk_columns(m, m.n + 1)
    return transpose(outputs, m.n), state


def output_classes(a: Nlfsr, b: Nlfsr) -> tuple[list[int], list[int]]:
    """Label every state of two registers so that equal labels mean equal outputs.

    Entry x of each list labels packed state x; two states, of the same
    register or not, get the same label exactly when they emit the same
    infinite output stream.

    ``_windows`` steps each register's whole state space n + 1
    times, and each state's first label is its (n+1)-bit output window:
    bit t is its output at time t.  An n-bit window is the shortest that
    can tell 2^n states apart, and one more bit allows Moore's stop test
    (Moore 1956): if no two distinct windows, over both registers, differ
    only in their last bit, the n- and (n+1)-bit output prefixes split
    the states alike, so every longer prefix does too and the windows are
    the exact labels.  Otherwise the windows are relabelled densely and
    the states after the walk give the (n+1)-step jump.  Each round of
    pointer doubling then relabels every state of both registers by its
    own label and the label of the state one jump ahead, and squares the
    jump, so the labels stand for prefixes of 2(n+1), 4(n+1), ... bits.
    When a round adds no label, a prefix and its double split the states
    alike, and the labels are exact.
    """
    if a.n != b.n:
        raise ValueError(f"registers have different sizes {a.n} and {b.n}")
    n = a.n
    size = 1 << n
    walks = [_windows(m) for m in (a, b)]
    windows = [lanes.tolist() for lanes, _ in walks]
    distinct = set(windows[0]).union(windows[1])
    # two windows that differ only in bit n share their n-bit window
    if distinct.isdisjoint(map(size.__xor__, distinct)):
        return windows[0], windows[1]
    count = len(distinct)
    ids = dict(zip(distinct, range(count)))
    label = [ids[w] for ws in windows for w in ws]
    del ids, windows, distinct
    jump = transpose(walks[0][1], n).tolist() + [y + size for y in transpose(walks[1][1], n)]
    del walks
    while True:
        ids = {}
        label = [ids.setdefault(c * count + label[j], len(ids)) for c, j in zip(label, jump)]
        if len(ids) == count:
            return label[:size], label[size:]
        count = len(ids)
        jump = [jump[j] for j in jump]


def brute_force_match(a: Nlfsr, b: Nlfsr, state: Sequence[int]) -> State | None:
    """The smallest state of b whose output stream equals a's from ``state``.

    Returns None when no state of b reproduces that stream.
    """
    if a.n != b.n:
        raise ValueError(f"registers have different sizes {a.n} and {b.n}")
    check_state(state, a.n)
    ca, cb = output_classes(a, b)
    target = ca[state_to_int(state)]
    return int_to_state(cb.index(target), b.n) if target in cb else None


Verdict = Literal["equivalent", "not-equivalent"]


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of the exhaustive output-set comparison of two registers.

    witness is a state of one register whose output stream no state of
    the other reproduces, present exactly for the not-equivalent verdict
    (witness_side tells which register it belongs to).  When the window
    sets decide, it is the smallest state of the first register whose
    (n+1)-bit output window the second never emits, or else the smallest
    such state of the second, and window is that window: window[t] is the
    witness's output at time t.  When the refinement decides, it is the
    smallest state of the first register whose infinite output stream no
    state of the second emits, or else the smallest such state of the
    second, and window is None.
    """

    verdict: Verdict
    witness: State | None = None
    witness_side: Literal["first", "second"] | None = None
    window: State | None = None


def output_set_equivalent(a: Nlfsr, b: Nlfsr) -> EquivalenceReport:
    """Decide whether two registers generate the same set of output sequences.

    Each side's (n+1)-bit windows are marked in a bytearray indexed by
    window.  Marks that differ settle non-equivalence, with a state whose
    window is unmarked on the other side as witness.  Equal marks settle
    equivalence when no window is marked together with its copy with the
    last bit flipped, that is, when the low and high halves of the marks
    share no mark.  Otherwise ``output_classes`` labels every state
    exactly, and the registers are equivalent exactly when both sides
    carry the same set of labels.
    """
    if a.n != b.n:
        raise ValueError(f"registers have different sizes {a.n} and {b.n}")
    n = a.n
    windows = [_windows(m)[0] for m in (a, b)]
    marks = []
    for lanes in windows:
        marked = bytearray(2 << n)
        for w in lanes:
            marked[w] = 1
        marks.append(marked)
    if marks[0] != marks[1]:
        side, x, w = next(
            (side, x, w)
            for side, lanes, other in (("first", windows[0], marks[1]), ("second", windows[1], marks[0]))
            for x, w in enumerate(lanes)
            if not other[w]
        )
        return EquivalenceReport("not-equivalent", int_to_state(x, n), side, int_to_state(w, n + 1))
    half = 1 << n
    if not int.from_bytes(marks[0][:half], "little") & int.from_bytes(marks[0][half:], "little"):
        return EquivalenceReport("equivalent")
    ca, cb = output_classes(a, b)
    for side, labels, other in (("first", ca, cb), ("second", cb, ca)):
        missing = set(labels).difference(other)
        if missing:
            x = next(x for x, c in enumerate(labels) if c in missing)
            return EquivalenceReport("not-equivalent", int_to_state(x, n), side)
    return EquivalenceReport("equivalent")


@dataclass(frozen=True)
class PeriodCensus:
    """Cycle structure of a register's step function over all 2^n states.

    cycles maps each occurring cycle length to the number of states lying
    on cycles of that length; tail_states counts states not on any cycle
    (possible only when the update is not a bijection).  cycles is a
    read-only copy of the mapping given.
    """

    n: int
    cycles: Mapping[int, int]
    tail_states: int

    def __post_init__(self):
        object.__setattr__(self, "cycles", MappingProxyType(dict(self.cycles)))

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

    Each walk runs from the next unseen state, marking states, until it
    meets a seen one, x.  A re-walk from the start, at most as long as
    the walk, finds x if the walk met itself there: the states before x
    are tail and the rest closed a new cycle (all of them when x is the
    start, as in every walk of a bijection).  If the re-walk never meets
    x, the walk ran into an earlier one and is all tail.
    """
    succ = successor_table(m)
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
    return PeriodCensus(m.n, cycles, tail_states)


def step_is_bijection(m: Nlfsr) -> bool:
    """Whether the update permutes the state space (no two states collide).

    A map of a finite set to itself is a permutation exactly when every
    element lies on a cycle, so this is the census with no tail states.
    """
    return period_census(m).tail_states == 0
