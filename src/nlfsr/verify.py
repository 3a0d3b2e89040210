"""Ground-truth oracles: exhaustive simulation over whole state spaces.

These checks never use the algebraic machinery they are meant to judge.
Equivalence of two registers is decided by enumerating every initial
state of both and comparing output prefixes; cycle structure is decided
by walking the full successor graph.  Output prefixes of length 2^n + n
are used as the stand-in for "same infinite output": at that length two
states of an n-bit register lie on identically labelled orbits.

Everything is a pure function of immutable registers; scans over initial
states can be partitioned freely and merged by min/union/sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

from .register import Nlfsr, State, check_limit, int_to_state, state_to_int, successor_table


def default_prefix_len(n: int) -> int:
    return (1 << n) + n


def output_prefixes(m: Nlfsr, length: int, limit: int | None = None) -> list[int]:
    """The first ``length`` output bits from every initial state.

    Entry x is the prefix started from packed state x, packed LSB-first
    (bit t of the entry is the output at step t).  Computed for the whole
    space at once by successor-table doubling.
    """
    if length < 1:
        raise ValueError("prefix length must be positive")
    size = 1 << m.n
    jump = successor_table(m, limit)
    pref = [x & 1 for x in range(size)]
    done = 1
    while done < length:
        if done * 2 <= length:
            pref = [pref[x] | pref[jump[x]] << done for x in range(size)]
            jump = [jump[jump[x]] for x in range(size)]
            done *= 2
        else:
            take = length - done
            mask = (1 << take) - 1
            pref = [pref[x] | (pref[jump[x]] & mask) << done for x in range(size)]
            done = length
    return pref


def brute_force_match(
    a: Nlfsr,
    b: Nlfsr,
    state: Sequence[int],
    limit: int | None = None,
) -> State | None:
    """Scan all states of b for one whose output prefix matches a's from ``state``.

    States are scanned in ascending packed order and the first (smallest)
    match is returned, or None when no state of b reproduces the prefix.
    """
    if a.n != b.n:
        raise ValueError(f"registers have different sizes {a.n} and {b.n}")
    if len(state) != a.n:
        raise ValueError(f"state has {len(state)} bits, register has {a.n}")
    check_limit(a.n, limit)
    length = default_prefix_len(a.n)
    x = state_to_int(state)
    target = 0
    for t in range(length):
        target |= (x & 1) << t
        x = a.step_packed(x)
    for y, p in enumerate(output_prefixes(b, length, limit)):
        if p == target:
            return int_to_state(y, b.n)
    return None


Verdict = Literal["equivalent", "not-equivalent"]


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of the exhaustive output-set comparison of two registers.

    matching maps every packed state of the first register to the
    smallest packed state of the second with the same output prefix; it
    is present exactly when every state matched in both directions.
    witness is a state of one register whose output prefix no state of
    the other reproduces, present exactly for the not-equivalent verdict
    (witness_side tells which register it belongs to).  prefix_len is
    the compared output length, always 2^n + n.
    """

    verdict: Verdict
    prefix_len: int
    matching: dict[int, int] | None = None
    witness: State | None = None
    witness_side: Literal["first", "second"] | None = None


def output_set_equivalent(
    a: Nlfsr,
    b: Nlfsr,
    limit: int | None = None,
) -> EquivalenceReport:
    """Decide whether two registers generate the same set of output sequences.

    Every initial state of each register must have a counterpart in the
    other producing the identical output prefix; one unmatched state on
    either side settles non-equivalence with that state as witness.
    """
    if a.n != b.n:
        raise ValueError(f"registers have different sizes {a.n} and {b.n}")
    length = default_prefix_len(a.n)
    pref_a = output_prefixes(a, length, limit)
    pref_b = output_prefixes(b, length, limit)
    first_b: dict[int, int] = {}
    for y in range((1 << b.n) - 1, -1, -1):
        first_b[pref_b[y]] = y
    matching = {}
    for x, p in enumerate(pref_a):
        y = first_b.get(p)
        if y is None:
            return EquivalenceReport(
                "not-equivalent", length, witness=int_to_state(x, a.n), witness_side="first"
            )
        matching[x] = y
    seen_a = set(pref_a)
    for y, p in enumerate(pref_b):
        if p not in seen_a:
            return EquivalenceReport(
                "not-equivalent", length, witness=int_to_state(y, b.n), witness_side="second"
            )
    return EquivalenceReport("equivalent", length, matching=matching)


@dataclass(frozen=True)
class PeriodCensus:
    """Cycle structure of a register's step function over all 2^n states.

    cycles maps each occurring cycle length to the number of states lying
    on cycles of that length; tail_states counts states not on any cycle
    (possible only when the update is not a bijection).
    """

    n: int
    cycles: dict[int, int]
    tail_states: int

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


def period_census(m: Nlfsr, limit: int | None = None) -> PeriodCensus:
    """Partition all states into cycles and tails by walking the successor graph.

    Each walk runs from an unseen state until it meets a seen one.  If
    that state is on the current walk, the walk closed a new cycle there
    and the states before it are tail; otherwise the whole walk is tail.
    """
    succ = successor_table(m, limit)
    status = bytearray(len(succ))  # 0 unseen, 1 on the current walk, 2 resolved
    cycles: dict[int, int] = {}
    tail_states = 0
    for start in range(len(succ)):
        if status[start]:
            continue
        path = []
        x = start
        while not status[x]:
            status[x] = 1
            path.append(x)
            x = succ[x]
        if status[x] == 1:  # closed a new cycle at x
            cut = path.index(x)
            length = len(path) - cut
            cycles[length] = cycles.get(length, 0) + length
        else:
            cut = len(path)
        tail_states += cut
        for v in path:
            status[v] = 2
    return PeriodCensus(m.n, cycles, tail_states)


def step_is_bijection(m: Nlfsr, limit: int | None = None) -> bool:
    """Whether the update permutes the state space (no two states collide)."""
    table = successor_table(m, limit)
    return len(set(table)) == len(table)
