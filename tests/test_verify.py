import random

import pytest
from hypothesis import given, strategies as st

from nlfsr import register, samples, verify
from nlfsr.anf import Anf, Monomial
from nlfsr.generate import random_lowering
from nlfsr.register import (
    EXHAUSTIVE_LIMIT,
    ExhaustiveLimitError,
    Nlfsr,
    format_state,
    int_to_state,
    parse_state,
    state_to_int,
    successor_table,
)
from nlfsr.statemap import build_correction
from nlfsr.verify import (
    EquivalenceReport,
    PeriodCensus,
    brute_force_match,
    output_classes,
    output_set_equivalent,
    period_census,
    step_is_bijection,
)
from strategies import polys, registers

A, B, F = samples.GALOIS_A, samples.GALOIS_B, samples.FIBONACCI


@st.composite
def register_pairs(draw) -> tuple[Nlfsr, Nlfsr]:
    """Two registers of one size with arbitrary feedbacks (non-bijective
    updates allowed); the second redraws any subset of the first's
    feedbacks, from none (the same register) to all (an unrelated one)."""
    a = draw(registers(max_n=6))
    redrawn = list(a.feedbacks)
    for i in draw(st.sets(st.integers(0, a.n - 1))):
        redrawn[i] = draw(polys(a.n))
    return a, Nlfsr(redrawn)


class TestOutputClasses:
    @given(register_pairs())
    def test_equal_labels_exactly_when_streams_agree(self, pair):
        # the two registers together have 2^(n+1) states, so any two
        # streams that differ do so within their first 2^(n+1) bits
        a, b = pair
        size = 1 << a.n
        length = 2 * size
        sa = [a.output_sequence(int_to_state(x, a.n), length) for x in range(size)]
        sb = [b.output_sequence(int_to_state(y, b.n), length) for y in range(size)]
        ca, cb = output_classes(a, b)
        for x in range(size):
            for y in range(size):
                assert (ca[x] == cb[y]) == (sa[x] == sb[y])
                assert (ca[x] == ca[y]) == (sa[x] == sa[y])
                assert (cb[x] == cb[y]) == (sb[x] == sb[y])

    def test_size_mismatch(self):
        two = Nlfsr.parse("n = 2\nf1 = x0\nf0 = x1")
        with pytest.raises(ValueError, match="different sizes"):
            output_classes(A, two)

    def test_windows_short_of_exact_fall_back_to_doubling(self, monkeypatch):
        # bits 1-6 count, x_k' = x_k + x_1*...*x_{k-1}, and bit 0 emits 1
        # one step after the count reaches 63: the stream fixes x0 and the
        # count, 128 classes, but a 7- or 8-bit window sees only x0 and
        # where the 1 falls when it falls inside the window
        n = 7
        counter = [Anf([Monomial((k,)), Monomial(range(1, k))]) for k in range(1, n)]
        m = Nlfsr([Anf([Monomial(range(1, n))]), *counter])
        streams = [tuple(m.output_sequence(int_to_state(x, n), 2 << n)) for x in range(1 << n)]
        assert len({s[:n] for s in streams}) == 14
        assert len({s[: n + 1] for s in streams}) == 16
        assert len(set(streams)) == 128
        transposed = []

        def counting(columns, n):
            transposed.append(len(columns))
            return register.transpose(columns, n)

        monkeypatch.setattr(verify, "transpose", counting)
        ca, cb = output_classes(m, m)
        assert transposed == [n + 1, n + 1, n, n]  # the windows, then the jump
        for x in range(1 << n):
            for y in range(1 << n):
                assert (ca[x] == cb[y]) == (streams[x] == streams[y])
                assert (ca[x] == ca[y]) == (streams[x] == streams[y])


class TestBruteForceMatch:
    def test_finds_the_published_matching_state(self):
        got = brute_force_match(F, B, parse_state("0001"))
        assert format_state(got) == "0101"

    def test_register_matches_itself(self):
        for x in range(16):
            s = int_to_state(x, 4)
            r = brute_force_match(F, F, s)
            assert F.output_sequence(r, 20) == F.output_sequence(s, 20)

    def test_oracle_agrees_with_the_correction_formula(self):
        # scanned independently over all 16 states, then compared with the
        # algebraic mapping in the output-equality sense
        s = parse_state("0111")
        oracle = brute_force_match(F, A, s)
        assert F.output_sequence(s, 20) == A.output_sequence(oracle, 20)
        formula = build_correction(A).apply(s)
        assert A.output_sequence(oracle, 20) == A.output_sequence(formula, 20)
        # on this 15-cycle the phase pins the state itself
        assert format_state(oracle) == "0111"

    def test_no_match_returns_none(self):
        assert brute_force_match(F, samples.ROTATION, parse_state("0001")) is None

    def test_rotation_states_match_only_themselves(self):
        # a pure rotation emits its own state cyclically, so its output
        # stream pins the state exactly
        got = brute_force_match(samples.ROTATION, samples.ROTATION, parse_state("1010"))
        assert state_to_int(got) == 0b1010

    def test_smallest_match_wins(self):
        # bit 0 of this degenerate register is stuck at zero, so states
        # 00 and 10 emit identical streams; the scan returns the smaller
        m = Nlfsr.parse("n = 2\nf1 = x0\nf0 = 0")
        got = brute_force_match(m, m, parse_state("10"))
        assert state_to_int(got) == 0

    def test_size_mismatch(self):
        two = Nlfsr.parse("n = 2\nf1 = x0\nf0 = x1")
        with pytest.raises(ValueError):
            brute_force_match(A, two, parse_state("0001"))


class TestOutputSetEquivalence:
    @given(register_pairs())
    def test_agrees_with_output_prefixes(self, pair):
        # streams that differ do so within their first 2^(n+1) bits
        a, b = pair
        n = a.n
        size = 1 << n
        sa = [tuple(a.output_sequence(int_to_state(x, n), 2 * size)) for x in range(size)]
        sb = [tuple(b.output_sequence(int_to_state(y, n), 2 * size)) for y in range(size)]
        report = output_set_equivalent(a, b)
        if set(sa) == set(sb):
            assert report == EquivalenceReport("equivalent")
            return
        # the smallest state of the first register whose (n+1)-bit window
        # the second never emits, else the smallest such of the second
        wa, wb = ({s[: n + 1] for s in streams} for streams in (sa, sb))
        unseen = [(x, "first", sa[x][: n + 1]) for x in range(size) if sa[x][: n + 1] not in wb]
        unseen += [(y, "second", sb[y][: n + 1]) for y in range(size) if sb[y][: n + 1] not in wa]
        if unseen:
            x, side, window = unseen[0]
            assert report == EquivalenceReport("not-equivalent", int_to_state(x, n), side, window)
        else:
            # equal window sets leave the refinement's witness: the
            # smallest state whose whole stream has no counterpart
            in_a, in_b = set(sa), set(sb)
            unmatched = [(x, "first") for x in range(size) if sa[x] not in in_b]
            unmatched += [(y, "second") for y in range(size) if sb[y] not in in_a]
            x, side = unmatched[0]
            assert report == EquivalenceReport("not-equivalent", int_to_state(x, n), side)
        # either way no state of the other side reproduces the witness's stream
        own, other = (sa, sb) if report.witness_side == "first" else (sb, sa)
        assert own[state_to_int(report.witness)] not in set(other)

    @given(register_pairs())
    def test_verdict_is_the_class_set_comparison(self, pair):
        a, b = pair
        ca, cb = output_classes(a, b)
        expected = "equivalent" if set(ca) == set(cb) else "not-equivalent"
        assert output_set_equivalent(a, b).verdict == expected

    def test_window_sets_decide_without_refinement(self, monkeypatch):
        def no_refinement(a, b):
            raise AssertionError("refined labels the window sets could decide")

        monkeypatch.setattr(verify, "output_classes", no_refinement)
        for x, y in ((A, B), (F, A), (F, F), (F, samples.ROTATION), (samples.ROTATION, F)):
            output_set_equivalent(x, y)

    def test_size_mismatch(self):
        two = Nlfsr.parse("n = 2\nf1 = x0\nf0 = x1")
        with pytest.raises(ValueError, match="different sizes"):
            output_set_equivalent(A, two)

    def test_published_trio_pairwise(self):
        assert output_set_equivalent(A, B).verdict == "equivalent"
        assert output_set_equivalent(F, A).verdict == "equivalent"
        assert output_set_equivalent(F, B).verdict == "equivalent"

    def test_reflexive(self):
        for m in (A, B, F, samples.ROTATION):
            assert output_set_equivalent(m, m).verdict == "equivalent"

    def test_rotation_not_equivalent_with_witness(self):
        report = output_set_equivalent(F, samples.ROTATION)
        assert report.verdict == "not-equivalent"
        assert report.witness is not None
        # the witness really has no counterpart
        side = F if report.witness_side == "first" else samples.ROTATION
        other = samples.ROTATION if report.witness_side == "first" else F
        assert brute_force_match(side, other, report.witness) is None

    def test_symmetry(self):
        pairs = [(A, B), (F, samples.ROTATION), (F, A)]
        for x, y in pairs:
            assert (
                output_set_equivalent(x, y).verdict
                == output_set_equivalent(y, x).verdict
            )


class TestRefinementFallback:
    """Equal window sets that fail Moore's test leave the verdict to
    ``output_classes``; both hand-made cases are equivalent."""

    CASES = {
        "self": ("n = 3\nf2 = x0\nf1 = x1\nf0 = 1 + x1*x2",) * 2,
        "pair": (
            "n = 2\nf1 = x0 + x0*x1 + x1\nf0 = 1 + x0*x1",
            "n = 2\nf1 = x0*x1 + x1\nf0 = 1 + x0 + x0*x1",
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_verdict_agrees_with_output_prefixes(self, case, monkeypatch):
        a, b = (Nlfsr.parse(text) for text in self.CASES[case])
        n = a.n
        size = 1 << n
        sa, sb = (
            {tuple(m.output_sequence(int_to_state(x, n), 2 * size)) for x in range(size)}
            for m in (a, b)
        )
        windows = {s[: n + 1] for s in sa}
        assert windows == {s[: n + 1] for s in sb}
        # Moore's test fails: two windows differ only in their last bit
        assert len({w[:n] for w in windows}) < len(windows)
        refined = []

        def counting(a, b):
            refined.append((a, b))
            return output_classes(a, b)

        monkeypatch.setattr(verify, "output_classes", counting)
        report = output_set_equivalent(a, b)
        assert refined == [(a, b)]
        assert report.verdict == ("equivalent" if sa == sb else "not-equivalent")


def random_feedback(rng: random.Random, n: int) -> Anf:
    """A feedback of up to three terms of degree up to two; no register structure."""
    return Anf(
        Monomial(rng.sample(range(n), rng.randint(0, 2))) for _ in range(rng.randint(0, 3))
    )


def census_reference(m: Nlfsr) -> tuple[dict[int, int], int]:
    """Cycles and tail count state by state from step_packed.  A state is
    on a cycle exactly when it survives repeated images of the whole
    state space, and its cycle length is how far it steps to come back."""
    succ = [m.step_packed(x) for x in range(1 << m.n)]
    on_cycle = set(range(len(succ)))
    image = {succ[x] for x in on_cycle}
    while image != on_cycle:
        on_cycle, image = image, {succ[x] for x in image}
    cycles: dict[int, int] = {}
    for x in on_cycle:
        y, length = succ[x], 1
        while y != x:
            y, length = succ[y], length + 1
        cycles[length] = cycles.get(length, 0) + 1
    return cycles, len(succ) - len(on_cycle)


class TestPeriodCensus:
    @given(registers(max_n=10))
    def test_equals_the_per_state_reference(self, m):
        census = period_census(m)
        assert (census.cycles, census.tail_states) == census_reference(m)

    @given(registers(max_n=10))
    def test_bijection_exactly_when_no_two_states_collide(self, m):
        size = 1 << m.n
        assert step_is_bijection(m) == (len({m.step_packed(x) for x in range(size)}) == size)

    # One register for each way a walk can end.  Walks start from the
    # smallest unseen state, so the successor lists fix every walk.
    def test_walk_ends_on_its_own_start(self):
        # succ = [0, 4, 1, 5, 2, 6, 3, 7]: 0, then 1 -> 4 -> 2 -> 1, then 3 -> 5 -> 6 -> 3
        m = Nlfsr.parse("n = 3\nf2 = x0\nf1 = x2\nf0 = x1")
        census = period_census(m)
        assert (census.cycles, census.tail_states) == ({1: 2, 3: 6}, 0)

    def test_walk_meets_itself_part_way(self):
        # succ = [1, 2, 1, 3]: the walk 0 -> 1 -> 2 -> 1 is a tail of one
        # state into a 2-cycle; then 3 -> 3
        m = Nlfsr.parse("n = 2\nf1 = x0\nf0 = 1 + x0 + x0*x1")
        census = period_census(m)
        assert (census.cycles, census.tail_states) == ({2: 2, 1: 1}, 1)

    def test_walk_runs_into_an_earlier_walk(self):
        # succ = 2x mod 8: 0 -> 0, then 1 -> 2 -> 4 -> 0, 3 -> 6 -> 4,
        # 5 -> 2 and 7 -> 6 each run into an earlier walk
        m = Nlfsr.parse("n = 3\nf2 = x1\nf1 = x0\nf0 = 0")
        census = period_census(m)
        assert (census.cycles, census.tail_states) == ({1: 1}, 7)

    def test_trio_census(self):
        for m in (A, B, F):
            census = period_census(m)
            assert census.cycles == {15: 15, 1: 1}
            assert census.tail_states == 0
            assert census.period == 15

    def test_two_bit_swap(self):
        census = period_census(Nlfsr.parse("n = 2\nf1 = x0\nf0 = x1"))
        assert census.cycles == {1: 2, 2: 2}

    def test_rotation_census(self):
        census = period_census(samples.ROTATION)
        assert census.cycles == {1: 2, 2: 2, 4: 12}

    def test_totals_cover_the_state_space(self):
        rng = random.Random(19)
        registers = [A, B, F, samples.ROTATION]
        for _ in range(10):
            _, _, g, _ = random_lowering(rng, rng.randint(4, 7))
            registers.append(g)
        for m in registers:
            census = period_census(m)
            assert census.total == 1 << m.n

    def test_tails_reported_separately(self):
        m = Nlfsr.parse("n = 2\nf1 = x0*x1\nf0 = x1")
        census = period_census(m)
        assert census.tail_states == 2
        assert census.cycles == {1: 2}
        assert not step_is_bijection(m)
        # random registers with tails, against the per-state reference
        rng = random.Random(31)
        checked = 0
        while checked < 25:
            n = rng.randint(2, 7)
            m = Nlfsr(random_feedback(rng, n) for _ in range(n))
            cycles, tails = census_reference(m)
            if not tails:
                continue
            census = period_census(m)
            assert (census.cycles, census.tail_states) == (cycles, tails)
            assert census.period == max(cycles)
            assert not step_is_bijection(m)
            checked += 1

    def test_uniform_registers_are_bijective_with_no_tails(self):
        rng = random.Random(29)
        for _ in range(15):
            _, _, g, _ = random_lowering(rng, rng.randint(4, 8))
            assert step_is_bijection(g)
            assert period_census(g).tail_states == 0

    def test_text_form(self):
        assert str(period_census(A)) == "15: 15, 1: 1"
        assert "tails: 2" in str(period_census(Nlfsr.parse("n = 2\nf1 = x0*x1\nf0 = x1")))

    def test_cycles_are_read_only(self):
        cycles = {15: 15, 1: 1}
        census = PeriodCensus(4, cycles, 0)
        with pytest.raises(TypeError):
            period_census(A).cycles[99] = 1
        with pytest.raises(TypeError):
            census.cycles[99] = 1
        # nor does the caller's dict reach into the census
        cycles[99] = 1
        assert census.total == 16


# Every whole-state-space entry point, called on a register above
# EXHAUSTIVE_LIMIT.  Each must refuse before it steps a single state.
LIMIT_GUARDED = {
    "successor_table": successor_table,
    "period_census": period_census,
    "step_is_bijection": step_is_bijection,
    "output_classes": lambda m: output_classes(m, m),
    "output_set_equivalent": lambda m: output_set_equivalent(m, m),
    "brute_force_match": lambda m: brute_force_match(m, m, (0,) * m.n),
}


@pytest.mark.parametrize("name", LIMIT_GUARDED)
def test_limit_refused_before_any_step(name, monkeypatch):
    # every entry point builds state-space columns through walk_columns
    # and none steps states one by one; both are made to fail, so a limit
    # check that comes after either is caught
    def no_stepping(self, x):
        raise AssertionError("stepped a state before the limit check")

    def no_columns(n):
        raise AssertionError("built table columns before the limit check")

    monkeypatch.setattr(Nlfsr, "step_packed", no_stepping)
    monkeypatch.setattr(register, "_columns", no_columns)
    # just above the cap, and above the 32 bits a 4-byte lane could hold
    for n in (EXHAUSTIVE_LIMIT + 1, 33):
        with pytest.raises(ExhaustiveLimitError, match=f"capped at {EXHAUSTIVE_LIMIT}"):
            LIMIT_GUARDED[name](Nlfsr.fibonacci(n, Anf.var(0)))
