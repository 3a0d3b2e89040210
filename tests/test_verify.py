import random

import pytest
from hypothesis import given, settings, strategies as st

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
    state_space,
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
from strategies import (
    COUNTERS,
    edge_register,
    fibonacci_registers,
    polys,
    profiles,
    reference_step,
    registers,
    sized_registers,
    streams,
)

A, B, F = samples.GALOIS_A, samples.GALOIS_B, samples.FIBONACCI
# each bit copies another, so the outputs are x0, x2, x1, x0, ...: the
# prefix map is a bijection that is not triangular, and the stream set
# is the 3-bit rotation's
SWAPPED = Nlfsr.parse("n = 3\nf2 = x1\nf1 = x0\nf0 = x2")
ROTATION_3 = Nlfsr.fibonacci(3, Anf.var(0))


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


@st.composite
def fibonacci_pairs(draw) -> tuple[Nlfsr, Nlfsr]:
    """A Fibonacci register and a register of its size, in either order.
    The other is a profile's register, an arbitrary register or a second
    Fibonacci register; the Fibonacci register has any top feedback or is
    the profile's own source, to which the profile's register is equivalent."""
    profile = draw(profiles(max_n=6))
    n = profile.n
    fib = draw(st.one_of(fibonacci_registers(n), st.just(profile.fibonacci())))
    other = draw(st.one_of(st.just(profile.register()), sized_registers(n), fibonacci_registers(n)))
    return (fib, other) if draw(st.booleans()) else (other, fib)


class TestOutputClasses:
    @given(register_pairs())
    def test_equal_labels_exactly_when_streams_agree(self, pair):
        # the two registers together have 2^(n+1) states, so any two
        # streams that differ do so within their first 2^(n+1) bits
        a, b = pair
        size = 1 << a.n
        sa, sb = streams(a, 2 * size), streams(b, 2 * size)
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

    def test_windows_short_of_exact_fall_back_to_doubling(self, record_calls):
        # bits 1-6 count, x_k' = x_k + x_1*...*x_{k-1}, and bit 0 emits 1
        # one step after the count reaches 63: the stream fixes x0 and the
        # count, 128 classes, but a 7- or 8-bit window sees only x0 and
        # where the 1 falls when it falls inside the window
        n = 7
        counter = [Anf([Monomial((k,)), Monomial(range(1, k))]) for k in range(1, n)]
        m = Nlfsr([Anf([Monomial(range(1, n))]), *counter])
        sm = streams(m, 2 << n)
        assert len({s[:n] for s in sm}) == 14
        assert len({s[: n + 1] for s in sm}) == 16
        assert len(set(sm)) == 128
        transposed = record_calls(verify, "transpose")
        ca, cb = output_classes(m, m)
        # the windows, then the jump
        assert [len(columns) for (columns, _), _ in transposed] == [n + 1, n + 1, n, n]
        for x in range(1 << n):
            for y in range(1 << n):
                assert (ca[x] == cb[y]) == (sm[x] == sm[y])
                assert (ca[x] == ca[y]) == (sm[x] == sm[y])


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
        with pytest.raises(ValueError, match="different sizes"):
            brute_force_match(A, two, parse_state("0001"))


class TestOutputSetEquivalence:
    @settings(max_examples=200)
    @given(st.one_of(register_pairs(), fibonacci_pairs()))
    def test_agrees_with_output_prefixes(self, pair):
        # streams that differ do so within their first 2^(n+1) bits
        a, b = pair
        n = a.n
        size = 1 << n
        sa, sb = streams(a, 2 * size), streams(b, 2 * size)
        report = output_set_equivalent(a, b)
        if set(sa) == set(sb):
            assert report == EquivalenceReport("equivalent")
            return
        # the smallest state of the first register whose (n+1)-bit window
        # the second never emits, else the smallest such of the second
        wa, wb = ({s[: n + 1] for s in side} for side in (sa, sb))
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

    @settings(max_examples=200)
    @given(st.one_of(register_pairs(), fibonacci_pairs()))
    def test_verdict_is_the_class_set_comparison(self, pair):
        a, b = pair
        ca, cb = output_classes(a, b)
        expected = "equivalent" if set(ca) == set(cb) else "not-equivalent"
        assert output_set_equivalent(a, b).verdict == expected

    def test_window_sets_decide_without_refinement(self, monkeypatch):
        def no_refinement(walks, n, count):
            raise AssertionError("refined labels the window sets could decide")

        monkeypatch.setattr(verify, "_refined_classes", no_refinement)
        for x, y in ((A, B), (F, A), (F, F), (F, samples.ROTATION), (samples.ROTATION, F)):
            output_set_equivalent(x, y)

    @pytest.mark.parametrize(
        "a, b, walked, marked",
        [
            (F, A, A, 0),
            (A, F, A, 0),
            (F, samples.ROTATION, samples.ROTATION, 0),
            (ROTATION_3, SWAPPED, SWAPPED, 1),
        ],
        ids=["F-A", "A-F", "F-ROTATION", "ROTATION-SWAPPED"],
    )
    def test_one_walk_against_a_fibonacci_register(self, a, b, walked, marked, record_calls):
        # a Fibonacci register's windows are the graph of its top feedback,
        # so only the other register (the second when both are Fibonacci)
        # is walked, and Moore's test never runs; its output prefixes are
        # transposed and marked only when they are not triangular in the state
        names = ("walk_columns", "transpose", "_marks", "_moore", "_refined_classes")
        calls = {name: record_calls(verify, name) for name in names}
        output_set_equivalent(a, b)
        assert [args[0] for args, _ in calls["walk_columns"]] == [walked]
        assert [len(calls[name]) for name in names[1:]] == [marked, marked, 0, 0]

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


def window_reference(wa: list[tuple[int, ...]], wb: list[tuple[int, ...]]) -> EquivalenceReport:
    """The report on a pair with a Fibonacci side, read off the (n+1)-bit
    windows ``streams(m, n + 1)`` of the first and second register.

    A Fibonacci register's windows are the graph of its top feedback, so
    they pass Moore's test and equal window sets mean equal stream sets:
    the windows alone decide the verdict and the witness.
    """
    n = len(wa).bit_length() - 1
    in_a, in_b = set(wa), set(wb)
    unseen = [(x, "first", w) for x, w in enumerate(wa) if w not in in_b]
    unseen += [(y, "second", w) for y, w in enumerate(wb) if w not in in_a]
    if not unseen:
        return EquivalenceReport("equivalent")
    x, side, window = unseen[0]
    return EquivalenceReport("not-equivalent", int_to_state(x, n), side, window)


class TestFibonacciSide:
    @pytest.mark.parametrize("top", ["x0", "x0 + x1*x2", "1 + x0 + x2"])
    def test_prefix_bijection_not_triangular(self, top):
        # SWAPPED's prefix map (x0, x2, x1) is a bijection, but output 1
        # reads x2, so its prefixes are transposed and marked
        fib = Nlfsr.fibonacci(3, Anf.parse(top))
        wf, ws = streams(fib, 4), streams(SWAPPED, 4)
        assert output_set_equivalent(fib, SWAPPED) == window_reference(wf, ws)
        assert output_set_equivalent(SWAPPED, fib) == window_reference(ws, wf)

    @pytest.mark.parametrize("n", range(8, 13))
    def test_lowerings_above_hypothesis_sizes(self, n):
        # a Galois form read off a profile is triangular, so the smallest
        # unmatched prefix of a source it does not match, put first, comes
        # from the bit-sliced minimum; toggling x1 + x2 leaves unmatched
        # prefixes whose least (2) is not the least read from bit 0 up (4)
        fib, _, galois, _ = random_lowering(random.Random(n), n)
        sources = [fib] + [Nlfsr.fibonacci(n, fib.feedbacks[-1] ^ Anf.parse(t)) for t in ("x1*x2", "x1 + x2")]
        wg = streams(galois, n + 1)
        for source in sources:
            ws = streams(source, n + 1)
            assert output_set_equivalent(source, galois) == window_reference(ws, wg)
            assert output_set_equivalent(galois, source) == window_reference(wg, ws)


class TestRefinementFallback:
    """Equal window sets that fail Moore's test leave the verdict to
    ``output_classes``; the self and pair cases are equivalent, the
    counters are not."""

    CASES = {
        "self": ("n = 3\nf2 = x0\nf1 = x1\nf0 = 1 + x1*x2",) * 2,
        "pair": (
            "n = 2\nf1 = x0 + x0*x1 + x1\nf0 = 1 + x0*x1",
            "n = 2\nf1 = x0*x1 + x1\nf0 = 1 + x0 + x0*x1",
        ),
        "counters": COUNTERS,
    }

    @pytest.mark.parametrize("case", CASES)
    def test_verdict_agrees_with_output_prefixes(self, case, record_calls):
        a, b = (Nlfsr.parse(text) for text in self.CASES[case])
        n = a.n
        size = 1 << n
        # streams that differ do so within their first 2^(n+1) bits
        sa, sb = streams(a, 2 * size), streams(b, 2 * size)
        windows = {s[: n + 1] for s in sa}
        assert windows == {s[: n + 1] for s in sb}
        # Moore's test fails: two windows differ only in their last bit
        assert len({w[:n] for w in windows}) < len(windows)
        exact = output_classes(a, b)
        refined = record_calls(verify, "_refined_classes")
        report = output_set_equivalent(a, b)
        # refined once, into the exact labels of the pair
        assert [labels for _, labels in refined] == [exact]
        in_a, in_b = set(sa), set(sb)
        if in_a == in_b:
            assert report == EquivalenceReport("equivalent")
            return
        # the smallest state of the first register whose stream the
        # second never emits, else the smallest such of the second
        unmatched = [(x, "first") for x in range(size) if sa[x] not in in_b]
        unmatched += [(y, "second") for y in range(size) if sb[y] not in in_a]
        x, side = unmatched[0]
        assert report == EquivalenceReport("not-equivalent", int_to_state(x, n), side)

    @pytest.mark.parametrize("case", CASES)
    def test_refinement_reuses_the_walks(self, case, record_calls):
        # the fallback refines the two walks that settled the window sets
        a, b = (Nlfsr.parse(text) for text in self.CASES[case])
        walked = record_calls(verify, "walk_columns")
        output_set_equivalent(a, b)
        assert [args[0] for args, _ in walked] == [a, b]


def random_feedback(rng: random.Random, n: int) -> Anf:
    """A feedback of up to three terms of degree up to two; no register structure."""
    return Anf(
        Monomial(rng.sample(range(n), rng.randint(0, 2))) for _ in range(rng.randint(0, 3))
    )


def census_reference(m: Nlfsr) -> tuple[dict[int, int], int]:
    """Cycles and tail count state by state from reference_step.  A state
    is on a cycle exactly when it survives repeated images of the whole
    state space, and its cycle length is how far it steps to come back."""
    succ = [reference_step(m, x) for x in range(1 << m.n)]
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
        assert step_is_bijection(m) == (len({reference_step(m, x) for x in range(size)}) == size)

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

    def test_walks_close_cycles_below_the_lowest_tail_state(self):
        # succ = [0, 8, 1, 9, 2, 2, 3, 3, 4, 12, 5, 13, 6, 6, 7, 7]: 0, then
        # 1 -> 8 -> 4 -> 2 -> 1 and 3 -> 9 -> 12 -> 6 -> 3 close before 5 -> 2
        # runs into an earlier walk, so the census walks the table again
        m = Nlfsr.fibonacci(4, Anf.parse("x0 + x0*x2"))
        census = period_census(m)
        assert (census.cycles, census.tail_states) == census_reference(m) == ({1: 1, 4: 8}, 7)
        assert not step_is_bijection(m)

    @pytest.mark.parametrize("n", [10, 11, 12])
    def test_non_bijective_walks_past_the_check_interval(self, n):
        # edge_register's walk from 1 runs into the cycle of 0 at once; the
        # Fibonacci register's top ignores x0, so x and x + 1 share a
        # successor, and its walk from 0 meets itself only after more than
        # _CHECK_STEPS states
        fib = Nlfsr.fibonacci(n, Anf.parse("1 + x1 + x2*x5"))
        walk, x = set(), 0
        while x not in walk:
            walk.add(x)
            x = reference_step(fib, x)
        assert x != 0 and len(walk) > verify._CHECK_STEPS
        for m in (edge_register(n), fib):
            census = period_census(m)
            assert (census.cycles, census.tail_states) == census_reference(m)
            assert not step_is_bijection(m)

    @given(registers(max_n=8), st.integers(1, 5))
    def test_any_check_interval(self, m, steps):
        # short intervals put the looks at every point of short walks
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verify, "_CHECK_STEPS", steps)
            census = period_census(m)
            bijection = step_is_bijection(m)
        assert (census.cycles, census.tail_states) == census_reference(m)
        assert bijection == (census.tail_states == 0)

    def test_only_a_census_with_tails_splits_them(self, record_calls):
        split = record_calls(verify, "_tail_walks")
        fib, _, galois, _ = random_lowering(random.Random(5), 12)
        assert period_census(fib) == period_census(galois)
        assert step_is_bijection(galois)
        assert not step_is_bijection(edge_register(9))
        assert split == []
        assert period_census(edge_register(9)).tail_states > 0
        assert len(split) == 1

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

    def test_sliced_table_census_of_a_lowering_pair(self):
        # at n = 17 the successor table is built from four slices
        fib, _, galois, _ = random_lowering(random.Random(1), 17)
        census = period_census(galois)
        assert census == period_census(fib)
        assert census.total == 1 << 17

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

    def test_equal_censuses_hash_equal(self):
        censuses = [period_census(m) for m in (A, B, F)]
        assert censuses[0] == censuses[1] == censuses[2]
        assert len(set(censuses)) == 1
        # cycles takes no part in the hash but still in equality
        assert PeriodCensus(4, {15: 15, 1: 1}, 0) != PeriodCensus(4, {8: 16}, 0)


# Every whole-state-space entry point, called on a register above
# EXHAUSTIVE_LIMIT.  Each must refuse before it steps a single state.
LIMIT_GUARDED = {
    "state_space": lambda m: state_space(m.n),
    "successor_table": successor_table,
    "period_census": period_census,
    "step_is_bijection": step_is_bijection,
    "output_classes": lambda m: output_classes(m, m),
    "output_set_equivalent": lambda m: output_set_equivalent(m, m),
    "brute_force_match": lambda m: brute_force_match(m, m, (0,) * m.n),
}


@pytest.mark.parametrize("name", LIMIT_GUARDED)
def test_limit_refused_before_any_step(name, monkeypatch):
    # every entry point builds its start columns with register._tile and
    # none steps states one by one; both are made to fail, so a limit
    # check that comes after either is caught
    def no_stepping(self, x):
        raise AssertionError("stepped a state before the limit check")

    def no_columns(word, width, size):
        raise AssertionError("built columns before the limit check")

    monkeypatch.setattr(Nlfsr, "step_packed", no_stepping)
    monkeypatch.setattr(register, "_tile", no_columns)
    # just above the cap, and above the 32 bits a 4-byte lane could hold
    for n in (EXHAUSTIVE_LIMIT + 1, 33):
        with pytest.raises(ExhaustiveLimitError, match=f"capped at {EXHAUSTIVE_LIMIT}"):
            LIMIT_GUARDED[name](Nlfsr.fibonacci(n, Anf.var(0)))


def test_whole_space_scans_run_at_the_cap():
    # the cap is inclusive: at n = EXHAUSTIVE_LIMIT every start is built
    # and walked, on a lowering whose answers the construction gives
    n = EXHAUSTIVE_LIMIT
    fib, _, galois, _ = random_lowering(random.Random(1), n)
    toggled = Nlfsr.fibonacci(n, fib.feedbacks[-1] ^ Anf([Monomial((1, 2))]))
    assert output_set_equivalent(fib, galois) == EquivalenceReport("equivalent")
    assert output_set_equivalent(galois, toggled).verdict == "not-equivalent"
    # neither side is Fibonacci, so both registers are walked and marked
    assert output_set_equivalent(galois, galois) == EquivalenceReport("equivalent")
    census = period_census(galois)
    assert census.total == 1 << n
    assert census.tail_states == 0
