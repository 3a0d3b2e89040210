import random

import pytest

from nlfsr import samples
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
    brute_force_match,
    default_prefix_len,
    output_prefixes,
    output_set_equivalent,
    period_census,
    step_is_bijection,
)

A, B, F = samples.GALOIS_A, samples.GALOIS_B, samples.FIBONACCI


class TestOutputPrefixes:
    def test_matches_stepwise_simulation(self):
        for m in (A, B, F):
            for length in (1, 2, 7, 20, 33):
                table = output_prefixes(m, length)
                for x in range(16):
                    bits = m.output_sequence(int_to_state(x, 4), length)
                    assert table[x] == sum(b << t for t, b in enumerate(bits))

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            output_prefixes(A, 0)


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
        # a pure rotation emits its own state cyclically, so every output
        # prefix pins the state exactly
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
        assert report.matching is None
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

    def test_matching_covers_all_states(self):
        report = output_set_equivalent(F, B)
        assert set(report.matching) == set(range(16))
        length = report.prefix_len
        pf = output_prefixes(F, length)
        pg = output_prefixes(B, length)
        for x, y in report.matching.items():
            assert pf[x] == pg[y]

    def test_default_prefix_len(self):
        assert output_set_equivalent(A, B).prefix_len == default_prefix_len(4) == 20

    def test_limit_guard(self):
        with pytest.raises(ExhaustiveLimitError):
            output_set_equivalent(A, B, limit=2)


def random_feedback(rng: random.Random, n: int) -> Anf:
    """A feedback of up to three terms of degree up to two; no register structure."""
    return Anf(
        Monomial(rng.sample(range(n), rng.randint(0, 2))) for _ in range(rng.randint(0, 3))
    )


class TestPeriodCensus:
    def test_trio_census(self):
        for m in (A, B, F):
            census = period_census(m)
            assert census.cycles == {15: 15, 1: 1}
            assert census.tail_states == 0
            assert census.period == m.period() == 15

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
        # random registers with tails, against a reference that asks each
        # state whether stepping it period_from times brings it back
        rng = random.Random(31)
        checked = 0
        while checked < 25:
            n = rng.randint(2, 7)
            m = Nlfsr(random_feedback(rng, n) for _ in range(n))
            if step_is_bijection(m):
                continue
            cycles: dict[int, int] = {}
            tails = 0
            for x in range(1 << m.n):
                length = m.period_from(int_to_state(x, m.n))
                y = x
                for _ in range(length):
                    y = m.step_packed(y)
                if y == x:
                    cycles[length] = cycles.get(length, 0) + 1
                else:
                    tails += 1
            census = period_census(m)
            assert tails > 0
            assert (census.cycles, census.tail_states) == (cycles, tails)
            assert m.period() == max(cycles)
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

    def test_limit_guard(self):
        with pytest.raises(ExhaustiveLimitError):
            period_census(A, limit=3)


# Every whole-state-space entry point, called on a register above the size
# limit, given or default.  Each must refuse before it steps a single state.
LIMIT_GUARDED = {
    "successor_table": lambda m, lim: successor_table(m, lim),
    "Nlfsr.period": lambda m, lim: m.period(lim),
    "period_from": lambda m, lim: m.period_from((0,) * m.n, lim),
    "period_census": lambda m, lim: period_census(m, lim),
    "step_is_bijection": lambda m, lim: step_is_bijection(m, lim),
    "output_prefixes": lambda m, lim: output_prefixes(m, default_prefix_len(m.n), lim),
    "output_set_equivalent": lambda m, lim: output_set_equivalent(m, m, lim),
    "brute_force_match": lambda m, lim: brute_force_match(m, m, (0,) * m.n, lim),
}


@pytest.mark.parametrize("name", LIMIT_GUARDED)
def test_limit_refused_before_any_step(name, monkeypatch):
    def no_stepping(self, x):
        raise AssertionError("stepped a state before the limit check")

    monkeypatch.setattr(Nlfsr, "step_packed", no_stepping)
    call = LIMIT_GUARDED[name]
    with pytest.raises(ExhaustiveLimitError, match="capped at 3"):
        call(A, 3)
    above_default = Nlfsr.fibonacci(EXHAUSTIVE_LIMIT + 1, Anf.var(0))
    with pytest.raises(ExhaustiveLimitError, match=f"capped at {EXHAUSTIVE_LIMIT}"):
        call(above_default, None)
