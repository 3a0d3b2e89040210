import random

import pytest

from nlfsr import samples
from nlfsr.anf import Anf, Monomial, ParseError
from nlfsr.register import (
    ExhaustiveLimitError,
    Nlfsr,
    StructureError,
    format_state,
    int_to_state,
    parse_state,
    state_to_int,
)
from nlfsr.transform import GaloisProfile

A, B, F = samples.GALOIS_A, samples.GALOIS_B, samples.FIBONACCI


def parse_profile(text: str) -> GaloisProfile:
    return GaloisProfile.parse(text, 4)


# The published side-by-side state table of the equivalent trio:
# 15 rows of (GALOIS_A, GALOIS_B, FIBONACCI), highest bit first.
TRIO_TABLE = [
    ("0001", "0101", "0001"),
    ("1000", "1000", "1000"),
    ("0100", "0100", "0100"),
    ("0010", "0010", "1010"),
    ("1101", "1001", "1101"),
    ("1110", "1110", "0110"),
    ("1011", "1111", "1011"),
    ("0101", "0001", "0101"),
    ("1010", "1010", "0010"),
    ("1001", "1101", "1001"),
    ("1100", "1100", "1100"),
    ("0110", "0110", "1110"),
    ("1111", "1011", "1111"),
    ("0111", "0011", "0111"),
    ("0011", "0111", "0011"),
]


class TestStateCodec:
    def test_parse_is_highest_index_first(self):
        assert parse_state("0001") == (1, 0, 0, 0)
        assert parse_state("1000") == (0, 0, 0, 1)

    def test_format_round_trip(self):
        for x in range(16):
            s = int_to_state(x, 4)
            assert parse_state(format_state(s)) == s
            assert state_to_int(s) == x

    def test_packed_value_equals_displayed_binary(self):
        assert state_to_int(parse_state("1010")) == 0b1010

    def test_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_state("01x1")
        with pytest.raises(ValueError):
            parse_state("")
        with pytest.raises(ValueError):
            parse_state("010", n=4)


class TestConstruction:
    def test_too_small(self):
        with pytest.raises(ValueError):
            Nlfsr([Anf.var(0)])

    def test_support_beyond_register(self):
        with pytest.raises(ValueError):
            Nlfsr([Anf.var(1), Anf.parse("x0 + x4")])

    def test_equality_is_polynomial_exact(self):
        assert Nlfsr.parse(str(A)) == A
        assert A != B

    def test_fibonacci_constructor(self):
        assert Nlfsr.fibonacci(4, Anf.parse("x0 + x1 + x2 + x1*x2")) == F


class TestStep:
    def test_trio_single_steps(self):
        assert A.step(parse_state("0001")) == parse_state("1000")
        assert B.step(parse_state("0101")) == parse_state("1000")
        assert F.step(parse_state("1111")) == parse_state("0111")

    def test_simultaneous_update(self):
        # bit 2 of GALOIS_A must read the OLD bits 0 and 1
        s = parse_state("0011")
        assert A.step(s) == parse_state("0001")

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            A.step((0, 1))

    @pytest.mark.parametrize("m", [A, B, F], ids=["A", "B", "F"])
    def test_step_matches_per_bit_evaluation(self, m):
        for x in range(16):
            s = int_to_state(x, 4)
            expected = tuple(f.evaluate(s) for f in m.feedbacks)
            assert m.step(s) == expected
            assert m.step_packed(x) == state_to_int(expected)


class TestSequences:
    def test_published_output_from_0001(self):
        out = A.output_sequence(parse_state("0001"), 15)
        assert "".join(map(str, out)) == "100010110100111"

    def test_published_output_from_1000(self):
        for m in (A, B, F):
            out = m.output_sequence(parse_state("1000"), 15)
            assert "".join(map(str, out)) == "000101101001111"

    def test_zero_steps(self):
        assert A.output_sequence(parse_state("0001"), 0) == []
        assert A.state_sequence(parse_state("0001"), 0) == []

    def test_single_state(self):
        s = parse_state("0110")
        assert F.state_sequence(s, 1) == [s]

    def test_trio_table_columns(self):
        for m, col, init in ((A, 0, "0001"), (B, 1, "0101"), (F, 2, "0001")):
            seq = m.state_sequence(parse_state(init), 15)
            assert [format_state(s) for s in seq] == [row[col] for row in TRIO_TABLE]

    def test_state_sequence_folds_step(self):
        s = parse_state("0111")
        seq = B.state_sequence(s, 9)
        x = s
        for k in range(9):
            assert seq[k] == x
            x = B.step(x)

    def test_output_is_bit0_of_states(self):
        s = parse_state("1011")
        states = F.state_sequence(s, 20)
        assert F.output_sequence(s, 20) == [st[0] for st in states]


class TestStructure:
    def test_terminal_bits(self):
        assert A.terminal_bit() == 2
        assert B.terminal_bit() == 1
        assert F.terminal_bit() == 3

    def test_terminal_bit_zero(self):
        m = Nlfsr.parse("n = 2\nf1 = x0\nf0 = x1 + x0*x1")
        assert m.terminal_bit() == 0

    def test_is_fibonacci(self):
        assert F.is_fibonacci()
        assert not A.is_fibonacci()
        assert Nlfsr.parse("n = 2\nf1 = x0\nf0 = x1").is_fibonacci()

    def test_residuals(self):
        assert A.residual(2) == Anf.parse("x1 + x0*x1")
        assert B.residual(1) == Anf.parse("x0")
        assert F.residual(1) == Anf.zero()

    def test_non_singular_residual(self):
        m = Nlfsr.parse("n = 3\nf2 = x0\nf1 = x2 + x1*x2\nf0 = x1")
        with pytest.raises(StructureError) as err:
            m.residual(1)
        assert "bit 1" in str(err.value)

    def test_trio_uniform(self):
        for m in (A, B, F):
            assert m.is_uniform()
            assert m.uniformity_violations() == []
            assert m.dependence_violations() == []

    def test_condition_b_violation(self):
        # GALOIS_B with its bit-2 residual changed to read x2: terminal bit
        # is 1, so a residual above it may not read past bit 1
        m = Nlfsr.parse("n = 4\nf3 = x0 + x1\nf2 = x3 + x2*x0\nf1 = x2 + x0\nf0 = x1")
        assert not m.is_uniform()
        kinds = {(v.kind, v.bit, v.variable) for v in m.uniformity_violations()}
        assert ("reads-above-terminal", 2, 2) in kinds

    def test_fibonacci_always_uniform(self):
        rng = random.Random(1)
        for _ in range(20):
            n = rng.randint(3, 8)
            top = Anf.var(0)
            for _ in range(rng.randint(0, 3)):
                top = top ^ Anf([Monomial(rng.sample(range(1, n), min(2, n - 1)))])
            m = Nlfsr.fibonacci(n, top)
            assert m.terminal_bit() == n - 1
            assert m.is_uniform()

    def test_dependence_violations_reported_not_fatal(self):
        m = Nlfsr.parse("n = 3\nf2 = x0\nf1 = x0\nf0 = x1")  # bit 1 ignores x2
        kinds = {(v.kind, v.bit) for v in m.dependence_violations()}
        assert ("missing-shift-tap", 1) in kinds
        m.step((1, 1, 0))  # still simulates

    def test_pure_shift_property_of_fibonacci(self):
        rng = random.Random(2)
        for _ in range(50):
            x = rng.randrange(16)
            s = int_to_state(x, 4)
            nxt = F.step(s)
            assert nxt[:3] == s[1:]


class TestPeriod:
    def test_trio_period_15(self):
        for m in (A, B, F):
            assert m.period() == 15

    def test_period_from_every_state(self):
        for m in (A, B, F):
            for x in range(1, 16):
                assert m.period_from(int_to_state(x, 4)) == 15
            assert m.period_from((0, 0, 0, 0)) == 1

    def test_fixed_point(self):
        assert F.period_from((0, 0, 0, 0)) == 1

    def test_tail_orbit_reports_cycle_only(self):
        # bit 1 ANDs instead of shifting: walks from 01 fall onto the 00 fixed point
        m = Nlfsr.parse("n = 2\nf1 = x0*x1\nf0 = x1")
        assert m.period_from((1, 0)) == 1

    def test_rotation_period(self):
        assert samples.ROTATION.period() == 4
        two = Nlfsr.parse("n = 2\nf1 = x0\nf0 = x1")
        assert two.period() == 2

    def test_limit_guard(self):
        with pytest.raises(ExhaustiveLimitError):
            A.period(limit=3)
        with pytest.raises(ExhaustiveLimitError):
            A.period_from((0, 0, 0, 0), limit=3)


class TestFileFormat:
    def test_round_trip(self):
        for m in (A, B, F, samples.ROTATION):
            assert Nlfsr.parse(str(m)) == m

    def test_canonical_text(self):
        assert str(B) == "n = 4\nf3 = x0 + x1\nf2 = x0*x1 + x3\nf1 = x0 + x2\nf0 = x1"

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("f1 = x0\nf0 = x1", "n must be declared before"),
            ("", "missing 'n"),
            ("n = 4\nf3 = x0\nf2 = x3\nf1 = x2", "missing feedback for bit(s) 0"),
            ("n = 2\nf1 = x0\nf1 = x0\nf0 = x1", "line 3: duplicate"),
            ("n = 2\nf5 = x0\nf0 = x1", "line 2: bit 5 out of range"),
            ("n = 2\nf1 = x9\nf0 = x1", "line 2"),
            ("n = 2\nf1 = x0 & x1\nf0 = x1", "line 2"),
            ("n = 1\nf0 = x0", "at least 2"),
            ("n = два\nf0 = x0", "integer"),
            ("n = 2\nq3 = x0\nf0 = x1\nf1 = x0", "unknown assignment"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(ValueError) as err:
            Nlfsr.parse(text)
        assert fragment in str(err.value)

    @pytest.mark.parametrize(
        "parse,text,fragment",
        [
            pytest.param(Anf.parse, "x\u0661", "at position 0", id="anf-arabic-index"),
            pytest.param(Nlfsr.parse, "n = 2\nf\u0661 = x0\nf0 = x1", "line 2: unknown assignment", id="reg-arabic-bit"),
            pytest.param(Nlfsr.parse, "n = \u0662\nf1 = x0\nf0 = x1", "line 1: n must be an integer", id="reg-arabic-n"),
            pytest.param(Nlfsr.parse, "n = 1_0", "line 1: n must be an integer", id="reg-underscore-n"),
            pytest.param(Nlfsr.parse, "n = +2\nf1 = x0\nf0 = x1", "line 1: n must be an integer", id="reg-signed-n"),
            pytest.param(parse_profile, "tau = \u0661", "line 1: tau must be an integer", id="prof-arabic-tau"),
            pytest.param(parse_profile, "tau = 1\ng\u0663 = x1", "line 2: unknown assignment", id="prof-arabic-bit"),
            pytest.param(parse_profile, "tau = 0_1", "line 1: tau must be an integer", id="prof-underscore-tau"),
        ],
    )
    def test_only_ascii_digits_accepted(self, parse, text, fragment):
        # int() and \d also take other scripts' digits, underscores and signs;
        # the file formats admit [0-9]+ only
        with pytest.raises(ValueError) as err:
            parse(text)
        assert fragment in str(err.value)
        if parse is Anf.parse:
            assert isinstance(err.value, ParseError) and err.value.position == 0

    def test_blank_lines_ignored(self):
        m = Nlfsr.parse("\nn = 2\n\nf1 = x0\n\nf0 = x1\n")
        assert m.n == 2
