import copy
import io
import pickle
import random
import re
import sys
import time
import tracemalloc
from array import array
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from nlfsr import cli, register, samples
from nlfsr.anf import Anf, Monomial, ParseError
from nlfsr.generate import random_lowering
from nlfsr.register import (
    EXHAUSTIVE_LIMIT,
    Nlfsr,
    StructureError,
    Violation,
    format_state,
    int_to_state,
    parse_state,
    require_well_formed,
    state_space,
    state_to_int,
    successor_table,
    transpose,
    walk_columns,
)
from nlfsr.statemap import build_correction
from nlfsr.transform import GaloisProfile, ShiftMove
from nlfsr.verify import brute_force_match, output_set_equivalent, period_census
from strategies import edge_register, polys, profiles, reference_step, registers

A, B, F = samples.GALOIS_A, samples.GALOIS_B, samples.FIBONACCI
GALOIS_A_FILE = Path(__file__).resolve().parent.parent / "demos" / "registers" / "galois_a.reg"


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

    def test_support_beyond_register_inside_a_product(self):
        # the highest index of a product term is checked, not its first
        with pytest.raises(ValueError, match="feedback f1 reads x5 but the register has 4 bits"):
            Nlfsr([Anf.var(1), Anf.parse("x0*x5 + x2"), Anf.var(3), Anf.var(0)])

    def test_non_anf_feedback_refused(self):
        with pytest.raises(TypeError, match="feedback 1 is not an Anf"):
            Nlfsr([Anf.var(1), "x0"])

    @pytest.mark.parametrize(
        "value, field",
        [(Monomial((1,)), "indices"), (Anf.var(1), "terms"), (Nlfsr(A.feedbacks), "n")],
        ids=["Monomial", "Anf", "Nlfsr"],
    )
    def test_values_are_immutable(self, value, field):
        before = getattr(value, field)
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(value, field, before)
        with pytest.raises(AttributeError, match="is immutable"):
            value.note = 1

    @pytest.mark.parametrize(
        "value",
        [
            Monomial((1, 2)),
            Anf.parse("1 + x2 + x0*x1"),
            A,
            ShiftMove(2, 1, Anf.parse("x1")),
            GaloisProfile.of_register(B),
            build_correction(B),
            period_census(A),
            output_set_equivalent(F, samples.ROTATION),
            Violation("non-singular", 1, 2),
        ],
        ids=lambda value: type(value).__name__,
    )
    def test_values_pickle_and_copy(self, value):
        # every public value type; each copy is equal and keeps its guard
        for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert copied == value
            with pytest.raises(AttributeError):
                copied.note = 1

    @given(registers(max_n=12))
    def test_stored_split_matches_the_feedbacks(self, m):
        # registers that break the window condition included
        masks = dict(m._residual_masks)
        for i, f in enumerate(m.feedbacks):
            r = f ^ Anf.var((i + 1) % m.n)
            assert m._residuals[i] == r
            assert set(masks.get(i, ())) == {sum(1 << k for k in t.indices) for t in r.terms}
        assert list(masks) == [i for i, r in enumerate(m._residuals) if r]

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

    @pytest.mark.parametrize(
        "entry",
        [
            lambda s: B.step(s),
            lambda s: B.output_sequence(s, 4),
            lambda s: build_correction(B).apply(s),
            lambda s: build_correction(B).invert(s),
            lambda s: brute_force_match(F, B, s),
        ],
        ids=["step", "output_sequence", "apply", "invert", "brute_force_match"],
    )
    def test_entry_other_than_0_or_1_refused(self, entry):
        # check_state is the one state check, so every entry point refuses
        # it; a bool or a float equal to 1 is not the int 1 either
        for bad in (2, True, 1.0):
            state = (0, bad, 0, 0)
            with pytest.raises(ValueError, match=re.escape(f"state {state} has an entry other")):
                entry(state)

    @pytest.mark.parametrize("m", [A, B, F], ids=["A", "B", "F"])
    def test_step_matches_per_bit_evaluation(self, m):
        for x in range(16):
            s = int_to_state(x, 4)
            expected = tuple(f.evaluate(s) for f in m.feedbacks)
            assert m.step(s) == expected
            assert m.step_packed(x) == state_to_int(expected)

    @given(registers(max_n=12))
    def test_step_matches_per_bit_evaluation_on_any_register(self, m):
        # arbitrary feedbacks: missing taps, constants, non-bijective updates
        n = m.n
        states = range(1 << n) if n <= 8 else random.Random(n).sample(range(1 << n), 256)
        for x in states:
            s = int_to_state(x, n)
            expected = tuple(f.evaluate(s) for f in m.feedbacks)
            assert m.step(s) == expected
            assert m.step_packed(x) == state_to_int(expected) == reference_step(m, x)

    @pytest.mark.parametrize("n", [33, 64, 128])
    def test_orbits_past_the_exhaustive_limit(self, n):
        # step_packed has no size cap: the wrap into bit n - 1 and every
        # residual must hold on wide registers too
        m = edge_register(n)
        x = random.Random(n).getrandbits(n)
        outputs = m.output_sequence(int_to_state(x, n), 300)
        for t in range(300):
            assert outputs[t] == x & 1
            y = reference_step(m, x)
            assert m.step_packed(x) == y
            x = y


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

    @pytest.mark.parametrize("steps", [2.5, 3.0, True, False, "3", None])
    def test_non_int_steps_refused_on_call(self, steps):
        # refused when run is called, not when its states are first read
        s = parse_state("0001")
        with pytest.raises(ValueError, match="steps must be non-negative and of type int"):
            A.run(s, steps)
        with pytest.raises(ValueError, match="steps must be non-negative and of type int"):
            A.output_sequence(s, steps)


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

    @pytest.mark.parametrize("bit", [-1, 4])
    @pytest.mark.parametrize(
        "residual", [B.residual, GaloisProfile.of_register(B).residual], ids=["register", "profile"]
    )
    def test_residual_outside_the_register_refused(self, residual, bit):
        # -1 would index from the top and 4 would raise a bare IndexError
        with pytest.raises(ValueError, match=rf"^bit {bit} out of range for n = 4$"):
            residual(bit)

    def test_non_singular_residual(self):
        m = Nlfsr.parse("n = 3\nf2 = x0\nf1 = x2 + x1*x2\nf0 = x1")
        with pytest.raises(StructureError) as err:
            m.residual(1)
        assert "bit 1" in str(err.value)

    def test_trio_uniform(self):
        for m in (A, B, F):
            assert m.violations() == []

    def test_condition_b_violation(self):
        # GALOIS_B with its bit-2 residual changed to read x2: terminal bit
        # is 1, so a residual above it may not read past bit 1
        m = Nlfsr.parse("n = 4\nf3 = x0 + x1\nf2 = x3 + x2*x0\nf1 = x2 + x0\nf0 = x1")
        assert m.violations()
        kinds = {(v.kind, v.bit, v.variable) for v in m.violations()}
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
            assert m.violations() == []

    def test_dependence_violations_reported_not_fatal(self):
        m = Nlfsr.parse("n = 3\nf2 = x0\nf1 = x0\nf0 = x1")  # bit 1 ignores x2
        kinds = {(v.kind, v.bit) for v in m.violations()}
        assert ("missing-shift-tap", 1) in kinds
        m.step((1, 1, 0))  # still simulates

    def test_violations_follow_the_documented_contract(self):
        rng = random.Random(41)
        seen = set()
        for _ in range(400):
            m = contract_test_register(rng, rng.randint(2, 7))
            assert m.violations() == reference_violations(m)
            seen.update(v.kind for v in m.violations())
        assert seen == {
            "missing-shift-tap",
            "reads-outside-window",
            "non-singular",
            "reads-above-terminal",
        }

    def test_window_violations_listed_before_uniformity_ones(self):
        # bit 1 misses its tap x2 (a window violation) while bit 0 is
        # non-singular (a uniformity one); the window comes first anyway
        m = Nlfsr.parse("n = 3\nf2 = x0\nf1 = x0\nf0 = x1 + x0*x1")
        with pytest.raises(StructureError) as err:
            require_well_formed(m)
        assert str(err.value) == (
            "register is not uniform and well-formed: bit 1: missing-shift-tap x2; "
            "bit 0: non-singular x1; bit 1: non-singular x2"
        )

    def test_pure_shift_property_of_fibonacci(self):
        rng = random.Random(2)
        for _ in range(50):
            x = rng.randrange(16)
            s = int_to_state(x, 4)
            nxt = F.step(s)
            assert nxt[:3] == s[1:]


def contract_test_register(rng: random.Random, n: int) -> Nlfsr:
    """A register that keeps or breaks each part of the contract at random:
    pure shifts below a random bit, then taps that may be missing and
    terms (the constant among them) over any variable."""
    shifts = rng.randint(0, n - 1)
    feedbacks = [Anf.var(i + 1) for i in range(shifts)]
    for i in range(shifts, n):
        terms = [Monomial(((i + 1) % n,))] if rng.random() < 0.8 else []
        for _ in range(rng.randint(0, 3)):
            terms.append(Monomial(rng.sample(range(n), rng.randint(0, min(3, n)))))
        feedbacks.append(Anf(terms))
    return Nlfsr(feedbacks)


def reference_violations(m: Nlfsr) -> list[Violation]:
    """The contract as the Violation docstring states it, read term by term:
    every window violation by bit, then every uniformity one by bit."""
    n = m.n
    tau = next((i for i in range(n - 1) if m.feedbacks[i] != Anf.var(i + 1)), n - 1)
    window, uniformity = [], []
    for i, f in enumerate(m.feedbacks):
        tap = (i + 1) % n
        reads = sorted({k for t in f.terms for k in t.indices})
        if tap not in reads:
            window.append(Violation("missing-shift-tap", i, tap))
        window += [Violation("reads-outside-window", i, k) for k in reads if k > i and k != tap]
        tap_term = Monomial((tap,))
        rest = [t for t in f.terms if t != tap_term]
        if tap_term not in f.terms or any(tap in t.indices for t in rest):
            uniformity.append(Violation("non-singular", i, tap))
        elif i > tau:
            residual_reads = sorted({k for t in rest for k in t.indices})
            uniformity += [Violation("reads-above-terminal", i, k) for k in residual_reads if k > tau]
    return window + uniformity


class TestPeriod:
    def test_trio_period_15(self):
        for m in (A, B, F):
            assert period_census(m).period == 15

    def test_rotation_period(self):
        assert period_census(samples.ROTATION).period == 4
        two = Nlfsr.parse("n = 2\nf1 = x0\nf0 = x1")
        assert period_census(two).period == 2


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
            ("n = 2\nf5 = x0\nf0 = x1", "line 2: bit 5 outside 0..1"),
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

    @pytest.mark.parametrize(
        "parse,text,fragment",
        [
            pytest.param(Nlfsr.parse, "n = 2\nf1 = x" + "1" * 5000, "line 2: variable", id="reg-index"),
            pytest.param(Nlfsr.parse, "n = " + "1" * 5000, "line 1: n out of range", id="reg-n"),
            pytest.param(Nlfsr.parse, "n = 2\nf" + "1" * 5000 + " = x0", "line 2: bit", id="reg-bit"),
            pytest.param(parse_profile, "tau = " + "1" * 5000, "line 1: tau out of range", id="prof-tau"),
            pytest.param(parse_profile, "tau = 1\ng" + "1" * 5000 + " = x0", "line 2: bit", id="prof-bit"),
        ],
    )
    def test_numbers_past_4300_digits_refused_on_their_line(self, parse, text, fragment):
        # int() refuses them; any such value is larger than every register
        with pytest.raises(ValueError) as err:
            parse(text)
        assert str(err.value).startswith(fragment)

    @pytest.mark.parametrize(
        "text,message",
        [
            pytest.param("{h} = {k}\n{h} = {k}", "line 2: duplicate {h}", id="duplicate-header"),
            pytest.param("{h} = two", "line 1: {h} must be an integer", id="non-digit-header"),
            pytest.param("{h} = " + "1" * 5000, "line 1: {h} out of range", id="huge-header"),
            pytest.param("{l}1 = x0\n{h} = {k}", "line 1: {h} must be declared before any {l}I line", id="bit-first"),
            pytest.param("{h} = {k}\n{l}5 = x0", "line 2: bit 5 outside 0..1", id="bit-out-of-range"),
            pytest.param("{h} = {k}\n{l}1 = x0\n{l}1 = x0", "line 3: duplicate assignment for bit 1", id="duplicate-bit"),
            pytest.param("{h} = {k}\n{l}1 x0", "line 2: expected 'name = value', got '{l}1 x0'", id="no-equals"),
            pytest.param("{h} = {k}\nq1 = x0", "line 2: unknown assignment 'q1'", id="unknown-name"),
        ],
    )
    def test_register_and_profile_files_refuse_alike(self, text, message):
        # both formats assign bits 0..1 here: a 2-bit register, and a
        # profile of a 2-bit register with tau = 0
        formats = [(Nlfsr.parse, "n", "f", 2), (lambda t: GaloisProfile.parse(t, 2), "tau", "g", 0)]
        for parse, h, l, k in formats:
            with pytest.raises(ValueError) as err:
                parse(text.format(h=h, l=l, k=k))
            assert str(err.value) == message.format(h=h, l=l)

    def test_huge_bit_of_a_huge_register_refused_quickly(self):
        # the bit's digits have no int value, and testing that against the
        # register's range must not scan it
        start = time.perf_counter()
        with pytest.raises(ValueError) as err:
            Nlfsr.parse("n = 1000000000\nf" + "1" * 5000 + " = x0")
        assert time.perf_counter() - start < 0.5
        assert str(err.value).startswith("line 2: bit 1111")

    def test_missing_bits_of_a_huge_register_reported_briefly(self):
        # the report names the lowest missing bit and how many are missing,
        # at a cost set by the lines given, not by n
        start = time.perf_counter()
        with pytest.raises(ValueError) as err:
            Nlfsr.parse("n = 1000000000\nf0 = x1")
        assert time.perf_counter() - start < 0.5
        message = str(err.value)
        assert message.startswith("missing feedback for bit(s) 1")
        assert "999999999" in message
        assert len(message) < 200

    def test_blank_lines_ignored(self):
        m = Nlfsr.parse("\nn = 2\n\nf1 = x0\n\nf0 = x1\n")
        assert m.n == 2


def stepped(m: Nlfsr, x: int, steps: int) -> int:
    """Packed state x after ``steps`` steps of the term-by-term reference."""
    for _ in range(steps):
        x = reference_step(m, x)
    return x


class TestSuccessorTable:
    """The bit-sliced table against reference_step, the per-state reference."""

    @given(registers(max_n=12))
    def test_equals_stepping_every_state(self, m):
        assert successor_table(m).tolist() == [reference_step(m, x) for x in range(1 << m.n)]

    @pytest.mark.parametrize("n", [7, 8, 9, 16, 17])
    def test_byte_group_edges(self, n):
        # the transpose packs successor bits 0-7, 8-15, 16-23 into separate
        # lane bytes; these sizes start or end a group
        m = edge_register(n)
        assert successor_table(m).tolist() == [reference_step(m, x) for x in range(1 << m.n)]

    def test_read_only(self):
        table = successor_table(A)
        with pytest.raises(TypeError):
            table[0] = 1
        assert table[0] == reference_step(A, 0)

    def check_every_slice_width(self, m: Nlfsr) -> None:
        # widths below n build the table slice by slice, width n in one walk
        expected = [reference_step(m, x) for x in range(1 << m.n)]
        for width in range(1, m.n + 1):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(register, "_SLICE_BITS", width)
                assert successor_table(m).tolist() == expected, width

    @given(registers(max_n=9))
    def test_every_slice_width(self, m):
        self.check_every_slice_width(m)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_every_slice_width_of_a_non_bijective_register(self, n):
        m = edge_register(n)
        assert len(set(successor_table(m).tolist())) < 1 << n
        self.check_every_slice_width(m)

    def test_peak_memory_is_the_table_and_one_slice(self):
        # the 1 MB table of n = 18, plus the walk and transpose of one 2^15-state slice
        m = random_lowering(random.Random(1), 18)[2]
        tracemalloc.start()
        try:
            successor_table(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 4 << 18 < peak < 1.6e6


class TestWalk:
    """The (n+1)-bit output windows and the (n+1)-step jump of one walk
    against output_sequence and reference_step, the per-state references."""

    def check_walk(self, m: Nlfsr) -> None:
        # every state follows the reference_step table n + 1 times, and a
        # sample of states is stepped one by one through the references
        n = m.n
        outputs, state = walk_columns(m, n + 1, *state_space(n))
        windows, jump = transpose(outputs, n).tolist(), transpose(state, n).tolist()
        succ = [reference_step(m, x) for x in range(1 << n)]
        ref = [0] * (1 << n)
        at = list(range(1 << n))
        for t in range(n + 1):
            ref = [w | (y & 1) << t for w, y in zip(ref, at)]
            at = [succ[y] for y in at]
        assert windows == ref
        assert jump == at
        for x in random.Random(n).sample(range(1 << n), min(64, 1 << n)):
            bits = m.output_sequence(int_to_state(x, n), n + 1)
            assert windows[x] == sum(b << t for t, b in enumerate(bits))
            assert jump[x] == stepped(m, x, n + 1)

    @given(registers(max_n=12))
    def test_windows_and_jump_equal_stepping_every_state(self, m):
        self.check_walk(m)

    @pytest.mark.parametrize("n", [7, 8, 15, 16])
    def test_lane_group_edges(self, n):
        # n + 1 window bits and n state bits start or end a lane byte here
        m = edge_register(n)
        self.check_walk(m)
        windows = transpose(walk_columns(m, n + 1, *state_space(n))[0], n).tolist()
        assert all(0 < sum(w >> t & 1 for w in windows) < 1 << n for t in range(n + 1))

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_walk_from_given_start_columns(self, n):
        # any start states, one per lane, in a lane count that is not a power of two
        m = edge_register(n)
        rng = random.Random(n)
        starts = [rng.getrandbits(n) for _ in range(37)]
        start = [sum((x >> k & 1) << j for j, x in enumerate(starts)) for k in range(n)]
        outputs, state = walk_columns(m, n + 1, start, (1 << 37) - 1)
        for j, x in enumerate(starts):
            bits = m.output_sequence(int_to_state(x, n), n + 1)
            assert [c >> j & 1 for c in outputs] == bits
            assert transposed(state, j) == stepped(m, x, n + 1)

    def test_start_columns_come_with_their_lane_mask(self):
        m = edge_register(3)
        columns, ones = state_space(3)
        with pytest.raises(TypeError, match="'ones'"):
            walk_columns(m, 1, columns)
        with pytest.raises(TypeError, match="'start'"):
            walk_columns(m, 1, ones=ones)

    def test_successor_table_is_the_one_step_walk(self):
        m = edge_register(9)
        outputs, state = walk_columns(m, 1, *state_space(9))
        assert transpose(outputs, 9).tolist() == [x & 1 for x in range(1 << 9)]
        assert transpose(state, 9).tolist() == successor_table(m).tolist()


def transposed(columns: list[int], x: int) -> int:
    """Lane x of ``transpose``, one bit at a time: the per-bit reference."""
    return sum(((c >> x) & 1) << i for i, c in enumerate(columns))


class TestTranspose:
    """The byte-parallel kernel against the per-bit reference."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_equals_per_bit_reference(self, n):
        # n = 2 pads the states to one byte; these counts start or end a lane byte
        rng, ones = random.Random(n), (1 << (1 << n)) - 1
        for count in (1, 7, 8, 9, 16, 17, 21):
            randoms = [rng.getrandbits(1 << n) for _ in range(count)]
            for columns in (randoms, [0] * count, [ones] * count):
                lanes = transpose(columns, n).tolist()
                assert lanes == [transposed(columns, x) for x in range(1 << n)]

    def test_state_space_columns_transpose_to_the_states(self):
        # lane x of the state-space columns is x itself, and the mask sets
        # every lane, at every size a scan may take
        for n in range(2, EXHAUSTIVE_LIMIT + 1):
            columns, ones = state_space(n)
            assert transpose(columns, n) == array("I", range(1 << n)), n
            assert ones == (1 << (1 << n)) - 1, n

    def test_largest_size_samples(self):
        # 21 columns reach the third lane byte at the scan limit
        rng = random.Random(20)
        columns = [rng.getrandbits(1 << 20) for _ in range(21)]
        lanes = transpose(columns, 20)
        assert len(lanes) == 1 << 20
        for x in rng.sample(range(1 << 20), 256):
            assert lanes[x] == transposed(columns, x)

    @pytest.mark.parametrize("n", [2, 9])
    def test_big_endian_lanes(self, n, monkeypatch):
        rng = random.Random(n)
        columns = [rng.getrandbits(1 << n) for _ in range(21)]
        expected = array("I", [transposed(columns, x) for x in range(1 << n)])
        monkeypatch.setattr(sys, "byteorder", "big")
        raw = transpose(columns, n).tobytes()
        expected.byteswap()
        assert raw == expected.tobytes()


# Characters a mutation may insert: the grammar's own, plus some it refuses.
MUTATION_CHARS = "x0123456789+*= \nfgtau#y_\u0661"


@st.composite
def mutated(draw, texts):
    """A valid text after one to three edits: a digit changed to another
    digit, which keeps the syntax but can break a bound, or one character
    inserted, deleted or replaced."""
    text = draw(texts)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["digit", "insert", "delete", "replace"]))
        digits = [i for i, c in enumerate(text) if c in "0123456789"]
        if op == "digit" and digits:
            at = draw(st.sampled_from(digits))
            text = text[:at] + draw(st.sampled_from("0123456789")) + text[at + 1 :]
            continue
        at = draw(st.integers(0, len(text)))
        ch = draw(st.sampled_from(MUTATION_CHARS))
        cut = at + 1 if op != "insert" else at
        text = text[:at] + (ch if op != "delete" else "") + text[cut:]
    return text


@st.composite
def move_texts(draw) -> str:
    """``from,to,poly`` texts of moves to a lower bit of a 4-bit register."""
    from_bit = draw(st.integers(1, 3))
    to_bit = draw(st.integers(0, from_bit - 1))
    return f"{from_bit},{to_bit},{draw(polys(4))}"


def check_file_error(err: ValueError, text: str) -> None:
    """A file-format error names its line, unless it reports something missing."""
    message = str(err)
    if message.startswith("missing "):
        return
    found = re.match(r"line (\d+): ", message)
    assert found, message
    assert 1 <= int(found.group(1)) <= len(text.splitlines())


class TestParserFuzz:
    @given(registers(max_n=12))
    def test_register_round_trip(self, m):
        assert Nlfsr.parse(str(m)) == m

    @given(profiles())
    def test_profile_round_trip(self, p):
        assert GaloisProfile.parse(str(p), p.n) == p

    @given(mutated(polys(13).map(str)))
    def test_mutated_polynomial_parses_or_names_its_position(self, text):
        try:
            f = Anf.parse(text)
        except ParseError as err:
            assert 0 <= err.position <= len(text)
            return
        assert Anf.parse(str(f)) == f

    @given(mutated(registers(max_n=6).map(str)))
    def test_mutated_register_parses_or_names_its_line(self, text):
        try:
            m = Nlfsr.parse(text)
        except ValueError as err:
            check_file_error(err, text)
            return
        assert Nlfsr.parse(str(m)) == m

    @given(st.data())
    def test_mutated_profile_parses_or_names_its_line(self, data):
        p = data.draw(profiles(max_n=6))
        text = data.draw(mutated(st.just(str(p))))
        try:
            q = GaloisProfile.parse(text, p.n)
        except ValueError as err:
            check_file_error(err, text)
            return
        assert GaloisProfile.parse(str(q), p.n) == q

    @given(mutated(move_texts()))
    def test_mutated_move_exits_cleanly(self, text):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert cli.main(["transform", str(GALOIS_A_FILE), "--move", text]) in (0, 2)
