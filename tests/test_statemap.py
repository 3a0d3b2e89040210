import random
import re
from dataclasses import replace

import pytest

from nlfsr import samples
from nlfsr.anf import Anf
from nlfsr.generate import random_lowering
from nlfsr.register import (
    Nlfsr,
    StructureError,
    format_state,
    int_to_state,
    parse_state,
    state_to_int,
)
from nlfsr.statemap import (
    StateCorrection,
    build_correction,
    single_shift_map,
)
from nlfsr.verify import output_classes

A, B, F = samples.GALOIS_A, samples.GALOIS_B, samples.FIBONACCI

# A uniform 5-bit register whose corrections read bits above its terminal
# bit: residual x1 at bit 1 and x1 at bit 4 give corrections x1, x2, x3
# for bits 2, 3, 4.  It exercises everything the 4-bit trio cannot.
TALL = Nlfsr.parse("n = 5\nf4 = x0 + x1\nf3 = x4\nf2 = x3\nf1 = x2 + x1\nf0 = x1")
TALL_FIB = Nlfsr.parse("n = 5\nf4 = x0 + x1 + x4\nf3 = x4\nf2 = x3\nf1 = x2\nf0 = x1")


def batch_outputs(m: Nlfsr, states: list[tuple[int, ...]], steps: int) -> list[int]:
    """Entry t holds the output bit at step t of every start state, lane j
    for states[j]: the register runs on W-bit columns, one lane per state."""
    ones = (1 << len(states)) - 1
    columns = [sum(s[k] << j for j, s in enumerate(states)) for k in range(m.n)]
    out = []
    for _ in range(steps):
        out.append(columns[0])
        columns = [f.evaluate(columns, ones) for f in m.feedbacks]
    return out


class TestSingleShiftMap:
    def test_published_fixup(self):
        got = single_shift_map(Anf.parse("x1"), 2, parse_state("0001"))
        assert format_state(got) == "0101"

    def test_zero_terms_change_nothing(self):
        s = parse_state("1011")
        assert single_shift_map(Anf.zero(), 2, s) == s

    def test_zero_correction_state(self):
        s = parse_state("1000")
        assert single_shift_map(Anf.parse("x1"), 2, s) == s

    def test_terms_reading_x0_rejected(self):
        with pytest.raises(ValueError):
            single_shift_map(Anf.parse("x0"), 2, parse_state("0001"))

    def test_terms_above_source_rejected(self):
        with pytest.raises(ValueError):
            single_shift_map(Anf.parse("x3"), 2, parse_state("0001"))

    @pytest.mark.parametrize("source_bit", [0, -1])
    def test_source_bit_below_1_rejected(self, source_bit):
        # no shifting moves terms out of the output bit, so no fix-up flips it
        with pytest.raises(ValueError, match=f"source bit {source_bit} must be 1 or higher"):
            single_shift_map(Anf.one(), source_bit, parse_state("0000"))

    def test_staged_fixups_compose_to_the_full_correction(self):
        rng = random.Random(43)
        for _ in range(15):
            n = rng.randint(4, 8)
            fib, _, galois, moves = random_lowering(rng, n)
            corr = build_correction(galois)
            for x in range(1 << n):
                s = int_to_state(x, n)
                staged = s
                for mv in moves:
                    staged = single_shift_map(mv.terms, mv.from_bit, staged)
                assert staged == corr.apply(s)


class TestBuildCorrection:
    def test_corrections_of_terminal_1_register(self):
        corr = build_correction(B)
        assert corr.tau == 1
        assert corr.poly(2) == Anf.parse("x0")
        assert corr.poly(3) == Anf.parse("x1 + x0*x1")

    def test_corrections_of_terminal_2_register(self):
        corr = build_correction(A)
        assert corr.polys == (Anf.parse("x1 + x0*x1"),)

    def test_fibonacci_has_no_corrections(self):
        assert build_correction(F).polys == ()

    def test_corrections_read_only_lower_bits(self):
        rng = random.Random(3)
        for _ in range(30):
            _, _, galois, _ = random_lowering(rng, rng.randint(4, 8))
            corr = build_correction(galois)
            for j, p in enumerate(corr.polys):
                bit = corr.tau + 1 + j
                assert max(p.support(), default=-1) < bit
            for x in range(1 << galois.n):
                s = int_to_state(x, galois.n)
                assert corr.invert(corr.apply(s)) == s

    def test_polys_stored_as_a_tuple(self):
        corr = StateCorrection(4, 2, [Anf.parse("x0")])
        assert corr.polys == (Anf.parse("x0"),)
        assert hash(corr) == hash(StateCorrection(4, 2, (Anf.parse("x0"),)))

    @pytest.mark.parametrize(
        "tau, count, message",
        [
            (-1, 4, "terminal bit -1 out of range for n = 4"),
            (4, 0, "terminal bit 4 out of range for n = 4"),
            (1, 1, "expected 2 correction polynomials for bits 2..3, got 1"),
            (1, 3, "expected 2 correction polynomials for bits 2..3, got 3"),
        ],
    )
    def test_malformed_shape_rejected(self, tau, count, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            StateCorrection(4, tau, [Anf.parse("x0")] * count)

    def test_non_uniform_rejected(self):
        m = Nlfsr.parse("n = 4\nf3 = x0 + x1\nf2 = x3 + x2*x0\nf1 = x2 + x0\nf0 = x1")
        with pytest.raises(StructureError):
            build_correction(m)

    def test_corrections_cross_checked_against_state_table(self):
        # mapping the Fibonacci column of the published table must give
        # the other two columns, row by row
        seq_f = F.state_sequence(parse_state("0001"), 15)
        seq_a = A.state_sequence(parse_state("0001"), 15)
        seq_b = B.state_sequence(parse_state("0101"), 15)
        corr_a, corr_b = build_correction(A), build_correction(B)
        for sf, sa, sb in zip(seq_f, seq_a, seq_b):
            assert corr_a.apply(sf) == sa
            assert corr_b.apply(sf) == sb


class TestMapping:
    def test_published_row_one(self):
        assert format_state(build_correction(B).apply(parse_state("0001"))) == "0101"
        assert format_state(build_correction(A).apply(parse_state("0001"))) == "0001"

    def test_published_row_two(self):
        assert format_state(build_correction(B).apply(parse_state("1000"))) == "1000"

    def test_inverse_of_row_one(self):
        assert format_state(build_correction(B).invert(parse_state("0101"))) == "0001"
        assert format_state(build_correction(A).invert(parse_state("1101"))) == "1101"

    def test_low_bits_never_change(self):
        rng = random.Random(9)
        for _ in range(20):
            _, _, galois, _ = random_lowering(rng, rng.randint(4, 8))
            corr = build_correction(galois)
            for _ in range(10):
                s = int_to_state(rng.randrange(1 << galois.n), galois.n)
                r = corr.apply(s)
                assert r[: corr.tau + 1] == s[: corr.tau + 1]

    def test_involution_exhaustive(self):
        for g in (A, B, TALL):
            corr = build_correction(g)
            for x in range(1 << g.n):
                s = int_to_state(x, g.n)
                assert corr.invert(corr.apply(s)) == s

    def test_outputs_match_for_all_states_of_tall_register(self):
        corr = build_correction(TALL)
        pf, pg = output_classes(TALL_FIB, TALL)
        for x in range(32):
            s = int_to_state(x, 5)
            r = corr.apply(s)
            assert pf[x] == pg[sum(b << i for i, b in enumerate(r))]

    def test_galois_to_galois_goes_through_fibonacci(self):
        # two Galois forms of one source: compose invert and apply
        corr_a, corr_b = build_correction(A), build_correction(B)
        for x in range(16):
            r_a = int_to_state(x, 4)
            r_b = corr_b.apply(corr_a.invert(r_a))
            assert A.output_sequence(r_a, 20) == B.output_sequence(r_b, 20)

    def test_inverse_confirmed_by_simulation(self):
        r = parse_state("1101")
        s = build_correction(A).invert(r)
        assert s == r  # this state's correction evaluates to zero
        assert F.output_sequence(s, 15) == A.output_sequence(r, 15)

    def test_mapping_exact_at_twelve_bits(self):
        rng = random.Random(1212)
        for _ in range(3):
            fib, profile, galois, _ = random_lowering(rng, 12)
            corr = build_correction(galois)
            pf, pg = output_classes(fib, galois)
            for x in range(1 << 12):
                s = int_to_state(x, 12)
                r = corr.apply(s)
                assert pf[x] == pg[sum(b << i for i, b in enumerate(r))]
                assert corr.invert(r) == s

    @pytest.mark.parametrize("n", range(8, 15))
    def test_mapping_over_the_whole_state_space(self, n):
        # every Fibonacci state and its image carry one output class, and
        # zeroing any one correction polynomial breaks that for some state
        fib, _, galois, _ = random_lowering(random.Random(n), n)
        corr = build_correction(galois)
        ca, cb = output_classes(fib, galois)

        def maps_every_state(c: StateCorrection) -> bool:
            return all(
                ca[x] == cb[state_to_int(c.apply(int_to_state(x, n)))] for x in range(1 << n)
            )

        assert maps_every_state(corr)
        nonzero = [j for j, p in enumerate(corr.polys) if not p.is_zero]
        assert nonzero
        for j in nonzero:
            polys = corr.polys[:j] + (Anf.zero(),) + corr.polys[j + 1 :]
            assert not maps_every_state(replace(corr, polys=polys))

    @pytest.mark.parametrize("n", [24, 64, 128])
    def test_mapping_at_cryptographic_sizes(self, n):
        # far above the exhaustive limit: both registers run side by side
        # from 1024 random Fibonacci states and their corrected images;
        # seed 3 gives lowerings of 16, 9 and 14 moves at these sizes
        rng = random.Random(3)
        fib, _, galois, moves = random_lowering(rng, n)
        assert len(moves) >= 9
        corr = build_correction(galois)
        states = [int_to_state(rng.getrandbits(n), n) for _ in range(1024)]
        mapped = [corr.apply(s) for s in states]
        assert sum(r != s for r, s in zip(mapped, states)) >= 256
        out_f = batch_outputs(fib, states, 500)
        out_g = batch_outputs(galois, mapped, 500)
        assert out_f == out_g
        # the batch run against stepping single states through step_packed
        for j in (0, 1023):
            assert fib.output_sequence(states[j], 500) == [c >> j & 1 for c in out_f]
            assert galois.output_sequence(mapped[j], 500) == [c >> j & 1 for c in out_g]

    def test_inverse_needs_forward_substitution(self):
        # corrections of TALL read bits above its terminal bit, so
        # evaluating them at the Galois state directly would invert
        # wrongly; the contract pins the substituting inverse
        corr = build_correction(TALL)
        s = parse_state("00100")
        r = corr.apply(s)
        naive = list(r)
        for j, p in enumerate(corr.polys):
            naive[corr.tau + 1 + j] = r[corr.tau + 1 + j] ^ p.evaluate(r)
        assert tuple(naive) != s
        assert corr.invert(r) == s


class TestZeroPrefix:
    def test_trio_fixes_zero_prefix_states(self):
        # every state with zeros at and below the terminal bit starts both
        # configurations identically, and the shortcut predicate agrees
        for g in (A, B):
            corr = build_correction(g)
            assert corr.zero_prefix_fixed
            for x in range(16):
                s = int_to_state(x, 4)
                if not any(s[: corr.tau + 1]):
                    assert corr.apply(s) == s
                    assert corr.invert(s) == s
                    assert corr.is_fixed(s)
                else:
                    assert not corr.is_fixed(s)

    def test_constant_term_breaks_the_shortcut(self):
        g = Nlfsr.parse("n = 4\nf3 = x0 + x1\nf2 = x3 + 1 + x1\nf1 = x2\nf0 = x1")
        assert g.violations() == []
        corr = build_correction(g)
        assert not corr.zero_prefix_fixed
        s = parse_state("0000")
        assert corr.apply(s) != s
        assert not corr.is_fixed(s)

    def test_upshifted_residuals_break_the_shortcut(self):
        # TALL has no constant terms anywhere, yet a zero-prefix state
        # moves: corrections can read bits above the terminal bit
        corr = build_correction(TALL)
        assert not corr.zero_prefix_fixed
        s = (0, 0, 0, 1, 0)
        assert not any(s[: corr.tau + 1])
        assert corr.apply(s) != s
        assert not corr.is_fixed(s)

    def test_shortcut_agrees_with_full_evaluation(self):
        rng = random.Random(31)
        for _ in range(40):
            _, _, galois, _ = random_lowering(rng, rng.randint(4, 8))
            corr = build_correction(galois)
            for x in range(1 << galois.n):
                s = int_to_state(x, galois.n)
                if corr.is_fixed(s):
                    assert corr.apply(s) == s
