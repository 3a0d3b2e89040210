import hashlib
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from nlfsr import samples
from nlfsr.anf import Anf, Monomial
from nlfsr.generate import random_lowering, random_profile
from nlfsr.register import Nlfsr, StructureError
from nlfsr.statemap import StateCorrection
from nlfsr.transform import (
    GaloisProfile,
    ShiftMove,
    ShiftRejected,
    apply_shift,
    lower_to_profile,
    reconstruct_fibonacci,
)
from nlfsr.verify import output_set_equivalent
from strategies import profiles

A, B, F = samples.GALOIS_A, samples.GALOIS_B, samples.FIBONACCI


class TestShiftMove:
    def test_must_move_down(self):
        with pytest.raises(ValueError):
            ShiftMove(1, 2, Anf.parse("x1"))
        with pytest.raises(ValueError):
            ShiftMove(2, 2, Anf.parse("x1"))
        with pytest.raises(ValueError):
            ShiftMove(0, -1, Anf.parse("x1"))

    @pytest.mark.parametrize("from_bit, to_bit", [(2, True), (True, False), (2.0, 1), (2, 1.0)])
    def test_non_int_bits_rejected(self, from_bit, to_bit):
        with pytest.raises(ValueError, match="shifting bits must be integers"):
            ShiftMove(from_bit, to_bit, Anf.parse("x1"))

    def test_non_anf_terms_rejected(self):
        with pytest.raises(TypeError, match="shifted terms are not an Anf"):
            ShiftMove(2, 1, "x1")


class TestApplyShift:
    def test_published_single_shift(self):
        assert apply_shift(A, ShiftMove(2, 1, Anf.parse("x1"))) == B

    def test_empty_move_is_identity(self):
        assert apply_shift(A, ShiftMove(2, 1, Anf.zero())) == A

    def test_wrap_to_low_bit_rejected(self):
        # x0 moved from bit 1 to bit 0 renumbers to x3; the result reads
        # past the new terminal bit and is refused
        with pytest.raises(ShiftRejected) as err:
            apply_shift(B, ShiftMove(1, 0, Anf.parse("x0")))
        kinds = {(v.kind, v.bit) for v in err.value.violations}
        assert ("reads-above-terminal", 2) in kinds
        assert ("reads-above-terminal", 3) in kinds

    def test_multi_bit_equals_staged(self):
        # one two-bit move is the composition of two one-bit hops
        via_stages = apply_shift(
            apply_shift(F, ShiftMove(3, 2, Anf.parse("x1*x2 + x2"))),
            ShiftMove(2, 1, Anf.parse("x1")),
        )
        assert via_stages == B

    def test_source_must_be_terminal(self):
        with pytest.raises(ShiftRejected):
            apply_shift(A, ShiftMove(1, 0, Anf.parse("x2")))

    def test_terms_must_come_from_residual(self):
        with pytest.raises(ShiftRejected) as err:
            apply_shift(A, ShiftMove(2, 1, Anf.parse("x0")))
        assert "not present" in str(err.value)

    def test_rejection_names_the_first_missing_term(self):
        # three terms are missing from the residual x1*x2; the message names
        # the first in canonical text order
        fib = Nlfsr.fibonacci(8, Anf.parse("x0 + x1*x2"))
        move = ShiftMove(7, 6, Anf.parse("x1*x3 + x3*x4*x7 + x3*x5"))
        with pytest.raises(ShiftRejected) as err:
            apply_shift(fib, move)
        assert str(err.value) == "term x1*x3 is not present in the residual of bit 7"

    def test_tap_cannot_move(self):
        with pytest.raises(ShiftRejected):
            apply_shift(A, ShiftMove(2, 1, Anf.parse("x3")))

    def test_non_uniform_source_rejected(self):
        m = Nlfsr.parse("n = 4\nf3 = x0 + x1\nf2 = x3 + x2*x0\nf1 = x2 + x0\nf0 = x1")
        with pytest.raises(ShiftRejected) as err:
            apply_shift(m, ShiftMove(1, 0, Anf.parse("x0")))
        assert str(err.value) == (
            "source register rejected: register is not uniform and well-formed: "
            "bit 2: reads-above-terminal x2"
        )

    def test_window_violating_result_rejected(self):
        # moving the cubic term of this top feedback down to bit 1 lands a
        # uniform register that reads outside the bit-1 window; exhaustive
        # simulation shows such registers need not stay equivalent, so the
        # guard must refuse
        m = Nlfsr.parse("n = 5\nf4 = x0 + x1 + x1*x2*x4\nf3 = x4\nf2 = x3\nf1 = x2\nf0 = x1")
        with pytest.raises(ShiftRejected) as err:
            apply_shift(m, ShiftMove(4, 1, Anf.parse("x1*x2*x4")))
        kinds = {v.kind for v in err.value.violations}
        assert "reads-outside-window" in kinds

    @settings(max_examples=300)
    @given(profiles(max_n=9), st.booleans(), st.data())
    def test_equals_the_chain_of_one_bit_hops(self, profile, fibonacci, data):
        # a move across several bits is accepted exactly when the chain of
        # its one-bit hops is, and then yields the same register
        m = profile.fibonacci() if fibonacci else profile.register()
        tau = m.terminal_bit()
        assume(tau > 0)
        residual = sorted(m.residual(tau).terms)
        kept = data.draw(st.lists(st.booleans(), min_size=len(residual), max_size=len(residual)))
        terms = {t for t, keep in zip(residual, kept) if keep}
        if data.draw(st.booleans()):
            terms.add(data.draw(st.frozensets(st.integers(0, m.n - 1), max_size=3).map(Monomial)))
        assume(terms)
        move = ShiftMove(tau, data.draw(st.integers(0, tau - 1)), Anf(terms))

        def outcome(shift):
            try:
                return shift()
            except ShiftRejected:
                return None

        def hop_chain():
            current, moved = m, move.terms
            for b in range(move.from_bit, move.to_bit, -1):
                current = apply_shift(current, ShiftMove(b, b - 1, moved))
                moved = moved.shifted_between(b, b - 1, m.n)
            return current

        assert outcome(lambda: apply_shift(m, move)) == outcome(hop_chain)

    def test_one_build_and_two_checks_per_move(self, record_calls):
        # the source and the produced register are checked, whatever the
        # move's length; a zero-term move builds nothing
        fib = Nlfsr.fibonacci(64, Anf.parse("x0 + x60*x63"))
        moves = ShiftMove(63, 3, Anf.parse("x60*x63")), ShiftMove(63, 3, Anf.zero())
        fbs = list(Nlfsr.fibonacci(64, Anf.var(0)).feedbacks)
        fbs[3] = Anf.parse("x4 + x0*x3")
        expected = Nlfsr(fbs)
        checks = record_calls(Nlfsr, "violations")
        builds = record_calls(Nlfsr, "__init__")
        assert apply_shift(fib, moves[0]) == expected
        assert (len(checks), len(builds)) == (2, 1)
        checks.clear()
        builds.clear()
        assert apply_shift(fib, moves[1]) is fib
        assert (len(checks), len(builds)) == (1, 0)


def shifted_residual_sum(profile: GaloisProfile, i: int) -> Anf:
    """The residuals of bits tau..i-1, each shifted up to sit just under bit i."""
    acc = Anf.zero()
    for k in range(profile.tau, i):
        acc = acc ^ profile.residual(k).shifted(i - 1 - k)
    return acc


class TestLoweringRule:
    @settings(max_examples=300)
    @given(profiles(max_n=9))
    def test_returns_exactly_when_every_hop_finds_its_terms(self, profile):
        # the hop from bit t moves T_t shifted up one out of the T_{t+1}
        # that arrived at bit t; the lowering succeeds exactly when each
        # such set is present there, and then builds the profile's register.
        # profile.moves() alone decides the same from the profile.
        n, tau = profile.n, profile.tau
        tele = {i: shifted_residual_sum(profile, i) for i in range(tau + 1, n + 1)}
        fib = Nlfsr.fibonacci(n, Anf.var(0) ^ tele[n])
        assert profile.fibonacci() == fib
        unreachable = [
            t for t in range(n - 1, tau, -1) if not tele[t].shifted(1).terms <= tele[t + 1].terms
        ]
        if unreachable:
            t = unreachable[0]
            term = min(tele[t].shifted(1).terms - tele[t + 1].terms)
            for lower in (lambda: lower_to_profile(fib, profile), profile.moves):
                with pytest.raises(ShiftRejected) as err:
                    lower()
                assert str(err.value) == (
                    f"profile is unreachable at bit {t}: term {term} is not present in the residual of bit {t}"
                )
            return
        galois, moves = lower_to_profile(fib, profile)
        assert galois == profile.register()
        assert moves == profile.moves() == [
            ShiftMove(t, t - 1, tele[t].shifted(1))
            for t in range(n - 1, tau, -1)
            if not tele[t].is_zero
        ]

    def test_one_validation_and_one_register_per_lowering(self, record_calls):
        # the rule decides the lowering, so the only structure check is the
        # source's and the only register built is profile.register()
        rng = random.Random(19)
        draws = [random_lowering(rng, rng.randint(11, 14)) for _ in range(100)]
        checks = record_calls(Nlfsr, "violations")
        builds = record_calls(Nlfsr, "__init__")
        assert sum(len(moves) for *_, moves in draws) > 100
        for fib, profile, galois, _ in draws:
            checks.clear()
            builds.clear()
            assert lower_to_profile(fib, profile)[0] == galois
            assert (len(checks), len(builds)) == (1, 1)

    def test_draws_build_two_registers_and_validate_nothing(self, record_calls):
        # the profile decides reachability, so a kept draw builds only the
        # two registers it returns and a rejected draw builds none
        checks = record_calls(Nlfsr, "violations")
        builds = record_calls(Nlfsr, "__init__")
        rng = random.Random(19)
        for _ in range(100):
            random_lowering(rng, rng.randint(11, 14))
        assert (len(checks), len(builds)) == (0, 200)


class TestGaloisProfile:
    def test_residual_window_enforced(self):
        with pytest.raises(ValueError):
            GaloisProfile(4, 1, (Anf.parse("x2"), Anf.zero(), Anf.zero()))

    def test_top_residual_may_not_read_x0(self):
        with pytest.raises(ValueError):
            GaloisProfile(4, 1, (Anf.parse("x1"), Anf.zero(), Anf.parse("x0")))

    @pytest.mark.parametrize("n, tau", [(4, True), (4, 1.0), (4.0, 1), (True, 0)])
    def test_non_int_sizes_rejected(self, n, tau):
        with pytest.raises(ValueError, match="must be integers"):
            GaloisProfile(n, tau, (Anf.parse("x0"),) * 3)

    def test_one_residual_per_bit_from_tau(self):
        with pytest.raises(ValueError) as err:
            GaloisProfile(4, 1, (Anf.zero(),))
        assert str(err.value) == "expected 3 residuals for bits 1..3, got 1"

    def test_non_anf_residual_rejected(self):
        with pytest.raises(TypeError, match="residual 2 is not an Anf"):
            GaloisProfile(4, 1, (Anf.parse("x1"), "x0", Anf.zero()))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: GaloisProfile(1, 0, (Anf.zero(),)),
            lambda: StateCorrection(1, 0, ()),
            lambda: GaloisProfile.parse("tau = 0\ng0 = 1", 1),
        ],
        ids=["profile", "correction", "parsed-profile"],
    )
    def test_one_bit_shapes_refused(self, build):
        # no 1-bit register exists, so no shape of one is built
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == "register needs at least 2 bits, got 1"

    def test_telescopes_stay_out_of_repr(self):
        # they are derived from the residuals, so repr shows only the fields given
        p = GaloisProfile.parse("tau = 1\ng3 = x1\ng2 = x0*x1\ng1 = x0", 4)
        assert repr(p) == f"GaloisProfile(n=4, tau=1, residuals={p.residuals!r})"

    def test_residuals_cannot_be_edited_past_the_checks(self):
        residuals = [Anf.parse("x1"), Anf.zero(), Anf.zero()]
        p = GaloisProfile(4, 1, residuals)
        assert p.residuals == tuple(residuals)
        with pytest.raises(TypeError):
            p.residuals[0] = Anf.parse("x3")
        residuals[0] = Anf.parse("x3")
        assert p.residual(1) == Anf.parse("x1")

    def test_register_and_extraction_round_trip(self):
        for m in (A, B, F):
            p = GaloisProfile.of_register(m)
            assert p.register() == m
            assert GaloisProfile.parse(str(p), 4) == p

    @given(profiles())
    def test_terminal_bit_is_the_lowest_kept_residual(self, p):
        # tau bounds what the residuals read; a zero residual at tau leaves
        # the register's terminal bit higher, and of_register reads that bit
        g = p.register()
        kept = [i for i in range(p.tau, p.n - 1) if not p.residual(i).is_zero]
        terminal = kept[0] if kept else p.n - 1
        assert g.terminal_bit() == terminal
        assert (GaloisProfile.of_register(g) == p) == (terminal == p.tau)

    def test_parse_defaults_missing_to_zero(self):
        p = GaloisProfile.parse("tau = 1\ng1 = x0", 4)
        assert p.residual(2).is_zero
        assert p.residual(3).is_zero

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("g1 = x0", "tau must be declared"),
            ("tau = 9", "out of range"),
            ("tau = 1\ng0 = x0", "outside"),
            ("tau = 1\ng1 = x0\ng1 = x0", "duplicate"),
            ("tau = 1\ng1 = ???", "line 2"),
            ("tau = 1\ng2 = x3", "line 2: residual of bit 2 reads x3 above"),
            ("tau = 1\ng1 = x0\ng3 = x0", "line 3: residual of bit 3 may not read x0"),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(ValueError) as err:
            GaloisProfile.parse(text, 4)
        assert fragment in str(err.value)


class TestLowering:
    def test_published_target_terminal_2(self):
        profile = GaloisProfile.parse("tau = 2\ng3 = x1\ng2 = x1 + x0*x1", 4)
        result, moves = lower_to_profile(F, profile)
        assert result == A
        assert [str(m) for m in moves] == ["3 -> 2: x1*x2 + x2"]

    def test_published_target_terminal_1(self):
        profile = GaloisProfile.parse("tau = 1\ng3 = x1\ng2 = x0*x1\ng1 = x0", 4)
        result, moves = lower_to_profile(F, profile)
        assert result == B
        assert [(m.from_bit, m.to_bit) for m in moves] == [(3, 2), (2, 1)]

    def test_identity_profile(self):
        profile = GaloisProfile.of_register(F)
        result, moves = lower_to_profile(F, profile)
        assert result == F
        assert moves == []

    def test_terminal_bit_drops_by_one_per_move(self):
        rng = random.Random(11)
        for _ in range(20):
            fib, profile, galois, moves = random_lowering(rng, rng.randint(4, 7))
            cur = fib
            for mv in moves:
                before = cur.terminal_bit()
                cur = apply_shift(cur, mv)
                assert cur.terminal_bit() == before - 1
            assert cur == galois

    def test_inconsistent_profile(self):
        profile = GaloisProfile.parse("tau = 2\ng3 = x1\ng2 = x1", 4)
        with pytest.raises(StructureError) as err:
            lower_to_profile(F, profile)
        assert "inconsistent" in str(err.value)

    def test_profile_size_must_match(self):
        with pytest.raises(ValueError) as err:
            lower_to_profile(F, GaloisProfile(5, 4, (Anf.zero(),)))
        assert str(err.value) == "register has 4 bits, profile expects 5"

    def test_requires_fibonacci_source(self):
        profile = GaloisProfile.parse("tau = 1\ng3 = x1\ng2 = x0*x1\ng1 = x0", 4)
        with pytest.raises(StructureError):
            lower_to_profile(A, profile)

    def test_unreachable_profile_rejected(self):
        # residuals x1 at bit 2 and x0 at bit 1 telescope to zero on top of
        # g3, so the top feedback carries no mass to push down: the pending
        # set would have to cancel against a parked residual
        fib = Nlfsr.fibonacci(4, Anf.parse("x0 + x1"))
        profile = GaloisProfile.parse("tau = 1\ng3 = x1\ng2 = x1\ng1 = x0", 4)
        with pytest.raises(StructureError) as err:
            lower_to_profile(fib, profile)
        assert str(err.value) == (
            "profile is unreachable at bit 2: term x1 is not present in the residual of bit 2"
        )

    def test_accepted_shifts_preserve_output_sets(self):
        # the constructive guard is backed by the exhaustive oracle
        rng = random.Random(23)
        for _ in range(10):
            fib, profile, galois, moves = random_lowering(rng, rng.randint(4, 6))
            cur = fib
            for mv in moves:
                nxt = apply_shift(cur, mv)
                assert output_set_equivalent(cur, nxt).verdict == "equivalent"
                cur = nxt

    def test_accepted_shifts_preserve_output_sets_wide(self):
        rng = random.Random(24)
        for n in (10, 12):
            fib, profile, galois, moves = random_lowering(rng, n)
            assert output_set_equivalent(fib, galois).verdict == "equivalent"


class TestReconstruction:
    def test_published_reconstructions(self):
        assert reconstruct_fibonacci(A) == F
        assert reconstruct_fibonacci(B) == F

    def test_fibonacci_reconstructs_to_itself(self):
        assert reconstruct_fibonacci(F) == F

    def test_round_trip_through_random_profiles(self):
        rng = random.Random(5)
        for _ in range(30):
            fib, profile, galois, _ = random_lowering(rng, rng.randint(4, 8))
            assert reconstruct_fibonacci(galois) == fib

    def test_non_uniform_rejected(self):
        m = Nlfsr.parse("n = 4\nf3 = x0 + x1\nf2 = x3 + x2*x0\nf1 = x2 + x0\nf0 = x1")
        with pytest.raises(StructureError):
            reconstruct_fibonacci(m)


class TestRandomProfiles:
    @pytest.mark.parametrize("draw", [random_profile, random_lowering])
    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_too_few_bits_refused(self, draw, n):
        with pytest.raises(ValueError) as err:
            draw(random.Random(0), n)
        assert str(err.value) == f"register needs at least 2 bits, got {n}"

    def test_profiles_are_legal_by_construction(self):
        rng = random.Random(17)
        for _ in range(50):
            n = rng.randint(3, 9)
            p = random_profile(rng, n)
            assert 0 <= p.tau < n - 1
            assert not p.residual(p.tau).is_zero
            reg = p.register()
            assert reg.terminal_bit() == p.tau
            assert reg.violations() == []

    @pytest.mark.parametrize(
        "seed,n,digest",
        [
            (1, 5, "7f03cafb187773f3fe610aed11e919a832eced8795cf5a6c2500586b02a3f78c"),
            (2, 11, "5a9494ffd192adf591c9b42b1ffb1ab933ff97ff3d7f0c3581f01e8e1639873c"),
            (3, 14, "bfd0c0ea45bec1959e3c00b64e24aa8074a40a6e177b4d569358d7af6bbf2e09"),
            (4, 18, "eb17d8e389833da24898554680ad2b9e32d0fa37998e96f9dd442542a3918653"),
        ],
    )
    def test_lowerings_are_pinned(self, seed, n, digest):
        # the benchmark draws its registers through random_lowering; a change
        # to the resampling rule or the draw order would silently change them
        fib, profile, galois, moves = random_lowering(random.Random(seed), n)
        text = "\n".join([str(fib), str(profile), str(galois), *map(str, moves)])
        assert hashlib.sha256(text.encode()).hexdigest() == digest
