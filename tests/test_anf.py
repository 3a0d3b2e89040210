import itertools

import pytest
from hypothesis import given, strategies as st

from nlfsr.anf import Anf, Monomial, ParseError


def reference_eval(term_sets, state):
    """Independent oracle: XOR of ANDs computed directly from index sets."""
    acc = 0
    for term in term_sets:
        bit = 1
        for k in term:
            bit &= state[k]
        acc ^= bit
    return acc


monomials = st.frozensets(st.integers(0, 7), max_size=4).map(Monomial)
polys = st.frozensets(monomials, max_size=8).map(Anf)


class TestMonomial:
    def test_indices_sorted_and_deduplicated(self):
        assert Monomial([3, 1, 3, 1]).indices == (1, 3)

    def test_square_collapses(self):
        # x_k * x_k = x_k over GF(2)
        assert Monomial([2, 2]) == Monomial([2])

    def test_constant_one(self):
        m = Monomial()
        assert m.is_one
        assert str(m) == "1"
        assert Anf.one().evaluate((0, 0)) == 1

    @pytest.mark.parametrize("index", [-1, True, False])
    def test_bad_index_rejected(self, index):
        # a bool is an int to isinstance, but x1 would print as xTrue,
        # text that no parser accepts
        with pytest.raises(ValueError):
            Monomial([index])

    def test_shift_below_zero_rejected(self):
        with pytest.raises(ValueError):
            Monomial([1]).shifted(-2)


class TestEvaluate:
    def test_product_and_xor(self):
        p = Anf.parse("x1*x2 + x3")
        assert p.evaluate((0, 1, 1, 0)) == 1

    def test_zero_polynomial(self):
        assert Anf.zero().evaluate((1, 1, 1)) == 0

    def test_residual_of_top_feedback_at_bit3_state(self):
        # x1 + x2 + x1*x2 vanishes when only s_3 is set
        p = Anf.parse("x1 + x2 + x1*x2")
        assert p.evaluate((0, 0, 0, 1)) == 0

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            Anf.parse("x5").evaluate((1, 0))

    @given(polys, st.lists(st.lists(st.integers(0, 1), min_size=8, max_size=8), min_size=1, max_size=70))
    def test_matches_reference(self, p, states):
        # lane j of column k holds bit k of states[j]; W = 70 crosses a machine word
        term_sets = [t.indices for t in p.terms]
        assert p.evaluate(states[0]) == reference_eval(term_sets, states[0])
        columns = [sum(s[k] << j for j, s in enumerate(states)) for k in range(8)]
        lanes = p.evaluate(columns, (1 << len(states)) - 1)
        for j, s in enumerate(states):
            assert lanes >> j & 1 == reference_eval(term_sets, s)
        assert lanes >> len(states) == 0

    @given(polys)
    def test_truth_table_agreement(self, p):
        support = sorted(p.support())
        for values in itertools.product((0, 1), repeat=len(support)):
            state = [0] * 8
            for k, v in zip(support, values):
                state[k] = v
            assert p.evaluate(state) == reference_eval(
                [t.indices for t in p.terms], state
            )


class TestShifts:
    def test_shift_up(self):
        # renumbering by +2 turns x1*x2 + x3 into x3*x4 + x5
        assert Anf.parse("x1*x2 + x3").shifted(2) == Anf.parse("x3*x4 + x5")

    def test_shift_zero_is_identity(self):
        p = Anf.parse("x0*x2 + x1")
        assert p.shifted(0) == p

    def test_shift_down(self):
        assert Anf.parse("x1").shifted(-1) == Anf.parse("x0")

    def test_shift_down_past_zero_rejected(self):
        with pytest.raises(ValueError):
            Anf.parse("x0 + x1").shifted(-1)

    def test_between_bits_wraps(self):
        assert Anf.parse("x1").shifted_between(2, 1, 4) == Anf.parse("x0")
        assert Anf.parse("x0").shifted_between(0, 3, 4) == Anf.parse("x3")
        assert Anf.parse("x0").shifted_between(1, 0, 4) == Anf.parse("x3")

    @pytest.mark.parametrize(
        "p, from_bit, to_bit, message",
        [
            (Anf.var(1), 4, 1, "bits must lie in 0..3, got 4 and 1"),
            (Anf.var(5), 2, 1, "polynomial reads beyond x3"),
        ],
        ids=["bit-outside", "reads-outside"],
    )
    def test_between_refuses_what_lies_outside_the_register(self, p, from_bit, to_bit, message):
        with pytest.raises(ValueError) as err:
            p.shifted_between(from_bit, to_bit, 4)
        assert str(err.value) == message

    def test_between_same_bit_is_identity(self):
        p = Anf.parse("x0*x1 + x2")
        assert p.shifted_between(2, 2, 4) == p

    @given(polys, st.integers(0, 5))
    def test_up_down_round_trip(self, p, m):
        assert p.shifted(m).shifted(-m) == p

    @given(polys, st.integers(0, 7), st.integers(0, 7))
    def test_between_round_trip(self, p, a, b):
        n = 8
        assert p.shifted_between(a, b, n).shifted_between(b, a, n) == p


class TestXor:
    def test_cancellation(self):
        assert Anf.parse("x1 + x2") ^ Anf.parse("x2") == Anf.parse("x1")

    def test_identity(self):
        p = Anf.parse("x0*x1 + x2")
        assert p ^ Anf.zero() == p

    def test_self_inverse(self):
        p = Anf.parse("x0*x1")
        assert (p ^ p).is_zero

    def test_duplicates_cancel_at_construction(self):
        m = Monomial([0, 1])
        assert Anf([m, m]).is_zero
        assert Anf([m, m, m]) == Anf([m])

    @pytest.mark.parametrize(
        "build",
        [lambda: Anf([(1,)]), lambda: Anf.var(1) ^ 1],
        ids=["tuple-term", "xor-int"],
    )
    def test_other_types_refused(self, build):
        with pytest.raises(TypeError):
            build()

    @given(polys, polys, polys)
    def test_group_laws(self, p, q, r):
        assert p ^ q == q ^ p
        assert (p ^ q) ^ r == p ^ (q ^ r)
        assert p ^ Anf.zero() == p
        assert (p ^ p).is_zero


class TestSupport:
    def test_union_of_terms(self):
        assert Anf.parse("x1*x2 + x3").support() == {1, 2, 3}

    def test_zero_and_constant_have_empty_support(self):
        assert Anf.zero().support() == frozenset()
        assert Anf.one().support() == frozenset()


class TestText:
    @pytest.mark.parametrize(
        "text,terms",
        [
            ("x0 + x1", {(0,), (1,)}),
            ("x3 + x1 + x0*x1", {(3,), (1,), (0, 1)}),
            ("1 + x2", {(), (2,)}),
            ("1", {()}),
            ("0", set()),
            (" x0*x2+ x1 ", {(0, 2), (1,)}),
        ],
    )
    def test_parse(self, text, terms):
        assert {t.indices for t in Anf.parse(text).terms} == terms

    def test_parse_cancels_duplicates(self):
        assert Anf.parse("x1 + x1").is_zero
        assert Anf.parse("x1*x1") == Anf.parse("x1")

    def test_canonical_order(self):
        assert str(Anf.parse("x3 + x1 + x0*x1")) == "x0*x1 + x1 + x3"
        assert str(Anf.parse("x2*x5 + 1")) == "1 + x2*x5"
        assert str(Anf.zero()) == "0"

    @pytest.mark.parametrize("bad", ["", "x", "+ x1", "x1 +", "x1 ** x2", "y3", "x1 x2", "1*x2", "x2*1", "x1 + 0"])
    def test_syntax_errors(self, bad):
        with pytest.raises(ParseError):
            Anf.parse(bad)

    @pytest.mark.parametrize(
        "text,n_vars,position",
        [
            ("+ x1", None, 0),
            ("x1 +", None, 4),
            ("x1 ** x2", None, 4),
            ("x1 x2", None, 3),
            ("1*x2", None, 1),
            ("x2*1", None, 3),
            ("x0*1*x2", None, 3),
            ("x1 + 0", None, 5),
            ("0 + x1", None, 0),
            ("x1 + y2", None, 5),
            ("1 1", None, 2),
            # a bound fault before a later grammar fault, and the reverse
            ("x9 + + x1", 4, 0),
            ("x1 x9", 4, 3),
            # a stray character after an earlier fault does not hide it
            ("x9 + ?", 4, 0),
            ("x1 + + ?", None, 5),
            ("+ x1 ?", None, 0),
        ],
    )
    def test_error_carries_position(self, text, n_vars, position):
        with pytest.raises(ParseError) as err:
            Anf.parse(text, n_vars)
        assert err.value.position == position

    @pytest.mark.parametrize("n_vars", [None, 4])
    def test_index_past_4300_digits(self, n_vars):
        # int() refuses more than 4300 digits; leading zeros do not count
        with pytest.raises(ParseError) as err:
            Anf.parse("x0 + x" + "1" * 5000, n_vars)
        assert err.value.position == 5
        assert Anf.parse("x" + "0" * 5000 + "1", n_vars) == Anf.var(1)

    def test_bound_enforced(self):
        with pytest.raises(ParseError):
            Anf.parse("x4", n_vars=4)
        assert Anf.parse("x3", n_vars=4) == Anf.var(3)

    # indices up to 120 so that multi-digit variable names are covered too
    @given(st.frozensets(st.frozensets(st.integers(0, 120), max_size=4).map(Monomial), max_size=8).map(Anf))
    def test_parse_format_round_trip(self, p):
        assert Anf.parse(str(p)) == p
