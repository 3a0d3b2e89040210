"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they pass; every tolerance here is exact (zero violations allowed).
"""

import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from nlfsr import samples
from nlfsr.anf import Anf, Monomial
from nlfsr.cli import main
from nlfsr.generate import random_lowering
from nlfsr.register import (
    Nlfsr,
    format_state,
    int_to_state,
    parse_state,
    state_to_int,
)
from nlfsr.statemap import build_correction, single_shift_map
from nlfsr.transform import (
    GaloisProfile,
    ShiftMove,
    ShiftRejected,
    apply_shift,
    lower_to_profile,
    reconstruct_fibonacci,
)
from nlfsr.verify import output_classes, period_census

A, B, F = samples.GALOIS_A, samples.GALOIS_B, samples.FIBONACCI
GOLDEN = Path(__file__).parent / "data" / "demo_table.txt"

# generated register pairs shared by criteria 6, 7, 8 and 9
PAIRS_PER_SIZE = {4: 40, 5: 35, 6: 35, 7: 30, 8: 25, 9: 20, 10: 15}  # 200 total
ORACLE_PAIRS_PER_SIZE = {4: 10, 5: 10, 6: 10, 7: 10, 8: 10}  # 50 total, n <= 8


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL  {description}")
        raise
    print(f"[criterion {num:2d}] PASS  {description}")


@pytest.fixture(scope="module")
def pairs():
    rng = random.Random(20260809)
    out = []
    for n, count in PAIRS_PER_SIZE.items():
        for _ in range(count):
            out.append((n, *random_lowering(rng, n)))
    return out


def test_criterion_01_state_table_reproduction(capsys):
    with criterion(1, "bundled demo reproduces the published 15x3 state table"):
        start = time.perf_counter()
        assert main(["demo"]) == 0
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert captured.out == GOLDEN.read_text()
        assert elapsed < 1.0
    print(f"               table emitted in {elapsed * 1000:.1f} ms")


def test_criterion_02_output_sequences():
    with criterion(2, "published output sequences match exactly"):
        out = A.output_sequence(parse_state("0001"), 15)
        assert "".join(map(str, out)) == "100010110100111"
        for m in (A, B, F):
            out = m.output_sequence(parse_state("1000"), 15)
            assert "".join(map(str, out)) == "000101101001111"


def test_criterion_03_state_mapping():
    with criterion(3, "state mapping matches the published matching states, both ways"):
        corr_a, corr_b = build_correction(A), build_correction(B)
        s = parse_state("0001")
        assert format_state(corr_b.apply(s)) == "0101"
        assert format_state(corr_a.apply(s)) == "0001"
        assert corr_b.invert(parse_state("0101")) == s
        assert corr_a.invert(parse_state("0001")) == s


def test_criterion_04_periods():
    with criterion(4, "all three bundled registers have period 15 (16-state census)"):
        for m in (A, B, F):
            census = period_census(m)
            assert census.total == 16
            assert census.period == 15


def test_criterion_05_terminal_bits():
    with criterion(5, "terminal bits of the bundled Galois registers are 2 and 1"):
        assert A.terminal_bit() == 2
        assert B.terminal_bit() == 1


def test_criterion_06_mapping_preserves_outputs_exhaustively(pairs):
    with criterion(
        6,
        f"{len(pairs)} random lowerings, n in 4..10: mapped states give identical "
        "infinite output streams for ALL initial states",
    ):
        assert len(pairs) >= 200
        violations = 0
        for n, fib, profile, galois, moves in pairs:
            corr = build_correction(galois)
            pf, pg = output_classes(fib, galois)
            for x in range(1 << n):
                r = corr.apply(int_to_state(x, n))
                if pf[x] != pg[state_to_int(r)]:
                    violations += 1
        assert violations == 0


def test_criterion_07_single_shift_state_sequences(pairs):
    # With m the fix-up of one shifting and F, G the steps before and after
    # it, two facts per state x give the lemma for every walk by induction:
    # x XOR m(x) sets only the source bit, and G(m(x)) == m(F(x)).  So the
    # walks from s and m(s) differ only at the source bit, by the moved
    # terms one bit down, at every step.
    with criterion(
        7,
        "every one-bit shifting stage of the 200 lowerings and the published "
        "A -> B stage: the fix-up commutes with one step from every state and "
        "changes only the source bit",
    ):
        published = ShiftMove(2, 1, Anf.parse("x1"))
        assert apply_shift(A, published) == B
        stages = [(A, published, B)]
        for n, fib, profile, galois, moves in pairs:
            cur = fib
            for mv in moves:
                stages.append((cur, mv, apply_shift(cur, mv)))
                cur = stages[-1][2]
            assert cur == galois
        for cur, mv, nxt in stages:
            assert mv.to_bit == mv.from_bit - 1
            n, allowed = cur.n, 1 << mv.from_bit
            m = [
                state_to_int(single_shift_map(mv.terms, mv.from_bit, int_to_state(x, n)))
                for x in range(1 << n)
            ]
            for x, y in enumerate(m):
                assert (x ^ y) & ~allowed == 0
                assert nxt.step_packed(y) == m[cur.step_packed(x)]
    print(f"               {len(stages)} shifting stages checked")


def test_criterion_08_oracle_concordance():
    with criterion(
        8,
        "brute-force matching agrees with the correction formula on every "
        "state for 50 pairs, n <= 8",
    ):
        rng = random.Random(8181)
        count = 0
        for n, pairs_wanted in ORACLE_PAIRS_PER_SIZE.items():
            for _ in range(pairs_wanted):
                fib, profile, galois, moves = random_lowering(rng, n)
                corr = build_correction(galois)
                pf, pg = output_classes(fib, galois)
                smallest: dict[int, int] = {}
                for y in range((1 << n) - 1, -1, -1):
                    smallest[pg[y]] = y
                for x in range(1 << n):
                    scanned = smallest.get(pf[x])  # what brute force would return
                    assert scanned is not None
                    mapped = state_to_int(corr.apply(int_to_state(x, n)))
                    assert pg[scanned] == pg[mapped] == pf[x]
                count += 1
        assert count == 50


def test_criterion_09_round_trip(pairs):
    with criterion(9, "reconstruction undoes every generated lowering, polynomial-exact"):
        for n, fib, profile, galois, moves in pairs:
            assert reconstruct_fibonacci(galois) == fib


def _illegal_shift_cases():
    non_singular = Nlfsr.parse("n = 3\nf2 = x0\nf1 = x2 + x1*x2\nf0 = x1")
    condition_b_source = Nlfsr.parse(
        "n = 4\nf3 = x0 + x1\nf2 = x3 + x2*x0\nf1 = x2 + x0\nf0 = x1"
    )
    cases = [
        ("wrap of x0 lands above the new terminal bit", B, ShiftMove(1, 0, Anf.parse("x0"))),
        ("terms absent from the source residual", A, ShiftMove(2, 1, Anf.parse("x0"))),
        ("the shift tap itself cannot move", A, ShiftMove(2, 1, Anf.parse("x3"))),
        ("source bit is not the terminal bit", A, ShiftMove(1, 0, Anf.parse("x2"))),
        ("non-singular source register", non_singular, ShiftMove(1, 0, Anf.parse("x1"))),
        ("source violates the residual window", condition_b_source, ShiftMove(1, 0, Anf.parse("x0"))),
        ("x0-dependent terms wrap on a deep move", A, ShiftMove(2, 0, Anf.parse("x1 + x0*x1"))),
        (
            "a residual high above keeps reading past the new terminal bit",
            Nlfsr.parse("n = 5\nf4 = x0 + x1\nf3 = x4\nf2 = x3\nf1 = x2 + x1\nf0 = x1"),
            ShiftMove(1, 0, Anf.parse("x1")),
        ),
    ]
    # registers whose terminal residual reads x0: pushing that term down one
    # bit renumbers it to the top variable, outside every window
    rng = random.Random(1010)
    made = 0
    while made < 6:
        n = rng.randint(4, 7)
        fib, profile, galois, moves = random_lowering(rng, n)
        tau = galois.terminal_bit()
        residual = galois.residual(tau)
        x0_terms = Anf(t for t in residual.terms if 0 in t.indices)
        if tau < 1 or tau >= n - 1 or x0_terms.is_zero:
            continue
        cases.append(
            (f"x0-dependent terms at terminal bit {tau} of a generated register",
             galois, ShiftMove(tau, tau - 1, x0_terms))
        )
        made += 1
    # Fibonacci sources whose top residual reads the top variable: moving the
    # rest down leaves a residual above the new terminal bit
    made = 0
    while made < 6:
        n = rng.randint(4, 7)
        low = Anf.parse("x1")
        fib = Nlfsr.fibonacci(n, Anf.var(0) ^ low ^ Anf([Monomial([n - 1])]))
        cases.append(
            (f"residual left behind reads bit {n - 1} above the new terminal bit",
             fib, ShiftMove(n - 1, n - 2, low))
        )
        made += 1
    # tampered lowering stages: an alien monomial that was never in the residual
    made = 0
    while made < 4:
        n = rng.randint(4, 7)
        fib, profile, galois, moves = random_lowering(rng, n)
        if not moves:
            continue
        mv = moves[0]
        alien = Anf.var(mv.from_bit + 1) if mv.from_bit + 1 < n else Anf.var(mv.from_bit)
        if alien.terms <= fib.residual(mv.from_bit).terms:
            continue
        cases.append(
            ("tampered stage with a term absent from the residual",
             fib, ShiftMove(mv.from_bit, mv.to_bit, mv.terms ^ alien))
        )
        made += 1
    return cases


def test_criterion_10_guard_soundness():
    cases = _illegal_shift_cases()
    with criterion(
        10, f"{len(cases)} illegal shifts all rejected with structured reasons"
    ):
        assert len(cases) >= 20
        for description, register, move in cases:
            with pytest.raises(ShiftRejected) as err:
                apply_shift(register, move)
            assert str(err.value), description
    print(f"               {len(cases)} rejections verified")
