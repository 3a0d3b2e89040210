"""Hypothesis strategies, a reference stepper, stream prefixes and the registers shared by the test modules."""

import random
from functools import lru_cache

from hypothesis import strategies as st

from nlfsr.anf import Anf, Monomial
from nlfsr.register import Nlfsr, int_to_state
from nlfsr.transform import GaloisProfile


def polys(n: int):
    """Polynomials in x_0..x_{n-1}, the zero polynomial and constant terms included."""
    terms = st.frozensets(st.integers(0, n - 1), max_size=3).map(Monomial)
    return st.frozensets(terms, max_size=4).map(Anf)


def sized_registers(n: int):
    """n-bit registers with arbitrary feedbacks: non-bijective updates and
    no register structure are allowed."""
    return st.lists(polys(n), min_size=n, max_size=n).map(Nlfsr)


def registers(max_n: int):
    """``sized_registers`` of 2..max_n bits."""
    return st.integers(2, max_n).flatmap(sized_registers)


def fibonacci_registers(n: int):
    """n-bit Fibonacci registers with any top feedback."""
    return polys(n).map(lambda top: Nlfsr.fibonacci(n, top))


@lru_cache(maxsize=64)
def _term_masks(m: Nlfsr) -> list[tuple[int, list[int]]]:
    """(bit i, the AND-mask of each term of f_i), built here from the indices."""
    return [(i, [sum(1 << k for k in t.indices) for t in f.terms]) for i, f in enumerate(m.feedbacks)]


def reference_step(m: Nlfsr, x: int) -> int:
    """Packed state x after one step, read term by term off ``m.feedbacks``:
    bit i is the parity of the terms of f_i whose variables are all set.

    It uses neither the register's stored split nor ``Anf.evaluate``, so
    it stays an independent reference for every stepper of the library.
    """
    out = 0
    for i, masks in _term_masks(m):
        parity = 0
        for mask in masks:
            parity ^= x & mask == mask
        out |= parity << i
    return out


def edge_register(n: int) -> Nlfsr:
    """Every bit gets a constant term, its shift tap, a product and a term
    reading the top bit; the top two bits share one feedback, so the
    update is never a bijection."""
    rng = random.Random(n)
    fbs = [
        Anf([
            Monomial(),
            Monomial(((i + 1) % n,)),
            Monomial(rng.sample(range(n), 2)),
            Monomial((n - 1, rng.randrange(n))),
        ])
        for i in range(n)
    ]
    fbs[n - 1] = fbs[n - 2]
    return Nlfsr(fbs)


def streams(m: Nlfsr, length: int) -> list[tuple[int, ...]]:
    """The first length output bits of m from each state, in state order."""
    return [tuple(m.output_sequence(int_to_state(x, m.n), length)) for x in range(1 << m.n)]


# Bits 1-6 (first) or 1-5 (second) count, x_k' = x_k + x1*...*x_{k-1},
# and bit 0 emits 1 one step after the count wraps.  Both emit the same
# 16 eight-bit windows, which fail Moore's test, but the first emits a 1
# every 64 steps and the second every 32, so they are not equivalent.
COUNTERS = (
    "n = 7\nf6 = x1*x2*x3*x4*x5 + x6\nf5 = x1*x2*x3*x4 + x5\nf4 = x1*x2*x3 + x4\n"
    "f3 = x1*x2 + x3\nf2 = x1 + x2\nf1 = 1 + x1\nf0 = x1*x2*x3*x4*x5*x6",
    "n = 7\nf6 = x6\nf5 = x1*x2*x3*x4 + x5\nf4 = x1*x2*x3 + x4\n"
    "f3 = x1*x2 + x3\nf2 = x1 + x2\nf1 = 1 + x1\nf0 = x1*x2*x3*x4*x5",
)


@st.composite
def profiles(draw, max_n: int = 8) -> GaloisProfile:
    """Any legal profile, the tau = n - 1 and zero-residual cases included."""
    n = draw(st.integers(2, max_n))
    tau = draw(st.integers(0, n - 1))
    residuals = []
    for i in range(tau, n):
        lowest = 1 if i == n - 1 else 0  # the top residual may not read x0
        terms = st.frozensets(st.integers(0, tau), max_size=3).map(
            lambda ks: Monomial(k for k in ks if k >= lowest)
        )
        residuals.append(draw(st.frozensets(terms, max_size=3).map(Anf)))
    return GaloisProfile(n, tau, tuple(residuals))
