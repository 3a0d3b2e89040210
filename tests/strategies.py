"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from nlfsr.anf import Anf, Monomial
from nlfsr.register import Nlfsr


def polys(n: int):
    """Polynomials in x_0..x_{n-1}, the zero polynomial and constant terms included."""
    terms = st.frozensets(st.integers(0, n - 1), max_size=3).map(Monomial)
    return st.frozensets(terms, max_size=4).map(Anf)


@st.composite
def registers(draw, max_n: int) -> Nlfsr:
    """Registers of 2..max_n bits with arbitrary feedbacks: non-bijective
    updates and no register structure are allowed."""
    n = draw(st.integers(2, max_n))
    return Nlfsr(draw(st.lists(polys(n), min_size=n, max_size=n)))
