"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from nlfsr.anf import Anf, Monomial
from nlfsr.register import Nlfsr
from nlfsr.transform import GaloisProfile


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
