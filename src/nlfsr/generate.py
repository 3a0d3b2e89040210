"""Random uniform registers and lowering profiles, for tests and experiments.

All generation is driven by an explicit random.Random so runs are
reproducible from a seed.  Pairs are produced profile-first: a random
legal profile fixes both its Fibonacci source and its Galois register,
and the draw is kept only when the telescope rule (GaloisProfile.moves)
says the profile is reachable; unreachable draws are resampled.
"""

from __future__ import annotations

import random

from .anf import Anf, Monomial
from .register import Nlfsr
from .transform import GaloisProfile, ShiftMove, ShiftRejected


def random_monomial(rng: random.Random, lowest: int, highest: int) -> Monomial:
    """A random product-term of degree 1 to 3 over x_lowest..x_highest."""
    degree = rng.randint(1, min(3, highest - lowest + 1))
    return Monomial(rng.sample(range(lowest, highest + 1), degree))


def random_residual(rng: random.Random, tau: int, *, forbid_x0: bool = False) -> Anf:
    """A random residual of up to 3 terms reading only x_0..x_tau (possibly zero)."""
    lowest = 1 if forbid_x0 else 0
    terms: list[Monomial] = []
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.1:
            terms.append(Monomial())
        elif lowest <= tau:
            terms.append(random_monomial(rng, lowest, tau))
    return Anf(terms)


def random_profile(rng: random.Random, n: int) -> GaloisProfile:
    """A random legal profile with a genuinely Galois terminal bit."""
    if n < 2:
        raise ValueError(f"register needs at least 2 bits, got {n}")
    while True:
        tau = rng.randrange(0, n - 1)
        residuals = [random_residual(rng, tau, forbid_x0=(k == n - 1)) for k in range(tau, n)]
        if residuals[0].is_zero:
            continue  # the terminal bit itself must keep a residual
        return GaloisProfile(n, tau, tuple(residuals))


def random_lowering(rng: random.Random, n: int) -> tuple[Nlfsr, GaloisProfile, Nlfsr, list[ShiftMove]]:
    """A reachable (fibonacci, profile, galois, moves) quadruple.

    Both registers are read off the profile, so the pair is consistent
    by construction; profiles that GaloisProfile.moves finds unreachable
    are resampled.
    """
    while True:
        profile = random_profile(rng, n)
        try:
            moves = profile.moves()
        except ShiftRejected:
            continue
        return profile.fibonacci(), profile, profile.register(), moves
