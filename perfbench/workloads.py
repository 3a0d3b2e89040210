"""Workload set-up: registers, register files, request lists and known answers.

Every input is drawn from a ``random.Random`` seeded by the workload name
and the ``--seed`` argument, so the same seed gives the same requests.
Every request carries an answer fixed here, before anything is timed, and
never computed by the code path the request exercises:

* ``verify`` of ``(fib, galois)`` from ``random_lowering`` is equivalent by
  construction.  ``verify`` of ``(galois, fib')``, where ``fib'`` toggles one
  monomial over x1..x_{n-1} in the top feedback of ``fib``, is not: every
  n-bit output window of a Fibonacci register is its state and the next
  bit is the top feedback of it, so two distinct Fibonacci registers never
  share an output set.
* For a random Galois state r, the first n output bits s of the Galois
  register (from the reference stepper below) are the Fibonacci state with
  the same output stream.  The output determines the state of these
  Galois registers, so ``brute_force_match(fib, galois, s)`` and
  ``map-state --direction fib2gal s`` must give r, ``gal2fib r`` must give
  s, and ``simulate`` of either register prints the reference stream.
* ``transform --profile`` must print ``profile.register()``.
* ``period --census`` of ``fib`` and of ``galois`` must print the same
  census, totalling 2^n with no tail states; ``step_is_bijection`` is true.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path

from nlfsr import Anf, Monomial, Nlfsr, random_lowering

SIM_STEPS = 2000


@dataclass(frozen=True)
class Spec:
    """The register sizes of one round of a workload, one generated pair per entry.

    verify_sizes: an equivalent and a not-equivalent ``verify`` per pair.
    match_sizes: one ``brute_force_match`` per pair.
    census_sizes: ``period --census`` of fib and of galois per pair.
    bijection_sizes: one ``step_is_bijection`` of a galois per pair.
    design_sizes: ``transform --profile``, ``map-state`` both ways, ``simulate`` of both.
    rounds: how many distinct rounds to draw.  More rounds put more
    registers behind each percentile, so it depends less on the seed.
    tail_percentile: the latency percentile reported as the tail; the
    highest that leaves at least ten samples beyond it in a 40-second run
    of nlfsr 0.1.0 on a 2-CPU machine, fixed so that later runs report
    the same percentile.
    """

    verify_sizes: tuple[int, ...] = ()
    match_sizes: tuple[int, ...] = ()
    census_sizes: tuple[int, ...] = ()
    bijection_sizes: tuple[int, ...] = ()
    design_sizes: tuple[int, ...] = ()
    rounds: int = 1
    tail_percentile: float = 50


# The size mixes put the median and the tail percentile of each workload
# inside one group of similar requests rather than on the edge between two.
WORKLOADS = {
    "oracle": Spec(verify_sizes=(11, 12, 12, 13, 13, 14, 14), match_sizes=(10, 10, 11, 11, 12),
                   rounds=6, tail_percentile=90),
    # Two n=18 census pairs a round: the peak memory of a census is set by
    # its longest cycle, so a run needs several n=18 registers to read the
    # same peak whatever the seed.
    "census": Spec(census_sizes=(15, 15, 16, 16, 16, 17, 17, 18, 18),
                   bijection_sizes=(15, 15, 15, 15, 16, 16), rounds=4, tail_percentile=75),
    # Not in BENCHMARK.json: on a shared host its spread exceeded the bound
    # (see README.md); run it by hand with --workload design.
    "design": Spec(design_sizes=(16, 16, 20, 24, 24, 28, 32, 32, 40, 40, 48, 48, 56, 56, 64, 64),
                   rounds=2, tail_percentile=99),
}

# One small pair of every kind: in a traced run it gives a number to the
# layers the workload itself never calls.
PROBE = Spec(verify_sizes=(10,), match_sizes=(10,), census_sizes=(10,), bijection_sizes=(10,),
             design_sizes=(16,))

LIBRARY_KINDS = ("match", "bijection")


@dataclass(frozen=True)
class Request:
    """One request and its known answer.

    CLI requests carry ``argv`` for ``nlfsr.cli.main`` and expect
    ``(exit code, stdout)``; for ``verify`` only the first stdout line is
    fixed, and ``census`` answers are checked against their pair instead.
    Library requests carry the call's ``args`` and expect its return value.
    """

    kind: str
    n: int
    pair: str
    argv: tuple[str, ...] = ()
    args: tuple = ()
    expected: object = None


@dataclass(frozen=True)
class Setup:
    """Distinct rounds of requests; runs send them in turn, then start over."""

    rounds: tuple[tuple[Request, ...], ...]
    lowering_s: float


def _masks(m: Nlfsr) -> list[tuple[int, tuple[int, ...]]]:
    """(bit, AND-masks) of every feedback that is more than its shift tap."""
    out = []
    for i, f in enumerate(m.feedbacks):
        tap = (i + 1) % m.n
        masks = tuple(sum(1 << k for k in t.indices) for t in f.terms if t.indices != (tap,))
        if len(masks) == len(f.terms):
            raise ValueError(f"bit {i} does not read its shift tap x{tap}")
        if masks:
            out.append((i, masks))
    return out


def reference_outputs(m: Nlfsr, x: int, steps: int) -> str:
    """The first ``steps`` output bits from packed state x, as a 0/1 string.

    An independent stepper for registers whose every bit is its shift tap
    XOR a residual: rotate right, then XOR in the residuals.
    """
    top = m.n - 1
    taps = _masks(m)
    bits = []
    for _ in range(steps):
        bits.append("1" if x & 1 else "0")
        y = (x >> 1) | ((x & 1) << top)
        for i, masks in taps:
            p = 0
            for mk in masks:
                p ^= (x & mk) == mk
            y ^= p << i
        x = y
    return "".join(bits)


def display(x: int, n: int) -> str:
    """Packed state x as the CLI prints it, highest index first."""
    return format(x, f"0{n}b")


def unpack(x: int, n: int) -> tuple[int, ...]:
    return tuple((x >> i) & 1 for i in range(n))


class _Builder:
    def __init__(self, rng: random.Random, workdir: Path, label: str):
        self.rng = rng
        self.workdir = workdir
        self.label = label
        self.pairs = 0
        self.lowering_s = 0.0

    def lowering(self, n: int):
        pair = f"{self.label}{self.pairs}"
        self.pairs += 1
        t = time.perf_counter()
        fib, profile, galois, _ = random_lowering(self.rng, n)
        self.lowering_s += time.perf_counter() - t
        return pair, fib, profile, galois

    def write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text + "\n")
        return str(path)

    def state_pair(self, galois: Nlfsr, steps: int) -> tuple[int, int, str]:
        """A random Galois state r, its Fibonacci counterpart s, and the output stream."""
        r = self.rng.getrandbits(galois.n)
        stream = reference_outputs(galois, r, steps)
        s = int(stream[: galois.n][::-1], 2)
        return r, s, stream

    def verify(self, n: int) -> list[Request]:
        pair, fib, _, galois = self.lowering(n)
        indices = self.rng.sample(range(1, n), self.rng.randint(1, 3))
        top = fib.feedbacks[n - 1] ^ Anf([Monomial(indices)])
        other = Nlfsr.fibonacci(n, top)
        f = self.write(f"{pair}-fib.reg", str(fib))
        g = self.write(f"{pair}-gal.reg", str(galois))
        o = self.write(f"{pair}-fib-toggled.reg", str(other))
        return [
            Request("verify", n, pair, argv=("verify", f, g), expected=(0, "equivalent")),
            Request("verify", n, pair, argv=("verify", g, o), expected=(1, "not-equivalent")),
        ]

    def match(self, n: int) -> list[Request]:
        pair, fib, _, galois = self.lowering(n)
        r, s, _ = self.state_pair(galois, n)
        return [Request("match", n, pair, args=(fib, galois, unpack(s, n)), expected=unpack(r, n))]

    def census(self, n: int) -> list[Request]:
        pair, fib, _, galois = self.lowering(n)
        f = self.write(f"{pair}-fib.reg", str(fib))
        g = self.write(f"{pair}-gal.reg", str(galois))
        return [
            Request("census", n, pair, argv=("period", f, "--census")),
            Request("census", n, pair, argv=("period", g, "--census")),
        ]

    def bijection(self, n: int) -> list[Request]:
        pair, _, _, galois = self.lowering(n)
        return [Request("bijection", n, pair, args=(galois,), expected=True)]

    def design(self, n: int) -> list[Request]:
        pair, fib, profile, galois = self.lowering(n)
        r, s, stream = self.state_pair(galois, SIM_STEPS)
        f = self.write(f"{pair}-fib.reg", str(fib))
        g = self.write(f"{pair}-gal.reg", str(galois))
        p = self.write(f"{pair}.prof", str(profile))
        rs, ss = display(r, n), display(s, n)
        steps = str(SIM_STEPS)
        return [
            Request("transform", n, pair, argv=("transform", f, "--profile", p),
                    expected=(0, f"{profile.register()}\n")),
            Request("map", n, pair, argv=("map-state", g, "--init", ss, "--direction", "fib2gal"),
                    expected=(0, rs + "\n")),
            Request("map", n, pair, argv=("map-state", g, "--init", rs, "--direction", "gal2fib"),
                    expected=(0, ss + "\n")),
            Request("simulate", n, pair, argv=("simulate", f, "--init", ss, "--steps", steps),
                    expected=(0, stream + "\n")),
            Request("simulate", n, pair, argv=("simulate", g, "--init", rs, "--steps", steps),
                    expected=(0, stream + "\n")),
        ]


def build(spec: Spec, rng: random.Random, workdir: Path, label: str = "p") -> Setup:
    """Generate ``spec.rounds`` distinct rounds of requests and write their files.

    Pairs are named ``label`` plus a running index, which also names their
    files.  Oracle and census requests run in a seed-shuffled order; design
    requests keep the order a user follows for one register (transform,
    map-state, simulate) and the registers are shuffled.
    """
    b = _Builder(rng, workdir, label)
    rounds = []
    for _ in range(spec.rounds):
        loose: list[Request] = []
        for n in spec.verify_sizes:
            loose += b.verify(n)
        for n in spec.match_sizes:
            loose += b.match(n)
        for n in spec.census_sizes:
            loose += b.census(n)
        for n in spec.bijection_sizes:
            loose += b.bijection(n)
        rng.shuffle(loose)
        chains = [b.design(n) for n in spec.design_sizes]
        rng.shuffle(chains)
        rounds.append(tuple(loose + [req for chain in chains for req in chain]))
    return Setup(tuple(rounds), b.lowering_s)


def seeded_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")
