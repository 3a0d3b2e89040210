"""Running requests: the memory pre-check, the timed call, the known-answer
check and, in a traced run, the spans of every layer the request reaches.

A traced request runs three times, in an order rotated from request to
request: once untraced (its latency is the untraced figure), once through
``nlfsr.cli.main`` inside a ``cli`` span, and once as the chain of public
library calls that command makes, one span per call.  Spans are measured from outside the library, around
calls into each layer's public functions.
"""

from __future__ import annotations

import contextlib
import io
import os
import time
from dataclasses import dataclass
from pathlib import Path

from nlfsr import (
    GaloisProfile,
    Nlfsr,
    brute_force_match,
    build_correction,
    lower_to_profile,
    output_set_equivalent,
    parse_state,
    period_census,
    step_is_bijection,
)
from nlfsr import cli

from .workloads import LIBRARY_KINDS, Request

LIBRARY = {"match": brute_force_match, "bijection": step_is_bijection}


def predicted_mb(kind: str, n: int) -> float:
    """Peak memory a request adds to the process, predicted from n alone.

    Calibrated against one-request processes on nlfsr 0.1.0 (n=13..15
    verify added 27/106/416 MB, n=18 census 31 MB and bijection 16 MB),
    then rounded up.  ``verify`` and ``match`` hold tables of (2^n + n)-bit
    output prefixes, one Python int per state, while doubling them.
    """
    size = 1 << n
    prefix_table = size * (32 + 4 * -(-(size + n) // 30))
    if kind == "verify":
        need = 3.5 * prefix_table + 400 * size
    elif kind == "match":
        need = 2.5 * prefix_table + 200 * size
    elif kind == "census":
        need = 200 * size
    elif kind == "bijection":
        need = 120 * size
    else:
        need = 0
    return need / 2**20


def available_mb() -> float:
    """Memory this process may still take: MemAvailable, capped by a cgroup limit."""
    avail = float("inf")
    with contextlib.suppress(OSError, ValueError):
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                avail = int(line.split()[1]) / 1024
    with contextlib.suppress(OSError, ValueError):
        limit = Path("/sys/fs/cgroup/memory.max").read_text().strip()
        used = Path("/sys/fs/cgroup/memory.current").read_text().strip()
        if limit != "max":
            avail = min(avail, (int(limit) - int(used)) / 2**20)
    if avail == float("inf"):
        avail = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_AVPHYS_PAGES") / 2**20
    return avail


class Tracer:
    """Spans kept in memory: ``[request id, span id, parent id, name, start, end]``.

    Counts recorded at the same boundaries are ``(request id, name, value)``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[tuple[int, str, float]] = []
        self.rid = -1
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [self.rid, sid, parent, name, time.perf_counter(), None]
        self.spans.append(record)
        self._open.append(sid)
        try:
            yield
        finally:
            self._open.pop()
            record[5] = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        self.counts.append((self.rid, name, value))


@dataclass
class Result:
    request: Request
    latency_s: float | None  # None when refused or raised
    error: str | None = None
    refused: bool = False
    predicted_mb: float = 0.0
    rid: int | None = None  # request id shared by the request's spans


def call_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(list(argv))
        except SystemExit as e:  # argparse rejects its arguments this way
            rc = e.code
    return rc, out.getvalue()


def call(req: Request):
    if req.kind in LIBRARY_KINDS:
        return LIBRARY[req.kind](*req.args)
    return call_cli(req.argv)


class Runner:
    """Runs requests one at a time and checks every answer."""

    def __init__(self, tracer: Tracer | None = None, avail_mb: float | None = None):
        self.tracer = tracer
        self.avail_mb = available_mb() if avail_mb is None else avail_mb
        self._census: dict[str, str] = {}
        self._next_rid = 0

    def run(self, req: Request) -> Result:
        need = predicted_mb(req.kind, req.n)
        if need > self.avail_mb:
            return Result(req, None, f"refused: needs ~{need:.0f} MB, {self.avail_mb:.0f} MB available",
                          refused=True, predicted_mb=need)
        rid = self._next_rid
        self._next_rid += 1
        timing: list[float] = []
        scanned: list[Nlfsr] = []

        def untraced() -> str | None:
            t = time.perf_counter()
            outcome = call(req)
            timing.append(time.perf_counter() - t)
            return self.check(req, outcome)

        def cli_span() -> str | None:
            with self.tracer.span("cli"):
                outcome = call_cli(req.argv)
            return self.check(req, outcome)

        def chain() -> str | None:
            with self.tracer.span("chain"):
                outcome, registers = CHAINS[req.kind](req, self.tracer)
            scanned.extend(registers)
            error = self.check(req, outcome)
            return error and "library chain: " + error

        steps = [untraced]
        if self.tracer is not None:
            self.tracer.rid = rid
            steps += [chain] if req.kind in LIBRARY_KINDS else [cli_span, chain]
            # Rotate the order so that no execution is always the first or last.
            k = rid % len(steps)
            steps = steps[k:] + steps[:k]
        try:
            error = None
            for step in steps:
                error = error or step()
            if self.tracer is not None and error is None:
                self._successor_probe(req, scanned)
        except Exception as e:  # a crashing request is a failed request, not a crashed benchmark
            return Result(req, None, f"{type(e).__name__}: {e}", predicted_mb=need, rid=rid)
        return Result(req, timing[0] if timing else None, error, predicted_mb=need, rid=rid)

    def check(self, req: Request, outcome) -> str | None:
        """None when the outcome is the known answer, else what was wrong."""
        if req.kind in LIBRARY_KINDS:
            return None if outcome == req.expected else f"returned {outcome!r}, expected {req.expected!r}"
        rc, text = outcome
        if req.kind == "census":
            return self._check_census(req, rc, text)
        if req.kind == "verify":
            got = (rc, text.split("\n", 1)[0])
        else:
            got = (rc, text)
        if got != req.expected:
            return f"{req.argv[0]}: got {_short(got)}, expected {_short(req.expected)}"
        return None

    def _check_census(self, req: Request, rc: int, text: str) -> str | None:
        line = text.strip()
        if rc != 0:
            return f"census exited {rc}"
        try:
            counts = [part.split(":") for part in line.split(", ")]
            if any(length.strip() == "tails" for length, _ in counts):
                return f"census has tail states: {line}"
            total = sum(int(c) for _, c in counts)
        except ValueError:
            return f"census is malformed: {_short(line)}"
        if total != 1 << req.n:
            return f"census totals {total}, expected {1 << req.n}"
        first = self._census.setdefault(req.pair, line)
        if first != line:
            return f"census {_short(line)} differs from its pair's {_short(first)}"
        return None

    def _successor_probe(self, req: Request, scanned: list[Nlfsr]) -> None:
        """Build the successor table of every register the request scanned.

        The probe runs outside the chain: the oracles build the same table
        inside, where no span can reach.
        """
        tr = self.tracer
        for m in scanned:
            with tr.span("register.successor"):
                [m.step_packed(x) for x in range(1 << m.n)]
            tr.count("register.states", 1 << m.n)
        tr.count("verify.states_scanned", len(scanned) << req.n)


def _short(value, limit: int = 80) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


# -- library chains: the public calls each request makes, one span per call ----


def _parse_register(path: str, tr: Tracer) -> Nlfsr:
    text = Path(path).read_text()
    with tr.span("anf.parse"):
        m = Nlfsr.parse(text)
    tr.count("anf.terms", sum(len(f.terms) for f in m.feedbacks))
    return m


def _chain_verify(req, tr):
    a = _parse_register(req.argv[1], tr)
    b = _parse_register(req.argv[2], tr)
    with tr.span("verify.equivalence"):
        report = output_set_equivalent(a, b)
    return (0 if report.verdict == "equivalent" else 1, report.verdict + "\n"), (a, b)


def _chain_census(req, tr):
    m = _parse_register(req.argv[1], tr)
    with tr.span("verify.census"):
        census = period_census(m)
    return (0, f"{census}\n"), (m,)


def _chain_transform(req, tr):
    m = _parse_register(req.argv[1], tr)
    text = Path(req.argv[3]).read_text()
    with tr.span("anf.parse"):
        profile = GaloisProfile.parse(text, m.n)
    tr.count("anf.terms", sum(len(g.terms) for g in profile.residuals))
    with tr.span("transform.lower"):
        result, moves = lower_to_profile(m, profile)
    tr.count("transform.moves", len(moves))
    return (0, f"{result}\n"), ()


def _chain_map(req, tr):
    g = _parse_register(req.argv[1], tr)
    state = parse_state(req.argv[3], g.n)
    with tr.span("statemap.build"):
        correction = build_correction(g)
    with tr.span("statemap.map"):
        mapped = correction.apply(state) if req.argv[5] == "fib2gal" else correction.invert(state)
    tr.count("statemap.maps", 1)
    return (0, "".join(map(str, reversed(mapped))) + "\n"), ()


def _chain_simulate(req, tr):
    m = _parse_register(req.argv[1], tr)
    state = parse_state(req.argv[3], m.n)
    steps = int(req.argv[5])
    with tr.span("register.simulate"):
        bits = m.output_sequence(state, steps)
    tr.count("register.steps", steps)
    return (0, "".join(map(str, bits)) + "\n"), ()


def _chain_match(req, tr):
    with tr.span("verify.match"):
        found = brute_force_match(*req.args)
    return found, (req.args[1],)


def _chain_bijection(req, tr):
    with tr.span("verify.bijection"):
        ok = step_is_bijection(*req.args)
    return ok, req.args


CHAINS = {
    "verify": _chain_verify,
    "census": _chain_census,
    "transform": _chain_transform,
    "map": _chain_map,
    "simulate": _chain_simulate,
    "match": _chain_match,
    "bijection": _chain_bijection,
}
