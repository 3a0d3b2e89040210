"""Command-line front end.

Subcommands: ``simulate``, ``transform``, ``map-state``, ``verify``,
``period`` and ``demo``.  Register and profile files share the grammar
of ``register.read_assignments``, with the header and bit rules of
``Nlfsr.parse`` and ``GaloisProfile.parse``; states on the
command line are bit strings with the highest index first (``0001``
means bit 0 holds 1).  Exit codes: 0 success (and equivalent), 1
not-equivalent, 2 any error, 141 stdout closed before the output ended.
All commands are deterministic given their files and flags.  ``main``
builds its argument parser once per process, on its first call, so
repeated in-process calls skip argparse's setup.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from itertools import islice
from pathlib import Path
from typing import Callable, TypeVar

from . import samples
from .anf import Anf, digits_value, is_ascii_digits
from .register import Nlfsr, format_state, int_to_state, parse_state
from .statemap import build_correction
from .transform import GaloisProfile, ShiftMove, apply_shift, lower_to_profile
from .verify import output_set_equivalent, period_census

T = TypeVar("T")


def _load(path: str, parse: Callable[[str], T]) -> T:
    """Read a register or profile file; errors name the file."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ValueError(f"cannot read {path}: {e}") from None
    try:
        return parse(text)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _cmd_simulate(args) -> int:
    steps = args.steps.strip()
    if not is_ascii_digits(steps):
        raise ValueError(f"steps must be non-negative ASCII digits, got {args.steps!r}")
    count = digits_value(steps)
    if count is None:
        raise ValueError("steps out of range")
    m = _load(args.register, Nlfsr.parse)
    states = m.run(parse_state(args.init, m.n), count)
    if args.states:
        for x in states:
            print(format_state(int_to_state(x, m.n)))
    else:
        # written in chunks as they are made, so memory does not grow with --steps
        chunks = iter(lambda: "".join(["01"[x & 1] for x in islice(states, 4096)]), "")
        sys.stdout.writelines(chunks)
        print()
    return 0


def _parse_move(text: str) -> ShiftMove:
    parts = text.split(",", 2)
    if len(parts) != 3:
        raise ValueError(f"move must be 'from,to,poly', got {text!r}")
    bits = [part.strip() for part in parts[:2]]
    if not all(is_ascii_digits(b) for b in bits):
        raise ValueError(f"move bits must be integers, got {text!r}")
    from_bit, to_bit = map(digits_value, bits)
    if None in (from_bit, to_bit):
        raise ValueError(f"move bits out of range, got {text!r}")
    return ShiftMove(from_bit, to_bit, Anf.parse(parts[2]))


def _cmd_transform(args) -> int:
    m = _load(args.register, Nlfsr.parse)
    if args.profile:
        profile = _load(args.profile, lambda text: GaloisProfile.parse(text, m.n))
        result, moves = lower_to_profile(m, profile)
    else:
        move = _parse_move(args.move)
        result = apply_shift(m, move)
        moves = [move] if not move.terms.is_zero else []
    for mv in moves:
        print(f"move: {mv}", file=sys.stderr)
    print(result)
    return 0


def _cmd_map_state(args) -> int:
    g = _load(args.register, Nlfsr.parse)
    state = parse_state(args.init, g.n)
    correction = build_correction(g)
    if args.direction == "fib2gal":
        print(format_state(correction.apply(state)))
    else:
        print(format_state(correction.invert(state)))
    return 0


def _cmd_verify(args) -> int:
    a = _load(args.register_a, Nlfsr.parse)
    b = _load(args.register_b, Nlfsr.parse)
    report = output_set_equivalent(a, b)
    print(report.verdict)
    if report.witness is not None:
        side = args.register_a if report.witness_side == "first" else args.register_b
        state = format_state(report.witness)
        if report.window is not None:
            state += f" (window {format_state(report.window)})"
        print(f"witness: state {state} of {side} has no output match")
    return 0 if report.verdict == "equivalent" else 1


def _cmd_period(args) -> int:
    m = _load(args.register, Nlfsr.parse)
    census = period_census(m)
    if args.census:
        print(census)
    else:
        print(census.period)
    return 0


def _cmd_demo(args) -> int:
    trio = (
        (samples.GALOIS_A, "0001"),
        (samples.GALOIS_B, "0101"),
        (samples.FIBONACCI, "0001"),
    )
    columns = [m.state_sequence(parse_state(init, 4), 15) for m, init in trio]
    for row in zip(*columns):
        print(" | ".join(format_state(s) for s in row))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlfsr",
        description="Simulate, transform and verify nonlinear feedback shift registers. "
        "States print and parse with the highest bit index first.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a register and print its output bits")
    p.add_argument("register", help="register file")
    p.add_argument("--init", required=True, help="initial state, highest index first")
    p.add_argument("--steps", required=True, help="number of steps, in ASCII digits")
    p.add_argument("--states", action="store_true", help="print one state per line instead")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("transform", help="apply a shifting or lower to a profile")
    p.add_argument("register", help="register file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--profile", help="profile file for a Fibonacci lowering")
    group.add_argument("--move", help="single shifting as 'from,to,poly', e.g. '2,1,x1'")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser(
        "map-state", help="map an initial state between a register and its Fibonacci form"
    )
    p.add_argument("register", help="uniform Galois register file")
    p.add_argument("--init", required=True, help="state to map, highest index first")
    p.add_argument(
        "--direction",
        required=True,
        choices=["fib2gal", "gal2fib"],
        help="fib2gal maps a Fibonacci state to this register's state",
    )
    p.set_defaults(func=_cmd_map_state)

    p = sub.add_parser("verify", help="exhaustively compare the output sets of two registers")
    p.add_argument("register_a", help="first register file")
    p.add_argument("register_b", help="second register file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("period", help="longest state cycle over all initial states")
    p.add_argument("register", help="register file")
    p.add_argument("--census", action="store_true", help="print all cycle lengths with state counts")
    p.set_defaults(func=_cmd_period)

    p = sub.add_parser(
        "demo", help="print the state table of three bundled equivalent 4-bit registers"
    )
    p.set_defaults(func=_cmd_demo)

    return parser


# parse_args never changes the parser and gives each call a new namespace,
# so one parser serves every call; build_parser still returns a fresh one
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout early; send what is left to devnull so
        # that the flush at exit does not fail again, and exit as a tool
        # stopped by SIGPIPE does (128 + 13)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
