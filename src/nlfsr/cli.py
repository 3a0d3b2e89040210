"""Command-line front end.

Subcommands: ``simulate``, ``transform``, ``map-state``, ``verify``,
``period`` and ``demo``.  Register and profile files use the formats
documented in ``Nlfsr.parse`` and ``GaloisProfile.parse``; states on the
command line are bit strings with the highest index first (``0001``
means bit 0 holds 1).  Exit codes: 0 success (and equivalent), 1
not-equivalent, 2 any error.  All commands are deterministic given their
files and flags.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import samples
from .anf import Anf, ParseError
from .register import (
    ExhaustiveLimitError,
    Nlfsr,
    StructureError,
    format_state,
    is_ascii_digits,
    parse_state,
)
from .statemap import build_correction
from .transform import GaloisProfile, ShiftMove, apply_shift, lower_to_profile
from .verify import output_set_equivalent, period_census


def _load_register(path: str) -> Nlfsr:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e}") from None
    try:
        return Nlfsr.parse(text)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _cmd_simulate(args) -> int:
    m = _load_register(args.register)
    state = parse_state(args.init, m.n)
    if args.states:
        for s in m.state_sequence(state, args.steps):
            print(format_state(s))
    else:
        print("".join(str(b) for b in m.output_sequence(state, args.steps)))
    return 0


def _parse_move(text: str) -> ShiftMove:
    parts = text.split(",", 2)
    if len(parts) != 3:
        raise ValueError(f"move must be 'from,to,poly', got {text!r}")
    bits = [part.strip() for part in parts[:2]]
    if not all(is_ascii_digits(b) for b in bits):
        raise ValueError(f"move bits must be integers, got {text!r}")
    return ShiftMove(int(bits[0]), int(bits[1]), Anf.parse(parts[2]))


def _cmd_transform(args) -> int:
    m = _load_register(args.register)
    if args.profile:
        try:
            profile = GaloisProfile.parse(Path(args.profile).read_text(), m.n)
        except OSError as e:
            raise ValueError(f"cannot read {args.profile}: {e}") from None
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
    g = _load_register(args.register)
    state = parse_state(args.init, g.n)
    correction = build_correction(g)
    if args.direction == "fib2gal":
        print(format_state(correction.apply(state)))
    else:
        print(format_state(correction.invert(state)))
    return 0


def _cmd_verify(args) -> int:
    a = _load_register(args.register_a)
    b = _load_register(args.register_b)
    report = output_set_equivalent(a, b)
    print(report.verdict)
    if report.witness is not None:
        side = args.register_a if report.witness_side == "first" else args.register_b
        print(f"witness: state {format_state(report.witness)} of {side} "
              f"has no output match at prefix length {report.prefix_len}")
    return 0 if report.verdict == "equivalent" else 1


def _cmd_period(args) -> int:
    m = _load_register(args.register)
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
    p.add_argument("--steps", required=True, type=int, help="number of steps")
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

    p = sub.add_parser("period", help="longest output cycle over all initial states")
    p.add_argument("register", help="register file")
    p.add_argument("--census", action="store_true", help="print all cycle lengths with state counts")
    p.set_defaults(func=_cmd_period)

    p = sub.add_parser(
        "demo", help="print the state table of three bundled equivalent 4-bit registers"
    )
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, StructureError, ExhaustiveLimitError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
