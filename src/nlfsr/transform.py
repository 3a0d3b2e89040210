"""Moving feedback product-terms between register bits.

A shifting takes a set of product-terms out of the feedback of one bit
and XORs it, with indices renumbered by (k - from + to) mod n, into the
feedback of a lower bit.  It preserves the set of output sequences only
under guard conditions, which applyShift checks constructively on both
the source and the transformed register; a failed guard raises with the
exact structural violations instead of returning a wrong register.

lower_to_profile drives a Fibonacci register down to a requested Galois
shape through a chain of one-bit shiftings, and reconstruct_fibonacci
recovers the unique Fibonacci register a uniform Galois register came
from.
"""

from __future__ import annotations

from dataclasses import dataclass

from .anf import Anf, ParseError
from .register import Nlfsr, StructureError, Violation, is_ascii_digits, require_well_formed


class ShiftRejected(StructureError):
    """A shifting failed its guard; carries the structural violations."""


@dataclass(frozen=True)
class ShiftMove:
    """One shifting: the term set ``terms`` leaves bit ``from_bit`` for ``to_bit``."""

    from_bit: int
    to_bit: int
    terms: Anf

    def __post_init__(self):
        if self.to_bit < 0 or self.from_bit <= self.to_bit:
            raise ValueError(
                f"shifting must move terms to a lower bit, got {self.from_bit} -> {self.to_bit}"
            )

    def __str__(self) -> str:
        return f"{self.from_bit} -> {self.to_bit}: {self.terms}"


@dataclass(frozen=True)
class GaloisProfile:
    """The target shape of a lowering: a terminal bit and the residuals above it.

    residuals[k] is the intended residual of bit tau + k, for bits tau
    through n - 1; each may read only variables x_0..x_tau, and the top
    one may not read x_0 (it would collide with the top bit's wrap tap).
    """

    n: int
    tau: int
    residuals: tuple[Anf, ...]

    def __post_init__(self):
        if not 0 <= self.tau <= self.n - 1:
            raise ValueError(f"terminal bit {self.tau} out of range for n = {self.n}")
        if len(self.residuals) != self.n - self.tau:
            raise ValueError(
                f"expected {self.n - self.tau} residuals for bits {self.tau}..{self.n - 1}, "
                f"got {len(self.residuals)}"
            )
        for k, g in zip(range(self.tau, self.n), self.residuals):
            high = max(g.support(), default=-1)
            if high > self.tau:
                raise ValueError(f"residual of bit {k} reads x{high} above the terminal bit")
        if 0 in self.residuals[-1].support():
            raise ValueError(f"residual of bit {self.n - 1} may not read x0")

    def residual(self, i: int) -> Anf:
        """The intended residual of bit i; zero below the terminal bit."""
        if i < self.tau:
            return Anf.zero()
        return self.residuals[i - self.tau]

    def register(self) -> Nlfsr:
        """The register this profile describes."""
        fbs = [Anf.var((i + 1) % self.n) ^ self.residual(i) for i in range(self.n)]
        return Nlfsr(fbs)

    @classmethod
    def of_register(cls, g: Nlfsr) -> GaloisProfile:
        """Read the profile off a uniform register."""
        require_well_formed(g)
        tau = g.terminal_bit()
        return cls(g.n, tau, tuple(g.residual(i) for i in range(tau, g.n)))

    def __str__(self) -> str:
        lines = [f"tau = {self.tau}"]
        for i in range(self.n - 1, self.tau - 1, -1):
            g = self.residual(i)
            if not g.is_zero:
                lines.append(f"g{i} = {g}")
        return "\n".join(lines)

    @classmethod
    def parse(cls, text: str, n: int) -> GaloisProfile:
        """Parse the profile file format: a ``tau = K`` line, then ``gI = <poly>``
        lines for bits I in tau..n-1; omitted bits default to zero."""
        tau: int | None = None
        given: dict[int, Anf] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected 'name = value', got {line!r}")
            name, _, value = line.partition("=")
            name = name.strip()
            value = value.strip()
            if name == "tau":
                if tau is not None:
                    raise ValueError(f"line {lineno}: duplicate tau")
                if not is_ascii_digits(value):
                    raise ValueError(f"line {lineno}: tau must be an integer")
                tau = int(value)
                if not 0 <= tau <= n - 1:
                    raise ValueError(f"line {lineno}: tau out of range for n = {n}")
            elif name.startswith("g") and is_ascii_digits(name[1:]):
                if tau is None:
                    raise ValueError(f"line {lineno}: tau must be declared first")
                i = int(name[1:])
                if not tau <= i <= n - 1:
                    raise ValueError(f"line {lineno}: bit {i} outside {tau}..{n - 1}")
                if i in given:
                    raise ValueError(f"line {lineno}: duplicate residual for bit {i}")
                try:
                    given[i] = Anf.parse(value, n_vars=n)
                except ParseError as e:
                    raise ValueError(f"line {lineno}: {e}") from None
            else:
                raise ValueError(f"line {lineno}: unknown assignment {name!r}")
        if tau is None:
            raise ValueError("missing 'tau = <bit>' line")
        return cls(n, tau, tuple(given.get(i, Anf.zero()) for i in range(tau, n)))


def _apply_one(m: Nlfsr, move: ShiftMove) -> Nlfsr:
    """One guarded hop; preconditions on m are the caller's responsibility."""
    source = m.residual(move.from_bit)
    if not move.terms.terms <= source.terms:
        missing = next(iter(move.terms.terms - source.terms))
        raise ShiftRejected(
            f"term {missing} is not present in the residual of bit {move.from_bit}"
        )
    fbs = list(m.feedbacks)
    fbs[move.from_bit] = fbs[move.from_bit] ^ move.terms
    fbs[move.to_bit] = fbs[move.to_bit] ^ move.terms.shifted_between(
        move.from_bit, move.to_bit, m.n
    )
    result = Nlfsr(fbs)
    violations = result.dependence_violations() + result.uniformity_violations()
    if violations:
        raise ShiftRejected(
            f"shifting {move.from_bit} -> {move.to_bit} breaks the register structure",
            violations,
        )
    return result


def apply_shift(m: Nlfsr, move: ShiftMove) -> Nlfsr:
    """Apply one shifting from the terminal bit, guarded on both sides.

    The source register must be uniform and well-formed and the moved
    terms must come from the terminal bit's residual.  A move across
    several bits runs as a chain of one-bit hops, each of which must
    leave a uniform, well-formed register; any failure raises
    ShiftRejected with the violations and produces no register.
    """
    try:
        require_well_formed(m)
    except StructureError as e:
        raise ShiftRejected(f"source register rejected: {e}", e.violations) from None
    tau = m.terminal_bit()
    if move.from_bit != tau:
        raise ShiftRejected(
            f"shiftings start at the terminal bit {tau}, not bit {move.from_bit}"
        )
    if move.terms.is_zero:
        return m
    current = m
    terms = move.terms
    for b in range(move.from_bit, move.to_bit, -1):
        current = _apply_one(current, ShiftMove(b, b - 1, terms))
        terms = terms.shifted_between(b, b - 1, m.n)
    return current


def lower_to_profile(fib: Nlfsr, profile: GaloisProfile) -> tuple[Nlfsr, list[ShiftMove]]:
    """Lower a Fibonacci register to the requested Galois shape.

    Works top down: at each bit t from n-1 toward the terminal bit, the
    profile's residual for t stays behind and the rest of the arriving
    terms move on to bit t-1.  Returns the final register together with
    the one-bit moves performed.

    The profile must telescope to the source: XORing every residual
    shifted up to position n-1 must reproduce the top feedback's
    residual.  Profiles that pass that check can still be unreachable
    when a pending term collides with a residual the profile wants left
    behind (the two would cancel and there would be nothing to move);
    those are rejected.
    """
    if fib.n != profile.n:
        raise ValueError(f"register has {fib.n} bits, profile expects {profile.n}")
    require_well_formed(fib)
    if not fib.is_fibonacci():
        raise StructureError("lowering starts from a Fibonacci register")
    total = Anf.zero()
    for k in range(profile.tau, fib.n):
        total = total ^ profile.residual(k).shifted(fib.n - 1 - k)
    if total != fib.residual(fib.n - 1):
        raise StructureError(
            "profile is inconsistent with the register: the residuals do not "
            "telescope to the top feedback"
        )
    target = profile.register()
    current = fib
    moves: list[ShiftMove] = []
    for t in range(fib.n - 1, profile.tau, -1):
        pending = Anf.zero()
        for k in range(profile.tau, t):
            pending = pending ^ profile.residual(k).shifted(t - k)
        if pending.is_zero:
            continue
        move = ShiftMove(t, t - 1, pending)
        try:
            current = apply_shift(current, move)
        except ShiftRejected as e:
            raise ShiftRejected(
                f"profile is unreachable at bit {t}: {e}", e.violations
            ) from None
        moves.append(move)
    if current != target:
        raise StructureError(
            "profile is unreachable: pending terms cancel against residuals"
        )
    return current, moves


def reconstruct_fibonacci(g: Nlfsr) -> Nlfsr:
    """The Fibonacci register equivalent to a uniform Galois register.

    Every residual, shifted up to position n-1, is XORed into a single
    top feedback; lowering the result back through the register's own
    profile returns g.
    """
    require_well_formed(g)
    top = Anf.var(0)
    for k in range(g.terminal_bit(), g.n):
        top = top ^ g.residual(k).shifted(g.n - 1 - k)
    return Nlfsr.fibonacci(g.n, top)
