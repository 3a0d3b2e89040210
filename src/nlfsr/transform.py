"""Moving feedback product-terms between register bits.

A shifting takes a set of product-terms out of the feedback of one bit
and XORs it, with indices renumbered by (k - from + to) mod n, into the
feedback of a lower bit.  It preserves the set of output sequences only
under guard conditions.  A move chosen by the caller can break them, so
apply_shift checks the one register a move produces and raises with its
exact structural violations.  That equals checking each one-bit hop: the
hops' registers share its residuals above their terminal bits, and a
moved term wraps below x0 at some hop exactly when it wraps in it.

lower_to_profile and reconstruct_fibonacci read a GaloisProfile, which
stores the telescopes of its residuals r_i once: T_{tau+1} = r_tau and
T_{i+1} = T_i shifted up one, XOR r_i.  Its Fibonacci source has top
feedback x0 ^ T_n, and the hop from bit t moves T_{t+1} ^ r_t (T_t
shifted up one) to bit t - 1.  By this telescope rule (GaloisProfile.moves)
a lowering succeeds exactly when r_t is part of T_{t+1} at every bit t
above tau, and its result is the profile's register.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .anf import Anf
from .register import Nlfsr, StructureError, read_assignments, require_well_formed


class ShiftRejected(StructureError):
    """A shifting failed its guard; carries the structural violations."""


@dataclass(frozen=True)
class ShiftMove:
    """One shifting: the term set ``terms`` leaves bit ``from_bit`` for ``to_bit``."""

    from_bit: int
    to_bit: int
    terms: Anf

    def __post_init__(self):
        if type(self.from_bit) is not int or type(self.to_bit) is not int:
            raise ValueError(f"shifting bits must be integers, got {self.from_bit!r} -> {self.to_bit!r}")
        if not isinstance(self.terms, Anf):
            raise TypeError("shifted terms are not an Anf")
        if self.to_bit < 0 or self.from_bit <= self.to_bit:
            raise ValueError(
                f"shifting must move terms to a lower bit, got {self.from_bit} -> {self.to_bit}"
            )

    def __str__(self) -> str:
        return f"{self.from_bit} -> {self.to_bit}: {self.terms}"


def check_terminal_bit(n: int, tau: int) -> None:
    """Refuse a size or terminal bit that is not an int, n < 2, or tau outside 0..n-1."""
    if type(n) is not int or type(tau) is not int:
        raise ValueError(f"n and tau must be integers, got {n!r} and {tau!r}")
    if n < 2:
        raise ValueError(f"register needs at least 2 bits, got {n}")
    if not 0 <= tau <= n - 1:
        raise ValueError(f"terminal bit {tau} out of range for n = {n}")


def _residual_fault(n: int, tau: int, i: int, g: Anf) -> str | None:
    """Why g cannot be the residual of bit i in a profile with terminal bit tau."""
    high = max(g.support(), default=-1)
    if high > tau:
        return f"residual of bit {i} reads x{high} above the terminal bit"
    if i == n - 1 and 0 in g.support():
        return f"residual of bit {n - 1} may not read x0"
    return None


@dataclass(frozen=True)
class GaloisProfile:
    """The target shape of a lowering: a terminal bit and the residuals above it.

    residuals[k] is the intended residual of bit tau + k, for bits tau
    through n - 1; each may read only variables x_0..x_tau, and the top
    one may not read x_0 (it would collide with the top bit's wrap tap).
    So tau bounds what the residuals read and is the lowest bit that may
    keep one.  The register's terminal bit is the lowest bit below n - 1
    with a nonzero residual, else n - 1: tau, or a higher bit when the
    residual of tau is zero.

    telescopes holds T_{tau+1}, ..., T_n: T_i is the XOR of the residuals
    of bits tau..i-1, each shifted up to sit just under bit i.  For
    tau < i < n, T_i is the state correction of bit i; T_n is the
    residual of the top feedback of fibonacci().
    """

    n: int
    tau: int
    residuals: tuple[Anf, ...]
    telescopes: tuple[Anf, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "residuals", tuple(self.residuals))
        check_terminal_bit(self.n, self.tau)
        if len(self.residuals) != self.n - self.tau:
            raise ValueError(
                f"expected {self.n - self.tau} residuals for bits {self.tau}..{self.n - 1}, "
                f"got {len(self.residuals)}"
            )
        for k, g in zip(range(self.tau, self.n), self.residuals):
            if not isinstance(g, Anf):
                raise TypeError(f"residual {k} is not an Anf")
            fault = _residual_fault(self.n, self.tau, k, g)
            if fault:
                raise ValueError(fault)
        telescopes = [self.residuals[0]]
        for r in self.residuals[1:]:
            telescopes.append(telescopes[-1].shifted(1) ^ r)
        object.__setattr__(self, "telescopes", tuple(telescopes))

    def residual(self, i: int) -> Anf:
        """The intended residual of bit i; zero below the terminal bit."""
        if not 0 <= i < self.n:
            raise ValueError(f"bit {i} out of range for n = {self.n}")
        if i < self.tau:
            return Anf.zero()
        return self.residuals[i - self.tau]

    def moves(self) -> list[ShiftMove]:
        """The nonzero one-bit moves that lower fibonacci() to this profile.

        At each bit t from n-1 down to tau+1, r_t stays behind and
        T_{t+1} ^ r_t moves on to bit t-1.  The highest bit t where r_t is
        not part of T_{t+1} (a moved term would have to cancel against it)
        raises ShiftRejected.  No hop needs a structure check: after the
        hop from t, the bits above t-1 hold residuals that read only
        x_0..x_tau (the top one never x_0), and bit t-1 holds T_t, which
        reads only x_0..x_{t-1} and never its tap x_t.
        """
        moves: list[ShiftMove] = []
        for t in range(self.n - 1, self.tau, -1):
            arrived, kept = self.telescopes[t - self.tau], self.residual(t)
            missing = kept.terms - arrived.terms
            if missing:
                raise ShiftRejected(
                    f"profile is unreachable at bit {t}: "
                    f"term {min(missing)} is not present in the residual of bit {t}"
                )
            if arrived != kept:
                moves.append(ShiftMove(t, t - 1, arrived ^ kept))
        return moves

    def fibonacci(self) -> Nlfsr:
        """The Fibonacci register this profile lowers from: top feedback x0 ^ T_n."""
        return Nlfsr.fibonacci(self.n, Anf.var(0) ^ self.telescopes[-1])

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
        """Parse the profile file format of an n-bit register: the grammar of
        ``read_assignments`` with header ``tau`` (at most n - 1) and letter
        ``g`` for bits tau..n-1; omitted bits default to zero."""

        def bits(tau: int) -> range:
            if tau > n - 1:
                raise ValueError(f"tau out of range for n = {n}")
            return range(tau, n)

        tau, given = read_assignments(text, "tau", "g", bits)
        for i, (lineno, g) in given.items():
            fault = _residual_fault(n, tau, i, g)
            if fault:
                raise ValueError(f"line {lineno}: {fault}")
        return cls(n, tau, tuple(given[i][1] if i in given else Anf.zero() for i in range(tau, n)))


def apply_shift(m: Nlfsr, move: ShiftMove) -> Nlfsr:
    """Apply one shifting from the terminal bit, guarded on both sides.

    The source must be uniform and well-formed, the moved terms S must
    come from the residual of the terminal bit tau, and the one register
    built must be uniform and well-formed; a failure raises ShiftRejected
    with the violations.  That one check equals checking every one-bit
    hop: after the hop from bit b the residuals above bit b - 1 are the
    result's, which must read at or below to_bit <= b - 1, and a term of
    S wraps below x0 at some hop exactly when it wraps in the result,
    where it lands above to_bit and never on its tap x_{to_bit+1}, as the
    source's top residual cannot read x0.  Below tau every residual is
    zero, so each hop's terms are all of its bit's residual.
    """
    violations = m.violations()
    if violations:
        raise ShiftRejected("source register rejected: register is not uniform and well-formed", violations)
    tau = m.terminal_bit()
    if move.from_bit != tau:
        raise ShiftRejected(
            f"shiftings start at the terminal bit {tau}, not bit {move.from_bit}"
        )
    if move.terms.is_zero:
        return m
    missing = move.terms.terms - m.residual(tau).terms
    if missing:
        raise ShiftRejected(f"term {min(missing)} is not present in the residual of bit {tau}")
    fbs = list(m.feedbacks)
    fbs[tau] ^= move.terms
    fbs[move.to_bit] ^= move.terms.shifted_between(tau, move.to_bit, m.n)
    result = Nlfsr(fbs)
    violations = result.violations()
    if violations:
        raise ShiftRejected(f"shifting {tau} -> {move.to_bit} breaks the register structure", violations)
    return result


def lower_to_profile(fib: Nlfsr, profile: GaloisProfile) -> tuple[Nlfsr, list[ShiftMove]]:
    """Lower a Fibonacci register to the requested Galois shape.

    The profile must telescope to the source: T_n must be the top
    feedback's residual.  Returns profile.register() and profile.moves().
    """
    if fib.n != profile.n:
        raise ValueError(f"register has {fib.n} bits, profile expects {profile.n}")
    require_well_formed(fib)
    if not fib.is_fibonacci():
        raise StructureError("lowering starts from a Fibonacci register")
    if profile.telescopes[-1] != fib.residual(fib.n - 1):
        raise StructureError(
            "profile is inconsistent with the register: the residuals do not "
            "telescope to the top feedback"
        )
    return profile.register(), profile.moves()


def reconstruct_fibonacci(g: Nlfsr) -> Nlfsr:
    """The Fibonacci register equivalent to a uniform Galois register.

    Every residual, shifted up to position n-1, is XORed into a single
    top feedback; lowering the result back through the register's own
    profile returns g.
    """
    return GaloisProfile.of_register(g).fibonacci()
