"""Boolean polynomials in algebraic normal form over GF(2).

A polynomial is an XOR of product-terms; a product-term is an AND of
state variables x_0, x_1, ... or the constant 1.  Addition is XOR, so
equal terms cancel in pairs and every polynomial has a unique term set.

Text form: ``+`` is XOR, ``*`` is AND, variables are ``x`` followed by
digits, ``1`` is the constant term and ``0`` alone denotes the zero
polynomial.  Example: ``x3 + x1 + x0*x1``.

Evaluation is bit-sliced (Biham 1997): the value of x_k is an integer
column holding x_k in each of W lanes, a polynomial's value is the XOR
over its terms of the AND of their columns, and the constant term is the
all-ones column.  A 0/1 state tuple is the one-lane case; a column per
variable over all 2^n states evaluates the polynomial on every state at
once.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Sequence


class ParseError(ValueError):
    """Syntax or bound error in polynomial text, with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Monomial:
    """One product-term: an AND of distinct variables, or the constant 1.

    Indices are kept as a sorted duplicate-free tuple; x_k * x_k = x_k
    over GF(2), so repeats collapse at construction.  The empty tuple is
    the constant 1.
    """

    __slots__ = ("indices",)

    def __init__(self, indices: Iterable[int] = ()):
        idx = tuple(sorted(set(indices)))
        for k in idx:
            if not isinstance(k, int) or k < 0:
                raise ValueError(f"variable index must be a non-negative integer, got {k!r}")
        object.__setattr__(self, "indices", idx)

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    @property
    def is_one(self) -> bool:
        return not self.indices

    def shifted(self, delta: int) -> Monomial:
        """Add delta to every index; negative resulting indices are rejected."""
        if self.indices and self.indices[0] + delta < 0:
            raise ValueError(f"shift by {delta:+d} would give x{self.indices[0] + delta}")
        return Monomial(k + delta for k in self.indices)

    def shifted_mod(self, delta: int, n: int) -> Monomial:
        """Add delta to every index, wrapping modulo n."""
        return Monomial((k + delta) % n for k in self.indices)

    def mask(self) -> int:
        """Bit mask of the variables read, for packed-state evaluation."""
        m = 0
        for k in self.indices:
            m |= 1 << k
        return m

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.indices == other.indices

    def __lt__(self, other: Monomial) -> bool:
        return self.indices < other.indices

    def __hash__(self) -> int:
        return hash(self.indices)

    def __repr__(self) -> str:
        return f"Monomial({self.indices!r})"

    def __str__(self) -> str:
        if not self.indices:
            return "1"
        return "*".join(f"x{k}" for k in self.indices)


_TOKEN = re.compile(r"\s*(x[0-9]+|1|0|\+|\*)")


class Anf:
    """A set of monomials combined by XOR.

    The empty set is the zero polynomial.  Construction folds the given
    terms by symmetric difference, so a term supplied an even number of
    times cancels away.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Monomial] = ()):
        acc: set[Monomial] = set()
        for t in terms:
            if not isinstance(t, Monomial):
                raise TypeError(f"expected Monomial, got {type(t).__name__}")
            acc.symmetric_difference_update((t,))
        object.__setattr__(self, "terms", frozenset(acc))

    def __setattr__(self, name, value):
        raise AttributeError("Anf is immutable")

    @classmethod
    def zero(cls) -> Anf:
        return cls()

    @classmethod
    def one(cls) -> Anf:
        return cls((Monomial(),))

    @classmethod
    def var(cls, k: int) -> Anf:
        """The single-variable polynomial x_k."""
        return cls((Monomial((k,)),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, columns: Sequence[int], ones: int = 1) -> int:
        """XOR over the terms of the AND of their columns, in every lane at once.

        columns[k] holds x_k in each of W lanes and ``ones`` is the W-lane
        all-ones column, which is also the value of the constant term.
        A 0/1 state tuple with the default ``ones`` is the one-lane case.
        """
        acc = 0
        try:
            for t in self.terms:
                term = ones
                for k in t.indices:
                    term &= columns[k]
                acc ^= term
        except IndexError:
            raise ValueError(
                f"polynomial reads x{max(self.support())} but only {len(columns)} columns are given"
            ) from None
        return acc

    def shifted(self, delta: int) -> Anf:
        """Renumber x_k to x_{k+delta}; never wraps, rejects negative targets."""
        return Anf(t.shifted(delta) for t in self.terms)

    def shifted_between(self, from_bit: int, to_bit: int, n: int) -> Anf:
        """Renumber x_k to x_{(k - from_bit + to_bit) mod n}.

        This is the index rule used when product-terms move between the
        feedbacks of bits ``from_bit`` and ``to_bit`` of an n-bit register.
        """
        if not (0 <= from_bit < n and 0 <= to_bit < n):
            raise ValueError(f"bits must lie in 0..{n - 1}, got {from_bit} and {to_bit}")
        if any(k >= n for k in self.support()):
            raise ValueError(f"polynomial reads beyond x{n - 1}")
        return Anf(t.shifted_mod(to_bit - from_bit, n) for t in self.terms)

    def support(self) -> frozenset[int]:
        """Union of the variable indices of all terms; empty for constants."""
        out: set[int] = set()
        for t in self.terms:
            out.update(t.indices)
        return frozenset(out)

    def __xor__(self, other: Anf) -> Anf:
        if not isinstance(other, Anf):
            return NotImplemented
        return Anf._wrap(self.terms.symmetric_difference(other.terms))

    @classmethod
    def _wrap(cls, terms: frozenset[Monomial]) -> Anf:
        p = cls.__new__(cls)
        object.__setattr__(p, "terms", terms)
        return p

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Anf) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __iter__(self) -> Iterator[Monomial]:
        return iter(sorted(self.terms))

    def __repr__(self) -> str:
        return f"Anf.parse({str(self)!r})"

    def __str__(self) -> str:
        """Canonical text: terms ascending by their sorted index tuples."""
        if not self.terms:
            return "0"
        return " + ".join(str(t) for t in sorted(self.terms))

    @classmethod
    def parse(cls, text: str, n_vars: int | None = None) -> Anf:
        """Parse polynomial text; with n_vars given, indices must stay below it.

        Grammar: ``poly := term ('+' term)* ; term := '1' | factor ('*' factor)* ;
        factor := 'x' digits``, whitespace insignificant.  The single token
        ``0`` is accepted as the zero polynomial.
        """
        tokens: list[tuple[str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                if text[pos:].strip():
                    bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
                    raise ParseError(f"unexpected character {text[bad]!r}", bad)
                break
            tokens.append((m.group(1), m.start(1)))
            pos = m.end()

        if not tokens:
            raise ParseError("empty polynomial", 0)
        if len(tokens) == 1 and tokens[0][0] == "0":
            return cls.zero()

        terms: list[Monomial] = []
        i = 0
        while True:
            factors: list[int] = []
            constant = False
            while True:
                if i >= len(tokens):
                    raise ParseError("expected a factor", len(text))
                tok, at = tokens[i]
                if tok == "1":
                    constant = True
                elif tok.startswith("x"):
                    k = int(tok[1:])
                    if n_vars is not None and k >= n_vars:
                        raise ParseError(f"variable x{k} out of range for {n_vars} variables", at)
                    factors.append(k)
                else:
                    raise ParseError(f"expected a factor, got {tok!r}", at)
                i += 1
                if i < len(tokens) and tokens[i][0] == "*":
                    if constant:
                        raise ParseError("'1' cannot be multiplied", tokens[i][1])
                    i += 1
                    continue
                break
            if constant and factors:
                raise ParseError("'1' cannot be multiplied", tokens[i - 1][1])
            terms.append(Monomial(factors))
            if i >= len(tokens):
                break
            tok, at = tokens[i]
            if tok != "+":
                raise ParseError(f"expected '+', got {tok!r}", at)
            i += 1
        return cls(terms)
