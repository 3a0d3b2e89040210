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
from typing import Iterable, Sequence


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
            if not isinstance(k, int) or isinstance(k, bool) or k < 0:
                raise ValueError(f"variable index must be a non-negative integer, got {k!r}")
        object.__setattr__(self, "indices", idx)

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, not __setattr__
        return Monomial, (self.indices,)

    @property
    def is_one(self) -> bool:
        return not self.indices

    def shifted(self, delta: int) -> Monomial:
        """Add delta to every index; negative resulting indices are rejected."""
        if self.indices and self.indices[0] + delta < 0:
            raise ValueError(f"shift by {delta:+d} would give x{self.indices[0] + delta}")
        return Monomial(k + delta for k in self.indices)

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


# a token, or else the first character that starts none
_TOKEN = re.compile(r"\s*(?:(x[0-9]+|1|0|\+|\*)|(\S))")

# The grammar of Anf.parse, whitespace insignificant, besides the lone token 0:
#   poly := term ('+' term)* ;  term := '1' | factor ('*' factor)* ;  factor := 'x' digits
# The table encodes it: the token kinds (first characters) that may follow each kind, "" the start.
_FOLLOW = {"": "x1", "x": "*+", "1": "+", "*": "x", "+": "x1"}


def is_ascii_digits(text: str) -> bool:
    """True for a non-empty run of ASCII digits, the only integers the text formats accept."""
    return text.isascii() and text.isdigit()


def digits_value(digits: str) -> int | None:
    """The value of a run of ASCII digits, or None past 4300 significant
    digits, which int() refuses and no register index or size reaches."""
    digits = digits.lstrip("0") or "0"
    return int(digits) if len(digits) <= 4300 else None


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

    def __reduce__(self):
        return Anf, (self.terms,)

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
        delta = to_bit - from_bit
        return Anf(Monomial((k + delta) % n for k in t.indices) for t in self.terms)

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

    def __repr__(self) -> str:
        return f"Anf.parse({str(self)!r})"

    def __str__(self) -> str:
        """Canonical text: terms ascending by their sorted index tuples."""
        if not self.terms:
            return "0"
        return " + ".join(str(t) for t in sorted(self.terms))

    @classmethod
    def parse(cls, text: str, n_vars: int | None = None) -> Anf:
        """Parse polynomial text (grammar at ``_FOLLOW``); with n_vars given, indices stay below it."""
        if text.strip() == "0":
            return cls.zero()
        terms: list[Monomial] = []
        factors: list[int] = []
        prev = ""
        for m in _TOKEN.finditer(text):
            tok, at = m[1], m.start(1)
            if tok is None:
                raise ParseError(f"unexpected character {m[2]!r}", m.start(2))
            follow = _FOLLOW[prev[:1]]
            if tok[0] not in follow:
                where = f"after {prev!r}" if prev else "at the start"
                expected = " or ".join(map(repr, follow))
                raise ParseError(f"expected {expected} {where}, got {tok!r}", at)
            if tok[0] == "x":
                k = digits_value(tok[1:])
                if k is None or n_vars is not None and k >= n_vars:
                    limit = "any register" if k is None else f"{n_vars} variables"
                    raise ParseError(f"variable {tok} out of range for {limit}", at)
                factors.append(k)
            elif tok == "+":
                terms.append(Monomial(factors))
                factors = []
            prev = tok
        if not prev:
            raise ParseError("empty polynomial", 0)
        # a term is complete exactly where a '+' may follow
        if "+" not in _FOLLOW[prev[0]]:
            raise ParseError("expected a factor", len(text))
        terms.append(Monomial(factors))
        return cls(terms)
