"""Exact sparse multivariate polynomials over the rationals.

A polynomial maps exponent tuples (one entry per variable) to nonzero
``Fraction`` coefficients; any other rational input is converted, and a
coefficient that is not rational raises TypeError.  Monomials are globally
ordered in graded lexicographic order with later variables ranking higher, so
the constant monomial is always first in a monomial vector.

Products run in integers: each factor is scaled by the lcm of its
denominators, the numerators are multiplied as Python ints, and each output
coefficient is divided once at the end.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Monomial = tuple[int, ...]


class _MinusInfinity:
    """Degree of the zero polynomial; compares below every integer."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __le__(self, other):
        return True

    def __ge__(self, other):
        return other is self

    def __repr__(self):
        return "MINUS_INFINITY"


MINUS_INFINITY = _MinusInfinity()


def grlex_key(m: Monomial) -> tuple:
    """Sort key for graded lex order; ties broken so later variables rank higher."""
    return (sum(m), tuple(reversed(m)))


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


class Polynomial:
    """Sparse exact polynomial in a fixed number of variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Monomial, Fraction] | None = None):
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        self.nvars = nvars
        canon: dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                if len(m) != nvars:
                    raise ValueError(f"monomial {m} has wrong length for nvars={nvars}")
                if type(c) is not Fraction:
                    try:
                        c = Fraction(c)
                    except TypeError:
                        raise TypeError("polynomial coefficients are rational, not "
                                        f"{type(c).__name__}") from None
                if c != 0:
                    canon[m] = c
        self.terms = canon

    @classmethod
    def _from_canonical(cls, nvars: int, terms: dict[Monomial, Fraction]) -> "Polynomial":
        """Wrap terms that are already nonzero and canonical, skipping the checks."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return Polynomial(nvars)

    @staticmethod
    def constant(nvars: int, c: Fraction | int) -> "Polynomial":
        return Polynomial(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(nvars: int, i: int) -> "Polynomial":
        e = [0] * nvars
        e[i] = 1
        return Polynomial(nvars, {tuple(e): Fraction(1)})

    @staticmethod
    def monomial(nvars: int, m: Monomial, c: Fraction | int = 1) -> "Polynomial":
        return Polynomial(nvars, {tuple(m): c})

    # -- basic queries -------------------------------------------------------

    def degree(self):
        if not self.terms:
            return MINUS_INFINITY
        return max(sum(m) for m in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, m: Monomial) -> Fraction:
        return self.terms.get(tuple(m), Fraction(0))

    # -- arithmetic -----------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError(f"dimension mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other)
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return Polynomial(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        return _integer_product(self.nvars, _integer_form(self.terms),
                                _integer_form(other.terms))

    __rmul__ = __mul__

    def scale(self, c: Fraction | int) -> "Polynomial":
        return Polynomial(self.nvars, {m: v * c for m, v in self.terms.items()})

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        out = Polynomial.constant(self.nvars, 1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Polynomial({render_polynomial(self)!r})"


def _integer_form(terms: dict[Monomial, Fraction]) -> tuple[dict[Monomial, int], int]:
    """(numerators, d) with terms == numerators / d."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    return {m: c.numerator * (den // c.denominator) for m, c in terms.items()}, den


def _integer_product(nvars: int, a: tuple[dict[Monomial, int], int],
                     b: tuple[dict[Monomial, int], int]) -> Polynomial:
    (ta, da), (tb, db) = a, b
    out: dict[Monomial, int] = {}
    get = out.get
    add = operator.add
    for m1, c1 in ta.items():
        for m2, c2 in tb.items():
            m = tuple(map(add, m1, m2))
            out[m] = get(m, 0) + c1 * c2
    den = da * db
    return Polynomial._from_canonical(
        nvars, {m: Fraction(v, den) for m, v in out.items() if v})


def evaluate(p: Polynomial, point: Sequence[Fraction | int]) -> Fraction:
    """Exact value of p at a rational point."""
    if len(point) != p.nvars:
        raise ValueError("dimension mismatch in evaluate")
    point = [Fraction(v) for v in point]
    powers: dict[tuple[int, int], Fraction] = {}

    def pw(i: int, e: int):
        if e == 0:
            return Fraction(1)
        key = (i, e)
        if key not in powers:
            powers[key] = pw(i, e - 1) * point[i]
        return powers[key]

    total = Fraction(0)
    for m, c in p.terms.items():
        term = c
        for i, e in enumerate(m):
            if e:
                term = term * pw(i, e)
        total = total + term
    return total


@dataclass(frozen=True)
class MonomialVector:
    """Graded-lex ordered monomial basis of R[x]_{<=d} (or a homogeneous slice)."""

    nvars: int
    entries: tuple[Monomial, ...]

    def __len__(self):
        return len(self.entries)

    def index(self) -> dict[Monomial, int]:
        return {m: i for i, m in enumerate(self.entries)}


def _exponents_of_degree(n: int, d: int) -> Iterable[Monomial]:
    if n == 1:
        yield (d,)
        return
    for e in range(d + 1):
        for rest in _exponents_of_degree(n - 1, d - e):
            yield (e,) + rest


def monomial_vector(n: int, d: int, homogeneous: bool = False) -> MonomialVector:
    """All monomials of total degree <= d (or exactly d) in graded-lex order.

    The constant monomial is the first entry of the full basis, whose length
    is C(n+d, d).
    """
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    degrees = [d] if homogeneous else range(d + 1)
    entries = []
    for k in degrees:
        entries.extend(sorted(_exponents_of_degree(n, k), key=grlex_key))
    vec = MonomialVector(n, tuple(entries))
    if not homogeneous:
        assert len(vec) == math.comb(n + d, d)
    return vec


def substitute_linear(p: Polynomial, matrix: Sequence[Sequence[Fraction | int]]
                      ) -> Polynomial:
    """Replace each variable x_i by the i-th entry of M x, fully expanded.

    The general reference substitution: p is composed with the linear forms
    of M, whatever M is.  Signed permutations substitute term by term through
    ``groups.SignedPerm.substitute``.
    """
    n = p.nvars
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError("matrix dimension does not match polynomial variables")
    forms = [Polynomial(n, {tuple(1 if j == k else 0 for k in range(n)): matrix[i][j]
                            for j in range(n)}) for i in range(n)]
    return compose(p, forms)


def compose(p: Polynomial, values: Sequence[Polynomial]) -> Polynomial:
    """p(values[0], ..., values[-1]) fully expanded; the values share one nvars.

    Each power of a value is built once per call, from the power below it.
    """
    if len(values) != p.nvars:
        raise ValueError("compose needs one value per variable")
    n = values[0].nvars
    powers = [[Polynomial.constant(n, 1)] for _ in values]
    out: dict[Monomial, Fraction] = {}
    for m, c in p.terms.items():
        term = Polynomial.constant(n, c)
        for i, e in enumerate(m):
            if e:
                row = powers[i]
                while len(row) <= e:
                    row.append(row[-1] * values[i])
                term = term * row[e]
        for mm, v in term.terms.items():
            out[mm] = out.get(mm, Fraction(0)) + v
    return Polynomial(n, out)


# -- text format --------------------------------------------------------------


class PolynomialSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(r"\d+|[A-Za-z_][A-Za-z_0-9]*|[-+*/^()]")
# a character no token starts with; no token contains one either
_BAD = re.compile(r"[^\s\dA-Za-z_\-+*/^()]")
_OPS = frozenset("-+*/^()")


def _tokenize(text: str) -> list[str]:
    """The tokens of ``text``, closed by an empty end token."""
    bad = _BAD.search(text)
    if bad:
        raise PolynomialSyntaxError(f"unexpected character {bad.group()!r}",
                                    bad.start())
    toks = _TOKEN.findall(text)
    toks.append("")
    return toks


def _position(text: str, i: int) -> int:
    """Where token i of ``_tokenize(text)`` starts; only an error asks."""
    for k, m in enumerate(_TOKEN.finditer(text)):
        if k == i:
            return m.start()
    return len(text)


def parse_polynomial(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse a +/- joined sum of rational-coefficient monomial products.

    Grammar: term = [rational][*] var^int [* ...] with rationals written as
    "p/q" or plain integers; a "*" needs a factor after it.  Raises
    :class:`PolynomialSyntaxError` with the offending position, ValueError
    for a repeated or unknown variable name or a bad exponent.  A term's coefficient is kept as
    an integer numerator and denominator and becomes one ``Fraction``.
    """
    n = len(variables)
    if n < 1:
        raise ValueError("need at least one variable")
    var_index = {v: i for i, v in enumerate(variables)}
    if len(var_index) != n:
        repeated = next(v for i, v in enumerate(variables) if v in variables[:i])
        raise ValueError(f"variable name {repeated!r} is repeated")
    toks = _tokenize(text)
    if len(toks) == 1:
        raise PolynomialSyntaxError("empty polynomial", 0)

    def error(message: str, i: int) -> PolynomialSyntaxError:
        return PolynomialSyntaxError(message, _position(text, i))

    result: dict[Monomial, Fraction] = {}
    i = 0
    tok = toks[0]
    while tok:
        num, den = 1, 1
        while tok == "+" or tok == "-":
            if tok == "-":
                num = -num
            i += 1
            tok = toks[i]
        expo = [0] * n
        saw_factor = False
        while True:
            if tok.isdecimal():
                num *= int(tok)
                i += 1
                if toks[i] == "/":
                    i += 1
                    if not toks[i].isdecimal() or int(toks[i]) == 0:
                        raise error("expected nonzero denominator", i)
                    den *= int(toks[i])
                    i += 1
            elif tok and tok not in _OPS:
                if tok not in var_index:
                    raise ValueError(f"unknown variable name {tok!r}")
                i += 1
                e = 1
                if toks[i] == "^":
                    i += 1
                    if not toks[i].isdecimal():
                        raise error("non-integer exponent", i)
                    e = int(toks[i])
                    i += 1
                expo[var_index[tok]] += e
            else:
                break
            saw_factor = True
            tok = toks[i]
            if tok == "*":
                i += 1
                tok = toks[i]
                if not tok or tok == "+" or tok == "-":
                    raise error("expected a factor after '*'", i)
            elif not tok or tok in _OPS:    # else implicit multiplication
                break
        if not saw_factor:
            raise error("expected a term", i)
        if tok in _OPS and tok != "+" and tok != "-":
            raise error(f"unexpected {tok!r}", i)
        m = tuple(expo)
        c = Fraction(num, den)
        result[m] = result[m] + c if m in result else c
    return Polynomial(n, result)


def default_variables(nvars: int) -> list[str]:
    """x, y, z for up to three variables, x1..xn beyond."""
    return [f"x{i + 1}" for i in range(nvars)] if nvars > 3 else \
        ["x", "y", "z"][:nvars]


def render_polynomial(p: Polynomial, variables: Sequence[str] | None = None) -> str:
    """Canonical text form; parse(render(p), variables) round-trips."""
    if variables is None:
        variables = default_variables(p.nvars)
    if p.is_zero():
        return "0"
    parts = []
    for m in sorted(p.terms, key=grlex_key, reverse=True):
        c = p.terms[m]
        factors = [f"{variables[i]}^{e}" if e > 1 else variables[i]
                   for i, e in enumerate(m) if e]
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = f"{abs(c)}*" + "*".join(factors)
        neg = c < 0
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)
