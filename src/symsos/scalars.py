"""Exact scalar arithmetic in the real quadratic tower Q(sqrt(2), sqrt(3), ...).

A :class:`Quad` value is a finite rational combination sum_k q_k * sqrt(k)
over squarefree positive integers k (k = 1 being the rational part).  The set
of such values is closed under +, -, *, / and contains every entry that shows
up in the shipped irrep catalog (1/2, sqrt(3)/2, sqrt(2)/2, ...).  No square
root is ever taken of a computed value: the isotypic bases are orthogonal, not
orthonormal, so the tower needs only the radicals the catalog writes down.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction, "Quad"]

_SQFREE_CACHE: dict[int, tuple[int, int]] = {1: (1, 1)}


def squarefree_split(k: int) -> tuple[int, int]:
    """Return (g, m) with k = g^2 * m and m squarefree."""
    if k <= 0:
        raise ValueError("squarefree_split needs a positive integer")
    cached = _SQFREE_CACHE.get(k)
    if cached is not None:
        return cached
    g, m, rest, p = 1, 1, k, 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            g *= p ** (e // 2)
            if e % 2:
                m *= p
        p += 1 if p == 2 else 2
    m *= rest
    _SQFREE_CACHE[k] = (g, m)
    return g, m


class Quad:
    """Element of the real multi-quadratic tower, kept in canonical form."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            self.terms = {}
        elif isinstance(terms, dict):
            self.terms = {k: Fraction(v) for k, v in terms.items() if v != 0}
        else:
            q = Fraction(terms)
            self.terms = {1: q} if q else {}

    @staticmethod
    def of(x: Scalar) -> "Quad":
        return x if isinstance(x, Quad) else Quad(x)

    @staticmethod
    def root(k: int, coeff: Scalar = 1) -> "Quad":
        """coeff * sqrt(k) as an exact Quad."""
        g, m = squarefree_split(k)
        return Quad({m: Fraction(coeff) * g})

    # -- predicates -------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return all(k == 1 for k in self.terms)

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self!r} is irrational")
        return self.terms.get(1, Fraction(0))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Quad(other)
        elif not isinstance(other, Quad):
            return NotImplemented
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + v
        return Quad(out)

    __radd__ = __add__

    def __neg__(self):
        return Quad({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Quad)):
            return self + (-Quad.of(other))
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return Quad(other) + (-self)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Quad()
            return Quad({k: v * other for k, v in self.terms.items()})
        if not isinstance(other, Quad):
            return NotImplemented
        out: dict[int, Fraction] = {}
        for j, a in self.terms.items():
            for k, b in other.terms.items():
                g, m = squarefree_split(j * k)
                out[m] = out.get(m, Fraction(0)) + a * b * g
        return Quad(out)

    __rmul__ = __mul__

    def inverse(self) -> "Quad":
        if not self.terms:
            raise ZeroDivisionError("division by zero Quad")
        if self.is_rational:
            return Quad(1 / self.terms[1])
        # Peel one prime off the radical support by multiplying with the
        # conjugate that flips the sign of sqrt(p); the product lives in a
        # strictly smaller tower, so the recursion terminates.
        p = None
        for k in self.terms:
            if k > 1:
                for q in range(2, k + 1):
                    if k % q == 0:
                        p = q
                        break
                break
        assert p is not None
        a_terms, b_terms = {}, {}
        for k, v in self.terms.items():
            if k % p == 0:
                b_terms[k // p] = v
            else:
                a_terms[k] = v
        a, b = Quad(a_terms), Quad(b_terms)
        conj = a - b * Quad.root(p)
        denom = a * a - b * b * p
        return conj * denom.inverse()

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * Fraction(1, 1) / Quad(other)
        if isinstance(other, Quad):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return Quad(other) * self.inverse()
        return NotImplemented

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out, base = Quad(1), self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- comparisons & conversion ------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Quad(other)
        if isinstance(other, Quad):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        if self.is_rational:
            return hash(self.terms.get(1, Fraction(0)))
        return hash(tuple(sorted(self.terms.items())))

    def __float__(self):
        return float(sum(float(v) * math.sqrt(k) for k, v in self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms):
            v = self.terms[k]
            parts.append(str(v) if k == 1 else f"{v}*sqrt({k})")
        return " + ".join(parts).replace("+ -", "- ")


def exact(x: Scalar) -> Union[Fraction, Quad]:
    """Canonicalize: rational Quads collapse to Fraction, ints to Fraction."""
    if type(x) is Fraction:
        return x
    if isinstance(x, Quad):
        return x.as_fraction() if x.is_rational else x
    return Fraction(x)


def inverse(x: Scalar) -> Scalar:
    """1/x for an exact scalar."""
    return x.inverse() if isinstance(x, Quad) else Fraction(1) / x
