"""Molien (Hilbert-Poincare) series of isotypic components, exactly.

``molien_series`` returns, per real irrep, the generating function whose k-th
Taylor coefficient is the multiplicity of that irrep in the degree-k
homogeneous polynomials.  Complex-type real irreps are normalized so that the
coefficients again count copies of the real irrep (half the raw realified
character average); with that convention sum_i n_i psi_i = 1/(1-xi)^n holds
exactly for every catalog.

Molien's formula (see Stanley, Bull. AMS 1979) is summed over conjugacy
classes, not group elements: the character and det(I - xi * theta(g)) are both
class functions, so each class C contributes |C| chi(g_C) / det(I - xi
theta(g_C)) at its first element g_C.  Each action's class determinants are
computed once and shared by all of its irreps; classes with equal determinants
share a term, and the terms are added over the least common multiple of the
determinants with a single reduction per irrep.

Every action is by signed permutations, so each determinant is a product
over the element's signed cycles: a cycle of length l and sign product s
contributes 1 - s xi^l.  Rotation irreps whose matrices are only stored
approximately (cyclic/dihedral with m in {5,7,9,10,11}) use an integer
Ramanujan-sum character average instead of matrix traces, so their series are
exact as well.  The sign characters of ``c2n:n`` skip the class sum, which
has 2^n classes: the series of the character on the coordinates S is
xi^|S|/(1-xi^2)^n in closed form.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .groups import GroupAction, IrrepCatalog, RealIrrep
from .scalars import Quad, Scalar, exact, inverse

Coeffs = list  # univariate polynomial, low-order first


def _strip(p: Coeffs) -> Coeffs:
    while p and p[-1] == 0:
        p.pop()
    return p


def _padd(a: Coeffs, b: Coeffs) -> Coeffs:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] = exact(out[i] + v)
    for i, v in enumerate(b):
        out[i] = exact(out[i] + v)
    return _strip(out)


def _pscale(a: Coeffs, c: Scalar) -> Coeffs:
    return _strip([exact(v * c) for v in a])


def _pmul(a: Coeffs, b: Coeffs) -> Coeffs:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = exact(out[i + j] + x * y)
    return _strip(out)


def _pdivmod(a: Coeffs, b: Coeffs) -> tuple[Coeffs, Coeffs]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv_lead = inverse(b[-1])
    while len(a) >= len(b) and _strip(list(a)):
        if len(a) < len(b):
            break
        c = exact(a[-1] * inv_lead)
        if c == 0:
            a.pop()
            continue
        k = len(a) - len(b)
        q[k] = c
        for i, v in enumerate(b):
            a[k + i] = exact(a[k + i] - c * v)
        a = _strip(a)
        if not a:
            break
    return _strip(q), _strip(a)


def _primitive(p: Coeffs) -> list[int]:
    """The integer polynomial with coprime coefficients proportional to p."""
    den = math.lcm(*(c.denominator for c in p))
    ints = [c.numerator * (den // c.denominator) for c in p]
    g = math.gcd(*ints) or 1
    return [v // g for v in ints]


def _pgcd(a: Coeffs, b: Coeffs) -> Coeffs:
    """Monic gcd.  All-rational inputs run a primitive remainder sequence on
    integer coefficients, removing the content of each remainder; others run
    Euclid's algorithm on exact scalars."""
    a, b = _strip(list(a)), _strip(list(b))
    if all(type(c) is Fraction for c in a + b):
        a, b = _primitive(a), _primitive(b)
        while b:
            lead = b[-1]
            while len(a) >= len(b):      # pseudo-remainder of a by b
                c, k = a[-1], len(a) - len(b)
                a = [v * lead for v in a]
                for i, v in enumerate(b):
                    a[k + i] -= c * v
                _strip(a)
            a, b = b, _primitive(a)
        return [Fraction(v, a[-1]) for v in a] if a else a
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if a:
        inv_lead = inverse(a[-1])
        a = _pscale(a, inv_lead)
    return a


@dataclass(frozen=True)
class RationalFunction:
    """num(xi)/den(xi) with exact coefficients, low-order first."""

    num: tuple
    den: tuple

    @staticmethod
    def of(num: Sequence[Scalar], den: Sequence[Scalar]) -> "RationalFunction":
        num, den = _strip([exact(c) for c in num]), _strip([exact(c) for c in den])
        if not den:
            raise ZeroDivisionError("zero denominator")
        g = _pgcd(num, den) if num else []
        if len(g) > 1:
            num = _pdivmod(num, g)[0]
            den = _pdivmod(den, g)[0]
        # normalize: constant-term-positive denominator when possible
        pivot = next((c for c in den if c != 0), None)
        if pivot is not None:
            inv = inverse(pivot)
            num, den = _pscale(num, inv), _pscale(den, inv)
        return RationalFunction(tuple(num), tuple(den))

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction.of(
            _padd(_pmul(list(self.num), list(other.den)),
                  _pmul(list(other.num), list(self.den))),
            _pmul(list(self.den), list(other.den)))

    def scale(self, c: Scalar) -> "RationalFunction":
        return RationalFunction.of(_pscale(list(self.num), c), list(self.den))

    def equals(self, other: "RationalFunction") -> bool:
        return _pmul(list(self.num), list(other.den)) == \
            _pmul(list(other.num), list(self.den))

    def is_rational_coeffs(self) -> bool:
        return all(isinstance(c, Fraction) for c in self.num + self.den)


def series_coefficients(f: RationalFunction, d_max: int) -> list[Fraction]:
    """Taylor coefficients c_0..c_{d_max}; denominator constant term must be nonzero."""
    if not f.den or f.den[0] == 0:
        raise ValueError("denominator has zero constant term")
    inv0 = inverse(f.den[0])
    out = []
    for k in range(d_max + 1):
        acc = f.num[k] if k < len(f.num) else Fraction(0)
        for j in range(1, min(k, len(f.den) - 1) + 1):
            acc = exact(acc - f.den[j] * out[k - j])
        out.append(exact(acc * inv0))
    return out


# -- determinants -----------------------------------------------------------------


def det_one_minus_xi(action: GroupAction, i: int) -> Coeffs:
    """det(I - xi * theta(g)) as an exact polynomial in xi, from signed cycles."""
    out = [Fraction(1)]
    for length, sign in action.elements[i].signed_cycles():
        factor = [Fraction(1)] + [Fraction(0)] * (length - 1) + [Fraction(-sign)]
        out = _pmul(out, factor)
    return out


# -- Ramanujan sums ----------------------------------------------------------------


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    out, p, rest = 1, 2, n
    while p * p <= rest:
        if rest % p == 0:
            rest //= p
            if rest % p == 0:
                return 0
            out = -out
        p += 1
    if rest > 1:
        out = -out
    return out


def ramanujan_sum(q: int, j: int) -> int:
    """Sum of e^(2 pi i j t / q) over t coprime to q; always an integer."""
    g = math.gcd(j % q if q else 0, q) if q > 1 else 1
    if q == 1:
        return 1
    total = 0
    for d in range(1, g + 1):
        if g % d == 0:
            total += d * _mobius(q // d)
    return total


def _rotation_class_dets(action: GroupAction, m: int) -> dict[int, Coeffs]:
    """det(I - xi theta(r^k)) grouped by gcd(k, m); needs the rotation generator."""
    rot = action.generators[0]
    dets: dict[int, Coeffs] = {}
    idx = 0  # identity
    for k in range(m):
        g = math.gcd(k, m)
        if g not in dets:
            dets[g] = det_one_minus_xi(action, idx)
        idx = action.mult(idx, rot)
    return dets


def _molien_meta(catalog: IrrepCatalog, irrep: RealIrrep) -> RationalFunction:
    kind = irrep.molien_meta[0]
    if kind == "c2n":
        # character and determinant both factor over the coordinates: the sign
        # average is xi/(1-xi^2) on each coordinate in S and 1/(1-xi^2) elsewhere
        _, n, subset = irrep.molien_meta
        den = [0] * (2 * n + 1)
        den[::2] = [(-1) ** k * math.comb(n, k) for k in range(n + 1)]
        return RationalFunction.of([0] * len(subset) + [1], den)
    if kind == "cyclic-pair":
        _, m, j = irrep.molien_meta
        dets = _rotation_class_dets(catalog.action, m)
        total = RationalFunction.of([0], [1])
        # class sum of the realified character over {k : gcd(k,m)=g} is
        # 2*c_{m/g}(j); the 1/2 real-multiplicity normalization cancels the 2
        for g, det in dets.items():
            total = total + RationalFunction.of([ramanujan_sum(m // g, j)], det)
        return total.scale(Fraction(1, m))
    if kind == "dihedral":
        _, m, j = irrep.molien_meta
        dets = _rotation_class_dets(catalog.action, m)
        total = RationalFunction.of([0], [1])
        for g, det in dets.items():
            total = total + RationalFunction.of([2 * ramanujan_sum(m // g, j)], det)
        return total.scale(Fraction(1, 2 * m))
    raise ValueError(f"no exact Molien route for irrep {irrep.label}")


ClassTerms = tuple[Coeffs, list[tuple[Coeffs, list[tuple[int, int]]]]]
_CLASS_TERMS: "weakref.WeakKeyDictionary[GroupAction, ClassTerms]" = \
    weakref.WeakKeyDictionary()


def _class_terms(action: GroupAction) -> ClassTerms:
    """Common denominator of the Molien sum, and its terms by determinant.

    One det(I - xi theta(g)) per conjugacy class, at the class's first
    (smallest) element.  Classes that share a determinant form one term;
    each term carries the cofactor L/det of the least common multiple L of
    the distinct determinants, and its classes as (representative, size).
    Computed once per action and shared by all of its irreps.
    """
    terms = _CLASS_TERMS.get(action)
    if terms is not None:
        return terms
    by_det: dict[tuple, list] = {}
    for cls in action.classes:
        det = det_one_minus_xi(action, cls[0])
        by_det.setdefault(tuple(det), [det, []])[1].append((cls[0], len(cls)))
    lcm: Coeffs = [Fraction(1)]
    for det, _ in by_det.values():
        lcm = _pdivmod(_pmul(lcm, det), _pgcd(lcm, det))[0]
    terms = _CLASS_TERMS[action] = (
        lcm, [(_pdivmod(lcm, det)[0], classes) for det, classes in by_det.values()])
    return terms


def molien_series(catalog: IrrepCatalog, irrep: RealIrrep) -> RationalFunction:
    """Multiplicity generating function of ``irrep`` inside R[x] under the action.

    psi(xi) = (1/|G|) sum_C |C| trace(theta_i(g_C)) / det(I - xi theta(g_C)),
    summed over the conjugacy classes C with representatives g_C (both the
    character and the determinant are class functions), and halved for
    complex-type irreps so coefficients count real-irrep copies.  Each
    class's determinant is computed once; the terms are added over one
    common denominator and reduced once.
    """
    if irrep.approximate or irrep.molien_meta and irrep.molien_meta[0] == "c2n":
        return _molien_meta(catalog, irrep)
    action = catalog.action
    den, terms = _class_terms(action)
    num: Coeffs = []
    for cofactor, classes in terms:
        chi_sum = exact(sum((Quad.of(irrep.character(rep)) * size
                             for rep, size in classes), Quad(0)))
        if chi_sum != 0:
            num = _padd(num, _pscale(cofactor, chi_sum))
    weight = Fraction(1, action.order * (2 if irrep.kind == "complex-type" else 1))
    total = RationalFunction.of(_pscale(num, weight), den)
    if not total.is_rational_coeffs():
        raise ValueError(f"Molien series of {irrep.label} did not reduce to "
                         "rational coefficients")
    return total


def hilbert_series(n: int) -> RationalFunction:
    """1/(1-xi)^n, the Hilbert series of the full polynomial ring."""
    den = [Fraction(1)]
    for _ in range(n):
        den = _pmul(den, [Fraction(1), Fraction(-1)])
    return RationalFunction.of([Fraction(1)], den)


def hilbert_consistency(catalog: IrrepCatalog) -> bool:
    """Check sum_i n_i psi_i = 1/(1 - xi)^n exactly."""
    total = RationalFunction.of([0], [1])
    for irrep in catalog.irreps:
        total = total + molien_series(catalog, irrep).scale(irrep.dim)
    return total.equals(hilbert_series(catalog.action.n))


def dimension_table(catalog: IrrepCatalog, dmax: int) -> dict:
    """Per-irrep multiplicities by degree plus the total-dimension row.

    Row label -> list of multiplicities for degrees 0..dmax; the "total" row
    is C(n+d-1, d), the dimension of the degree-d homogeneous component.
    """
    if dmax < 0:
        raise ValueError(f"dmax must be a nonnegative degree, not {dmax}")
    rows = {}
    for irrep in catalog.irreps:
        psi = molien_series(catalog, irrep)
        rows[irrep.label] = [int(c) for c in series_coefficients(psi, dmax)]
    n = catalog.action.n
    rows["total"] = [math.comb(n + d - 1, d) for d in range(dmax + 1)]
    check = [sum(catalog.irreps[i].dim * rows[catalog.irreps[i].label][d]
                 for i in range(len(catalog.irreps))) for d in range(dmax + 1)]
    if check != rows["total"]:
        raise AssertionError("multiplicity rows do not add up to the space dimension")
    return rows


def even_form_block_census(n: int, form_degree: int) -> list[tuple[int, int]]:
    """(block size, count) census for degree-``form_degree`` even forms in n variables.

    Even forms are invariant under all coordinate sign flips; the reduced
    Gram SDP has one block per sign character, whose size is the character's
    multiplicity among monomials of half the form degree.  Derived from the
    exact type-r series xi^r/(1-xi^2)^n without solving anything.
    """
    if form_degree % 2:
        raise ValueError("even forms have even degree")
    half = form_degree // 2
    census: dict[int, int] = {}
    for r in range(n + 1):
        # coefficient of xi^half in xi^r/(1-xi^2)^n
        if half < r or (half - r) % 2:
            size = 0
        else:
            size = math.comb(n + (half - r) // 2 - 1, (half - r) // 2)
        if size:
            census[size] = census.get(size, 0) + math.comb(n, r)
    return sorted(census.items(), reverse=True)
