"""Primary/secondary invariant presentations and exact rewriting.

Invariant polynomials are rewritten as f = sum_j eta_j * f_j(theta) by
division by leading terms in lex order (the straightening of a Hironaka
decomposition): the products eta_j * theta^alpha have distinct lex-leading
exponents, so the largest monomial of the remainder names the one product
to subtract, and a monomial that names none is outside the span.  The
decomposition makes the result unique whenever the input is really
invariant.  No Groebner machinery is needed at these degrees.

A presentation's group generators are the catalog action's signed
permutations (``GroupAction.generator_perms``), and invariance is checked with
``SignedPerm.substitute``; ``symmetric_presentation`` converts the same
adjacent transpositions the catalog closes, so it serves any n.

Each presentation keeps one table of those products in x, filled on demand
by ``InvariantPresentation.product``; rewriting reads it, and
``expand_invariants`` reads its integer forms
(``InvariantPresentation.integer_product``) and sums in integers over one
denominator; its table of leading exponents (``InvariantPresentation.leading``)
multiplies nothing.  A certificate read from a file has its own presentation
and tables.

Abstract symbols are rendered t1..ts for the primary and h1..ht for the
secondary invariants (h1 = 1 is implicit and never printed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .groups import (IrrepCatalog, SignedPerm, as_signed_perm, catalog,
                     parse_spec, transposition_generators)
from .poly import (Monomial, Polynomial, _integer_form, compose, parse_polynomial,
                   render_polynomial)


def elementary_symmetric(n: int) -> list[Polynomial]:
    """e_1 .. e_n in n variables."""
    polys = [Polynomial.zero(n) for _ in range(n + 1)]
    polys[0] = Polynomial.constant(n, 1)
    for i in range(n):
        x = Polynomial.variable(n, i)
        for k in range(min(i + 1, n), 0, -1):
            polys[k] = polys[k] + polys[k - 1] * x
    return polys[1:]


@dataclass
class InvariantPresentation:
    """Hironaka data: algebraically independent theta, module basis eta."""

    nvars: int
    theta: list[Polynomial]
    eta: list[Polynomial]                 # eta[0] is the constant 1
    syzygies: list[Polynomial] = field(default_factory=list)  # in symbol variables
    generators: list[SignedPerm] = field(default_factory=list)  # group generators
    name: str = ""
    # the lex-largest monomial of a monomial's orbit, when one is cheap to
    # compute; rewriting then divides on representatives only
    orbit_representative: object = None
    # (j, alpha) -> eta_j * theta^alpha expanded in x, filled by product()
    _products: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # (j, alpha) -> the integer form of that product, filled by integer_product()
    _integer_products: dict = field(default_factory=dict, init=False, repr=False,
                                    compare=False)
    # degree -> {leading exponent: (j, alpha)}, filled by leading()
    _leading: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.eta or self.eta[0] != Polynomial.constant(self.nvars, 1):
            raise ValueError("eta must start with the constant 1")

    @property
    def theta_degrees(self) -> list[int]:
        return [p.degree() for p in self.theta]

    @property
    def eta_degrees(self) -> list[int]:
        return [0] + [p.degree() for p in self.eta[1:]]

    def symbol_names(self) -> list[str]:
        s = len(self.theta)
        return [f"t{i + 1}" for i in range(s)] + \
            [f"h{j + 2}" for j in range(len(self.eta) - 1)]

    def verify(self) -> None:
        """Invariance of every generator and exactness of every syzygy."""
        if not all(verify_invariant(p, self.generators) for p in self.theta + self.eta):
            raise ValueError("presentation polynomial is not invariant")
        for s in self.syzygies:
            if not self.expand_symbol_poly(s).is_zero():
                raise ValueError("syzygy does not expand to zero")

    def expand_symbol_poly(self, sp: Polynomial) -> Polynomial:
        """Expand a polynomial in (t1..ts, h2..ht) back into the x variables."""
        return compose(sp, self.theta + self.eta[1:])

    def product(self, j: int, alpha: tuple[int, ...]) -> Polynomial:
        """eta_j * theta^alpha expanded in x, built once per presentation.

        The first call multiplies eta_j * theta^(alpha - e_i) by theta_i, for
        the last i with alpha_i > 0; later calls read the table.
        """
        key = (j, alpha)
        if key not in self._products:
            i = max((k for k, e in enumerate(alpha) if e), default=None)
            if i is None:
                self._products[key] = self.eta[j]
            else:
                prev = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
                self._products[key] = self.product(j, prev) * self.theta[i]
        return self._products[key]

    def integer_product(self, j: int, alpha: tuple[int, ...]
                        ) -> tuple[dict[Monomial, int], int]:
        """``poly._integer_form`` of ``product(j, alpha)``, built once per
        presentation."""
        key = (j, alpha)
        if key not in self._integer_products:
            self._integer_products[key] = _integer_form(self.product(j, alpha).terms)
        return self._integer_products[key]

    def leading(self, d: int) -> dict[Monomial, tuple[int, tuple[int, ...]]]:
        """Lex-leading exponent -> (j, alpha) over the products of degree d.

        LT(eta_j * theta^alpha) = LT(eta_j) + sum_i alpha_i LT(theta_i), so the
        table is exponent arithmetic and multiplies no polynomial.  Two
        products with one leading exponent make the rewrite ambiguous.
        """
        if d not in self._leading:
            lt_theta = [max(t.terms) for t in self.theta]
            table = {}
            for j, (eta, e) in enumerate(zip(self.eta, self.eta_degrees)):
                lt_eta = max(eta.terms)
                for alpha in theta_monomials(self.theta_degrees, d - e, exactly=d - e):
                    lead = lt_eta
                    for a, lt in zip(alpha, lt_theta):
                        if a:
                            lead = tuple(x + a * y for x, y in zip(lead, lt))
                    if lead in table:
                        raise RewriteError("rewrite is not unique; "
                                           "presentation is malformed")
                    table[lead] = (j, alpha)
            self._leading[d] = table
        return self._leading[d]


@dataclass
class InvariantPoly:
    """f = sum_j eta_j * parts[j](theta), each part a polynomial in s symbols."""

    s: int                       # number of primary invariants
    parts: dict[int, Polynomial]  # eta index -> polynomial in the theta symbols

    def part(self, j: int) -> Polynomial:
        return self.parts.get(j, Polynomial.zero(self.s))

    def __eq__(self, other):
        if not isinstance(other, InvariantPoly):
            return NotImplemented
        keys = set(self.parts) | set(other.parts)
        return self.s == other.s and all(self.part(j) == other.part(j) for j in keys)


def theta_monomials(degrees: Sequence[int], budget: int,
                    exactly: int | None = None) -> list[tuple[int, ...]]:
    """Exponent tuples alpha with sum(alpha_i * degrees_i) <= budget (or == exactly)."""
    target = exactly if exactly is not None else budget
    out = []

    def rec(i: int, remaining: int, prefix: tuple[int, ...]):
        if i == len(degrees):
            if exactly is None or remaining == 0:
                out.append(prefix)
            return
        d = degrees[i]
        for e in range(remaining // d + 1 if d > 0 else 1):
            rec(i + 1, remaining - e * d, prefix + (e,))

    if target < 0:
        return []
    rec(0, target, ())
    return sorted(out, key=lambda a: (sum(e * d for e, d in zip(a, degrees)), a))


def weighted_degree(f: InvariantPoly, pres: InvariantPresentation) -> int:
    """Max over terms of sum_i alpha_i deg(theta_i) + deg(eta_j); 0 for constants."""
    degs = pres.theta_degrees
    etadegs = pres.eta_degrees
    best = 0
    for j, part in f.parts.items():
        for m in part.terms:
            best = max(best, sum(e * d for e, d in zip(m, degs)) + etadegs[j])
    return best


def expand_invariants(f: InvariantPoly, pres: InvariantPresentation) -> Polynomial:
    """Full expansion of sum_j eta_j f_j(theta): the sum of c * pres.product(j, alpha)
    over the terms c * theta^alpha of each f_j, built as one polynomial.

    The sum runs in integers over one denominator, the lcm of the products
    of each term's and each product's denominators, so each output
    coefficient is one ``Fraction``.
    """
    if f.s != len(pres.theta):
        raise ValueError("symbol count mismatch with the presentation")
    terms = [(j, alpha, c)
             for j, part in f.parts.items() for alpha, c in part.terms.items()]
    forms = [pres.integer_product(j, alpha) for j, alpha, _ in terms]
    out: dict = {}
    den = math.lcm(*(c.denominator * d for (_, _, c), (_, d) in zip(terms, forms)))
    get = out.get
    for (_, _, c), (nums, d) in zip(terms, forms):
        scale = c.numerator * (den // (c.denominator * d))
        for m, v in nums.items():
            out[m] = get(m, 0) + scale * v
    return Polynomial._from_canonical(
        pres.nvars, {m: Fraction(v, den) for m, v in out.items() if v})


class NotInvariantError(ValueError):
    pass


class RewriteError(ValueError):
    pass


def verify_invariant(p: Polynomial, generators: Iterable[SignedPerm]) -> bool:
    return all(g.substitute(p) == p for g in generators)


def rewrite_in_invariants(p: Polynomial, pres: InvariantPresentation) -> InvariantPoly:
    """Unique representation of an invariant p as sum_j eta_j f_j(theta).

    Division by leading terms in lex order: the largest monomial of the
    remainder is the leading exponent of one product eta_j * theta^alpha
    (``InvariantPresentation.leading``), and that product's multiple is
    subtracted, so only the products the answer uses are built.  Raises
    NotInvariantError / RewriteError accordingly.
    """
    if p.nvars != pres.nvars:
        raise ValueError("variable count mismatch")
    if pres.generators and not verify_invariant(p, pres.generators):
        raise NotInvariantError("polynomial is not invariant under the group")
    rep = pres.orbit_representative
    # the remainder stays invariant, and the lex-leading monomial of an
    # invariant is its own orbit representative, so the remainder keeps
    # representative monomials only
    keep = (lambda m: True) if rep is None else (lambda m: rep(m) == m)
    rem = {m: c for m, c in p.terms.items() if keep(m)}
    found: dict[tuple, Fraction] = {}
    while rem:
        lead = max(rem)
        d = sum(lead)
        key = pres.leading(d).get(lead)
        if key is None:
            raise RewriteError(f"degree-{d} component is outside the span of the "
                               "presentation (incomplete presentation?)")
        prod = pres.product(*key)
        c = rem[lead] / prod.terms[lead]
        found[(d, *key)] = c
        for m, v in prod.terms.items():
            if keep(m):
                left = rem.get(m, 0) - c * v
                if left:
                    rem[m] = left
                else:
                    del rem[m]
    parts: dict[int, dict] = {}
    for (_, j, alpha), c in sorted(found.items()):      # by degree, j, alpha
        parts.setdefault(j, {})[alpha] = c
    s = len(pres.theta)
    out_parts = {j: Polynomial(s, terms) for j, terms in parts.items()}
    if not out_parts:
        out_parts = {0: Polynomial.zero(s)}
    return InvariantPoly(s, out_parts)


# -- the presentation catalog --------------------------------------------------------


def symmetric_presentation(n: int) -> InvariantPresentation:
    """theta = elementary symmetric polynomials, no secondary invariants.

    The generators are the adjacent transpositions the catalog closes; the
    group itself is never closed, so this serves any n.
    """
    gens = [as_signed_perm(g) for g in transposition_generators(n)]
    return InvariantPresentation(n, elementary_symmetric(n),
                                 [Polynomial.constant(n, 1)], [], gens,
                                 name=f"symmetric:{n}",
                                 orbit_representative=lambda m: tuple(
                                     sorted(m, reverse=True)))


def c2n_presentation(n: int, gens: list[SignedPerm]) -> InvariantPresentation:
    theta = [Polynomial.monomial(n, tuple(2 if j == i else 0 for j in range(n)))
             for i in range(n)]
    return InvariantPresentation(n, theta, [Polynomial.constant(n, 1)], [], gens,
                                 name=f"c2n:{n}")


def dihedral4_presentation(gens: list[SignedPerm]) -> InvariantPresentation:
    theta1 = parse_polynomial("x^2+y^2", ["x", "y"])
    theta2 = parse_polynomial("x^2*y^2", ["x", "y"])
    return InvariantPresentation(2, [theta1, theta2],
                                 [Polynomial.constant(2, 1)], [], gens,
                                 name="dihedral:4")


def cyclic4_presentation(gens: list[SignedPerm]) -> InvariantPresentation:
    theta1 = parse_polynomial("x^2+y^2", ["x", "y"])
    theta2 = parse_polynomial("x^2*y^2", ["x", "y"])
    eta2 = parse_polynomial("x^3*y - x*y^3", ["x", "y"])
    # eta2^2 + 4 theta2^2 - theta1^2 theta2 = 0 in the symbols (t1, t2, h2)
    syzygy = parse_polynomial("h2^2 + 4*t2^2 - t1^2*t2", ["t1", "t2", "h2"])
    return InvariantPresentation(2, [theta1, theta2],
                                 [Polynomial.constant(2, 1), eta2], [syzygy], gens,
                                 name="cyclic:4")


def presentation(spec: str | IrrepCatalog) -> InvariantPresentation:
    """Presentation for a catalog or "family:param[:variant]" spec string.

    The generators are the catalog action's.  The order-8 dihedral and
    order-4 cyclic groups have a presentation only in their planar variant,
    which is the default at 4.
    """
    cat = catalog(spec) if isinstance(spec, str) else spec
    family, n, variant = parse_spec(cat.name)
    planar = variant == "planar"        # a catalog name spells out its variant
    gens = cat.action.generator_perms
    pres = None
    if family == "symmetric":
        pres = symmetric_presentation(n)
    elif family == "c2n":
        pres = c2n_presentation(n, gens)
    elif family == "dihedral" and n == 4 and planar:
        pres = dihedral4_presentation(gens)
    elif family == "cyclic" and n == 4 and planar:
        pres = cyclic4_presentation(gens)
    elif family == "trivial":
        pres = InvariantPresentation(
            n, [Polynomial.variable(n, i) for i in range(n)],
            [Polynomial.constant(n, 1)], [], [], name=cat.name)
    if pres is None:
        raise KeyError(f"no invariant presentation cataloged for {cat.name!r}")
    pres.verify()
    return pres


# -- rendering -------------------------------------------------------------------


def render_presentation(pres: InvariantPresentation, variables: Sequence[str]) -> str:
    lines = [f"presentation nvars={pres.nvars}"]
    lines += [f"theta {render_polynomial(p, variables)}" for p in pres.theta]
    lines += [f"eta {render_polynomial(p, variables)}" for p in pres.eta]
    lines += [f"syzygy {render_polynomial(s, pres.symbol_names())}"
              for s in pres.syzygies]
    lines.append("end")
    return "\n".join(lines)
