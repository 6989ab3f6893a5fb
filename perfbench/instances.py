"""Seeded inputs for the benchmark.

Everything here is a pure function of the random streams it is given:
by-construction invariant polynomials together with their exact
certificates, random invariant SDPs built by the recipe of the
reduction-equivalence test, and the fixed instances (Robinson, the symmetric
quartic, Motzkin, ...).  The program under
test only ever sees the polynomial text, certificate files and SDPs made here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from symsos.certificates import CertBlock, Certificate
from symsos.equivariants import monomial_envelope
from symsos.fixtures import ROBINSON_D4_TEXT, S3_QUARTIC_TEXT
from symsos.invariants import InvariantPoly, expand_invariants
from symsos.poly import Polynomial, parse_polynomial, render_polynomial
from symsos.sdp import BlockSDP, BlockSpec, LinearConstraint

TARGET_D4 = -3825 / 4096            # Robinson on dihedral:4
TARGET_S3 = -2.112913882            # symmetric quartic on symmetric:3
TARGET_LINE = 0.0                   # x^6 - 2x^4 + 2x^2 on c2n:1

MOTZKIN_TEXT = "x^4*y^2 + x^2*y^4 - 3*x^2*y^2 + 1"
LINE_TEXT = "x^6 - 2*x^4 + 2*x^2"
ROADMAP_S4_TEXT = ("x1^8+x2^8+x3^8+x4^8-x1^6-x2^6-x3^6-x4^6-3*x1*x2*x3*x4"
                   "+x1^2+x2^2+x3^2+x4^2-x1*x2-x1*x3-x1*x4-x2*x3-x2*x4-x3*x4")
DIHEDRAL6_TEXT = "x1^2+x2^2+x3^2+x4^2+x5^2+x6^2+1"

# groups and monomial degrees of the random invariant SDP suite
SDP_GROUPS = (("dihedral:4", 2), ("cyclic:4", 2), ("symmetric:3", 2),
              ("c2n:2", 2), ("dihedral:6", 1), ("symmetric:4", 1),
              ("cyclic:3", 2), ("cyclic:6", 1))


def var_names(n: int) -> list[str]:
    return [f"x{i + 1}" for i in range(n)] if n > 3 else ["x", "y", "z"][:n]


@dataclass
class PolyInstance:
    """A polynomial as the program receives it: text plus variable names."""

    name: str
    text: str
    variables: list[str]
    expect: str                       # "certify" or "no-certificate"
    pinned: float | None = None       # lambda a fixture must hit
    cert: Certificate | None = None   # exact by-construction certificate
    poly: Polynomial = field(init=False)

    def __post_init__(self):
        self.poly = parse_polynomial(self.text, self.variables)

    def file_text(self) -> str:
        return "vars " + " ".join(self.variables) + "\n" + self.text + "\n"


def fixed(name: str, text: str, variables: list[str], expect: str = "certify",
          pinned: float | None = None) -> PolyInstance:
    return PolyInstance(name, text, variables, expect, pinned)


def by_construction(bundle, degree: int, rng: random.Random, name: str,
                    cols: int = 2, span: int = 2) -> PolyInstance:
    """f = sum_i <L_i L_i^T, Pi_i> + c over the weighted-degree envelopes.

    L_i has ``cols`` columns of integers in [-span, span], so every Gram is
    PSD of rank at most ``cols`` and (f, c, the Grams) is an exact
    certificate that f - c is a sum of squares.  Draws repeat until f has
    the requested degree, which keeps the result a function of the seed.
    """
    pres = bundle.pres
    s = len(pres.theta)
    while True:
        parts: dict[int, dict] = {}
        blocks = []
        for label in bundle.irrep_labels:
            pi = bundle.pis[label]
            env = monomial_envelope(pres, pi, degree)
            pairs = [(k, alpha) for k, row in enumerate(env) for alpha in row]
            if not pairs:
                continue
            low = [[Fraction(rng.randint(-span, span)) for _ in range(cols)]
                   for _ in pairs]
            gram = [[sum((la[t] * lb[t] for t in range(cols)), Fraction(0))
                     for lb in low] for la in low]
            for a, (k, alpha) in enumerate(pairs):
                for b, (l, beta) in enumerate(pairs):
                    g = gram[a][b]
                    if g == 0:
                        continue
                    for j, part in pi.entries[k][l].parts.items():
                        bucket = parts.setdefault(j, {})
                        for delta, coef in part.terms.items():
                            gamma = tuple(p + q + r for p, q, r in
                                          zip(alpha, beta, delta))
                            bucket[gamma] = bucket.get(gamma, Fraction(0)) + g * coef
            blocks.append(CertBlock(label, env, gram, pi))
        ft = InvariantPoly(s, {j: Polynomial(s, {m: c for m, c in t.items() if c})
                               for j, t in parts.items()})
        c = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        f = expand_invariants(ft, pres) + c
        if f.degree() == degree:
            break
    names = var_names(pres.nvars)
    cert = Certificate("invariant", bundle.group, names, c, exact=True,
                       pres=pres, blocks=blocks)
    inst = PolyInstance(name, render_polynomial(f, names), names, "certify",
                        cert=cert)
    assert inst.poly == f
    return inst


def shifted(pi: PolyInstance, delta: Fraction) -> PolyInstance:
    """The same instance with f and its certificate's lambda moved by delta."""
    cert = pi.cert
    moved = Certificate(cert.mode, cert.group, cert.var_names, cert.lam + delta,
                        exact=True, pres=cert.pres, blocks=cert.blocks)
    f = pi.poly + delta
    return PolyInstance(pi.name, render_polynomial(f, pi.variables), pi.variables,
                        pi.expect, cert=moved)


def sym_quadratic(n: int, rng: random.Random) -> PolyInstance:
    """p2 + a*e1^2 + c with a >= 0: f - c is a PSD quadratic form."""
    names = var_names(n)
    a = Fraction(rng.randint(0, 12), rng.randint(1, 4))
    c = Fraction(rng.randint(-20, 20), rng.randint(1, 5))
    p2 = Polynomial.zero(n)
    e1 = Polynomial.zero(n)
    for i in range(n):
        x = Polynomial.variable(n, i)
        p2 = p2 + x * x
        e1 = e1 + x
    f = p2 + (e1 * e1).scale(a) + c
    return PolyInstance(f"symmetric:{n} quadratic", render_polynomial(f, names),
                        names, "certify", pinned=float(c))


@dataclass
class SDPInstance:
    name: str
    group: str
    degree: int
    sdp: BlockSDP


def random_invariant_sdp(rep, rng: random.Random, name: str, group: str,
                         degree: int) -> SDPInstance:
    """Feasible, bounded invariant SDP: Reynolds-averaged random data.

    The primal anchor x0 and the dual slack z are invariant and positive
    definite, so the program has an optimum by construction.
    """
    from symsos.isotypic import fixed_point_project
    n = rep.size

    def rnd_sym(shift=0):
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        return [[m[i][j] + m[j][i] + (Fraction(shift) if i == j else 0)
                 for j in range(n)] for i in range(n)]

    x0 = fixed_point_project(rnd_sym(shift=12), rep)
    amats = [fixed_point_project(rnd_sym(), rep) for _ in range(2)]
    zmat = fixed_point_project(rnd_sym(shift=10), rep)
    ys = [Fraction(rng.randint(-2, 2)) for _ in range(2)]
    cmat = [[zmat[i][j] + sum(ys[k] * amats[k][i][j] for k in range(2))
             for j in range(n)] for i in range(n)]

    def coeffs_of(mat):
        out = {}
        for r in range(n):
            if mat[r][r]:
                out[("blk", 0, r, r)] = mat[r][r]
            for c in range(r + 1, n):
                v = mat[r][c] + mat[c][r]
                if v:
                    out[("blk", 0, r, c)] = v
        return out

    cons = [LinearConstraint(coeffs_of(a), sum(a[i][j] * x0[i][j]
                                               for i in range(n) for j in range(n)))
            for a in amats]
    sdp = BlockSDP([BlockSpec("x", n, 1)], [], coeffs_of(cmat), cons)
    return SDPInstance(name, group, degree, sdp)


def robinson() -> PolyInstance:
    return fixed("robinson", ROBINSON_D4_TEXT, ["x", "y"], pinned=TARGET_D4)


def s3_quartic() -> PolyInstance:
    return fixed("s3-quartic", S3_QUARTIC_TEXT, ["x", "y", "z"], pinned=TARGET_S3)
