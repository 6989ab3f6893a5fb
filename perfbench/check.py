"""Independent output check for certificates.

A certificate claims f - lambda = sum_i <S_i, Pi_i> with every S_i PSD.  The
check tests exactly that, without the program's linear algebra:

* every Gram S_i is PSD by a Fraction LDL^T with a full Schur update;
* the identity holds exactly at seeded rational points, and the Pi matrices
  are PSD there, as Gram matrices of equivariant vectors must be.

A polynomial identity that holds at random points of a large grid holds
everywhere except with negligible probability (Schwartz-Zippel).
"""

from __future__ import annotations

import random
from fractions import Fraction


def exact_psd(matrix) -> tuple[bool, str]:
    """Exact PSD test: symmetric LDL^T over the rationals.

    Pivots on any positive diagonal entry and applies the Schur update to the
    whole remaining block from the untouched pivot row.  A negative diagonal
    entry, or a zero diagonal with a nonzero entry beside it, refutes PSD.
    """
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    if any(len(row) != n for row in a):
        return False, "not square"
    for i in range(n):
        for j in range(i + 1, n):
            if a[i][j] != a[j][i]:
                return False, f"not symmetric at ({i},{j})"
    active = list(range(n))
    while active:
        if any(a[i][i] < 0 for i in active):
            return False, "negative diagonal in a Schur complement"
        piv = next((i for i in active if a[i][i] > 0), None)
        if piv is None:
            if any(a[i][j] != 0 for i in active for j in active):
                return False, "zero diagonal with a nonzero off-diagonal entry"
            return True, "ok"
        active.remove(piv)
        row = a[piv]
        d = row[piv]
        for i in active:
            f = row[i] / d
            if f:
                ai = a[i]
                for j in active:
                    if row[j]:
                        ai[j] -= f * row[j]
    return True, "ok"


def evaluate(terms: dict, point) -> Fraction:
    """Exact value of a polynomial given as {exponent tuple: coefficient}."""
    total = Fraction(0)
    for mono, coef in terms.items():
        v = Fraction(coef)
        for x, e in zip(point, mono):
            if e:
                v *= x ** e
        total += v
    return total


def sample_points(nvars: int, seed: int, count: int = 3) -> list[list[Fraction]]:
    rng = random.Random(seed)
    return [[Fraction(rng.randint(-999, 999), rng.randint(1, 9))
             for _ in range(nvars)] for _ in range(count)]


def _gram_value(gram, vec) -> Fraction:
    return sum((gram[a][b] * vec[a] * vec[b] for a in range(len(vec))
                for b in range(len(vec)) if gram[a][b]), Fraction(0))


def check_certificate(cert, f, seed: int) -> tuple[bool, str]:
    """True when ``cert`` proves f >= cert.lam; otherwise False and a reason."""
    if not getattr(cert, "exact", False):
        return False, "certificate is not exact"
    lam = Fraction(cert.lam)
    grams = [cert.gram] if cert.mode == "plain" else [b.gram for b in cert.blocks]
    for k, gram in enumerate(grams):
        ok, why = exact_psd(gram)
        if not ok:
            return False, f"Gram {k} not PSD: {why}"
    for point in sample_points(f.nvars, seed):
        lhs = evaluate(f.terms, point) - lam
        if cert.mode == "plain":
            vec = [evaluate({m: 1}, point) for m in cert.monomials]
            rhs = _gram_value(cert.gram, vec)
        else:
            pres = cert.pres
            theta = [evaluate(p.terms, point) for p in pres.theta]
            eta = [evaluate(p.terms, point) for p in pres.eta]
            rhs = Fraction(0)
            for blk in cert.blocks:
                r = blk.pi.rank
                pi = [[Fraction(0)] * r for _ in range(r)]
                for k in range(r):
                    for l in range(r):
                        entry = blk.pi.entries[k][l]
                        pi[k][l] = sum((eta[j] * evaluate(part.terms, theta)
                                        for j, part in entry.parts.items()),
                                       Fraction(0))
                ok, why = exact_psd(pi)
                if not ok:
                    return False, f"Pi of block {blk.label} not PSD at a point: {why}"
                pairs = [(k, evaluate({alpha: 1}, theta))
                         for k, row in enumerate(blk.rows) for alpha in row]
                for a, (k, ua) in enumerate(pairs):
                    for b, (l, ub) in enumerate(pairs):
                        g = blk.gram[a][b]
                        if g:
                            rhs += g * ua * ub * pi[k][l]
        if lhs != rhs:
            return False, "identity f - lambda = sum <S_i, Pi_i> fails at a point"
    return True, "ok"
