"""Small exact linear algebra kit over Fraction / Quad scalars.

Matrices are lists of lists (rows) of exact scalars.  There is one exact
elimination, ``RowBasis`` over sparse ``{column: value}`` rows (a
constraint row touches a few of hundreds of columns), with ``parametrize``
on top, and one exact LDL^T, ``ldl_decomposition``, with ``ldl_psd`` the
PSD verdict on it.  Floating point only ever refuses: ``negative_direction``
proposes a direction from a float eigenvector and refuses on an exact
negative value, while acceptance is always a completed exact LDL^T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .scalars import Quad, Scalar, exact, inverse

Matrix = list[list[Scalar]]


def mat_identity(n: int) -> Matrix:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def mat_transpose(a: Matrix) -> Matrix:
    return [list(row) for row in zip(*a)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = mat_transpose(b)
    return [[exact(sum((x * y for x, y in zip(row, col)), Fraction(0)))
             for col in bt] for row in a]


def mat_vec(a: Matrix, v: Sequence[Scalar]) -> list[Scalar]:
    return [exact(sum((x * y for x, y in zip(row, v)), Fraction(0))) for row in a]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def is_orthogonal(a: Matrix) -> bool:
    n = len(a)
    return mat_eq(mat_mul(mat_transpose(a), a), mat_identity(n))


def dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    return exact(sum((x * y for x, y in zip(u, v)), Fraction(0)))


def to_ndarray(a: Matrix) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in a], dtype=float)


class InconsistentRow(ValueError):
    """A row in the span of a basis whose right-hand side is not."""


SparseRow = dict[int, Scalar]
Row = Sequence[Scalar] | Mapping[int, Scalar]


def _sparse(row: Row) -> SparseRow:
    items = row.items() if isinstance(row, Mapping) else enumerate(row)
    return {c: exact(x) for c, x in items if x}


def _subtract(r: SparseRow, f: Scalar, prow: SparseRow) -> None:
    """r -= f * prow in place, keeping only nonzero entries."""
    for c, y in prow.items():
        v = exact(r.get(c, 0) - f * y)
        if v:
            r[c] = v
        else:
            del r[c]


class RowBasis:
    """Incremental exact row space over sparse rows ``{column: value}``.

    Rows may be given as dicts or as dense sequences.  Only columns below
    ``ncols`` hold pivots (the lowest nonzero one of a reduced row); entries
    past them (a right-hand side) are carried along by the reduction.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[SparseRow] = []
        self.pivots: list[int] = []

    def reduce(self, row: Row) -> SparseRow:
        r = _sparse(row)
        for prow, pc in zip(self.rows, self.pivots):
            f = r.get(pc)
            if f is not None:
                _subtract(r, f, prow)
        return r

    def add(self, row: Row) -> bool:
        """Insert if independent of the current span; returns True if kept.

        Raises InconsistentRow when the row reduces to zero on the pivot
        columns but not past them.
        """
        r = self.reduce(row)
        pc = min((c for c in r if c < self.ncols), default=None)
        if pc is None:
            if r:
                raise InconsistentRow("row is dependent but its right-hand side is not")
            return False
        inv = inverse(r[pc])
        self.rows.append({c: exact(x * inv) for c, x in r.items()})
        self.pivots.append(pc)
        return True

    def contains(self, row: Row) -> bool:
        return not self.reduce(row)

    @property
    def rank(self) -> int:
        return len(self.rows)


def rank_exact(rows: Sequence[Sequence[Scalar]]) -> int:
    """Rank of dense rows."""
    basis = RowBasis(max(map(len, rows), default=0))
    for row in rows:
        basis.add(row)
    return basis.rank


@dataclass
class Parametrization:
    """Solution set of an exact system A x = b, pivots as affine maps of the frees.

    ``pivots`` holds (pivot column, constant, {free column: coefficient}) in
    the order the rows entered the basis, so x[pivot] = constant +
    sum coefficient * x[free]; ``sources`` is the input row behind each pivot.
    """

    ncols: int
    pivots: list[tuple[int, Scalar, dict[int, Scalar]]]
    sources: list[int]

    @property
    def free(self) -> list[int]:
        taken = {pc for pc, _, _ in self.pivots}
        return [j for j in range(self.ncols) if j not in taken]

    @cached_property
    def _integer_rows(self) -> list[tuple[int, int, list[tuple[int, int]], int]]:
        """Each rational pivot row over the lcm of its denominators:
        (pivot column, constant numerator, [(free column, numerator)], lcm)."""
        out = []
        for pc, const, coeffs in self.pivots:
            den = math.lcm(const.denominator, *(c.denominator for c in coeffs.values()))
            out.append((pc, const.numerator * (den // const.denominator),
                        [(j, c.numerator * (den // c.denominator))
                         for j, c in coeffs.items()], den))
        return out

    def point(self, free_values: dict[int, Fraction]) -> list[Fraction]:
        """The solution with the given rational free values (missing ones are zero).

        The free values are put over their common denominator, so each pivot
        is one integer dot product with its row's integer form and one
        ``Fraction``.
        """
        vals: list[Fraction] = [Fraction(0)] * self.ncols
        free = [j for j in self.free if free_values.get(j)]
        den = math.lcm(*(free_values[j].denominator for j in free))
        nums = [0] * self.ncols
        for j in free:
            v = vals[j] = free_values[j]
            nums[j] = v.numerator * (den // v.denominator)
        for pc, const, coeffs, rden in self._integer_rows:
            acc = const * den
            for j, c in coeffs:
                acc += c * nums[j]
            vals[pc] = Fraction(acc, rden * den)
        return vals


def parametrize(rows: Iterable[Row], ncols: int) -> Parametrization | None:
    """Exact RREF of the augmented rows [A | b]; None if the system is inconsistent.

    Column ``ncols`` of a row is its right-hand side.  Each row is reduced
    once, by ``RowBasis.add``; the kept rows are then back-substituted.  The
    reduced form is unique for the column order, so callers choose which
    variables become pivots by the order of the columns.
    """
    basis = RowBasis(ncols)
    sources = []
    try:
        for i, row in enumerate(rows):
            if basis.add(row):
                sources.append(i)
    except InconsistentRow:
        return None
    red = basis.rows
    for i in range(len(red) - 1, -1, -1):
        pc, prow = basis.pivots[i], red[i]
        for j in range(i):
            f = red[j].get(pc)
            if f is not None:
                _subtract(red[j], f, prow)
    pivots = [(pc, row.get(ncols, Fraction(0)),
               {j: -row[j] for j in sorted(row) if j < ncols and j != pc})
              for row, pc in zip(red, basis.pivots)]
    return Parametrization(ncols, pivots, sources)


class NotPSD(ValueError):
    """A matrix the exact LDL^T refuses; the message names the row and the sign."""


def _approx(x: Scalar) -> float:
    """float(x), saturating to +-inf where a float would overflow."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def negative_direction(a: Matrix) -> list[Fraction] | None:
    """A rational w with w^T A w < 0 exactly, or None.

    The candidate is the floating eigenvector of the most negative
    eigenvalue of the unit-diagonal scaling of A, read as a dyadic rational.
    Only the exact sign of w^T A w refuses, so None proves nothing: this is
    a cheap way to reject, never to accept.
    """
    if not a:
        return None
    f = np.array([[_approx(x) for x in row] for row in a], dtype=float)
    if not np.all(np.isfinite(f)):
        return None
    d = np.diag(f)
    scale = np.where(d > 0, 1 / np.sqrt(np.where(d > 0, d, 1)), 1.0)
    vals, vecs = np.linalg.eigh(f * np.outer(scale, scale))
    if not vals[0] < 0:
        return None
    w = [Fraction(float(x)) for x in vecs[:, 0] * scale]
    q = sum((wi * dot(row, w) for wi, row in zip(w, a) if wi), Fraction(0))
    return w if isinstance(q, Fraction) and q < 0 else None


def ldl_decomposition(a: Matrix) -> tuple[Matrix, list[Scalar], list[int]]:
    """P A P^T = L D L^T with positive D, for an exactly PSD symmetric matrix.

    Symmetric diagonal pivoting on the largest remaining diagonal entry.
    Returns (L, diag, perm): L is n x rank in the original row indexing, with
    L[perm[k]][k] = 1 and L[perm[j]][k] = 0 for j < k.  Raises NotPSD, naming
    the row and the sign, at a negative pivot or a zero pivot whose row is
    not zero (or at an asymmetric pair).
    """
    n = len(a)
    m = [[exact(x) for x in row] for row in a]
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                raise NotPSD(f"not symmetric at ({i},{j})")
    perm: list[int] = []
    cols: list[dict[int, Scalar]] = []
    ds: list[Scalar] = []
    active = list(range(n))
    while active:
        piv = max(active, key=lambda i: _approx(m[i][i]))
        d = m[piv][piv]
        active.remove(piv)
        if d < 0 if isinstance(d, Fraction) else float(d) < 0:   # a Quad has no exact order
            raise NotPSD(f"negative pivot at row {piv}")
        if not d:
            if any(m[piv][i] for i in active):
                raise NotPSD(f"zero pivot with a nonzero row at row {piv}")
            continue
        inv = inverse(d)
        prow = m[piv]
        col = {i: exact(prow[i] * inv) for i in active if prow[i]}
        perm.append(piv)
        cols.append(col)
        ds.append(d)
        # Schur complement on the active upper triangle, mirrored
        for i, f in col.items():
            row = m[i]
            for j in active:
                if j >= i and prow[j]:
                    row[j] = exact(row[j] - f * prow[j])
                    m[j][i] = row[j]
    L: Matrix = [[Fraction(0)] * len(ds) for _ in range(n)]
    for k, piv in enumerate(perm):
        L[piv][k] = Fraction(1)
        for i, f in cols[k].items():
            L[i][k] = f
    return L, ds, perm


def ldl_psd(a: Matrix) -> tuple[bool, str]:
    """Exact PSD verdict: (is_psd, reason).

    A matrix is refused by a negative direction (``negative_direction``) or
    by ``ldl_decomposition``; it is accepted only when the exact LDL^T
    completes.  Reasons name a row and a sign, never an entry.
    """
    if negative_direction(a) is not None:
        return False, "negative direction"
    try:
        ldl_decomposition(a)
    except NotPSD as exc:
        return False, str(exc)
    return True, "ok"


def gram_schmidt_exact(vectors: list[list[Scalar]]) -> list[list[Scalar]] | None:
    """Orthonormalize exactly; None if a norm has no square root in the tower."""
    basis: list[list[Scalar]] = []
    for v in vectors:
        w = [exact(x) for x in v]
        for u in basis:
            c = dot(w, u)
            if c != 0:
                w = [exact(a - c * b) for a, b in zip(w, u)]
        nrm2 = dot(w, w)
        if nrm2 == 0:
            continue
        try:
            nrm = Quad.of(nrm2).sqrt()
        except ValueError:
            return None
        inv = nrm.inverse()
        basis.append([exact(x * inv) for x in w])
    return basis
