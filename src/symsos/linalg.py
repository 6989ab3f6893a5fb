"""Small exact linear algebra kit over Fraction / Quad scalars.

Matrices are lists of lists (rows) of exact scalars.  Everything here is
O(n^3) dense Gaussian elimination, which is plenty at the matrix sizes this
package handles; the point is exactness, not speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .scalars import Quad, Scalar, exact

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


def _inv_scalar(x: Scalar) -> Scalar:
    if isinstance(x, Quad):
        return x.inverse()
    return Fraction(1) / x


def rref(rows: list[list[Scalar]]) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form; returns (reduced rows, pivot column indices)."""
    rows = [[exact(x) for x in row] for row in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = _inv_scalar(rows[r][c])
        rows[r] = [exact(x * inv) if x else x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [exact(x - f * y) if y else x
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank_exact(rows: list[list[Scalar]]) -> int:
    return len(rref(rows)[1])


class InconsistentRow(ValueError):
    """A row in the span of a basis whose right-hand side is not."""


class RowBasis:
    """Incremental exact row space: add rows, track rank cheaply.

    Only the first ``ncols`` entries of a row hold pivots; entries past them
    (a right-hand side) are carried along by the reduction.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list[Scalar]] = []
        self.pivots: list[int] = []

    def reduce(self, row: Sequence[Scalar]) -> list[Scalar]:
        r = [exact(x) for x in row]
        for prow, pc in zip(self.rows, self.pivots):
            if r[pc] != 0:
                f = r[pc]
                r = [exact(x - f * y) for x, y in zip(r, prow)]
        return r

    def add(self, row: Sequence[Scalar]) -> bool:
        """Insert if independent of the current span; returns True if kept.

        Raises InconsistentRow when the row reduces to zero on the pivot
        columns but not past them.
        """
        r = self.reduce(row)
        for c in range(self.ncols):
            if r[c] != 0:
                inv = _inv_scalar(r[c])
                self.rows.append([exact(x * inv) for x in r])
                self.pivots.append(c)
                return True
        if any(x != 0 for x in r[self.ncols:]):
            raise InconsistentRow("row is dependent but its right-hand side is not")
        return False

    def contains(self, row: Sequence[Scalar]) -> bool:
        return all(x == 0 for x in self.reduce(row))

    @property
    def rank(self) -> int:
        return len(self.rows)


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

    def point(self, free_values: dict[int, Scalar]) -> list[Scalar]:
        """The solution with the given free values (missing ones are zero)."""
        vals: list[Scalar] = [Fraction(0)] * self.ncols
        for j in self.free:
            vals[j] = free_values.get(j, Fraction(0))
        for pc, const, coeffs in self.pivots:
            acc = const
            for j, c in coeffs.items():
                if vals[j] != 0:
                    acc = exact(acc + c * vals[j])
            vals[pc] = acc
        return vals


def parametrize(rows: Sequence[Sequence[Scalar]], ncols: int) -> Parametrization | None:
    """Exact RREF of the augmented rows [A | b]; None if the system is inconsistent.

    Each row is reduced once, by ``RowBasis.add``; the kept rows are then
    back-substituted.  The reduced form is unique for the column order, so
    callers choose which variables become pivots by the order of the columns.
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
            f = red[j][pc]
            if f != 0:
                red[j] = [exact(x - f * y) if y else x for x, y in zip(red[j], prow)]
    pivots = [(pc, row[ncols], {j: -row[j] for j in range(ncols)
                                if j != pc and row[j] != 0})
              for row, pc in zip(red, basis.pivots)]
    return Parametrization(ncols, pivots, sources)


def solve_exact(a: Matrix, b: Sequence[Scalar]):
    """One solution of A x = b, or None if inconsistent (A need not be square)."""
    if not a:
        return [] if all(x == 0 for x in b) else None
    aug = [list(row) + [b[i]] for i, row in enumerate(a)]
    red, pivots = rref(aug)
    ncols = len(a[0])
    if ncols in pivots:
        return None  # pivot in rhs column: inconsistent
    x: list[Scalar] = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return x


def ldl_psd(a: Matrix) -> tuple[bool, str]:
    """Exact PSD test via LDL^T with symmetric diagonal pivoting.

    A symmetric matrix is PSD iff elimination completes with nonnegative
    pivots and every zero-pivot row/column of the remaining block vanishes.
    Returns (is_psd, reason).
    """
    n = len(a)
    m = [[exact(x) for x in row] for row in a]
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                return False, f"not symmetric at ({i},{j})"
    active = list(range(n))
    while active:
        # pick the largest available diagonal pivot (by float proxy; exactness
        # is unaffected since zero tests are exact)
        piv = max(active, key=lambda i: float(Quad.of(m[i][i])))
        d = m[piv][piv]
        if d == 0:
            for i in active:
                if m[piv][i] != 0 and i != piv:
                    return False, f"zero pivot with nonzero off-diagonal at row {piv}"
            active.remove(piv)
            continue
        if isinstance(d, Fraction):
            negative = d < 0
        else:
            negative = float(d) < 0
        if negative:
            return False, f"negative pivot {d} at row {piv}"
        active.remove(piv)
        inv = _inv_scalar(d)
        for i in active:
            f = exact(m[piv][i] * inv)
            if f == 0:
                continue
            for j in active:
                m[i][j] = exact(m[i][j] - f * m[piv][j])
            m[i][piv] = Fraction(0)
            m[piv][i] = Fraction(0)
    return True, "ok"


def ldl_decomposition(a: Matrix) -> tuple[Matrix, list[Scalar], list[int]]:
    """P A P^T = L D L^T with nonnegative D for an exactly PSD matrix.

    Returns (L, diag, perm) where perm maps factor rows to original indices.
    Raises ValueError if a negative pivot shows up.
    """
    n = len(a)
    m = [[exact(x) for x in row] for row in a]
    perm: list[int] = []
    ls: list[list[Scalar]] = []
    ds: list[Scalar] = []
    active = list(range(n))
    while active:
        piv = max(active, key=lambda i: float(Quad.of(m[i][i])))
        d = m[piv][piv]
        if (isinstance(d, Fraction) and d < 0) or (isinstance(d, Quad) and float(d) < 0):
            raise ValueError("matrix is not PSD")
        if d == 0:
            for i in active:
                if i != piv and m[piv][i] != 0:
                    raise ValueError("matrix is not PSD")
            active.remove(piv)
            continue
        perm.append(piv)
        inv = _inv_scalar(d)
        col = {i: exact(m[piv][i] * inv) for i in active if i != piv}
        ls.append(col)
        ds.append(d)
        active.remove(piv)
        for i in active:
            f = col.get(i, Fraction(0))
            if f == 0:
                continue
            for j in active:
                m[i][j] = exact(m[i][j] - f * m[piv][j])
    # assemble L as a dense n x len(ds) matrix in original row indexing
    L = [[Fraction(0)] * len(ds) for _ in range(n)]
    for k, piv in enumerate(perm):
        L[piv][k] = Fraction(1)
        for i, f in ls[k].items():
            L[i][k] = f
    return L, ds, perm


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
