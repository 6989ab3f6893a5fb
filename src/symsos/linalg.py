"""Small exact linear algebra kit.

Matrices are lists of lists (rows) of ``Fraction``s.  There is one exact
elimination, ``RowBasis`` over sparse ``{column: value}`` rows (a
constraint row touches a few of hundreds of columns), with ``parametrize``
on top.  ``gram_schmidt_exact`` orthogonalizes without square roots: each
vector is scaled by a rational near the inverse of its length, not
normalized.  There is one exact LDL^T, ``ldl_decomposition``, with
``ldl_psd`` the PSD verdict on it.  Floating point only ever refuses:
``negative_direction`` proposes a direction from a float eigenvector and
refuses on an exact negative value, while acceptance is always a completed
exact LDL^T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

Matrix = list[list[Fraction]]


def mat_identity(n: int) -> Matrix:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def mat_transpose(a: Matrix) -> Matrix:
    return [list(row) for row in zip(*a)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = mat_transpose(b)
    return [[dot(row, col) for col in bt] for row in a]


def mat_vec(a: Matrix, v: Sequence[Fraction]) -> list[Fraction]:
    return [dot(row, v) for row in a]


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(u, v)), Fraction(0))


def to_ndarray(a: Matrix) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in a], dtype=float)


class InconsistentRow(ValueError):
    """A row in the span of a basis whose right-hand side is not."""


SparseRow = dict[int, Fraction]
Row = Sequence[Fraction | int] | Mapping[int, Fraction | int]


def _sparse(row: Row) -> SparseRow:
    items = row.items() if isinstance(row, Mapping) else enumerate(row)
    return {c: x if type(x) is Fraction else Fraction(x) for c, x in items if x}


def _subtract(r: SparseRow, f: Fraction, prow: SparseRow) -> None:
    """r -= f * prow in place, keeping only nonzero entries."""
    for c, y in prow.items():
        v = r.get(c, 0) - f * y
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
        inv = 1 / r[pc]
        self.rows.append({c: x * inv for c, x in r.items()})
        self.pivots.append(pc)
        return True

    def contains(self, row: Row) -> bool:
        return not self.reduce(row)

    @property
    def rank(self) -> int:
        return len(self.rows)


def rank_exact(rows: Sequence[Sequence[Fraction]]) -> int:
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
    pivots: list[tuple[int, Fraction, dict[int, Fraction]]]
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


def _approx(x: Fraction) -> float:
    """float(x), saturating to +-inf where a float would overflow."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def negative_direction(a: Matrix) -> list[Fraction] | None:
    """A rational w with w^T A w < 0 exactly for a rational A, or None.

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
    return w if q < 0 else None


def ldl_decomposition(a: Matrix) -> tuple[Matrix, list[Fraction], list[int]]:
    """P A P^T = L D L^T with positive D, for an exactly PSD rational symmetric matrix.

    Symmetric diagonal pivoting on the largest remaining diagonal entry.
    Returns (L, diag, perm): L is n x rank in the original row indexing, with
    L[perm[k]][k] = 1 and L[perm[j]][k] = 0 for j < k.  Raises NotPSD, naming
    the row and the sign, at a negative pivot or a zero pivot whose row is
    not zero (or at an asymmetric pair).
    """
    n = len(a)
    m = [[x if type(x) is Fraction else Fraction(x) for x in row] for row in a]
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                raise NotPSD(f"not symmetric at ({i},{j})")
    perm: list[int] = []
    cols: list[dict[int, Fraction]] = []
    ds: list[Fraction] = []
    active = list(range(n))
    while active:
        piv = max(active, key=lambda i: _approx(m[i][i]))
        d = m[piv][piv]
        active.remove(piv)
        if d < 0:
            raise NotPSD(f"negative pivot at row {piv}")
        if not d:
            if any(m[piv][i] for i in active):
                raise NotPSD(f"zero pivot with a nonzero row at row {piv}")
            continue
        inv = 1 / d
        prow = m[piv]
        col = {i: prow[i] * inv for i in active if prow[i]}
        perm.append(piv)
        cols.append(col)
        ds.append(d)
        # Schur complement on the active upper triangle, mirrored
        for i, f in col.items():
            row = m[i]
            for j in active:
                if j >= i and prow[j]:
                    row[j] = row[j] - f * prow[j]
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


def gram_schmidt_exact(vectors: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exactly orthogonal near-unit vectors spanning ``vectors``.

    Each vector loses its component (<v,u>/<u,u>) u along every kept u, and
    a nonzero remainder w is kept as w/r, where r is |w| rounded to 12
    significant bits: a rational scale, never zero, that puts the squared
    norm within 2^-11 of one without a square root.
    """
    kept: list[tuple[list[Fraction], Fraction]] = []     # (u, <u,u>)
    for v in vectors:
        w = list(v)
        for u, nu in kept:
            c = dot(w, u)
            if c != 0:
                c /= nu
                w = [a - c * b for a, b in zip(w, u)]
        nrm2 = dot(w, w)
        if nrm2 == 0:
            continue
        m, e = math.frexp(math.sqrt(float(nrm2)))
        scale = Fraction(2) ** (12 - e) / round(math.ldexp(m, 12))
        kept.append(([x * scale for x in w], nrm2 * scale * scale))
    return [u for u, _ in kept]
