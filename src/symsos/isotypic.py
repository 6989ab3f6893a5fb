"""Isotypic decomposition machinery for signed-permutation representations.

Covers the induced representation on graded monomial spaces, the Reynolds
(group-average) projection onto the fixed-point subspace of symmetric
matrices, component-projection symmetry-adapted bases, and the resulting
block diagonalization of invariant matrices.  Every group acts by signed
permutations, and so does its induced representation on monomials: each
element is stored as a ``SignedPerm`` of the basis.

Bases are exact, with entries in the quadratic tower.  Their columns are
exactly orthogonal but not normalized: each is scaled by a rational near the
inverse of its length (``linalg.scaled_remainder``), so no square root is
taken.  An invariant X = T D T^T is a congruence, so any invertible adapted T
gives the same block structure and the same optimum; the copies of a segment
share their scales, so T^T X T still repeats one block per copy.  An irrep
with no exact matrices (a rotation whose cosine and sine leave the tower) is
refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

from .groups import GroupAction, IrrepCatalog, RealIrrep, SignedPerm
from .linalg import (Matrix, dot, gram_schmidt_exact, mat_mul, mat_vec,
                     scaled_remainder, to_ndarray)
from .poly import MonomialVector, monomial_vector
from .scalars import Quad, Scalar, exact

SparseMatrix = dict[tuple[int, int], Scalar]   # nonzero entries {(r, c): value}


@dataclass
class MatrixRep:
    """Signed-permutation matrices, one per group element, indexed like the action."""

    action: GroupAction
    mats: list[SignedPerm]

    @property
    def size(self) -> int:
        return len(self.mats[0].perm)

    def dense(self, i: int) -> Matrix:
        return self.mats[i].matrix()

    @cached_property
    def inverse_perms(self) -> list[SignedPerm]:
        """rho(g)^{-1} = rho(g)^T per element."""
        return [m.inverse() for m in self.mats]

    def conjugate(self, i: int, x):
        """rho(g)^T X rho(g) for exact list-matrices or sparse maps.

        A sparse map {(r, c): value} holds the nonzero entries of an exact
        matrix and comes back in the same form.  The signed permutation moves
        the entry at (r, c) to (p^-1(r), p^-1(c)) with the product of the two
        signs; no matrix product is formed.
        """
        if isinstance(x, dict):
            q = self.inverse_perms[i]
            perm, signs = q.perm, q.signs
            return {(perm[r], perm[c]): v if signs[r] == signs[c] else -v
                    for (r, c), v in x.items()}
        n = self.size
        p, s = self.mats[i].perm, self.mats[i].signs
        return [[exact(Fraction(s[a] * s[b]) * x[p[a]][p[b]]) for b in range(n)]
                for a in range(n)]


@dataclass
class InducedRep(MatrixRep):
    """Action on the monomial basis of R[x]_{<=d}: rho(g) Y(x) = Y(theta(g) x)."""

    degree: int = 0
    basis: MonomialVector = None


def action_rep(action: GroupAction) -> MatrixRep:
    """The defining representation itself, wrapped for basis computations."""
    return MatrixRep(action, list(action.elements))


def induced_representation(action: GroupAction, d: int) -> InducedRep:
    """Representation induced on monomials of degree <= d.

    A signed permutation of the variables sends each monomial to a signed
    monomial, so every induced matrix is a signed permutation of the
    monomial basis and is stored in that compressed form.
    """
    if d < 0:
        raise ValueError("degree bound must be nonnegative")
    basis = monomial_vector(action.n, d)
    index = basis.index()
    mats = []
    for g in action.elements:
        perm = [0] * len(basis)
        signs = [1] * len(basis)
        for i, mono in enumerate(basis.entries):
            sign, image = g.monomial_image(mono)
            # row i of rho(g) hits column j: as a signed permutation, column
            # j maps to row i with this sign
            j = index[image]
            perm[j] = i
            signs[j] = sign
        mats.append(SignedPerm(tuple(perm), tuple(signs)))
    return InducedRep(action, mats, degree=d, basis=basis)


def sparse_matrix(x: Matrix) -> SparseMatrix:
    """The nonzero entries of an exact list-matrix as {(r, c): value}."""
    return {(r, c): v for r, row in enumerate(x) for c, v in enumerate(row) if v != 0}


def dense_matrix(x: SparseMatrix, n: int) -> Matrix:
    """The n x n exact list-matrix of a sparse map {(r, c): value}."""
    out: Matrix = [[Fraction(0)] * n for _ in range(n)]
    for (r, c), v in x.items():
        out[r][c] = v
    return out


def fixed_point_project(x, rep: MatrixRep):
    """Exact Reynolds average (1/|G|) sum_g rho(g)^T X rho(g).

    X is an exact list-matrix or a sparse exact map {(r, c): value}; the
    average comes back in the same form.  The representation is by signed
    permutations, so the exact average is an orbit sum: each nonzero entry is
    added, signed, at its image under every group element, O(nnz |G|)
    additions and no matrix products.
    """
    order = rep.action.order
    n = rep.size
    if isinstance(x, dict):
        sparse = x
    else:
        if len(x) != n or any(len(row) != n for row in x):
            raise ValueError("matrix size does not match the representation")
        sparse = sparse_matrix(x)
    acc: SparseMatrix = {}
    for i in range(order):
        for key, v in rep.conjugate(i, sparse).items():
            acc[key] = acc.get(key, 0) + v
    w = Fraction(1, order)
    avg = {key: exact(v * w) for key, v in acc.items() if v != 0}
    return avg if isinstance(x, dict) else dense_matrix(avg, n)


# -- component projections ---------------------------------------------------------


def _accumulate_projection(rep: MatrixRep, coeffs: list[Scalar]) -> Matrix:
    """sum_g coeffs[g] * rho(g) as a dense exact matrix."""
    n = rep.size
    acc: list[list[Scalar]] = [[Fraction(0)] * n for _ in range(n)]
    for gi, c in enumerate(coeffs):
        if c == 0:
            continue
        m = rep.mats[gi]
        for a in range(n):
            acc[m.perm[a]][a] = exact(acc[m.perm[a]][a] + c * m.signs[a])
    return acc


def component_projection(rep: MatrixRep, irrep: RealIrrep, l: int, k: int,
                         weight: Fraction) -> Matrix:
    """(weight/|G|) sum_g theta_i(g^{-1})[l][k] * rho(g)."""
    inv = rep.action.inverse_table
    order = rep.action.order
    w = Fraction(weight, order)
    coeffs = [exact(Quad.of(irrep.matrix(inv[gi])[l][k]) * w) for gi in range(order)]
    return _accumulate_projection(rep, coeffs)


@dataclass
class Segment:
    irrep_index: int
    label: str
    n_i: int
    m_i: int
    kind: str          # "real" or "complex"
    col_start: int = 0

    @property
    def width(self) -> int:
        return self.n_i * self.m_i


@dataclass
class SymmetryAdaptedBasis:
    """Change of basis T whose column segments span the V_ij.

    The columns are exactly orthogonal, with squared norms within 2^-11 of
    one and equal across the copies of a segment.
    """

    size: int
    columns: list            # exact scalar vectors
    layout: list[Segment]
    multiplicities: dict[str, int]

    def t_matrix(self) -> Matrix:
        return [[self.columns[j][i] for j in range(self.size)] for i in range(self.size)]

    def t_float(self) -> np.ndarray:
        t = np.empty((self.size, self.size))
        for j, col in enumerate(self.columns):
            for i, v in enumerate(col):
                t[i, j] = float(v)
        return t

    def lift(self, block_values: Sequence[np.ndarray]) -> np.ndarray:
        """T D T^T for reduced block solutions, one per segment of the layout.

        A real segment's block is repeated on its n_i diagonal copies; a
        complex segment's block fills the segment.
        """
        d = np.zeros((self.size, self.size))
        for seg, val in zip(self.layout, block_values):
            a = seg.col_start
            if seg.kind == "complex":
                d[a:a + seg.width, a:a + seg.width] = val
            else:
                for j in range(seg.n_i):
                    o = a + j * seg.m_i
                    d[o:o + seg.m_i, o:o + seg.m_i] = val
        t = self.t_float()
        return t @ d @ t.T


class ProjectionRankError(ValueError):
    pass


def _nonzero_columns(m: Matrix) -> list[list[Scalar]]:
    cols = [[m[r][c] for r in range(len(m))] for c in range(len(m[0]))]
    return [c for c in cols if any(v != 0 for v in c)]


def _multiplicity(proj: Matrix, irrep: RealIrrep, copies: int) -> int:
    """trace(proj) / copies, which must be a nonnegative integer."""
    tr = exact(sum((Quad.of(proj[i][i]) for i in range(len(proj))), Quad(0)))
    if not isinstance(tr, Fraction) or tr < 0 or tr % copies:
        raise ProjectionRankError(f"projection trace {tr} of {irrep.label} is not "
                                  f"a nonnegative multiple of {copies}")
    return int(tr) // copies


def _segment_real(rep: MatrixRep, irrep: RealIrrep, w: Fraction):
    """First-copy orthogonal basis plus companion copies via p_j1."""
    p11 = component_projection(rep, irrep, 0, 0, w)
    m_i = _multiplicity(p11, irrep, 1)
    if m_i == 0:
        return 0, []
    first = gram_schmidt_exact(_nonzero_columns(p11))
    if len(first) != m_i:
        raise ProjectionRankError(
            f"rank of first-copy projection for {irrep.label} is {len(first)}, "
            f"expected multiplicity {m_i}")
    segment = list(first)
    for j in range(1, irrep.dim):
        op = component_projection(rep, irrep, 0, j, w)
        segment.extend(mat_vec(op, u) for u in first)
    return m_i, segment


def _segment_complex(rep: MatrixRep, irrep: RealIrrep):
    """Complex-type segment: isotypic projection plus the complex structure J."""
    n_i = irrep.dim
    n_c = n_i // 2
    if n_c != 1:
        raise NotImplementedError("complex-type irreps of complex dimension > 1 "
                                  "are outside the catalog scope")
    inv = rep.action.inverse_table
    order = rep.action.order
    char_coeffs = [exact(Quad.of(irrep.character(inv[g])) * Fraction(n_c, order))
                   for g in range(order)]
    proj = _accumulate_projection(rep, char_coeffs)
    j_coeffs = [exact(Quad.of(irrep.matrix(inv[g])[0][n_c]) * Fraction(2 * n_c, order))
                for g in range(order)]
    jop = _accumulate_projection(rep, j_coeffs)
    # verify the structure exactly: P idempotent, J^2 = -P
    p2 = mat_mul(proj, proj)
    if not all(exact(a) == exact(b) for ra, rb in zip(p2, proj)
               for a, b in zip(ra, rb)):
        raise ProjectionRankError(f"isotypic projection of {irrep.label} "
                                  "is not idempotent")
    j2 = mat_mul(jop, jop)
    negp = [[exact(-Quad.of(v)) for v in row] for row in proj]
    if not all(exact(a) == exact(b) for ra, rb in zip(j2, negp)
               for a, b in zip(ra, rb)):
        raise ProjectionRankError(f"complex structure of {irrep.label} fails "
                                  "J^2 = -P; no constructive pairing found")
    m_i = _multiplicity(proj, irrep, n_i)
    if m_i == 0:
        return 0, []
    # each kept u brings J u, orthogonal to u and to every kept vector and as
    # long as u, so the two copies share their scale
    kept: list[tuple[list[Scalar], Scalar]] = []
    for v in _nonzero_columns(proj):
        step = scaled_remainder(v, kept)
        if step is not None:
            ju = mat_vec(jop, step[0])
            kept += [step, (ju, dot(ju, ju))]
    if len(kept) != n_i * m_i:
        raise ProjectionRankError(f"could not extract {m_i} aligned copies for "
                                  f"{irrep.label}")
    cols = [u for u, _ in kept]
    return m_i, cols[::2] + cols[1::2]


def symmetry_adapted_basis(rep: MatrixRep, catalog: IrrepCatalog) -> SymmetryAdaptedBasis:
    """Copy-aligned orthogonal basis from component projections.

    Segment columns are copy-major: the m_i first-copy vectors, then their
    images under p_j1 for each further copy j.  Multiplicities are the exact
    traces of the first-copy projections (of the isotypic projection, over
    n_i, for a complex-type irrep).  An irrep without exact matrices raises
    ValueError.
    """
    if catalog.action is not rep.action and catalog.action.order != rep.action.order:
        raise ValueError("catalog does not match the representation's group")
    columns: list = []
    layout: list[Segment] = []
    mults: dict[str, int] = {}
    for idx, irrep in enumerate(catalog.irreps):
        if irrep.kind == "complex-type":
            m_i, cols = _segment_complex(rep, irrep)
            kind = "complex"
        else:
            m_i, cols = _segment_real(rep, irrep, Fraction(irrep.dim))
            kind = "real"
        mults[irrep.label] = m_i
        if m_i == 0:
            continue
        seg = Segment(idx, irrep.label, irrep.dim, m_i, kind, col_start=len(columns))
        layout.append(seg)
        columns.extend(cols)
    total = sum(s.width for s in layout)
    if total != rep.size:
        raise ProjectionRankError(
            f"isotypic widths sum to {total}, expected {rep.size}; "
            "irrep data is inconsistent with the representation")
    return SymmetryAdaptedBasis(rep.size, columns, layout, mults)


# -- block diagonalization -----------------------------------------------------------


@dataclass
class BlockDiagonalization:
    segments: list[Segment]
    blocks: list              # one representative per segment
    off_block_residual: float


def _col_dot_exact(x: Matrix, u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    xu = mat_vec(x, v)
    return dot(u, xu)


def block_diagonalize(x, basis: SymmetryAdaptedBasis,
                      tol: float = 1e-10) -> BlockDiagonalization:
    """T^T X T split into per-irrep blocks; X must commute with the action.

    For absolutely-real segments the n_i repeated copies are checked for
    equality and a single m_i x m_i representative is returned; complex-type
    segments return the full coupled block.  Raises if the off-block residual
    exceeds ``tol`` (exact zero is demanded for exact inputs).
    """
    exact_mode = not isinstance(x, np.ndarray) and \
        all(not isinstance(v, float) for row in x for v in row)
    if exact_mode:
        t = basis.t_matrix()
        cols = [[t[r][c] for r in range(basis.size)] for c in range(basis.size)]
        full = [[_col_dot_exact(x, cols[a], cols[b]) for b in range(basis.size)]
                for a in range(basis.size)]
        fullf = to_ndarray(full)
    else:
        tf = basis.t_float()
        xf = x if isinstance(x, np.ndarray) else to_ndarray(x)
        fullf = tf.T @ xf @ tf
        full = None
    # off-block residual
    mask = np.zeros_like(fullf, dtype=bool)
    for seg in basis.layout:
        a, w = seg.col_start, seg.width
        mask[a:a + w, a:a + w] = True
    resid = float(np.max(np.abs(np.where(mask, 0.0, fullf)))) if fullf.size else 0.0
    if exact_mode:
        for a in range(basis.size):
            for b in range(basis.size):
                if not mask[a, b] and full[a][b] != 0:
                    raise ValueError(f"off-block entry ({a},{b}) = {full[a][b]} != 0; "
                                     "input is not invariant or basis inconsistent")
    elif resid > tol:
        raise ValueError(f"off-block residual {resid:.3e} exceeds tolerance {tol:.1e}")
    blocks = []
    for seg in basis.layout:
        a, m = seg.col_start, seg.m_i
        if seg.kind == "complex":
            if exact_mode:
                blocks.append([[full[a + r][a + c] for c in range(seg.width)]
                               for r in range(seg.width)])
            else:
                blocks.append(fullf[a:a + seg.width, a:a + seg.width].copy())
            continue
        if exact_mode:
            rep_block = [[full[a + r][a + c] for c in range(m)] for r in range(m)]
            for j in range(seg.n_i):
                for k in range(seg.n_i):
                    sub = [[full[a + j * m + r][a + k * m + c] for c in range(m)]
                           for r in range(m)]
                    if j == k:
                        if sub != rep_block:
                            raise ValueError(f"copies of block {seg.label} disagree")
                    elif any(v != 0 for row in sub for v in row):
                        raise ValueError(f"cross-copy coupling in {seg.label}")
            blocks.append(rep_block)
        else:
            rep_block = fullf[a:a + m, a:a + m].copy()
            for j in range(seg.n_i):
                for k in range(seg.n_i):
                    sub = fullf[a + j * m:a + (j + 1) * m, a + k * m:a + (k + 1) * m]
                    bad = np.max(np.abs(sub - rep_block)) if j == k else \
                        np.max(np.abs(sub))
                    if bad > tol:
                        raise ValueError(f"block structure of {seg.label} violated "
                                         f"by {bad:.3e}")
            blocks.append(rep_block)
    return BlockDiagonalization(list(basis.layout), blocks, resid)
