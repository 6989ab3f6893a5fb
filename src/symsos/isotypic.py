"""Isotypic decomposition machinery for signed-permutation representations.

Covers the induced representation on graded monomial spaces, the Reynolds
(group-average) projection onto the fixed-point subspace of symmetric
matrices, component-projection symmetry-adapted bases, and the resulting
block diagonalization of invariant matrices.  Every group acts by signed
permutations, and so does its induced representation on monomials: each
element is stored as a ``SignedPerm`` of the basis.

Bases are rational.  Their columns are exactly orthogonal but not normalized
(``linalg.gram_schmidt_exact``), so no square root is taken.  An absolutely
real irrep with matrices gives a real segment: its first copy spans the
range of p_11 = (n_i/|G|) sum_g rho(g^-1)_11 g, and copy j is p_j1 applied to
the first (Serre, Linear Representations of Finite Groups, 2.7; the
formulas hold for any realization).  The catalog realizations are
orthogonal only up to a diagonal invariant form Q, so copy j's columns are
w_j = Q_jj/Q_11 times as long squared as the first copy's, and T^T X T
repeats w_j B on copy j for an invariant X.  A complex-type irrep, and each
Galois orbit of irreps without matrices (rotations of one order d whose
characters are irrational), gives one whole segment instead: an orthogonal
basis of the range of its rational isotypic projection c sum_g chi(g^-1) g.
An orbit's character is the Ramanujan sum c_d(k) at r^k and 0 off the
rotations.  An invariant X = T D T^T is a congruence, so any invertible
adapted T gives the same optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

from .groups import GroupAction, IrrepCatalog, RealIrrep, SignedPerm
from .linalg import Matrix, dot, gram_schmidt_exact, mat_vec, to_ndarray
from .molien import ramanujan_sum, rotation_powers
from .poly import MonomialVector, monomial_vector

SparseMatrix = dict[tuple[int, int], Fraction]   # nonzero entries {(r, c): value}


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
        return [[s[a] * s[b] * x[p[a]][p[b]] for b in range(n)] for a in range(n)]


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
    avg = {key: v * w for key, v in acc.items() if v != 0}
    return avg if isinstance(x, dict) else dense_matrix(avg, n)


# -- component projections ---------------------------------------------------------


def _accumulate_projection(rep: MatrixRep, coeffs: list[Fraction]) -> Matrix:
    """sum_g coeffs[g] * rho(g) as a dense exact matrix."""
    n = rep.size
    acc: Matrix = [[Fraction(0)] * n for _ in range(n)]
    for gi, c in enumerate(coeffs):
        if c == 0:
            continue
        m = rep.mats[gi]
        for a in range(n):
            acc[m.perm[a]][a] += c * m.signs[a]
    return acc


def component_projection(rep: MatrixRep, irrep: RealIrrep, l: int, k: int,
                         weight: Fraction) -> Matrix:
    """(weight/|G|) sum_g theta_i(g^{-1})[l][k] * rho(g)."""
    inv = rep.action.inverse_table
    w = Fraction(weight, rep.action.order)
    return _accumulate_projection(
        rep, [irrep.matrix(inv[gi])[l][k] * w for gi in range(rep.action.order)])


@dataclass
class Segment:
    """Columns of one isotypic component: n_i copies of m_i columns each.

    A real segment has one copy per dimension of its irrep, and copy j's
    block of T^T X T is weights[j] times the first copy's.  A whole segment
    ("whole": a complex-type irrep or a Galois orbit) is one copy.
    """

    irrep_index: int
    label: str
    m_i: int
    kind: str          # "real" or "whole"
    col_start: int = 0
    weights: tuple[Fraction, ...] = (Fraction(1),)

    @property
    def n_i(self) -> int:
        return len(self.weights)

    @property
    def width(self) -> int:
        return self.n_i * self.m_i


@dataclass
class SymmetryAdaptedBasis:
    """Change of basis T whose column segments span the V_ij.

    The columns are exactly orthogonal.  A first copy's or a whole segment's
    columns have squared norms within 2^-11 of one; copy j's are weights[j]
    times the first copy's.
    """

    size: int
    columns: list[list[Fraction]]
    layout: list[Segment]
    multiplicities: dict[str, int]

    def t_matrix(self) -> Matrix:
        return [[self.columns[j][i] for j in range(self.size)] for i in range(self.size)]

    def t_float(self) -> np.ndarray:
        return to_ndarray(self.t_matrix())

    def lift(self, block_values: Sequence[np.ndarray]) -> np.ndarray:
        """T D T^T for reduced block solutions, one per segment of the layout.

        Copy j of a segment gets its block divided by weights[j].
        """
        d = np.zeros((self.size, self.size))
        for seg, val in zip(self.layout, block_values):
            for j, w in enumerate(seg.weights):
                o = seg.col_start + j * seg.m_i
                d[o:o + seg.m_i, o:o + seg.m_i] = val / float(w)
        t = self.t_float()
        return t @ d @ t.T


class ProjectionRankError(ValueError):
    pass


def _nonzero_columns(m: Matrix) -> list[list[Fraction]]:
    cols = [[m[r][c] for r in range(len(m))] for c in range(len(m[0]))]
    return [c for c in cols if any(v != 0 for v in c)]


def _projection_basis(proj: Matrix, label: str) -> list[list[Fraction]]:
    """Orthogonal basis of the range of a projection, as many vectors as its trace."""
    tr = sum((proj[i][i] for i in range(len(proj))), Fraction(0))
    if tr < 0 or tr.denominator != 1:
        raise ProjectionRankError(f"projection trace {tr} of {label} is not "
                                  "a nonnegative integer")
    if tr == 0:
        return []
    cols = gram_schmidt_exact(_nonzero_columns(proj))
    if len(cols) != tr:
        raise ProjectionRankError(f"rank of the projection for {label} is "
                                  f"{len(cols)}, expected its trace {tr}")
    return cols


def _segment_real(rep: MatrixRep, irrep: RealIrrep) -> list[list[Fraction]]:
    """First-copy orthogonal basis plus companion copies via p_j1."""
    w = Fraction(irrep.dim)
    first = _projection_basis(component_projection(rep, irrep, 0, 0, w), irrep.label)
    segment = list(first)
    for j in range(1, irrep.dim):
        op = component_projection(rep, irrep, 0, j, w)
        segment.extend(mat_vec(op, u) for u in first)
    return segment


def _whole_characters(catalog: IrrepCatalog) -> dict[int, tuple[list[int], list[Fraction]]]:
    """(member indices, character per element) of each whole segment, keyed
    by its first member's index.

    A complex-type irrep with matrices is its own member.  Irreps without
    matrices are the rotations of order d = m/gcd(m, j) of an m-fold
    rotation r, grouped by d: an orbit's character is c_d(k) at r^k and 0
    elsewhere.
    """
    action = catalog.action
    out: dict[int, tuple[list[int], list[Fraction]]] = {}
    orbits: dict[int, list[int]] = {}
    for idx, irrep in enumerate(catalog.irreps):
        if irrep.generator_images is None:
            _, m, j = irrep.molien_meta
            orbits.setdefault(m // math.gcd(m, j), []).append(idx)
        elif irrep.kind == "complex-type":
            out[idx] = ([idx], [irrep.character(g) for g in range(action.order)])
    for d, members in orbits.items():
        m = catalog.irreps[members[0]].molien_meta[1]
        powers = rotation_powers(action, m)
        out[members[0]] = (members, [Fraction(ramanujan_sum(d, powers[g]))
                                     if g in powers else Fraction(0)
                                     for g in range(action.order)])
    return out


def symmetry_adapted_basis(rep: MatrixRep, catalog: IrrepCatalog) -> SymmetryAdaptedBasis:
    """Copy-aligned orthogonal basis from component projections.

    A real segment's columns are copy-major: the m_i first-copy vectors, then
    their images under p_j1 for each further copy j.  A whole segment's are
    an orthogonal basis of its isotypic projection's range.  Multiplicities
    are the exact traces of the first-copy projections, or a whole segment's
    width over its members' total dimension.
    """
    if catalog.action is not rep.action and catalog.action.order != rep.action.order:
        raise ValueError("catalog does not match the representation's group")
    order = rep.action.order
    whole = _whole_characters(catalog)
    columns: list[list[Fraction]] = []
    layout: list[Segment] = []
    mults: dict[str, int] = {}
    for idx, irrep in enumerate(catalog.irreps):
        if idx in whole:
            members, chi = whole[idx]
            # a real character is a class function with chi(g^-1) = chi(g)
            c = Fraction(irrep.dim // 2 if irrep.kind == "complex-type" else irrep.dim,
                         order)
            label = "+".join(catalog.irreps[i].label for i in members)
            cols = _projection_basis(_accumulate_projection(rep, [c * x for x in chi]),
                                     label)
            copies, rest = divmod(len(cols), len(members) * irrep.dim)
            if rest:
                raise ProjectionRankError(f"width {len(cols)} of {label} is not a "
                                          f"multiple of {len(members) * irrep.dim}")
            mults.update((catalog.irreps[i].label, copies) for i in members)
            seg = Segment(idx, label, len(cols), "whole", len(columns))
        elif irrep.generator_images is None:
            continue                      # a later member of a Galois orbit
        else:
            cols = _segment_real(rep, irrep)
            mults[irrep.label] = len(cols) // irrep.dim
            seg = Segment(idx, irrep.label, len(cols) // irrep.dim, "real", len(columns),
                          tuple(irrep.copy_weights))
        if cols:
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
    blocks: list              # the first copy's block per segment
    off_block_residual: float


def block_diagonalize(x, basis: SymmetryAdaptedBasis,
                      tol: float = 1e-10) -> BlockDiagonalization:
    """T^T X T split into per-segment blocks; X must commute with the action.

    Copy j of a segment must equal weights[j] times the first copy's block,
    with no coupling between copies, and the first copy's block is returned
    (a whole segment's full block).  Raises if the off-block residual
    exceeds ``tol`` (exact zero is demanded for exact inputs).
    """
    exact_mode = not isinstance(x, np.ndarray) and \
        all(not isinstance(v, float) for row in x for v in row)
    if exact_mode:
        cols = basis.columns
        xcols = [mat_vec(x, v) for v in cols]
        full = [[dot(u, xv) for xv in xcols] for u in cols]
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
        if exact_mode:
            rep_block = [[full[a + r][a + c] for c in range(m)] for r in range(m)]
            for j, wj in enumerate(seg.weights):
                for k in range(seg.n_i):
                    sub = [[full[a + j * m + r][a + k * m + c] for c in range(m)]
                           for r in range(m)]
                    if j == k:
                        if sub != [[wj * v for v in row] for row in rep_block]:
                            raise ValueError(f"copy {j} of block {seg.label} is not "
                                             f"{wj} times the first")
                    elif any(v != 0 for row in sub for v in row):
                        raise ValueError(f"cross-copy coupling in {seg.label}")
        else:
            rep_block = fullf[a:a + m, a:a + m].copy()
            for j, wj in enumerate(seg.weights):
                for k in range(seg.n_i):
                    sub = fullf[a + j * m:a + (j + 1) * m, a + k * m:a + (k + 1) * m]
                    bad = np.max(np.abs(sub - float(wj) * rep_block)) if j == k else \
                        np.max(np.abs(sub))
                    if bad > tol:
                        raise ValueError(f"block structure of {seg.label} violated "
                                         f"by {bad:.3e}")
        blocks.append(rep_block)
    return BlockDiagonalization(list(basis.layout), blocks, resid)
