"""Block-diagonal SDP data model and the two Gram-constraint assemblies.

A :class:`BlockSDP` is a list of PSD blocks plus free scalar variables, a
linear cost (minimized), and exact linear equations over block entries and
free variables.  Entry coefficients are attached to upper-triangle positions
(r <= c); an off-diagonal coefficient q means q * X[r][c] with X symmetric,
so a functional <A, X> contributes 2*A[r][c] there.  A program is not
changed after construction: its exact solution set (``solution_set``, free
variables first, then the entries) is eliminated once, on first use, and the
solver, rounding and the restriction all read that one elimination.  A
program lives in memory only; the certificate file is the one persisted form.

Two assemblies produce these programs: the plain Gram formulation over a
monomial vector, and the invariant formulation whose blocks are Gram matrices
of SOS factors paired with the equivariant Pi matrices.  The
``restrict_invariant`` reduction Reynolds-averages the constraint functionals
as sparse matrices (an orbit sum over index pairs for signed-permutation
actions) and rotates each distinct average once into a symmetry-adapted
basis, forming only the blocks it keeps: one small block per real irrep,
with the copy multiplicity folded into the coefficients, and one whole block
per complex-type irrep or Galois orbit.  The basis is exact, so the
reduced program inherits the elimination that picked its rows, and the
isotypic route, too, eliminates its system once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .equivariants import PiMatrix
from .invariants import InvariantPoly, InvariantPresentation
from .isotypic import (MatrixRep, SparseMatrix, SymmetryAdaptedBasis,
                       fixed_point_project)
from .linalg import Matrix, Parametrization, RowBasis, parametrize
from .poly import Monomial, Polynomial, monomial_mul, monomial_vector

VarKey = tuple


@dataclass(frozen=True)
class BlockSpec:
    name: str
    size: int
    weight: int = 1


@dataclass
class LinearConstraint:
    coeffs: dict[VarKey, Fraction]
    rhs: Fraction


@dataclass
class BlockSDP:
    blocks: list[BlockSpec]
    free_vars: list[str]
    cost: dict[VarKey, Fraction]          # minimized; may reference free vars
    constraints: list[LinearConstraint]

    def var_order(self) -> list[VarKey]:
        """Columns of ``solution_set``: free variables, then upper-triangle entries."""
        keys: list[VarKey] = [("free", name) for name in self.free_vars]
        for bi, blk in enumerate(self.blocks):
            for r in range(blk.size):
                for c in range(r, blk.size):
                    keys.append(("blk", bi, r, c))
        return keys

    def block_matrices(self, point: Sequence[Fraction]) -> list[Matrix]:
        """The symmetric block matrices of a point over ``var_order()``."""
        col = len(self.free_vars)
        out = []
        for blk in self.blocks:
            mat = [[Fraction(0)] * blk.size for _ in range(blk.size)]
            for r in range(blk.size):
                for c in range(r, blk.size):
                    mat[r][c] = mat[c][r] = point[col]
                    col += 1
            out.append(mat)
        return out

    @cached_property
    def solution_set(self) -> Parametrization | None:
        """Exact solution set of the equations, columns in ``var_order()``.

        Every free variable that can be a pivot is one, so a bound variable
        reads as an affine map of block entries.  None when the equations are
        inconsistent.  Eliminated once per program.
        """
        keys = self.var_order()
        pos = {k: i for i, k in enumerate(keys)}
        return parametrize([{**{pos[k]: v for k, v in con.coeffs.items()},
                             len(keys): con.rhs} for con in self.constraints],
                           len(keys))

    def entry_count(self) -> int:
        return sum(b.size * (b.size + 1) // 2 for b in self.blocks)

    def functional_matrices(self, rows: Sequence[dict[VarKey, Fraction]]
                            ) -> list[np.ndarray]:
        """Stacked symmetric block matrices of a list of linear functionals.

        Block b gets one float array A_b of shape (len(rows), s_b, s_b) with
        sum_b <A_b[j], X_b> = sum of rows[j]'s entry coefficients * entries;
        free-variable coefficients are ignored.
        """
        mats = [np.zeros((len(rows), b.size, b.size)) for b in self.blocks]
        for j, coeffs in enumerate(rows):
            for key, v in coeffs.items():
                if key[0] != "blk":
                    continue
                _, bi, r, c = key
                x = float(v)
                if r == c:
                    mats[bi][j, r, r] += x
                else:
                    mats[bi][j, r, c] += x / 2
                    mats[bi][j, c, r] += x / 2
        return mats

    def free_coeff_vector(self, coeffs: dict[VarKey, Fraction]) -> np.ndarray:
        out = np.zeros(len(self.free_vars))
        for j, name in enumerate(self.free_vars):
            out[j] = float(coeffs.get(("free", name), 0))
        return out


class AssemblyInfeasible(ValueError):
    """The linear system is contradictory before any cone constraint."""


# -- plain Gram assembly --------------------------------------------------------


def assemble_gram(f: Polynomial, with_lambda: bool = True) -> BlockSDP:
    """Single-block Gram program: Y^T Q Y = f (- lambda), Q of size C(n+d, d).

    One exact equation per monomial of degree <= deg f; when ``with_lambda``
    the constant-monomial equation carries the free bound variable and the
    cost maximizes it.
    """
    deg = f.degree()
    if deg is not None and not isinstance(deg, int):
        raise ValueError("cannot assemble the zero polynomial")
    if deg % 2:
        raise ValueError(f"degree {deg} is odd; Gram assembly needs even degree")
    d = deg // 2
    y = monomial_vector(f.nvars, d)
    n = len(y)
    zero_mono = (0,) * f.nvars
    eq: dict[Monomial, LinearConstraint] = {}
    for a in range(n):
        for b in range(a, n):
            mono = monomial_mul(y.entries[a], y.entries[b])
            con = eq.setdefault(mono, LinearConstraint({}, Fraction(0)))
            key = ("blk", 0, a, b)
            con.coeffs[key] = con.coeffs.get(key, Fraction(0)) + (1 if a == b else 2)
    for mono, con in eq.items():
        con.rhs = f.coefficient(mono)
    for mono in f.terms:
        if mono not in eq:
            raise AssemblyInfeasible(f"monomial {mono} cannot appear in Y^T Q Y")
    free = []
    cost: dict[VarKey, Fraction] = {}
    if with_lambda:
        free = ["lambda"]
        eq[zero_mono].coeffs[("free", "lambda")] = Fraction(1)
        cost[("free", "lambda")] = Fraction(-1)
    cons = [eq[m] for m in sorted(eq, key=lambda m: (sum(m), m))]
    return BlockSDP([BlockSpec("gram", n, 1)], free, cost, cons)


# -- invariant restriction --------------------------------------------------------


def _functional_matrix(coeffs: dict[VarKey, Fraction]) -> SparseMatrix:
    """The symmetric matrix A of <A, X> on the single block, as nonzero entries."""
    m: SparseMatrix = {}
    for key, v in coeffs.items():
        if key[0] != "blk":
            continue
        _, _, r, c = key
        if r == c:
            m[r, r] = m.get((r, r), 0) + v
        else:
            half = v * Fraction(1, 2)
            m[r, c] = m.get((r, c), 0) + half
            m[c, r] = m.get((c, r), 0) + half
    return {k: v for k, v in m.items() if v != 0}


def _matrix_to_entry_coeffs(bi: int, m: Matrix) -> dict[VarKey, Fraction]:
    out: dict[VarKey, Fraction] = {}
    size = len(m)
    for r in range(size):
        if m[r][r] != 0:
            out[("blk", bi, r, r)] = m[r][r]
        for c in range(r + 1, size):
            v = m[r][c] + m[c][r]
            if v != 0:
                out[("blk", bi, r, c)] = v
    return out


class InvarianceError(ValueError):
    pass


def _sym_entry_vector(m: SparseMatrix, n: int) -> list[Fraction]:
    return [m.get((r, c), Fraction(0)) for r in range(n) for c in range(r, n)]


def check_invariance(sdp: BlockSDP, rep: MatrixRep) -> None:
    """Exact invariance check of a single-block program on the generators.

    The cost matrix must be fixed by every generator, and every constraint
    row (entries, free coefficients and right-hand side) moved by every
    generator must lie in the row span.  A moved row that is literally a row
    or the negation of one is found by lookup; only the others are reduced
    against an exact basis of the rows.
    """
    n = sdp.blocks[0].size
    cost = _functional_matrix(sdp.cost)
    rows = [(_functional_matrix(con.coeffs),
             tuple(con.coeffs.get(("free", f), 0) for f in sdp.free_vars),
             con.rhs) for con in sdp.constraints]
    literal = {(frozenset(m.items()), frees, rhs) for m, frees, rhs in rows}
    span = None
    for g in rep.action.generators:
        if rep.conjugate(g, cost) != cost:
            raise InvarianceError("cost functional is not invariant")
        for amat, frees, rhs in rows:
            moved = rep.conjugate(g, amat)
            if (frozenset(moved.items()), frees, rhs) in literal or \
                    (frozenset((k, -v) for k, v in moved.items()),
                     tuple(-v for v in frees), -rhs) in literal:
                continue
            if span is None:
                span = RowBasis(n * (n + 1) // 2 + len(sdp.free_vars) + 1)
                for m, fr, b in rows:
                    span.add(_sym_entry_vector(m, n) + list(fr) + [b])
            if not span.contains(_sym_entry_vector(moved, n) + list(frees) + [rhs]):
                raise InvarianceError("constraint set is not invariant under the group")


def _bilinear_block(rmat: dict[int, list[tuple[int, Fraction]]],
                    us: Sequence[list[tuple[int, Fraction]]],
                    vs: Sequence[list[tuple[int, Fraction]]]) -> list[list[Fraction]]:
    """[u^T R v] over sparse vectors, R given by its nonzero entries per column."""
    rvs = []
    for v in vs:
        acc: dict[int, Fraction] = {}
        for b, vb in v:
            for a, rab in rmat.get(b, ()):
                acc[a] = acc.get(a, 0) + rab * vb
        rvs.append(acc)
    return [[sum((ua * rv[a] for a, ua in u if a in rv), Fraction(0))
             for rv in rvs] for u in us]


def restrict_invariant(sdp: BlockSDP, rep: MatrixRep,
                       basis: SymmetryAdaptedBasis
                       ) -> tuple[BlockSDP, SymmetryAdaptedBasis]:
    """Fixed-point restriction plus block rotation of a single-block program.

    After ``check_invariance``, every functional is Reynolds-averaged by
    ``fixed_point_project`` as a sparse matrix (an orbit sum for
    signed-permutation actions); its action on the fixed-point subspace is
    unchanged.  Each distinct average is rotated once per call, and only the
    first copy's block of each segment of T^T R T is formed.  Copy j of a
    real segment repeats w_j times that block, and the lifted solution
    divides copy j's block by w_j, so the copies together contribute n_i
    times the first one: the reduced objective already carries the copy
    weights.  A whole segment is its one copy.  The reduced system is
    row-reduced to an independent set by the candidate program's
    ``solution_set``, which the reduced program keeps as its own.  X = T D T^T
    is a congruence, so optimal values are preserved.
    Returns the reduced program and ``basis``, whose ``lift`` maps reduced
    block solutions back to the full program.
    """
    if len(sdp.blocks) != 1:
        raise ValueError("restriction applies to single-block programs")
    n = sdp.blocks[0].size
    if n != rep.size or n != basis.size:
        raise ValueError("size mismatch between program, representation and basis")
    check_invariance(sdp, rep)
    firsts = [[[(k, v) for k, v in enumerate(col) if v != 0]
               for col in basis.columns[seg.col_start:seg.col_start + seg.m_i]]
              for seg in basis.layout]

    def rotate(ravg: SparseMatrix) -> list[Matrix]:
        rmat: dict[int, list[tuple[int, Fraction]]] = {}
        for (r, c), v in ravg.items():
            rmat.setdefault(c, []).append((r, v))
        out = []
        for seg, first in zip(basis.layout, firsts):
            block = _bilinear_block(rmat, first, first)
            out.append(block if seg.n_i == 1 else
                       [[seg.n_i * v for v in row] for row in block])
        return out

    blocks = [BlockSpec(seg.label, seg.m_i, seg.n_i) for seg in basis.layout]

    rotated: dict[frozenset, dict[VarKey, Fraction]] = {}

    def reduce_functional(coeffs: dict[VarKey, Fraction]) -> dict[VarKey, Fraction]:
        ravg = fixed_point_project(_functional_matrix(coeffs), rep)
        key = frozenset(ravg.items())
        if key not in rotated:
            rotated[key] = {k: v for bi, mat in enumerate(rotate(ravg))
                            for k, v in _matrix_to_entry_coeffs(bi, mat).items()}
        out = {k: v for k, v in coeffs.items() if k[0] == "free"}
        out.update(rotated[key])
        return out

    new_cost = reduce_functional(sdp.cost)
    cons = [LinearConstraint(reduce_functional(con.coeffs), con.rhs)
            for con in sdp.constraints]
    # Orbit-mates of an invariant program reduce to literally equal rows; a
    # repeat adds nothing to the row space, so only first occurrences are
    # eliminated (they keep their relative order).
    first: dict[tuple, LinearConstraint] = {}
    for con in cons:
        first.setdefault((frozenset(con.coeffs.items()), con.rhs), con)
    cons = list(first.values())
    param = BlockSDP(blocks, list(sdp.free_vars), new_cost, cons).solution_set
    if param is None:
        raise AssemblyInfeasible("restricted constraint system is inconsistent")
    reduced = BlockSDP(blocks, list(sdp.free_vars), new_cost,
                       [cons[i] for i in param.sources])
    # a dependent row leaves no trace in the elimination, so the kept rows
    # give the same pivots; only the source numbering changes
    reduced.solution_set = replace(param, sources=list(range(len(param.sources))))
    return reduced, basis


# -- invariant SOS assembly ---------------------------------------------------------


def assemble_invariant_sos(ft: InvariantPoly, pres: InvariantPresentation,
                           pis: list[PiMatrix],
                           envelopes: list[list[list[Monomial]]],
                           with_lambda: bool = True) -> BlockSDP:
    """Coupled Gram blocks for f_j(theta) = sum_i <S_i, Pi_i^j> per eta part.

    Block i indexes pairs (row k, theta-monomial alpha in envelope row k); the
    equation for (eta_j, theta^gamma) matches the coefficient of f.  Blocks
    with empty envelopes are dropped.  Raises AssemblyInfeasible when a
    nonzero coefficient of f has no matching variables at all.
    """
    s = len(pres.theta)
    blocks: list[BlockSpec] = []
    indexers: list[list[tuple[int, Monomial]]] = []
    used: list[tuple[int, PiMatrix, list[list[Monomial]]]] = []
    for pi, env in zip(pis, envelopes):
        pairs = [(k, alpha) for k, row in enumerate(env) for alpha in row]
        if not pairs:
            continue
        used.append((len(blocks), pi, env))
        blocks.append(BlockSpec(pi.irrep_label, len(pairs), 1))
        indexers.append(pairs)
    eq: dict[tuple[int, Monomial], LinearConstraint] = {}
    zero_gamma = (0,) * s

    def equation(j: int, gamma: Monomial) -> LinearConstraint:
        key = (j, gamma)
        if key not in eq:
            eq[key] = LinearConstraint({}, Fraction(0))
        return eq[key]

    for bi, pi, env in used:
        pairs = indexers[bi]
        for a in range(len(pairs)):
            k, alpha = pairs[a]
            for b in range(a, len(pairs)):
                l, beta = pairs[b]
                entry = pi.entries[k][l]
                mult = 1 if a == b else 2
                for j, part in entry.parts.items():
                    for delta, coef in part.terms.items():
                        gamma = tuple(x + y + z for x, y, z in zip(alpha, beta, delta))
                        con = equation(j, gamma)
                        vkey = ("blk", bi, a, b)
                        con.coeffs[vkey] = con.coeffs.get(vkey, Fraction(0)) + \
                            mult * coef
    for j, part in ft.parts.items():
        for gamma, coef in part.terms.items():
            if (j, gamma) not in eq:
                raise AssemblyInfeasible(
                    f"no SOS structure reaches eta_{j + 1} * theta^{gamma}")
    for (j, gamma), con in eq.items():
        con.rhs = ft.part(j).coefficient(gamma)
    free: list[str] = []
    cost: dict[VarKey, Fraction] = {}
    if with_lambda:
        free = ["lambda"]
        equation(0, zero_gamma).coeffs[("free", "lambda")] = Fraction(1)
        cost[("free", "lambda")] = Fraction(-1)
    cons = [eq[k] for k in sorted(eq)]
    return BlockSDP(blocks, free, cost, cons)


def with_interior_variable(sdp: BlockSDP) -> tuple[BlockSDP, str]:
    """Reformulate X = X' + t*I to maximize the feasibility margin t <= 1.

    Returns the shifted program (minimizing -t) plus the variable name; the
    original blocks are recovered by adding t* back to the diagonals.
    """
    name = "_interior_t"
    blocks = list(sdp.blocks) + [BlockSpec("_tcap", 1, 1)]
    cons = []
    for con in sdp.constraints:
        coeffs = dict(con.coeffs)
        diag = Fraction(0)
        for key, v in con.coeffs.items():
            if key[0] == "blk" and key[2] == key[3]:
                diag += v
        if diag != 0:
            coeffs[("free", name)] = diag
        cons.append(LinearConstraint(coeffs, con.rhs))
    capcon = LinearConstraint({("free", name): Fraction(1),
                               ("blk", len(sdp.blocks), 0, 0): Fraction(1)},
                              Fraction(1))
    cons.append(capcon)
    cost = {("free", name): Fraction(-1)}
    return BlockSDP(blocks, list(sdp.free_vars) + [name], cost, cons), name
