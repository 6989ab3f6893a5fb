import random
from fractions import Fraction

import numpy as np
import pytest

from symsos.groups import IrrepCatalog, RealIrrep, catalog, close_group
from symsos.isotypic import (action_rep, fixed_point_project,
                             induced_representation, symmetry_adapted_basis)
from symsos.fixtures import robinson_dihedral, symmetric_quartic
from symsos.linalg import RowBasis, mat_mul, mat_transpose
from symsos.poly import (Polynomial, monomial_vector, parse_polynomial,
                         substitute_linear)
from symsos.sdp import (BlockSDP, BlockSpec, InvarianceError,
                        LinearConstraint, assemble_gram, check_invariance,
                        restrict_invariant, with_interior_variable)
from symsos.solver import solve


class TestAssembleGram:
    def test_unique_gram_for_square(self):
        f = parse_polynomial("x^2", ["x"])
        sdp = assemble_gram(f, with_lambda=False)
        cons = {tuple(sorted(c.coeffs.items())): c.rhs for c in sdp.constraints}
        assert len(sdp.constraints) == 3
        sol = solve(sdp)
        assert np.allclose(sol.blocks[0], [[0, 0], [0, 1]], atol=1e-7)

    def test_documented_sizes_for_three_variable_quartic(self):
        f = parse_polynomial("x^4+y^4+z^4-4*x*y*z+x+y+z", ["x", "y", "z"])
        sdp = assemble_gram(f, with_lambda=True)
        assert sdp.blocks[0].size == 10          # C(3+2, 2)
        assert len(sdp.constraints) == 35        # C(3+4, 4)
        # affine dimension 20: entries + lambda - constraints
        assert sdp.entry_count() + 1 - 35 == 21  # 55 + 1 - 35; lambda included
        assert sdp.entry_count() - 35 == 20

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            assemble_gram(parse_polynomial("x^3", ["x"]))

    def test_unreachable_monomial_rejected(self):
        # degree-2 assembly cannot reach a monomial absent from Y Y^T: use an
        # odd polynomial inside an even-degree envelope
        f = parse_polynomial("x^2 + y^2", ["x", "y"])
        sdp = assemble_gram(f)
        assert sdp.blocks[0].size == 3



def _swap_last_two_catalog():
    gen = [[Fraction(1), Fraction(0), Fraction(0)],
           [Fraction(0), Fraction(0), Fraction(1)],
           [Fraction(0), Fraction(1), Fraction(0)]]
    act = close_group([gen])
    triv = RealIrrep("theta1", 1, "absolutely-real", act, [((Fraction(1),),)])
    sign = RealIrrep("theta2", 1, "absolutely-real", act, [((Fraction(-1),),)])
    return IrrepCatalog("swap", act, [triv, sign])


class TestRestrictInvariant:
    def test_worked_three_by_three_example(self):
        # cost c1 + c2 over [[a,b,b],[b,c1,d],[b,d,c2]] reduces to blocks of
        # sizes 2 and 1 with optimal value min 2c
        cat = _swap_last_two_catalog()
        rep = action_rep(cat.action)
        cost = {("blk", 0, 1, 1): Fraction(1), ("blk", 0, 2, 2): Fraction(1)}
        # affine set: X12 = X13 (the invariant b), X23 free, rest free
        cons = [LinearConstraint({("blk", 0, 0, 1): Fraction(1),
                                  ("blk", 0, 0, 2): Fraction(-1)}, Fraction(0))]
        sdp = BlockSDP([BlockSpec("x", 3, 1)], [], cost, cons)
        sab = symmetry_adapted_basis(rep, cat)
        red, rmap = restrict_invariant(sdp, rep, sab)
        assert [(b.size, b.weight) for b in red.blocks] == [(2, 1), (1, 1)]
        full, reduced = solve(sdp), solve(red)
        assert abs(full.objective - reduced.objective) < 1e-7

    def test_value_preserved_under_quarter_turn_conjugation(self):
        j = [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]]
        act = close_group([j])
        cat4 = catalog("cyclic:4")
        rep = action_rep(act)
        cost = {("blk", 0, 0, 0): Fraction(1), ("blk", 0, 1, 1): Fraction(1)}
        sdp = BlockSDP([BlockSpec("x", 2, 1)], [], cost,
                       [LinearConstraint({("blk", 0, 0, 0): Fraction(1),
                                          ("blk", 0, 1, 1): Fraction(1)},
                                         Fraction(4))])
        sab = symmetry_adapted_basis(rep, cat4)
        red, _ = restrict_invariant(sdp, rep, sab)
        assert abs(solve(sdp).objective - solve(red).objective) < 1e-8

    def test_trivial_group_unchanged(self):
        cat = catalog("trivial:2")
        rep = induced_representation(cat.action, 1)
        f = parse_polynomial("x^2 + y^2 + 1", ["x", "y"])
        sdp = assemble_gram(f, with_lambda=True)
        sab = symmetry_adapted_basis(rep, cat)
        red, _ = restrict_invariant(sdp, rep, sab)
        assert [b.size for b in red.blocks] == [3]
        assert abs(solve(red).free_values["lambda"] - 1.0) < 1e-6

    def test_non_invariant_cost_rejected(self):
        cat = _swap_last_two_catalog()
        rep = action_rep(cat.action)
        sdp = BlockSDP([BlockSpec("x", 3, 1)], [],
                       {("blk", 0, 1, 1): Fraction(1)}, [])
        sab = symmetry_adapted_basis(rep, cat)
        with pytest.raises(InvarianceError):
            restrict_invariant(sdp, rep, sab)


def _coeffs_of(mat):
    n = len(mat)
    out = {}
    for r in range(n):
        if mat[r][r]:
            out[("blk", 0, r, r)] = mat[r][r]
        for c in range(r + 1, n):
            v = mat[r][c] + mat[c][r]
            if v:
                out[("blk", 0, r, c)] = v
    return out


def _random_invariant_sdp(rep, rng, definite=False):
    """Invariant cost and constraints from Reynolds-averaged random functionals.

    Feasibility is anchored at an invariant PD point x0 and the cost is dual
    feasible, so the instance is feasible and bounded by construction.
    With ``definite`` x0 and the dual slack are Reynolds averages of
    M M^T + I, which are positive definite at every size.
    Returns the program and its cost matrix.
    """
    n = rep.size

    def rnd_sym(shift=0):
        if definite and shift:
            m = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
            return [[sum((a * b for a, b in zip(m[i], m[j])), Fraction(i == j))
                     for j in range(n)] for i in range(n)]
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        return [[m[i][j] + m[j][i] + (Fraction(shift) if i == j else 0)
                 for j in range(n)] for i in range(n)]

    x0 = fixed_point_project(rnd_sym(shift=12), rep)
    amats = [fixed_point_project(rnd_sym(), rep) for _ in range(2)]
    zmat = fixed_point_project(rnd_sym(shift=10), rep)
    ys = [Fraction(rng.randint(-2, 2)) for _ in range(2)]
    cmat = [[zmat[i][j] + sum(ys[k] * amats[k][i][j] for k in range(2))
             for j in range(n)] for i in range(n)]
    cons = [LinearConstraint(_coeffs_of(a),
                             sum(a[i][j] * x0[i][j] for i in range(n)
                                 for j in range(n))) for a in amats]
    return BlockSDP([BlockSpec("x", n, 1)], [], _coeffs_of(cmat), cons), cmat


@pytest.mark.parametrize("spec", ["cyclic:5", "dihedral:5", "cyclic:9", "dihedral:8"])
def test_galois_orbit_matches_unreduced(spec):
    """Groups with irrational rotation characters reduce through whole blocks."""
    cat = catalog(spec)
    rep = induced_representation(cat.action, 2 if spec.endswith(":5") else 1)
    sab = symmetry_adapted_basis(rep, cat)
    assert any("+" in seg.label for seg in sab.layout)
    rng = random.Random(spec)
    for trial in range(3):
        sdp, cmat = _random_invariant_sdp(rep, rng, definite=True)
        red, rmap = restrict_invariant(sdp, rep, sab)
        full, reduced = solve(sdp), solve(red)
        assert full.status == reduced.status == "optimal", (spec, trial)
        assert abs(full.objective - reduced.objective) <= 1e-6 * \
            (1 + abs(full.objective)), (spec, trial)
        cfloat = np.array([[float(v) for v in row] for row in cmat])
        assert abs(float(np.tensordot(cfloat, rmap.lift(reduced.blocks))) -
                   reduced.objective) <= 1e-6 * (1 + abs(reduced.objective))


@pytest.mark.parametrize("spec,d", [("dihedral:4", 2), ("cyclic:4", 2),
                                    ("symmetric:3", 2), ("c2n:2", 2),
                                    ("dihedral:6", 1), ("symmetric:4", 1),
                                    ("cyclic:3", 2), ("cyclic:6", 1)])
def test_reduction_equivalence_random_invariant_sdps(spec, d):
    """Restricting invariant programs preserves the optimum (50 per group)."""
    cat = catalog(spec)
    rep = induced_representation(cat.action, d)
    assert rep.size <= 12
    sab = symmetry_adapted_basis(rep, cat)
    rng = random.Random(spec)
    agree = 0
    for trial in range(50):
        sdp, cmat = _random_invariant_sdp(rep, rng)
        red, rmap = restrict_invariant(sdp, rep, sab)
        full = solve(sdp)
        reduced = solve(red)
        if full.status == "optimal" and reduced.status == "optimal":
            assert abs(full.objective - reduced.objective) <= 1e-6 * \
                (1 + abs(full.objective)), (spec, trial)
            # weighted objective of the lifted solution matches
            lifted = rmap.lift(reduced.blocks)
            cfloat = np.array([[float(v) for v in row] for row in cmat])
            assert abs(float(np.tensordot(cfloat, lifted)) -
                       reduced.objective) <= 1e-6 * (1 + abs(reduced.objective))
            agree += 1
    assert agree >= 40  # the overwhelming majority must solve cleanly


def _by_construction(spec, degree, seed):
    """Plain Gram program of f = c + (1/|G|) sum_g q(g x)^2, q random of degree/2.

    f is invariant and f - c is a sum of squares, so the bound is >= c.
    """
    action = catalog(spec).action
    n = action.n
    rng = random.Random(seed)
    q = Polynomial(n, {m: Fraction(rng.randint(-2, 2))
                       for m in monomial_vector(n, degree // 2).entries})
    total = Polynomial.zero(n)
    for i in range(action.order):
        qg = substitute_linear(q, action.matrix(i))
        total = total + qg * qg
    c = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
    f = total.scale(Fraction(1, action.order)) + c
    assert f.degree() == degree
    return assemble_gram(f, with_lambda=True), c


def _dense_restriction(sdp, rep, sab):
    """restrict_invariant by its dense definition, the reference for the sparse one.

    Every functional A becomes R = sum_g rho(g)^T A rho(g) / |G| through
    ``MatrixRep.conjugate`` on dense exact matrices; all of T^T R T is formed
    and the diagonal copy blocks of each segment are summed, copy j weighted
    by 1/w_j: the lifted copy j is the reduced block over w_j.
    """
    n = sdp.blocks[0].size
    order = rep.action.order

    def reduce(coeffs):
        a = [[Fraction(0)] * n for _ in range(n)]
        for key, v in coeffs.items():
            if key[0] == "blk":
                _, _, r, c = key
                a[r][c] += v if r == c else v / 2
                if r != c:
                    a[c][r] += v / 2
        avg = [[Fraction(0)] * n for _ in range(n)]
        for i in range(order):
            conj = rep.conjugate(i, a)
            avg = [[x + y for x, y in zip(ra, rc)] for ra, rc in zip(avg, conj)]
        avg = [[x / order for x in row] for row in avg]
        t = sab.t_matrix()
        full = mat_mul(mat_transpose(t), mat_mul(avg, t))
        out = {k: v for k, v in coeffs.items() if k[0] == "free"}
        for bi, seg in enumerate(sab.layout):
            a0, m = seg.col_start, seg.m_i
            copies = [np.array([[full[a0 + j * m + r][a0 + j * m + c] / w
                                 for c in range(m)] for r in range(m)], dtype=object)
                      for j, w in enumerate(seg.weights)]
            blk = sum(copies).tolist()
            for r in range(len(blk)):
                for c in range(r, len(blk)):
                    v = blk[r][c] if r == c else blk[r][c] + blk[c][r]
                    if v != 0:
                        out[("blk", bi, r, c)] = v
        return out

    blocks = [BlockSpec(seg.label, seg.m_i, seg.n_i) for seg in sab.layout]
    cons = [LinearConstraint(reduce(con.coeffs), con.rhs) for con in sdp.constraints]
    red = BlockSDP(blocks, list(sdp.free_vars), reduce(sdp.cost), cons)
    red.constraints = [cons[i] for i in red.solution_set.sources]
    return red


def _oracle_program(name):
    if name == "robinson":
        return "dihedral:4", 3, assemble_gram(robinson_dihedral())
    if name == "s3-quartic":
        return "symmetric:3", 2, assemble_gram(symmetric_quartic())
    if name == "c2n:3 quartic":
        return "c2n:3", 2, _by_construction("c2n:3", 4, seed=3)[0]
    if name == "s4 degree 4":
        return "symmetric:4", 2, _by_construction("symmetric:4", 4, seed=4)[0]
    spec, d = {"cyclic:3 sdp": ("cyclic:3", 2), "cyclic:4 sdp": ("cyclic:4", 2),
               "dihedral:8 sdp": ("dihedral:8", 2)}[name]
    rep = induced_representation(catalog(spec).action, d)
    return spec, d, _random_invariant_sdp(rep, random.Random(name))[0]


@pytest.mark.parametrize("name", ["robinson", "s3-quartic", "c2n:3 quartic",
                                  "cyclic:3 sdp", "cyclic:4 sdp", "dihedral:8 sdp",
                                  "s4 degree 4"])
def test_restriction_matches_dense_definition(name):
    spec, d, sdp = _oracle_program(name)
    cat = catalog(spec)
    rep = induced_representation(cat.action, d)
    sab = symmetry_adapted_basis(rep, cat)
    if name.startswith(("cyclic:3", "cyclic:4", "dihedral:8")):
        # complex-type irreps, and the Galois orbit of dihedral:8's rotations
        # of order 8, give whole segments
        assert any(seg.kind == "whole" for seg in sab.layout)
    if name in ("s3-quartic", "s4 degree 4"):
        # copies of unequal weight
        assert any(set(seg.weights) != {1} for seg in sab.layout)
    got, _ = restrict_invariant(sdp, rep, sab)
    ref = _dense_restriction(sdp, rep, sab)
    assert got.blocks == ref.blocks
    assert got.free_vars == ref.free_vars
    assert got.cost == ref.cost
    assert [(c.coeffs, c.rhs) for c in got.constraints] == \
        [(c.coeffs, c.rhs) for c in ref.constraints]


class TestCheckInvariance:
    @staticmethod
    def _quartic_program():
        f = symmetric_quartic()
        cat = catalog("symmetric:3")
        rep = induced_representation(cat.action, 2)
        sdp = assemble_gram(f, with_lambda=True)
        # assemble_gram orders its equations by (degree, exponent tuple)
        monos = sorted(monomial_vector(3, 4).entries, key=lambda m: (sum(m), m))
        i, j = monos.index((4, 0, 0)), monos.index((0, 4, 0))
        a, b = sdp.constraints[i], sdp.constraints[j]
        keys = set(a.coeffs) | set(b.coeffs)
        sdp.constraints[i] = LinearConstraint(
            {k: a.coeffs.get(k, 0) + b.coeffs.get(k, 0) for k in keys}, a.rhs + b.rhs)
        sdp.constraints[j] = LinearConstraint(
            {k: a.coeffs.get(k, 0) - b.coeffs.get(k, 0) for k in keys}, a.rhs - b.rhs)
        return sdp, rep, i

    def test_moved_rows_in_span_but_not_literal_pass(self, monkeypatch):
        sdp, rep, _ = self._quartic_program()
        reduced = []
        contains = RowBasis.contains

        def counting(self, row):
            reduced.append(1)
            return contains(self, row)

        monkeypatch.setattr(RowBasis, "contains", counting)
        check_invariance(sdp, rep)
        assert reduced  # x^4 + y^4 moves to a sum that is no literal row

    def test_one_changed_coefficient_rejected(self):
        sdp, rep, i = self._quartic_program()
        con = sdp.constraints[i]
        key = next(k for k in con.coeffs if k[0] == "blk")
        con.coeffs[key] += 1
        with pytest.raises(InvarianceError, match="constraint set"):
            check_invariance(sdp, rep)


@pytest.mark.slow
def test_s4_degree_six_isotypic_route():
    sdp, c = _by_construction("symmetric:4", 6, seed=5)
    assert (sdp.blocks[0].size, len(sdp.constraints)) == (35, 210)
    cat = catalog("symmetric:4")
    rep = induced_representation(cat.action, 3)
    red, _ = restrict_invariant(sdp, rep, symmetry_adapted_basis(rep, cat))
    assert [b.size for b in red.blocks] == [7, 7, 2, 1]
    assert len(red.constraints) == 27
    reduced, full = solve(red), solve(sdp)
    assert reduced.status == "optimal"
    assert reduced.free_values["lambda"] >= c - 1e-6
    assert abs(reduced.objective - full.objective) <= 1e-6


class TestInteriorVariable:
    def test_margin_signs(self):
        f = parse_polynomial("x^4+y^4+z^4-4*x*y*z+x+y+z", ["x", "y", "z"])
        feasible, _ = with_interior_variable(
            assemble_gram(f + Fraction(22, 10), with_lambda=False))
        infeasible, tname = with_interior_variable(
            assemble_gram(f + 2, with_lambda=False))
        s1, s2 = solve(feasible), solve(infeasible)
        assert s1.free_values[tname] > 1e-4
        assert s2.free_values[tname] < -1e-4
