import random
from fractions import Fraction

import numpy as np
import pytest

from symsos.groups import IrrepCatalog, RealIrrep, catalog, close_group
from symsos.isotypic import (action_rep, fixed_point_project,
                             induced_representation, symmetry_adapted_basis)
from symsos.poly import parse_polynomial
from symsos.sdp import (BlockSDP, BlockSpec, InvarianceError,
                        LinearConstraint, assemble_gram, restrict_invariant,
                        with_interior_variable)
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

    def test_text_round_trip(self):
        f = parse_polynomial("x^4 - 3*x^2 + 1", ["x"])
        sdp = assemble_gram(f, with_lambda=True)
        back = BlockSDP.from_text(sdp.to_text())
        assert [b.size for b in back.blocks] == [b.size for b in sdp.blocks]
        assert len(back.constraints) == len(sdp.constraints)
        a, b = solve(sdp), solve(back)
        assert abs(a.free_values["lambda"] - b.free_values["lambda"]) < 1e-9


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


@pytest.mark.parametrize("spec,d", [("dihedral:4", 2), ("cyclic:4", 2),
                                    ("symmetric:3", 2), ("c2n:2", 2),
                                    ("dihedral:6", 1), ("symmetric:4", 1),
                                    ("cyclic:3", 2), ("cyclic:6", 1)])
def test_reduction_equivalence_random_invariant_sdps(spec, d):
    """Restricting invariant programs preserves the optimum (50 per group)."""
    cat = catalog(spec)
    rep = induced_representation(cat.action, d)
    n = rep.size
    assert n <= 12
    sab = symmetry_adapted_basis(rep, cat)
    rng = random.Random(spec)
    agree = 0
    for trial in range(50):
        # invariant cost and constraints via Reynolds-averaged functionals;
        # feasibility anchored at an invariant PSD point
        def rnd_sym(shift=0):
            m = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            return [[m[i][j] + m[j][i] + (Fraction(shift) if i == j else 0)
                     for j in range(n)] for i in range(n)]

        # primal anchor (invariant, PD) and a dual-feasible cost so the
        # instance is feasible and bounded by construction
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

        cons = [LinearConstraint(coeffs_of(a),
                                 sum(a[i][j] * x0[i][j] for i in range(n)
                                     for j in range(n))) for a in amats]
        sdp = BlockSDP([BlockSpec("x", n, 1)], [], coeffs_of(cmat), cons)
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
