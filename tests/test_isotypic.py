import random
from fractions import Fraction

import pytest

from symsos.groups import ClosureError, IrrepCatalog, RealIrrep, catalog, \
    close_group, verify_representation
from symsos.isotypic import (action_rep, block_diagonalize,
                             fixed_point_project, induced_representation,
                             symmetry_adapted_basis)
from symsos.linalg import mat_mul, mat_transpose
from symsos.molien import molien_series, series_coefficients


def gram_diagonal(sab):
    """The diagonal of T^T T, which must be exactly diagonal."""
    t = sab.t_matrix()
    g = mat_mul(mat_transpose(t), t)
    n = len(g)
    assert all(g[i][j] == 0 for i in range(n) for j in range(n) if i != j)
    return [g[i][i] for i in range(n)]


def assert_adapted_gram(sab):
    """T^T T is exactly diagonal; the columns of a first copy or a whole
    segment are within 2^-11 of unit length; copy j is w_j times the first."""
    diag = gram_diagonal(sab)
    for seg in sab.layout:
        first = diag[seg.col_start:seg.col_start + seg.m_i]
        assert all(abs(float(v) - 1) <= 2 ** -11 for v in first), seg.label
        for j, w in enumerate(seg.weights):
            o = seg.col_start + j * seg.m_i
            assert diag[o:o + seg.m_i] == [w * v for v in first], (seg.label, j)


def random_invariant(rep, n, seed=0):
    rng = random.Random(seed)
    x = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
    x = [[x[i][j] + x[j][i] for j in range(n)] for i in range(n)]
    return fixed_point_project(x, rep)


class TestInducedRepresentation:
    def test_sign_flip_on_line_degree_three(self):
        cat = catalog("c2n:1")
        rep = induced_representation(cat.action, 3)
        assert rep.dense(1) == [[Fraction(1), 0, 0, 0], [0, Fraction(-1), 0, 0],
                                [0, 0, Fraction(1), 0], [0, 0, 0, Fraction(-1)]]

    def test_degree_one_is_one_plus_action(self):
        cat = catalog("dihedral:4")
        rep = induced_representation(cat.action, 1)
        for i in range(cat.action.order):
            dm = rep.dense(i)
            assert dm[0] == [Fraction(1), Fraction(0), Fraction(0)]
            assert [row[1:] for row in dm[1:]] == cat.action.matrix(i)

    def test_dihedral_degree_three_is_homomorphism(self):
        cat = catalog("dihedral:4")
        rep = induced_representation(cat.action, 3)
        assert rep.size == 10
        assert verify_representation(rep.dense, cat.action).ok


class TestReynolds:
    def test_invariant_fixed_and_idempotent(self):
        cat = catalog("dihedral:4")
        rep = induced_representation(cat.action, 2)
        x = random_invariant(rep, rep.size, seed=3)
        assert fixed_point_project(x, rep) == x

    def test_two_by_two_average(self):
        j = [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]]
        act = close_group([j])
        got = fixed_point_project([[Fraction(1), Fraction(2)],
                                   [Fraction(2), Fraction(3)]], action_rep(act))
        assert got == [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(2)]]



CATALOG_REPS = [("trivial:2", 2), ("c2n:3", 2), ("cyclic:4", 3), ("cyclic:5", 1),
                ("cyclic:6", 1), ("dihedral:4", 3), ("dihedral:6", 1),
                ("symmetric:3", 2), ("symmetric:4", 2)]


def _random_exact(n, rng):
    return [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)]


class TestOrbitSum:
    @pytest.mark.parametrize("spec,d", CATALOG_REPS)
    def test_matches_dense_definition_and_is_idempotent(self, spec, d):
        rep = induced_representation(catalog(spec).action, d)
        n, order = rep.size, rep.action.order
        x = _random_exact(n, random.Random(spec))
        dense = [[Fraction(0)] * n for _ in range(n)]
        for i in range(order):
            g = rep.dense(i)
            c = mat_mul(mat_transpose(g), mat_mul(x, g))
            dense = [[a + b for a, b in zip(ra, rc)] for ra, rc in zip(dense, c)]
        dense = [[v / order for v in row] for row in dense]
        avg = fixed_point_project(x, rep)
        assert avg == dense
        assert fixed_point_project(avg, rep) == avg
        sparse = {(r, c): v for r, row in enumerate(x) for c, v in enumerate(row)
                  if v != 0}
        assert fixed_point_project(sparse, rep) == {
            (r, c): v for r, row in enumerate(dense) for c, v in enumerate(row)
            if v != 0}

    def test_general_matrices_are_refused(self):
        # a reflection {I, R} with R^2 = I, orthogonal but no signed
        # permutation, and the 60-degree rotation in the basis (e1, sqrt(3) e2)
        refl = [[Fraction(3, 5), Fraction(4, 5)], [Fraction(4, 5), Fraction(-3, 5)]]
        rot = catalog("cyclic:6").irrep("theta3").matrix(1)
        assert rot == [[Fraction(1, 2), Fraction(-3, 2)], [Fraction(1, 2), Fraction(1, 2)]]
        for g in (refl, rot):
            with pytest.raises(ClosureError, match="orthogonal signed permutation"):
                close_group([g])

    @pytest.mark.parametrize("spec,d", CATALOG_REPS)
    def test_sparse_conjugate_matches_dense(self, spec, d):
        # the signed-permutation index map against the dense product, per element
        rep = induced_representation(catalog(spec).action, d)
        x = _random_exact(rep.size, random.Random(d))
        sparse = {(r, c): v for r, row in enumerate(x) for c, v in enumerate(row)
                  if v != 0}
        for i in range(rep.action.order):
            g = rep.dense(i)
            want = mat_mul(mat_transpose(g), mat_mul(x, g))
            assert rep.conjugate(i, x) == want
            assert rep.conjugate(i, sparse) == {
                (r, c): v for r, row in enumerate(want) for c, v in enumerate(row)
                if v != 0}


class TestSymmetryAdaptedBasis:
    def test_dihedral_degree_three_layout(self):
        cat = catalog("dihedral:4")
        rep = induced_representation(cat.action, 3)
        sab = symmetry_adapted_basis(rep, cat)
        assert sab.multiplicities == {"theta1": 2, "theta2": 0, "theta3": 1,
                                      "theta4": 1, "theta5": 3}
        assert_adapted_gram(sab)
        assert sum(seg.n_i * seg.m_i for seg in sab.layout) == 10

    def test_swap_last_two_coordinates_worked_example(self):
        gen = [[Fraction(1), Fraction(0), Fraction(0)],
               [Fraction(0), Fraction(0), Fraction(1)],
               [Fraction(0), Fraction(1), Fraction(0)]]
        act = close_group([gen])
        triv = RealIrrep("theta1", 1, "absolutely-real", act, [((Fraction(1),),)])
        sign = RealIrrep("theta2", 1, "absolutely-real", act, [((Fraction(-1),),)])
        cat = IrrepCatalog("swap", act, [triv, sign])
        sab = symmetry_adapted_basis(action_rep(act), cat)
        assert sab.multiplicities == {"theta1": 2, "theta2": 1}
        # T = [e1, s (e2 + e3), s (e2 - e3)] with s = 128/181: the halves
        # (e2 +- e3)/2 have length sqrt(2)/2, rounded to 2896/4096
        s = Fraction(128, 181)
        assert sab.t_matrix() == [[1, 0, 0], [0, s, s], [0, s, -s]]
        a, b, c, d = Fraction(2), Fraction(3), Fraction(5), Fraction(7)
        x = [[a, b, b], [b, c, d], [b, d, c]]
        b1, b2 = block_diagonalize(x, sab).blocks
        assert b1 == [[2, Fraction(768, 181)], [Fraction(768, 181), Fraction(393216, 32761)]]
        assert b1 == [[a, 2 * s * b], [2 * s * b, 2 * s * s * (c + d)]]
        assert b2 == [[Fraction(-65536, 32761)]] == [[2 * s * s * (c - d)]]

    def test_trivial_group_identity_basis(self):
        cat = catalog("trivial:2")
        rep = induced_representation(cat.action, 2)
        sab = symmetry_adapted_basis(rep, cat)
        assert sab.multiplicities == {"theta1": 6}
        assert len(sab.layout) == 1

    def test_multiplicities_match_molien(self):
        for spec, d in [("dihedral:4", 3), ("cyclic:4", 3), ("symmetric:3", 3),
                        ("c2n:2", 4), ("symmetric:4", 2), ("dihedral:6", 2),
                        ("cyclic:5", 2), ("dihedral:9", 2), ("cyclic:12", 2)]:
            cat = catalog(spec)
            rep = induced_representation(cat.action, d)
            sab = symmetry_adapted_basis(rep, cat)
            for irrep in cat.irreps:
                coeffs = series_coefficients(molien_series(cat, irrep), d)
                assert sab.multiplicities[irrep.label] == sum(coeffs), \
                    (spec, irrep.label)

    @pytest.mark.parametrize("spec,d", [("dihedral:8", 2), ("symmetric:3", 3),
                                        ("cyclic:6", 2), ("cyclic:12", 1),
                                        ("symmetric:4", 2), ("c2n:3", 2)])
    def test_gram_is_diagonal_and_near_identity(self, spec, d):
        # seminormal S_n irreps, rotations in the basis (e1, sqrt(3) e2) and
        # Galois orbits of irrational rotations
        cat = catalog(spec)
        sab = symmetry_adapted_basis(induced_representation(cat.action, d), cat)
        assert_adapted_gram(sab)

    def test_galois_orbit_is_one_whole_segment(self):
        # the rotations of order 8 of dihedral:8 have characters 2 cos(pi/4 k)
        # and 2 cos(3 pi/4 k); together they give one 20-column block
        cat = catalog("dihedral:8")
        sab = symmetry_adapted_basis(induced_representation(cat.action, 2), cat)
        seg = next(s for s in sab.layout if "+" in s.label)
        assert (seg.label, seg.kind, seg.m_i, seg.n_i) == \
            ("theta5+theta7", "whole", 20, 1)
        assert sab.multiplicities["theta5"] == sab.multiplicities["theta7"] == 5


class TestBlockDiagonalize:
    def test_identity_gives_identity_blocks(self):
        cat = catalog("dihedral:4")
        rep = induced_representation(cat.action, 2)
        sab = symmetry_adapted_basis(rep, cat)
        eye = [[Fraction(1) if i == j else Fraction(0) for j in range(6)]
               for i in range(6)]
        bd = block_diagonalize(eye, sab)
        diag = gram_diagonal(sab)
        for seg, blk in zip(bd.segments, bd.blocks):
            size = len(blk)
            a = seg.col_start
            assert size == seg.m_i
            assert blk == [[diag[a + i] if i == j else Fraction(0)
                            for j in range(size)] for i in range(size)]

    def test_reynolds_average_block_diagonalizes_exactly(self):
        cat = catalog("dihedral:4")
        rep = induced_representation(cat.action, 3)
        sab = symmetry_adapted_basis(rep, cat)
        x = random_invariant(rep, 10, seed=11)
        bd = block_diagonalize(x, sab)
        assert bd.off_block_residual <= 1e-10
        assert [len(b) for b in bd.blocks] == [2, 1, 1, 3]

    def test_complex_type_keeps_coupled_block(self):
        cat = catalog("cyclic:4")
        rep = induced_representation(cat.action, 3)
        sab = symmetry_adapted_basis(rep, cat)
        assert_adapted_gram(sab)
        x = random_invariant(rep, 10, seed=5)
        bd = block_diagonalize(x, sab)
        widths = [len(b) for b in bd.blocks]
        assert widths == [2, 2, 6]
        assert [seg.kind for seg in bd.segments] == ["real", "real", "whole"]

    def test_copies_scale_by_the_invariant_form(self):
        # symmetric:4's standard irrep has copy weights 1, 8/9, 2/3
        cat = catalog("symmetric:4")
        rep = induced_representation(cat.action, 2)
        sab = symmetry_adapted_basis(rep, cat)
        seg = next(s for s in sab.layout if s.label == "theta2")
        assert seg.weights == (1, Fraction(8, 9), Fraction(2, 3))
        x = random_invariant(rep, rep.size, seed=2)
        bd = block_diagonalize(x, sab)
        # the float path checks the same scaled copies
        block_diagonalize([[float(v) for v in row] for row in x], sab)
        assert [len(b) for b in bd.blocks] == [seg.m_i for seg in sab.layout]

    def test_non_invariant_matrix_rejected(self):
        cat = catalog("dihedral:4")
        rep = induced_representation(cat.action, 2)
        sab = symmetry_adapted_basis(rep, cat)
        x = [[Fraction(i == 0 and j == 1) for j in range(6)] for i in range(6)]
        x = [[x[i][j] + x[j][i] for j in range(6)] for i in range(6)]
        with pytest.raises(ValueError):
            block_diagonalize(x, sab)
