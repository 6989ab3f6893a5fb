import math
import random
from fractions import Fraction

import pytest

from symsos.groups import (ClosureError, RealIrrep, catalog,
                           character_orthogonality, close_group, invariant_form,
                           verify_representation)
from symsos.linalg import mat_identity
from symsos.poly import Polynomial, monomial_vector, substitute_linear
from symsos.fixtures import choi_group_generators

CATALOG_SPECS = ["trivial:1", "c2n:1", "c2n:3", "cyclic:1", "cyclic:2", "cyclic:3",
                 "cyclic:4", "cyclic:4:permutation", "cyclic:5", "cyclic:6",
                 "cyclic:8", "cyclic:9", "cyclic:12", "dihedral:1", "dihedral:1:planar",
                 "dihedral:2", "dihedral:2:planar", "dihedral:4",
                 "dihedral:4:permutation", "dihedral:5", "dihedral:6",
                 "dihedral:8", "symmetric:2", "symmetric:3", "symmetric:4", "symmetric:5"]


class TestClosure:
    def test_order_two(self):
        act = close_group([[[Fraction(-1)]]])
        assert act.order == 2
        assert act.inverse_table == [0, 1]

    def test_dihedral_generators_close_to_eight(self):
        d = [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]]
        s = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
        act = close_group([d, s])
        assert act.order == 8
        # identity first, multiplication table consistent on sampled triples
        assert act.matrix(0) == mat_identity(2)
        random.seed(0)
        for _ in range(30):
            a, b, c = (random.randrange(8) for _ in range(3))
            assert act.mult(act.mult(a, b), c) == act.mult(a, act.mult(b, c))

    def test_choi_group_has_96_elements(self):
        act = close_group(choi_group_generators())
        assert act.order == 96

    def test_non_orthogonal_rejected(self):
        with pytest.raises(ClosureError, match="orthogonal"):
            close_group([[[Fraction(2)]]])

    def test_max_order_guard(self):
        d = [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]]
        with pytest.raises(ClosureError, match="max_order"):
            close_group([d], max_order=3)

    @pytest.mark.parametrize("spec", CATALOG_SPECS)
    def test_monomial_image_matches_substitution(self, spec):
        # the signed-permutation map against the general linear substitution
        action = catalog(spec).action
        n = action.n
        monos = monomial_vector(n, 3).entries
        rng, pool = random.Random(spec), monomial_vector(n, 4).entries
        p = Polynomial(n, {rng.choice(pool): Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                           for _ in range(8)})
        for i, g in enumerate(action.elements):
            theta = action.matrix(i)
            for mono in monos:
                sign, image = g.monomial_image(mono)
                want = substitute_linear(Polynomial.monomial(n, mono), theta)
                assert Polynomial.monomial(n, image, sign) == want, (spec, i, mono)
            assert g.substitute(p) == substitute_linear(p, theta), (spec, i)


class TestCatalogs:
    def test_dihedral4_irrep_dimensions(self):
        cat = catalog("dihedral:4")
        assert [r.dim for r in cat.irreps] == [1, 1, 1, 1, 2]
        assert cat.check_sum_of_squares()

    def test_symmetric4_dimensions(self):
        cat = catalog("symmetric:4")
        assert [r.dim for r in cat.irreps] == [1, 3, 2, 3, 1]
        assert sum(r.dim ** 2 for r in cat.irreps) == 24

    def test_cyclic4_real_dimensions(self):
        cat = catalog("cyclic:4")
        assert [r.dim for r in cat.irreps] == [1, 1, 2]
        assert cat.check_sum_of_squares()  # 1 + 1 + 4/2*... = 4

    @pytest.mark.parametrize("spec", CATALOG_SPECS)
    def test_catalog_verifies(self, spec):
        cat = catalog(spec)
        assert cat.check_sum_of_squares(), spec
        for r in cat.irreps:
            if r.generator_images is not None:
                assert verify_representation(r, cat.action).ok, (spec, r.label)
        assert character_orthogonality(cat).ok, spec

    def test_dihedral4_matches_unitary_table(self):
        cat = catalog("dihedral:4")
        theta5 = cat.irrep("theta5")
        d_idx, s_idx = cat.action.generators
        assert theta5.matrix(d_idx) == [[0, -1], [1, 0]]
        assert theta5.matrix(s_idx) == [[0, 1], [1, 0]]
        # the defining relation s = d s d holds in the representation
        dsd = cat.action.mult(cat.action.mult(d_idx, s_idx), d_idx)
        assert theta5.matrix(dsd) == theta5.matrix(s_idx)

    def test_symmetric3_planar_table_entries(self):
        # the planar irrep in the basis (e1, sqrt(3) e2)
        cat = catalog("symmetric:3")
        theta3 = cat.irrep("theta3")
        g12, g23 = cat.action.generators
        assert theta3.matrix(g12) == [[Fraction(-1, 2), Fraction(3, 2)],
                                      [Fraction(1, 2), Fraction(1, 2)]]
        assert theta3.matrix(g23) == [[1, 0], [0, -1]]
        assert theta3.copy_weights == [1, 3]

    def test_symmetric4_seminormal_entries(self):
        # the standard irrep on the tableaux 123/4, 124/3, 134/2: (3 4) has
        # axial distances -3 and 3 on the first two, so the pair gets 8/9 and 1
        cat = catalog("symmetric:4")
        theta2 = cat.irrep("theta2")
        g34 = cat.action.generators[2]
        assert theta2.matrix(g34) == [[Fraction(-1, 3), Fraction(8, 9), 0],
                                      [Fraction(1), Fraction(1, 3), 0],
                                      [0, 0, 1]]
        assert theta2.copy_weights == [1, Fraction(8, 9), Fraction(2, 3)]

    @pytest.mark.parametrize("spec", CATALOG_SPECS)
    def test_irreps_are_rational_with_diagonal_invariant_form(self, spec):
        cat = catalog(spec)
        for r in cat.irreps:
            if r.generator_images is None:
                continue
            assert all(type(v) is Fraction for m in r.generator_images
                       for row in m for v in row), (spec, r.label)
            q = invariant_form(r.matrix, cat.action.order)
            assert all(q[i][j] == 0 for i in range(r.dim) for j in range(r.dim)
                       if i != j), (spec, r.label)
            assert r.copy_weights == [q[j][j] / q[0][0] for j in range(r.dim)]

    @pytest.mark.parametrize("spec", ["cyclic:5", "dihedral:7", "cyclic:9",
                                      "dihedral:10", "cyclic:11", "cyclic:8",
                                      "cyclic:12", "dihedral:12"])
    def test_rotation_outside_the_tower_has_no_matrices(self, spec):
        # the rotation by 2 pi j/m of order d = m/gcd(m, j) has a rational
        # realization only for d in {1, 2, 3, 4, 6}
        cat = catalog(spec)
        m = int(spec.split(":")[1])
        assert all(r.generator_images is not None for r in cat.irreps if r.dim == 1)
        assert cat.check_sum_of_squares()
        for r in cat.irreps:
            if r.dim == 1:
                continue
            j = r.molien_meta[2]
            if m // math.gcd(m, j) in (1, 2, 3, 4, 6):
                assert r.generator_images is not None, (spec, r.label)
                continue
            assert r.generator_images is None, (spec, r.label)
            with pytest.raises(ValueError, match=rf"rotation by 2\*pi\*{j}/{m}"):
                r.matrix(1)

    def test_unsupported(self):
        with pytest.raises(ValueError):
            catalog("icosahedral:1")
        with pytest.raises(ValueError):
            catalog("cyclic:5:planar")
        for spec in ("trivial:0", "trivial:-2"):
            with pytest.raises(ValueError, match="trivial catalog supports n >= 1"):
                catalog(spec)

    @pytest.mark.parametrize("spec", ["symmetric", "dihedral", "cyclic", "c2n",
                                      "symmetric:4:foo", "c2n:2:planar",
                                      "trivial:2:x", "cyclic:4:planar:x",
                                      "cyclic:5:foo", "symmetric:x",
                                      "dihedral:1:permutation",
                                      "dihedral:2:permutation"])
    def test_malformed_spec_names_itself(self, spec):
        with pytest.raises(ValueError, match=repr(spec)):
            catalog(spec)

    def test_bare_trivial_is_one_variable(self):
        assert catalog("trivial").name == "trivial:1"


class TestConjugacyClasses:
    @pytest.mark.parametrize("spec", CATALOG_SPECS + ["trivial:3", "c2n:4",
                                                      "dihedral:12"])
    def test_classes_partition_and_are_closed(self, spec):
        action = catalog(spec).action
        classes = action.classes
        members = sorted(i for cls in classes for i in cls)
        assert members == list(range(action.order)), spec
        inv = action.inverse_table
        for cls in classes:
            assert list(cls) == sorted(cls)
            for x in cls:
                for g in range(action.order):
                    assert action.mult(action.mult(inv[g], x), g) in cls, (spec, x, g)

    @pytest.mark.parametrize("spec,sizes", [
        ("symmetric:4", [1, 3, 6, 6, 8]),
        ("symmetric:5", [1, 10, 15, 20, 20, 24, 30])])
    def test_symmetric_class_sizes(self, spec, sizes):
        assert sorted(len(c) for c in catalog(spec).action.classes) == sizes

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_as_many_classes_as_irreps(self, n):
        cat = catalog(f"symmetric:{n}")
        assert len(cat.action.classes) == len(cat.irreps)

    def test_computed_once(self):
        action = catalog("symmetric:3").action
        assert action.classes is action.classes


class TestVerifyRepresentation:
    def test_trivial_rep_valid(self):
        cat = catalog("dihedral:4")
        triv = RealIrrep("t", 1, "absolutely-real", cat.action,
                         [((Fraction(1),),)] * 2)
        assert verify_representation(triv, cat.action).ok

    def test_corrupted_sign_detected(self):
        cat = catalog("dihedral:4")
        bad = RealIrrep("bad", 2, "absolutely-real", cat.action,
                        [((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0))),
                         ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0)))])
        report = verify_representation(bad, cat.action)
        assert not report.ok
        assert any("homomorphism" in v for v in report.violations)

    def test_corrupted_non_generator_detected(self):
        # an orthogonal but wrong image of the last element of the closure,
        # the farthest from the identity in generator steps
        cat = catalog("symmetric:5")
        irrep = max(cat.irreps, key=lambda r: r.dim)
        target = cat.action.order - 1
        assert target not in cat.action.generators

        def corrupted(i):
            m = irrep.matrix(i)
            return [[-x for x in row] for row in m] if i == target else m

        assert verify_representation(irrep, cat.action).ok
        report = verify_representation(corrupted, cat.action)
        assert not report.ok
        assert all("homomorphism" in v for v in report.violations)


class TestRealify:
    def test_c4_pair_gives_quarter_turn(self):
        cat = catalog("cyclic:4")
        rot = cat.irrep("theta3")
        gen = cat.action.generators[0]
        assert rot.kind == "complex-type"
        assert rot.matrix(gen) == [[0, -1], [1, 0]]

    def test_c3_pair_gives_rotation_by_120(self):
        # [[cos, -sin], [sin, cos]] in the basis (e1, sqrt(3) e2)
        cat = catalog("cyclic:3")
        rot = [r for r in cat.irreps if r.dim == 2][0]
        gen = cat.action.generators[0]
        assert rot.matrix(gen) == [[Fraction(-1, 2), Fraction(-3, 2)],
                                   [Fraction(1, 2), Fraction(-1, 2)]]
        assert rot.copy_weights == [1, 3]
        assert verify_representation(rot, cat.action).ok

    def test_non_diagonal_invariant_form_detected(self):
        # a homomorphism conjugated by a shear: its invariant form is not diagonal
        cat = catalog("cyclic:4")
        sheared = RealIrrep("sheared", 2, "complex-type", cat.action,
                            [((Fraction(-1), Fraction(-2)), (Fraction(1), Fraction(1)))])
        report = verify_representation(sheared, cat.action)
        assert report.violations == ["invariant form is not diagonal"]
