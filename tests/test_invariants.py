import random
from fractions import Fraction

import pytest

from symsos.groups import catalog
from symsos.invariants import (InvariantPoly, InvariantPresentation,
                               NotInvariantError,
                               RewriteError, elementary_symmetric,
                               expand_invariants, presentation,
                               rewrite_in_invariants, symmetric_presentation,
                               theta_monomials, weighted_degree)
from symsos.isotypic import induced_representation
from symsos.poly import Polynomial, parse_polynomial
from symsos.fixtures import ROBINSON_D4_TEXT, S3_QUARTIC_TEXT

EN = ["e1", "e2", "e3"]


class TestPresentations:
    def test_catalog_presentations_verify(self):
        for spec in ["symmetric:2", "symmetric:3", "symmetric:4", "c2n:2",
                     "c2n:3", "dihedral:4", "cyclic:4", "trivial:2"]:
            pres = presentation(spec)   # verify() runs inside
            assert pres.eta[0] == Polynomial.constant(pres.nvars, 1)

    def test_dihedral4_primaries(self):
        pres = presentation("dihedral:4")
        assert pres.theta[0] == parse_polynomial("x^2+y^2", ["x", "y"])
        assert pres.theta[1] == parse_polynomial("x^2*y^2", ["x", "y"])
        assert len(pres.eta) == 1

    def test_cyclic4_secondary_and_syzygy(self):
        pres = presentation("cyclic:4")
        assert pres.eta[1] == parse_polynomial("x^3*y - x*y^3", ["x", "y"])
        assert len(pres.syzygies) == 1
        assert pres.expand_symbol_poly(pres.syzygies[0]).is_zero()

    @pytest.mark.parametrize("spec", ["c2n:1", "c2n:2", "c2n:3", "dihedral:4",
                                      "cyclic:4", "symmetric:2", "symmetric:3",
                                      "symmetric:4", "symmetric:5"])
    def test_generators_are_the_catalogs(self, spec):
        assert presentation(spec).generators == catalog(spec).action.generator_perms

    @pytest.mark.parametrize("spec", ["symmetric:4", "c2n:3", "dihedral:4",
                                      "cyclic:4", "trivial:3"])
    def test_leading_exponents_name_one_product_each(self, spec):
        pres = presentation(spec)
        for d in range(9):
            table = pres.leading(d)     # a collision raises RewriteError
            for lead, (j, alpha) in table.items():
                assert max(pres.product(j, alpha).terms) == lead

    def test_unknown_group_rejected(self):
        with pytest.raises(KeyError):
            presentation("dihedral:6")


class TestRewrite:
    def test_robinson_rewrite_matches_catalog_value(self):
        pres = presentation("dihedral:4")
        f = parse_polynomial(ROBINSON_D4_TEXT, ["x", "y"])
        ft = rewrite_in_invariants(f, pres)
        assert ft.part(0) == parse_polynomial(
            "t1^3 - t1^2 - 4*t1*t2 - t1 + 5*t2 + 1", ["t1", "t2"])
        assert weighted_degree(ft, pres) == 6
        assert expand_invariants(ft, pres) == f

    def test_product_tables_are_per_presentation(self):
        xy = ["x", "y"]
        one = Polynomial.constant(2, 1)
        a = InvariantPresentation(2, [parse_polynomial("x^2+y^2", xy),
                                      parse_polynomial("x^2*y^2", xy)], [one],
                                  name="dihedral:4")
        b = InvariantPresentation(2, [parse_polynomial("x^2+2*y^2", xy),
                                      parse_polynomial("x^2*y^2", xy)], [one],
                                  name="dihedral:4")
        f = InvariantPoly(2, {0: parse_polynomial("t1^2 - t2", ["t1", "t2"])})
        assert expand_invariants(f, a) == parse_polynomial("x^4 + x^2*y^2 + y^4", xy)
        assert expand_invariants(f, b) == parse_polynomial(
            "x^4 + 3*x^2*y^2 + 4*y^4", xy)

    def test_repeated_rewrite_multiplies_nothing(self, monkeypatch):
        f = parse_polynomial(S3_QUARTIC_TEXT, ["x", "y", "z"])
        pres, fresh = presentation("symmetric:3"), presentation("symmetric:3")
        first = rewrite_in_invariants(f, pres)
        calls = []
        mul = Polynomial.__mul__

        def counting_mul(self, other):
            calls.append(other)
            return mul(self, other)

        monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
        assert rewrite_in_invariants(f, pres) == first
        assert calls == []
        assert rewrite_in_invariants(f, fresh) == first
        assert calls                  # a fresh presentation builds its own

    def test_rewrite_builds_only_the_products_it_subtracts(self, monkeypatch):
        pres = presentation("c2n:8")
        f = Polynomial.monomial(8, (2, 2, 0, 0, 0, 0, 0, 0))
        calls = []
        mul = Polynomial.__mul__

        def counting_mul(self, other):
            calls.append(other)
            return mul(self, other)

        monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
        ft = rewrite_in_invariants(f, pres)
        assert ft.part(0) == Polynomial.monomial(8, (1, 1, 0, 0, 0, 0, 0, 0))
        assert len(calls) <= 2        # theta1 * theta2, built from 1 * theta1

    def test_symmetric_quartic_rewrite(self):
        pres = presentation("symmetric:3")
        f = parse_polynomial(S3_QUARTIC_TEXT, ["x", "y", "z"])
        ft = rewrite_in_invariants(f, pres)
        assert ft.part(0) == parse_polynomial(
            "e1^4 - 4*e1^2*e2 + 2*e2^2 + 4*e1*e3 - 4*e3 + e1", EN)
        assert weighted_degree(ft, pres) == 4

    def test_non_invariant_rejected(self):
        pres = presentation("symmetric:3")
        with pytest.raises(NotInvariantError):
            rewrite_in_invariants(parse_polynomial("x", ["x", "y", "z"]), pres)

    def test_constant(self):
        pres = presentation("dihedral:4")
        c = rewrite_in_invariants(Polynomial.constant(2, Fraction(7, 3)), pres)
        assert weighted_degree(c, pres) == 0
        assert expand_invariants(c, pres) == Polynomial.constant(2, Fraction(7, 3))

    def test_eta_appears_linearly(self):
        pres = presentation("cyclic:4")
        eta2 = pres.eta[1]
        sq = eta2 * eta2  # invariant, must land in the theta part
        ft = rewrite_in_invariants(sq, pres)
        assert set(ft.parts) == {0}
        assert ft.part(0) == parse_polynomial("t1^2*t2 - 4*t2^2", ["t1", "t2"])

    @pytest.mark.parametrize("spec,d", [("dihedral:4", 6), ("cyclic:4", 6),
                                        ("symmetric:3", 5), ("c2n:2", 6),
                                        ("symmetric:4", 6), ("c2n:3", 6),
                                        ("trivial:2", 4)])
    def test_round_trip_on_reynolds_averages(self, spec, d):
        pres = presentation(spec)
        cat = catalog(spec)
        rng = random.Random(spec)
        rep = induced_representation(cat.action, d)
        basis = rep.basis
        for _ in range(3):
            coeffs = {m: Fraction(rng.randint(-4, 4)) for m in basis.entries
                      if rng.random() < 0.3}
            p = Polynomial(pres.nvars, coeffs)
            inv = Polynomial.zero(pres.nvars)
            # Reynolds average of the polynomial itself
            from symsos.poly import substitute_linear
            for i in range(cat.action.order):
                inv = inv + substitute_linear(p, cat.action.matrix(i))
            inv = inv.scale(Fraction(1, cat.action.order))
            ft = rewrite_in_invariants(inv, pres)
            assert expand_invariants(ft, pres) == inv
            if not inv.is_zero():
                assert weighted_degree(ft, pres) == inv.degree()


    def test_missing_primary_is_outside_the_span(self):
        e1, e2, e3 = elementary_symmetric(3)
        gens = symmetric_presentation(3).generators
        pres = InvariantPresentation(3, [e1, e2], [Polynomial.constant(3, 1)], [], gens)
        with pytest.raises(RewriteError, match="outside the span"):
            rewrite_in_invariants(e3, pres)

    def test_duplicated_primary_is_not_unique(self):
        e1, e2, e3 = elementary_symmetric(3)
        gens = symmetric_presentation(3).generators
        pres = InvariantPresentation(3, [e1, e1, e2, e3], [Polynomial.constant(3, 1)],
                                     [], gens)
        with pytest.raises(RewriteError, match="not unique"):
            rewrite_in_invariants(e1 * e2, pres)


class TestThetaMonomials:
    def test_budget_enumeration(self):
        out = theta_monomials([1, 2, 3], 2)
        assert (0, 0, 0) in out and (2, 0, 0) in out and (0, 1, 0) in out
        assert all(a + 2 * b + 3 * c <= 2 for a, b, c in out)

    def test_exact_degree(self):
        out = theta_monomials([2, 4], 8, exactly=8)
        assert set(out) == {(4, 0), (2, 1), (0, 2)}

    def test_negative_budget_empty(self):
        assert theta_monomials([2], -1) == []


def test_orbit_filter_agrees_with_dense_rewrite():
    pres = symmetric_presentation(3)
    dense = symmetric_presentation(3)
    dense.orbit_representative = None
    f = parse_polynomial(S3_QUARTIC_TEXT, ["x", "y", "z"])
    a = rewrite_in_invariants(f, pres)
    b = rewrite_in_invariants(f, dense)
    assert a == b
