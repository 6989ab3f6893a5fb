import random
from fractions import Fraction

import numpy as np
import pytest

from symsos.certificates import algorithm_one
from symsos.equivariants import (equivariant_catalog, monomial_envelope,
                                 pi_matrix)
from symsos.groups import catalog
from symsos.invariants import (expand_invariants, presentation,
                               rewrite_in_invariants, weighted_degree)
from symsos.poly import Polynomial, evaluate, parse_polynomial
from symsos.fileio import _invariant_poly_text
from symsos.fixtures import S3_QUARTIC_TEXT

T2 = ["t1", "t2"]
EN = ["e1", "e2", "e3"]


@pytest.fixture(scope="module")
def d4():
    cat = catalog("dihedral:4")
    pres = presentation("dihedral:4")
    bases, missing = equivariant_catalog(cat, pres)
    assert not missing
    return cat, pres, bases


@pytest.fixture(scope="module")
def s3():
    cat = catalog("symmetric:3")
    pres = presentation("symmetric:3")
    bases, missing = equivariant_catalog(cat, pres)
    assert not missing
    return cat, pres, bases


@pytest.fixture(scope="module")
def c4():
    cat = catalog("cyclic:4")
    pres = presentation("cyclic:4")
    bases, missing = equivariant_catalog(cat, pres)
    assert not missing
    return cat, pres, bases


class TestCatalogBases:
    def test_d4_ranks_and_generators(self, d4):
        _, _, bases = d4
        assert bases["theta5"].rank == 2
        assert [p for p, in [bases["theta3"].vectors[0]]] is not None
        assert bases["theta3"].vectors[0][0] == parse_polynomial("x*y", ["x", "y"])
        assert bases["theta4"].vectors[0][0] == parse_polynomial("x^2-y^2", ["x", "y"])
        assert bases["theta2"].vectors[0][0] == parse_polynomial(
            "x^3*y - x*y^3", ["x", "y"])
        assert bases["theta5"].vectors[0] == (
            parse_polynomial("x", ["x", "y"]), parse_polynomial("y", ["x", "y"]))

    def test_s3_sign_module_is_vandermonde(self, s3):
        _, _, bases = s3
        v = bases["theta2"].vectors[0][0]
        expect = parse_polynomial("(0)", ["x", "y", "z"]) if False else None
        x, y, z = (Polynomial.variable(3, i) for i in range(3))
        assert v == (x - y) * (x - z) * (y - z)
        assert bases["theta2"].rank == 1

    def test_trivial_module_is_eta(self, c4):
        _, pres, bases = c4
        assert bases["theta1"].rank == 2
        assert bases["theta1"].vectors[0][0] == Polynomial.constant(2, 1)
        assert bases["theta1"].vectors[1][0] == pres.eta[1]

    def test_equivariance_exact_everywhere(self, d4, s3, c4):
        for _, _, bases in (d4, s3, c4):
            for basis in bases.values():
                basis.verify()  # raises on failure

    def test_s4_modules_complete_with_searched_generators(self):
        cat = catalog("symmetric:4")
        pres = presentation("symmetric:4")
        bases, missing = equivariant_catalog(cat, pres)
        assert not missing
        assert bases["theta4"].degrees == [3, 4, 5]
        assert bases["theta3"].degrees == [2, 4]
        assert bases["theta2"].degrees == [1, 2, 3]
        for basis in bases.values():
            basis.verify()

    def test_s5_partial_catalog(self):
        cat = catalog("symmetric:5")
        pres = presentation("symmetric:5")
        bases, missing = equivariant_catalog(cat, pres)
        assert set(missing) == {"theta3", "theta4", "theta5", "theta6"}
        assert set(bases) == {"theta1", "theta2", "theta7"}


class TestPiMatrices:
    def test_d4_pi_values(self, d4):
        _, pres, bases = d4
        pi5 = pi_matrix(bases["theta5"], pres)
        assert pi5.entries[0][0].part(0) == parse_polynomial("t1", T2)
        assert pi5.entries[0][1].part(0) == parse_polynomial("t1^2 - 2*t2", T2)
        assert pi5.entries[1][1].part(0) == parse_polynomial("t1^3 - 3*t1*t2", T2)
        assert pi_matrix(bases["theta1"], pres).entries[0][0].part(0) == \
            Polynomial.constant(2, 1)
        assert pi_matrix(bases["theta2"], pres).entries[0][0].part(0) == \
            parse_polynomial("t1^2*t2 - 4*t2^2", T2)
        assert pi_matrix(bases["theta3"], pres).entries[0][0].part(0) == \
            parse_polynomial("t2", T2)
        assert pi_matrix(bases["theta4"], pres).entries[0][0].part(0) == \
            parse_polynomial("t1^2 - 4*t2", T2)

    def test_c4_pi_values(self, c4):
        _, pres, bases = c4
        pi1 = pi_matrix(bases["theta1"], pres)
        assert pi1.entries[0][0].part(0) == Polynomial.constant(2, 1)
        assert pi1.entries[0][1].part(1) == Polynomial.constant(2, 1)  # eta2
        assert pi1.entries[1][1].part(0) == parse_polynomial("t1^2*t2 - 4*t2^2", T2)
        pi2 = pi_matrix(bases["theta2"], pres)
        assert pi2.entries[0][0].part(0) == parse_polynomial("t2", T2)
        assert pi2.entries[0][1].part(1) == Polynomial.constant(2, 1)
        assert pi2.entries[1][1].part(0) == parse_polynomial("t1^2 - 4*t2", T2)

    def test_s3_pi_values(self, s3):
        _, pres, bases = s3
        pi2 = pi_matrix(bases["theta2"], pres)
        assert pi2.entries[0][0].part(0) == parse_polynomial(
            "e1^2*e2^2 - 4*e2^3 - 4*e1^3*e3 + 18*e1*e2*e3 - 27*e3^2", EN)
        pi3 = pi_matrix(bases["theta3"], pres)
        assert pi3.entries[0][0].part(0) == parse_polynomial("2*e1^2 - 6*e2", EN)
        assert pi3.entries[0][1].part(0) == parse_polynomial("-1*e1*e2 + 9*e3", EN)
        assert pi3.entries[1][1].part(0) == parse_polynomial("2*e2^2 - 6*e1*e3", EN)

    def test_gram_consistency_exact(self, d4):
        _, pres, bases = d4
        for basis in bases.values():
            pi = pi_matrix(basis, pres)
            for k in range(basis.rank):
                for l in range(basis.rank):
                    prod = Polynomial.zero(2)
                    for pk, pl in zip(basis.vectors[k], basis.vectors[l]):
                        prod = prod + pk * pl
                    assert expand_invariants(pi.entries[k][l], pres) == prod

    def test_pointwise_psd_on_orbits(self, c4):
        _, pres, bases = c4
        rng = random.Random(42)
        pis = {label: pi_matrix(b, pres) for label, b in bases.items()}
        for _ in range(100):
            point = [Fraction(rng.randint(-8, 8), rng.randint(1, 5))
                     for _ in range(2)]
            for label, pi in pis.items():
                mat = np.array([[float(evaluate(
                    expand_invariants(pi.entries[r][c], pres), point))
                    for c in range(pi.rank)] for r in range(pi.rank)])
                assert np.linalg.eigvalsh(mat)[0] >= -1e-10, (label, point)

    def test_c4_determinant_syzygy_vanishes(self, c4):
        _, pres, bases = c4
        pi1 = pi_matrix(bases["theta1"], pres)
        det = expand_invariants(pi1.entries[0][0], pres) * \
            expand_invariants(pi1.entries[1][1], pres) - \
            expand_invariants(pi1.entries[0][1], pres) ** 2
        assert det.is_zero()


class TestEnvelopes:
    def test_s3_quartic_envelopes(self, s3):
        _, pres, bases = s3
        f = parse_polynomial(S3_QUARTIC_TEXT, ["x", "y", "z"])
        ft = rewrite_in_invariants(f, pres)
        target = weighted_degree(ft, pres)
        env1 = monomial_envelope(pres, pi_matrix(bases["theta1"], pres), target)
        assert env1 == [[(0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 0, 0)]]
        env3 = monomial_envelope(pres, pi_matrix(bases["theta3"], pres), target)
        assert env3 == [[(0, 0, 0), (1, 0, 0)], [(0, 0, 0)]]
        env2 = monomial_envelope(pres, pi_matrix(bases["theta2"], pres), target)
        assert env2 == [[]]   # degree 6 > 4: block dropped

    def test_negative_budget_rows_empty(self, d4):
        _, pres, bases = d4
        pi5 = pi_matrix(bases["theta5"], pres)
        env = monomial_envelope(pres, pi5, 2)
        assert env == [[(0, 0)], []]


# discriminant of the monic quintic in elementary symmetric coordinates: the
# Gram entry of the alternating module generator for five letters
S5_DISCRIMINANT = {
    (0, 0, 0, 0, 4): 3125, (0, 0, 0, 5, 0): 256, (0, 0, 1, 3, 1): -1600,
    (0, 0, 2, 1, 2): 2250, (0, 0, 4, 2, 0): -27, (0, 0, 5, 0, 1): 108,
    (0, 1, 0, 2, 2): 2000, (0, 1, 1, 0, 3): -3750, (0, 1, 2, 3, 0): 144,
    (0, 1, 3, 1, 1): -630, (0, 2, 0, 4, 0): -128, (0, 2, 1, 2, 1): 560,
    (0, 2, 2, 0, 2): 825, (0, 3, 0, 1, 2): -900, (0, 3, 2, 2, 0): -4,
    (0, 3, 3, 0, 1): 16, (0, 4, 0, 3, 0): 16, (0, 4, 1, 1, 1): -72,
    (0, 5, 0, 0, 2): 108, (1, 0, 0, 1, 3): -2500, (1, 0, 1, 4, 0): -192,
    (1, 0, 2, 2, 1): 1020, (1, 0, 3, 0, 2): -900, (1, 1, 0, 3, 1): 160,
    (1, 1, 1, 1, 2): -2050, (1, 1, 3, 2, 0): 18, (1, 1, 4, 0, 1): -72,
    (1, 2, 0, 0, 3): 2250, (1, 2, 1, 3, 0): -80, (1, 2, 2, 1, 1): 356,
    (1, 3, 0, 2, 1): 24, (1, 3, 1, 0, 2): -630, (2, 0, 0, 2, 2): -50,
    (2, 0, 1, 0, 3): 2000, (2, 0, 2, 3, 0): -6, (2, 0, 3, 1, 1): 24,
    (2, 1, 0, 4, 0): 144, (2, 1, 1, 2, 1): -746, (2, 1, 2, 0, 2): 560,
    (2, 2, 0, 1, 2): 1020, (2, 2, 2, 2, 0): 1, (2, 2, 3, 0, 1): -4,
    (2, 3, 0, 3, 0): -4, (2, 3, 1, 1, 1): 18, (2, 4, 0, 0, 2): -27,
    (3, 0, 0, 3, 1): -36, (3, 0, 1, 1, 2): 160, (3, 0, 3, 2, 0): -4,
    (3, 0, 4, 0, 1): 16, (3, 1, 0, 0, 3): -1600, (3, 1, 1, 3, 0): 18,
    (3, 1, 2, 1, 1): -80, (3, 2, 0, 2, 1): -6, (3, 2, 1, 0, 2): 144,
    (4, 0, 0, 4, 0): -27, (4, 0, 1, 2, 1): 144, (4, 0, 2, 0, 2): -128,
    (4, 1, 0, 1, 2): -192, (5, 0, 0, 0, 3): 256,
}


def test_s5_discriminant_catalog_matches_recomputation():
    (row,) = algorithm_one("symmetric:5").pis["theta7"].entries
    (entry,) = row
    assert set(entry.parts) == {0}
    assert entry.part(0).terms == {m: Fraction(c) for m, c in S5_DISCRIMINANT.items()}


# Pi of the two-dimensional modules, whose generators are edge coordinates
# (v1 - v2, v2 - v3, v3 - v1) of v = (x, y, z) and (yz, zx, xy) for S3, and
# of the three products of pairs u1, u2, u3 and (u2 u3, u3 u1, u1 u2) for S4
TWO_DIM_PI_TEXT = {
    "symmetric:3": [["2*t1^2 - 6*t2", "-t1*t2 + 9*t3"],
                    ["-t1*t2 + 9*t3", "-6*t1*t3 + 2*t2^2"]],
    "symmetric:4": [["-6*t1*t3 + 2*t2^2 + 24*t4",
                     "9*t1^2*t4 - t1*t2*t3 - 32*t2*t4 + 9*t3^2"],
                    ["9*t1^2*t4 - t1*t2*t3 - 32*t2*t4 + 9*t3^2",
                     "-6*t1^2*t2*t4 + 2*t1^2*t3^2 - 16*t1*t3*t4 + 24*t2^2*t4"
                     " - 6*t2*t3^2 + 32*t4^2"]],
}


@pytest.mark.parametrize("spec", sorted(TWO_DIM_PI_TEXT))
def test_two_dimensional_pi_text(spec):
    bundle = algorithm_one(spec)
    text = [[_invariant_poly_text(entry, bundle.pres) for entry in row]
            for row in bundle.pis["theta3"].entries]
    assert text == TWO_DIM_PI_TEXT[spec]


@pytest.mark.parametrize("spec", ["trivial:1", "trivial:3", "c2n:1", "c2n:3",
                                  "cyclic:4", "dihedral:4", "symmetric:2",
                                  "symmetric:3", "symmetric:4", "symmetric:5"])
def test_bundles_are_rational(spec):
    bundle = algorithm_one(spec)
    coeffs = [c for pi in bundle.pis.values() for row in pi.entries
              for entry in row for part in entry.parts.values()
              for c in part.terms.values()]
    coeffs += [c for basis in bundle.bases.values() for vec in basis.vectors
               for p in vec for c in p.terms.values()]
    assert coeffs and all(type(c) is Fraction for c in coeffs)
