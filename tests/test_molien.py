import math
from fractions import Fraction

import pytest

from symsos.groups import catalog
from symsos.molien import (RationalFunction, _pmul, det_one_minus_xi,
                           dimension_table, even_form_block_census,
                           hilbert_consistency, hilbert_series, molien_series,
                           ramanujan_sum, series_coefficients)

S4_TABLE = {
    "theta1": [1, 1, 2, 3, 5, 6, 9, 11, 15, 18, 23, 27, 34, 39, 47, 54],
    "theta2": [0, 1, 2, 4, 6, 10, 14, 20, 26, 35, 44, 56, 68, 84, 100, 120],
    "theta3": [0, 0, 1, 1, 3, 4, 7, 9, 14, 17, 24, 29, 38, 45, 57, 66],
    "theta4": [0, 0, 0, 1, 2, 4, 6, 10, 14, 20, 26, 35, 44, 56, 68, 84],
    "theta5": [0, 0, 0, 0, 0, 0, 1, 1, 2, 3, 5, 6, 9, 11, 15, 18],
    "total": [1, 4, 10, 20, 35, 56, 84, 120, 165, 220, 286, 364, 455, 560, 680, 816],
}


S5_TABLE = {
    "theta1": [1, 1, 2, 3, 5, 7, 10, 13, 18, 23, 30, 37, 47, 57, 70, 84],
    "theta2": [0, 1, 2, 4, 7, 11, 17, 25, 35, 48, 64, 84, 108, 137, 171, 211],
    "theta3": [0, 0, 1, 2, 4, 7, 12, 18, 27, 38, 53, 71, 94, 121, 155, 194],
    "theta4": [0, 0, 0, 1, 2, 5, 8, 14, 21, 32, 45, 63, 84, 112, 144, 185],
    "theta5": [0, 0, 0, 0, 1, 2, 4, 7, 12, 18, 27, 38, 53, 71, 94, 121],
    "theta6": [0, 0, 0, 0, 0, 0, 1, 2, 4, 7, 11, 17, 25, 35, 48, 64],
    "theta7": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 3, 5, 7],
    "total": [1, 5, 15, 35, 70, 126, 210, 330, 495, 715, 1001, 1365, 1820, 2380,
              3060, 3876],
}

EVERY_CATALOG = ["trivial:1", "trivial:2", "c2n:1", "c2n:2", "c2n:3", "cyclic:1",
                 "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:4:permutation",
                 "cyclic:5", "cyclic:6", "cyclic:7", "cyclic:8", "cyclic:9",
                 "cyclic:10", "cyclic:11", "cyclic:12", "dihedral:1",
                 "dihedral:1:planar", "dihedral:2", "dihedral:2:planar",
                 "dihedral:3", "dihedral:4", "dihedral:4:permutation",
                 "dihedral:5", "dihedral:6", "dihedral:7", "dihedral:8",
                 "dihedral:12", "symmetric:2", "symmetric:3", "symmetric:4",
                 "symmetric:5"]


def element_sum_series(cat, irrep) -> RationalFunction:
    """The Molien formula as defined, one term per group element.

    Terms with equal denominators are added before the rational functions
    are, which keeps the reference fast.
    """
    action = cat.action
    chi_sums: dict[tuple, Fraction] = {}
    for i in range(action.order):
        det = tuple(det_one_minus_xi(action, i))
        chi_sums[det] = chi_sums.get(det, Fraction(0)) + irrep.character(i)
    total = RationalFunction.of([0], [1])
    for det, chi_sum in chi_sums.items():
        total = total + RationalFunction.of([chi_sum], list(det))
    halve = 2 if irrep.kind == "complex-type" else 1
    return total.scale(Fraction(1, action.order * halve))


class TestRationalFunction:
    def test_geometric_series(self):
        f = RationalFunction.of([1], [1, -1])
        assert series_coefficients(f, 5) == [1] * 6

    def test_zero_constant_term_rejected(self):
        f = RationalFunction.of([1], [0, 1])
        with pytest.raises(ValueError):
            series_coefficients(f, 3)

    def test_gcd_reduction_and_equality(self):
        # (s + s^3) / ((1-s^2)(1-s^4)) reduces to s / (1-s^2)^2
        f = RationalFunction.of([0, 1, 0, 1], _pmul([1, 0, -1], [1, 0, 0, 0, -1]))
        g = RationalFunction.of([0, 1], _pmul([1, 0, -1], [1, 0, -1]))
        assert f.equals(g)
        assert series_coefficients(f, 8) == series_coefficients(g, 8)


class TestDihedralSeries:
    def test_d4_component_series(self):
        cat = catalog("dihedral:4")
        q = _pmul([1, 0, -1], [1, 0, 0, 0, -1])   # (1-s^2)(1-s^4)
        expected = {
            "theta1": [1],
            "theta2": [0, 0, 0, 0, 1],
            "theta3": [0, 0, 1],
            "theta4": [0, 0, 1],
            "theta5": [0, 1, 0, 1],
        }
        for label, num in expected.items():
            psi = molien_series(cat, cat.irrep(label))
            assert psi.equals(RationalFunction.of(num, q)), label

    def test_first_few_multiplicities(self):
        cat = catalog("dihedral:4")
        psi5 = molien_series(cat, cat.irrep("theta5"))
        assert series_coefficients(psi5, 5) == [0, 1, 0, 2, 0, 3]


class TestKnownFormulas:
    def test_trivial_group_full_ring(self):
        cat = catalog("trivial:3")
        psi = molien_series(cat, cat.irreps[0])
        assert psi.equals(hilbert_series(3))

    def test_sign_flip_type_series(self):
        cat = catalog("c2n:3")
        den = [1]
        for _ in range(3):
            den = _pmul(den, [1, 0, -1])
        type1 = [r for r in cat.irreps if r.molien_meta[2] == (0,)][0]
        psi = molien_series(cat, type1)
        assert psi.equals(RationalFunction.of([0, 1], den))
        type0 = cat.irreps[0]
        coeffs = series_coefficients(molien_series(cat, type0), 8)
        for d in range(5):
            assert coeffs[2 * d] == math.comb(3 + d - 1, d)
            if 2 * d + 1 <= 8:
                assert coeffs[2 * d + 1] == 0

    def test_s4_sign_first_appears_at_degree_six(self):
        cat = catalog("symmetric:4")
        psi = series_coefficients(molien_series(cat, cat.irrep("theta5")), 6)
        assert psi == [0, 0, 0, 0, 0, 0, 1]


class TestS4Table:
    def test_all_eighty_entries(self):
        cat = catalog("symmetric:4")
        table = dimension_table(cat, 15)
        for label, row in S4_TABLE.items():
            assert table[label] == row, label


class TestS5Table:
    def test_matches_pinned_table(self):
        assert dimension_table(catalog("symmetric:5"), 15) == S5_TABLE

    def test_negative_dmax_rejected(self):
        with pytest.raises(ValueError, match="dmax"):
            dimension_table(catalog("symmetric:3"), -1)


@pytest.mark.parametrize("spec", EVERY_CATALOG)
def test_hilbert_consistency_every_catalog(spec):
    assert hilbert_consistency(catalog(spec)), spec


@pytest.mark.parametrize("spec", EVERY_CATALOG)
def test_class_sum_equals_element_sum(spec):
    cat = catalog(spec)
    for irrep in cat.irreps:
        if irrep.generator_images is None:
            continue
        psi, want = molien_series(cat, irrep), element_sum_series(cat, irrep)
        assert (psi.num, psi.den) == (want.num, want.den), (spec, irrep.label)


def test_c2n_ten_closed_form_table():
    # xi^r/(1-xi^2)^n has coefficient C(n-1+k, k) at xi^(r+2k)
    n, dmax = 10, 8
    cat = catalog("c2n:10")
    table = dimension_table(cat, dmax)
    for irrep in cat.irreps:
        r = len(irrep.molien_meta[2])
        want = [math.comb(n - 1 + (d - r) // 2, n - 1) if d >= r and (d - r) % 2 == 0
                else 0 for d in range(dmax + 1)]
        assert table[irrep.label] == want, irrep.label


class TestRamanujan:
    def test_known_values(self):
        assert ramanujan_sum(1, 0) == 1
        assert ramanujan_sum(5, 0) == 4       # Euler phi
        assert ramanujan_sum(5, 1) == -1      # Moebius
        assert ramanujan_sum(9, 3) == -3


class TestEvenFormCensus:
    def test_degree_eight_ten_variables(self):
        assert even_form_block_census(10, 8) == [(55, 1), (10, 45), (1, 210)]
        total = sum(size * count for size, count in even_form_block_census(10, 8))
        assert total == math.comb(13, 4) == 715

    def test_sextic_reduction_counts(self):
        for n in range(4, 11):
            census = dict(even_form_block_census(n, 6))
            assert census[n] == n
            assert census[1] == math.comb(n, 3)

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            even_form_block_census(3, 5)
