from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from symsos.scalars import Quad, exact, squarefree_split

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)
small_ints = st.integers(min_value=1, max_value=30)


def quad_values():
    return st.builds(
        lambda a, b, c: Quad({1: a, 2: b, 3: c}),
        rationals, rationals, rationals)


def test_squarefree_split():
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(12) == (2, 3)
    assert squarefree_split(72) == (6, 2)
    assert squarefree_split(49) == (7, 1)


def test_root_and_products():
    r2, r3 = Quad.root(2), Quad.root(3)
    assert r2 * r2 == 2
    assert r2 * r3 == Quad.root(6)
    assert Quad.root(8) == Quad({2: Fraction(2)})
    assert Quad.root(3, Fraction(1, 2)) * 2 == r3


def test_sqrt_rational_always_exact():
    assert Quad(Fraction(9, 4)).sqrt() == Fraction(3, 2)
    assert Quad(2).sqrt() == Quad.root(2)
    assert Quad(Fraction(3, 8)).sqrt() == Quad.root(6, Fraction(1, 4))
    with pytest.raises(ValueError):
        Quad(-1).sqrt()


def test_sqrt_two_term_square():
    w = (Quad(1) + Quad.root(3)) * Fraction(1, 2)
    assert (w * w).sqrt() == w
    with pytest.raises(ValueError):
        (Quad.root(2) + Quad.root(3)).sqrt()


@given(quad_values())
def test_inverse_is_exact(x):
    if x == 0:
        return
    assert x * x.inverse() == 1


@given(quad_values(), quad_values())
def test_field_axioms_sampled(a, b):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) - b == a


@given(rationals)
def test_exact_collapses_rational_quads(q):
    assert exact(Quad(q)) == q
    assert isinstance(exact(Quad(q)), Fraction)


def test_float_conversion():
    x = Quad({1: Fraction(1, 2), 3: Fraction(1, 2)})
    assert abs(float(x) - (0.5 + 0.5 * 3 ** 0.5)) < 1e-15
    assert abs(float(x.to_mpf()) - float(x)) < 1e-15

