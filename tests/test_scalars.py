from fractions import Fraction

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

