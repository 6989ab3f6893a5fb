import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symsos.poly import (MINUS_INFINITY, Polynomial, PolynomialSyntaxError,
                         compose, evaluate, monomial_vector, parse_polynomial,
                         render_polynomial, substitute_linear)

ROBINSON = "x^6+y^6-x^4*y^2-x^2*y^4-x^4-y^4-x^2-y^2+3*x^2*y^2+1"


def rand_poly(nvars=2, max_terms=6, max_deg=4):
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    mono = st.tuples(*[st.integers(0, max_deg) for _ in range(nvars)])
    return st.dictionaries(mono, coeff, max_size=max_terms).map(
        lambda d: Polynomial(nvars, d))


class TestParsing:
    def test_square_expansion_terms(self):
        p = parse_polynomial("x^2 + 2*x*y + y^2", ["x", "y"])
        assert p.terms == {(2, 0): Fraction(1), (1, 1): Fraction(2),
                           (0, 2): Fraction(1)}

    def test_robinson_variant_shape(self):
        p = parse_polynomial(ROBINSON, ["x", "y"])
        assert len(p.terms) == 10
        assert p.degree() == 6

    def test_zero_polynomial_degree_marker(self):
        z = parse_polynomial("0", ["x"])
        assert z.is_zero()
        assert z.degree() is MINUS_INFINITY
        assert MINUS_INFINITY < -10 ** 9

    def test_rational_coefficients(self):
        p = parse_polynomial("1/2*x - 3/4", ["x"])
        assert p.terms == {(1,): Fraction(1, 2), (0,): Fraction(-3, 4)}

    def test_syntax_error_reports_position(self):
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial("x^2 + @", ["x"])
        assert err.value.position == 6

    def test_unknown_variable(self):
        with pytest.raises(ValueError, match="unknown variable"):
            parse_polynomial("x + q", ["x", "y"])

    @pytest.mark.parametrize("variables", [["x", "x"], ["x", "y", "x"]])
    def test_repeated_variable_name(self, variables):
        with pytest.raises(ValueError, match="variable name 'x' is repeated"):
            parse_polynomial("x^2 + 1", variables)

    def test_zero_denominator(self):
        with pytest.raises(PolynomialSyntaxError, match="nonzero denominator"):
            parse_polynomial("1/0*x^2", ["x"])

    def test_non_integer_exponent(self):
        with pytest.raises(PolynomialSyntaxError, match="non-integer exponent"):
            parse_polynomial("x^y", ["x", "y"])

    @pytest.mark.parametrize("text,position", [("2*-x", 2), ("x^2 + 3*", 8)])
    def test_dangling_star_is_refused(self, text, position):
        # a "*" before a sign or the end used to be dropped: 2 - x, x^2 + 3
        with pytest.raises(PolynomialSyntaxError,
                           match=r"expected a factor after '\*'") as err:
            parse_polynomial(text, ["x"])
        assert err.value.position == position

    @pytest.mark.parametrize("text,message,position", [
        ("1/2/3", "unexpected '/'", 3),
        ("x^2^3", "unexpected '^'", 3),
        ("x * * y", "unexpected '*'", 4),
        ("x +", "expected a term", 3),
        ("", "empty polynomial", 0),
        ("x^y", "non-integer exponent", 2),
        ("1/0*x^2", "expected nonzero denominator", 2),
    ])
    def test_error_messages_and_positions(self, text, message, position):
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial(text, ["x", "y"])
        assert type(err.value) is PolynomialSyntaxError
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    def test_term_coefficients_are_reduced_fractions(self):
        p = parse_polynomial("6/4*x 2 - 3/9 + 1/3 + x*y", ["x", "y"])
        assert p.terms == {(1, 0): Fraction(3), (1, 1): Fraction(1)}
        assert all(type(c) is Fraction for c in p.terms.values())


class TestMonomialVector:
    def test_documented_lengths(self):
        assert len(monomial_vector(3, 2)) == 10
        assert monomial_vector(1, 0).entries == ((0,),)

    def test_graded_lex_order_two_vars(self):
        mv = monomial_vector(2, 3)
        assert len(mv) == 10
        assert mv.entries[0] == (0, 0)        # constant first
        assert mv.entries[-1] == (0, 3)       # y^3 last

    @given(st.integers(1, 6), st.integers(0, 6))
    def test_binomial_count(self, n, d):
        assert len(monomial_vector(n, d)) == math.comb(n + d, d)

    def test_strictly_increasing(self):
        from symsos.poly import grlex_key
        mv = monomial_vector(3, 3)
        keys = [grlex_key(m) for m in mv.entries]
        assert keys == sorted(keys)


class TestArithAndEval:
    def test_additive_identity(self):
        p = parse_polynomial("x^2 - y", ["x", "y"])
        assert p + Polynomial.zero(2) == p

    def test_difference_of_squares(self):
        x, y = (Polynomial.variable(2, i) for i in range(2))
        assert (x + y) * (x - y) == x * x - y * y

    def test_c4_syzygy_expansion(self):
        names = ["x", "y"]
        eta2 = parse_polynomial("x^3*y - x*y^3", names)
        t1 = parse_polynomial("x^2 + y^2", names)
        t2 = parse_polynomial("x^2*y^2", names)
        assert eta2 * eta2 == t1 * t1 * t2 - (t2 * t2).scale(4)

    def test_evaluate_examples(self):
        d4 = parse_polynomial(ROBINSON, ["x", "y"])
        assert evaluate(d4, [0, 0]) == 1
        assert evaluate(Polynomial.zero(2), [5, 7]) == 0
        p = parse_polynomial("x^2 + y^2", ["x", "y"])
        assert evaluate(p, [Fraction(3, 2), Fraction(1, 2)]) == Fraction(5, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            parse_polynomial("x", ["x"]) + parse_polynomial("x", ["x", "y"])
        with pytest.raises(ValueError):
            evaluate(parse_polynomial("x", ["x"]), [1, 2])


class TestSubstitution:
    def test_identity(self):
        p = parse_polynomial("x^3 - 2*y + 1", ["x", "y"])
        eye = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        assert substitute_linear(p, eye) == p

    def test_quarter_turn_flips_sign_character(self):
        rot = [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]]
        p = parse_polynomial("x^2 - y^2", ["x", "y"])
        assert substitute_linear(p, rot) == -p

    def test_robinson_invariance(self):
        rot = [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]]
        swap = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
        p = parse_polynomial(ROBINSON, ["x", "y"])
        assert substitute_linear(p, rot) == p
        assert substitute_linear(p, swap) == p


@given(rand_poly())
@settings(max_examples=60)
def test_render_parse_round_trip(p):
    text = render_polynomial(p, ["x", "y"])
    assert parse_polynomial(text, ["x", "y"]) == p


@given(rand_poly(nvars=2, max_terms=4, max_deg=3),
       st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                min_size=8, max_size=8))
@settings(max_examples=40)
def test_substitution_composes(p, entries):
    a = [entries[0:2], entries[2:4]]
    b = [entries[4:6], entries[6:8]]
    ab = [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)]
          for i in range(2)]
    assert substitute_linear(substitute_linear(p, a), b) == \
        substitute_linear(p, ab)


@given(rand_poly(max_terms=4, max_deg=3), rand_poly(max_terms=4, max_deg=3),
       st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6),
                min_size=2, max_size=2))
@settings(max_examples=40)
def test_evaluation_is_multiplicative(p, q, point):
    assert evaluate(p * q, point) == evaluate(p, point) * evaluate(q, point)


def _rational_points(nvars, count=5):
    rng = random.Random("poly-kernels")
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(nvars)]
            for _ in range(count)]


def _image(matrix, point):
    return [sum((a * v for a, v in zip(row, point)), Fraction(0)) for row in matrix]


class TestKernels:
    """Both fast paths, checked by exact evaluation at rational points."""

    XYZ = ["x", "y", "z"]

    def test_rational_product(self):
        p = parse_polynomial("1/3*x^2*y - 5/7*x*z + 2/9*z^3 - 11/6", self.XYZ)
        q = parse_polynomial("3/4*y^3 - 1/6*x + 5/14*x*y*z + 7", self.XYZ)
        pq = p * q
        assert all(type(c) is Fraction and c != 0 for c in pq.terms.values())
        for pt in _rational_points(3):
            assert evaluate(pq, pt) == evaluate(p, pt) * evaluate(q, pt)

    def test_zero_and_constant_factors(self):
        p = parse_polynomial("1/3*x^2*y - 5/7*x*z + 2/9", self.XYZ)
        zero = Polynomial.zero(3)
        assert (p * zero).is_zero() and (zero * p).is_zero()
        c = Polynomial.constant(3, Fraction(-2, 5))
        assert c * p == p * c == p.scale(Fraction(-2, 5))
        for pt in _rational_points(3):
            assert evaluate(c * p, pt) == Fraction(-2, 5) * evaluate(p, pt)

    def test_cancelling_product_drops_zero_terms(self):
        x, y = (Polynomial.variable(2, i) for i in range(2))
        p = (x.scale(Fraction(1, 2)) + y.scale(Fraction(1, 3))) * \
            (x.scale(Fraction(1, 2)) - y.scale(Fraction(1, 3)))
        assert p.terms == {(2, 0): Fraction(1, 4), (0, 2): Fraction(-1, 9)}

    def test_non_rational_coefficient_refused(self):
        root = complex(0, 1)
        with pytest.raises(TypeError, match="rational"):
            Polynomial(2, {(1, 0): root, (0, 1): Fraction(1, 3)})
        p = parse_polynomial("x - 1/3*y + 2", ["x", "y"])
        for refused in (lambda: p.scale(root), lambda: p * root, lambda: p + root,
                        lambda: p - root, lambda: Polynomial.constant(2, root)):
            with pytest.raises(TypeError, match="rational"):
                refused()

    def test_substitute_scaled_signed_permutation(self):
        scale = [Fraction(2), Fraction(-1, 3), Fraction(1)]
        perm = [2, 0, 1]
        m = [[scale[i] if j == perm[i] else Fraction(0) for j in range(3)]
             for i in range(3)]
        p = parse_polynomial("x^3*y - 2/5*y^2*z + x*y*z^2 - 7", self.XYZ)
        image = substitute_linear(p, m)
        assert len(image.terms) == len(p.terms)
        for pt in _rational_points(3):
            assert evaluate(image, pt) == evaluate(p, _image(m, pt))

    def test_substitute_collapsing_monomial_matrix(self):
        # y -> 2x and x -> x: distinct terms of p land on one monomial
        m = [[Fraction(1), Fraction(0)], [Fraction(2), Fraction(0)]]
        p = parse_polynomial("x*y - 2*x^2 + y", ["x", "y"])
        image = substitute_linear(p, m)
        assert image.terms == {(1, 0): Fraction(2)}
        for pt in _rational_points(2):
            assert evaluate(image, pt) == evaluate(p, _image(m, pt))

    def test_substitute_general_matrix(self):
        m = [[Fraction(1), Fraction(-2), Fraction(0)],
             [Fraction(1, 2), Fraction(1), Fraction(3)],
             [Fraction(0), Fraction(0), Fraction(-1, 4)]]
        p = parse_polynomial("x^3*y - 2/5*y^2*z + x*y*z^2 - 7", self.XYZ)
        image = substitute_linear(p, m)
        for pt in _rational_points(3):
            assert evaluate(image, pt) == evaluate(p, _image(m, pt))

    def test_compose_with_polynomial_values(self):
        # p in two variables, values in three: compose changes the ring
        p = parse_polynomial("a^3*b - 2/5*b^2 + a*b - 7", ["a", "b"])
        values = [parse_polynomial("x*y - 1/3*z", self.XYZ),
                  parse_polynomial("1/2*y^2 + x - 2", self.XYZ)]
        image = compose(p, values)
        assert image.nvars == 3
        for pt in _rational_points(3):
            assert evaluate(image, pt) == \
                evaluate(p, [evaluate(v, pt) for v in values])
        with pytest.raises(ValueError):
            compose(p, values[:1])
