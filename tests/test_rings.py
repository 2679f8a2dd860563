"""Ring kernel: exact arithmetic, the exp 2-jet, linear parts, parsing."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrmono import (
    ZeroAtPole,
    exp_jet,
    laurent_ring,
    parse_poly,
    poly_ring,
)
from arrmono.rings import poly_from_pairs, poly_to_pairs

L = laurent_ring(4, var="x")
R = poly_ring(4, var="y")
X = [L.variable(j) for j in range(1, 5)]
Y = [R.variable(j) for j in range(1, 5)]


def test_exp_substitute_single_variable():
    s = exp_jet(X[0], 2, R)
    assert s[0] == 1
    assert s[1] == Y[0]
    assert s[2] == (Y[0] * Y[0]).scale(Fraction(1, 2))


def test_exp_substitute_cancels_constants():
    s = exp_jet(X[0] - 1, 1, R)
    assert s[0] == 0
    assert s[1] == Y[0]


def test_exp_substitute_product_monomial():
    s = exp_jet(X[0] * X[1], 2, R)
    assert s[1] == Y[0] + Y[1]
    expected = (Y[0] * Y[0] + (Y[0] * Y[1]).scale(2) + Y[1] * Y[1]).scale(Fraction(1, 2))
    assert s[2] == expected


@pytest.mark.parametrize("order", [0, 3])
def test_exp_jet_rejects_other_orders(order):
    with pytest.raises(ValueError):
        exp_jet(X[0], order, R)


@pytest.mark.parametrize("expr,expected", [
    ("x3 - x2*x3", "-y2"),
    ("1 - x4", "-y4"),
    ("1", "0"),
])
def test_linear_part_examples(expr, expected):
    assert exp_jet(parse_poly(expr, L), 1, R)[1] == parse_poly(expected, R)


def test_linear_part_of_powers():
    for m in range(-4, 5):
        assert exp_jet(L.monomial({2: m}), 1, R)[1] == Y[1].scale(m)


def test_linearize_reports_value_at_one():
    c0, lin = exp_jet(parse_poly("x1*x2 - x3", L), 1, R)
    assert c0 == 0
    assert lin == Y[0] + Y[1] - Y[2]


def test_evaluate_examples():
    assert (X[0] * X[1]).evaluate([2, 3, 5, 7]) == 6
    assert (X[0] - 1).evaluate([1, 1, 1, 1]) == 0
    assert (Y[0] + Y[1]).evaluate([Fraction(1, 2), Fraction(1, 3), 0, 0]) == Fraction(5, 6)


def test_evaluate_pole():
    with pytest.raises(ZeroAtPole):
        L.monomial({1: -1}).evaluate([0, 1, 1, 1])


small_coeff = st.integers(min_value=-4, max_value=4)


def poly_strategy(ring, min_exp):
    exps = st.tuples(*[st.integers(min_value=min_exp, max_value=2)] * 4)
    term = st.tuples(exps, small_coeff)
    return st.lists(term, max_size=4).map(
        lambda terms: sum((ring.monomial(e, c) for e, c in terms), ring.zero()))


@settings(max_examples=40, deadline=None)
@given(poly_strategy(L, -2), poly_strategy(L, -2), poly_strategy(L, -2))
def test_ring_distributivity(p, q, r):
    assert (p + q) * r == p * r + q * r


def _jet_product(a, b):
    """Parts 0..2 of the product of two 2-jets, truncated beyond degree 2;
    part 0 is a rational, parts 1 and 2 are polynomials."""
    return (a[0] * b[0],
            a[1].scale(b[0]) + b[1].scale(a[0]),
            a[2].scale(b[0]) + a[1] * b[1] + b[2].scale(a[0]))


@settings(max_examples=25, deadline=None)
@given(poly_strategy(L, -1), poly_strategy(L, -1))
def test_exp_substitute_is_multiplicative_up_to_truncation(p, q):
    assert exp_jet(p * q, 2, R) == _jet_product(exp_jet(p, 2, R), exp_jet(q, 2, R))


def _series_oracle(p, point, cap):
    """Degree-cap Taylor coefficients of t -> p(exp(t * point)) by direct
    univariate series arithmetic, independent of the n-variable code path."""
    out = [Fraction(0)] * (cap + 1)
    fact = [1, 1, 2, 6, 24][:cap + 1]
    for e, c in p.terms.items():
        a = sum(Fraction(m) * v for m, v in zip(e, point))  # exponent of e^{a t}
        for k in range(cap + 1):
            out[k] += c * a ** k / fact[k]
    return out


@settings(max_examples=25, deadline=None)
@given(poly_strategy(L, -2),
       st.tuples(*[st.fractions(min_value=-2, max_value=2).filter(lambda v: v != 0)] * 4))
def test_exp_substitute_matches_taylor_oracle(p, point):
    cap = 2
    jet = exp_jet(p, cap, R)
    oracle = _series_oracle(p, point, cap)
    assert jet[0] == oracle[0]
    for k in range(1, cap + 1):
        assert jet[k].evaluate(point) == oracle[k]


@settings(max_examples=40, deadline=None)
@given(poly_strategy(L, -2))
def test_serialization_round_trip(p):
    assert poly_from_pairs(poly_to_pairs(p), L) == p


def test_parse_poly_round_trip_display():
    p = parse_poly("x1*x2 - 1", L)
    assert str(p) == "x1*x2 - 1"
    assert parse_poly(str(p), L) == p
    q = parse_poly("-1/2*y1^2 + y3", R)
    assert parse_poly(str(q), R) == q


def test_exact_division():
    p = parse_poly("(x1*x2 - 1)*(x3 - x2*x3)", L)
    assert p.exact_div(parse_poly("x1*x2 - 1", L)) == parse_poly("x3 - x2*x3", L)
    m = L.monomial({1: -2}) * (X[1] - 1)
    assert m.exact_div(L.monomial({1: -1})) == L.monomial({1: -1}) * (X[1] - 1)


def test_exact_division_by_laurent_divisor_with_monomial_content():
    # x1*x2 - x1 = x1 * (x2 - 1): the quotient is a unit with a negative power.
    p = parse_poly("x2 - 1", L)
    assert p.exact_div(parse_poly("x1*x2 - x1", L)) == L.monomial({1: -1})
    assert parse_poly("x1^2*x3 + x1^2", L).exact_div(parse_poly("x1*x3 + x1", L)) == X[0]


@settings(max_examples=60, deadline=None)
@given(poly_strategy(L, -2), poly_strategy(L, -2))
def test_exact_division_inverts_multiplication(p, q):
    assume(not q.is_zero())
    assert (p * q).exact_div(q) == p


def test_substitute_locus_relations():
    residue = parse_poly("(1 - x2)*(x1*x2*x3 - 1)", L)
    assert residue.substitute(3, L.monomial({1: -1, 2: -1})).is_zero()
    assert parse_poly("(1 - x4)*(x2 - 1)", L).substitute(4, L.one()).is_zero()
