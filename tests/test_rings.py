"""Ring kernel: exact arithmetic, the exp 2-jet, linear parts, parsing."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrmono import (
    ParseError,
    ZeroAtPole,
    exp_jet,
    laurent_ring,
    parse_poly,
    poly_ring,
)
from arrmono.rings import Poly, poly_from_pairs, poly_to_pairs

L = laurent_ring(4)
R = poly_ring(4)
X = [L.variable(j) for j in range(1, 5)]
Y = [R.variable(j) for j in range(1, 5)]


def test_each_ring_is_one_object_per_variable_count():
    """poly_ring is the y ring and laurent_ring the x ring, one object per
    variable count, and the exp jet lands in that same y ring."""
    assert poly_ring(4) is R and laurent_ring(4) is L
    assert (R.var, R.laurent, L.var, L.laurent) == ("y", False, "x", True)
    assert exp_jet(X[0], 2)[2].ring is R


def test_exp_substitute_single_variable():
    s = exp_jet(X[0], 2)
    assert s[0] == 1
    assert s[1] == Y[0]
    assert s[2] == (Y[0] * Y[0]).scale(Fraction(1, 2))


def test_exp_substitute_cancels_constants():
    s = exp_jet(X[0] - 1, 1)
    assert s[0] == 0
    assert s[1] == Y[0]


def test_exp_substitute_product_monomial():
    s = exp_jet(X[0] * X[1], 2)
    assert s[1] == Y[0] + Y[1]
    expected = (Y[0] * Y[0] + (Y[0] * Y[1]).scale(2) + Y[1] * Y[1]).scale(Fraction(1, 2))
    assert s[2] == expected


@pytest.mark.parametrize("order", [0, 3])
def test_exp_jet_rejects_other_orders(order):
    with pytest.raises(ValueError):
        exp_jet(X[0], order)


@pytest.mark.parametrize("expr,expected", [
    ("x3 - x2*x3", "-y2"),
    ("1 - x4", "-y4"),
    ("1", "0"),
])
def test_linear_part_examples(expr, expected):
    assert exp_jet(parse_poly(expr, L), 1)[1] == parse_poly(expected, R)


def test_linear_part_of_powers():
    for m in range(-4, 5):
        assert exp_jet(L.monomial({2: m}), 1)[1] == Y[1].scale(m)


def test_linearize_reports_value_at_one():
    c0, lin = exp_jet(parse_poly("x1*x2 - x3", L), 1)
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
    assert exp_jet(p * q, 2) == _jet_product(exp_jet(p, 2), exp_jet(q, 2))


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
    jet = exp_jet(p, cap)
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


# -- canonical coefficients against an all-Fraction oracle --------------------
#
# Every coefficient is an int when integral and otherwise a Fraction with
# denominator > 1, never a float.  A float or an integral Fraction compares
# equal to the right value, so each result is checked for its types and then
# against the oracle below, which keeps every coefficient a Fraction and
# shares no code with rings.


def _canonical(p) -> bool:
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in p.terms.values())


def _o_clean(d):
    return {e: c for e, c in d.items() if c}


def _o_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, Fraction(0)) + c
    return _o_clean(out)


def _o_scale(p, s):
    return _o_clean({e: Fraction(s) * c for e, c in p.items()})


def _o_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return _o_clean(out)


def _o_pow(p, n):
    if n < 0:
        ((e, c),) = p.items()
        return {tuple(k * n for k in e): Fraction(c) ** n}
    out = {(0,) * 4: Fraction(1)}
    for _ in range(n):
        out = _o_mul(out, p)
    return out


def _o_substitute(p, j, mono):
    """Replace v_j by the monomial {me: mc}; negative powers included."""
    ((me, mc),) = mono.items()
    out = {}
    for e, c in p.items():
        k = e[j - 1]
        rest = e[:j - 1] + (0,) + e[j:]
        out = _o_add(out, {tuple(a + k * b for a, b in zip(rest, me)): c * Fraction(mc) ** k})
    return out


def _o_exp_jet(p):
    """Parts 0, 1 and 2 of p(exp(y)): c*exp(e.y) -> c, c*(e.y), c*(e.y)^2/2."""
    value, linear, quadratic = Fraction(0), {}, {}
    for e, c in p.items():
        value += c
        lin = {}
        for i, m in enumerate(e):
            if m:
                lin[tuple(int(t == i) for t in range(4))] = Fraction(m)
        linear = _o_add(linear, _o_scale(lin, c))
        quadratic = _o_add(quadratic, _o_scale(_o_mul(lin, lin), c / 2))
    return value, linear, quadratic


rational_coeff = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4)).filter(lambda c: c != 0)


def oracle_strategy(min_exp):
    """(Poly over L, the same polynomial as an all-Fraction oracle dict)."""
    exps = st.tuples(*[st.integers(min_value=min_exp, max_value=2)] * 4)
    terms = st.lists(st.tuples(exps, rational_coeff), max_size=4)

    def build(ts):
        oracle = {}
        for e, c in ts:
            oracle = _o_add(oracle, {e: Fraction(c)})
        return sum((L.monomial(e, c) for e, c in ts), L.zero()), oracle
    return terms.map(build)


unit_monomials = st.tuples(st.tuples(*[st.integers(-2, 2)] * 4), rational_coeff)


@settings(max_examples=80, deadline=None)
@given(oracle_strategy(-2), oracle_strategy(-2), rational_coeff)
def test_ring_operations_keep_canonical_coefficients(a, b, s):
    (p, op), (q, oq) = a, b
    assert _canonical(p) and p.terms == op
    cases = [(p + q, _o_add(op, oq)),
             (p - q, _o_add(op, _o_scale(oq, -1))),
             (-p, _o_scale(op, -1)),
             (p * q, _o_mul(op, oq)),
             (p.scale(s), _o_scale(op, s)),
             (p ** 2, _o_pow(op, 2))]
    if oq:
        # The product rebuilt from the oracle, so the quotient is exact.
        cases.append((Poly(L, _o_mul(op, oq)).exact_div(q), op))
    for got, want in cases:
        assert _canonical(got)
        assert got.terms == want


@settings(max_examples=80, deadline=None)
@given(unit_monomials, st.integers(-3, 3))
def test_powers_of_monomials_keep_canonical_coefficients(mono, n):
    e, c = mono
    got = L.monomial(e, c) ** n
    assert _canonical(got)
    assert got.terms == _o_pow({e: Fraction(c)}, n)


@settings(max_examples=80, deadline=None)
@given(oracle_strategy(-2), st.integers(1, 4), unit_monomials)
def test_substitute_keeps_canonical_coefficients(a, j, mono):
    p, op = a
    e, c = mono
    got = p.substitute(j, L.monomial(e, c))
    assert _canonical(got)
    assert got.terms == _o_substitute(op, j, {e: Fraction(c)})


@settings(max_examples=80, deadline=None)
@given(oracle_strategy(-2))
def test_exp_jet_keeps_canonical_coefficients(a):
    p, op = a
    value, linear, quadratic = exp_jet(p, 2)
    o_value, o_linear, o_quadratic = _o_exp_jet(op)
    assert type(value) is Fraction and value == o_value
    assert _canonical(linear) and linear.terms == o_linear
    assert _canonical(quadratic) and quadratic.terms == o_quadratic


@settings(max_examples=80, deadline=None)
@given(oracle_strategy(-2))
def test_parse_format_round_trip_keeps_canonical_coefficients(a):
    p, op = a
    for got in (parse_poly(str(p), L), poly_from_pairs(poly_to_pairs(p), L)):
        assert _canonical(got)
        assert got.terms == op


def test_negative_power_of_scaled_monomial_is_exact():
    # Once 0.5, a float, from int ** -1.
    got = parse_poly("2*x1*x2^-1", L) ** -1
    assert got.terms == {(-1, 1, 0, 0): Fraction(1, 2)}
    assert type(got.terms[(-1, 1, 0, 0)]) is Fraction


def test_negative_power_of_unit_monomial_stays_int():
    # Once 1.0, a float, from int ** -2.
    got = X[0] ** -2
    assert got.terms == {(-2, 0, 0, 0): 1}
    assert type(got.terms[(-2, 0, 0, 0)]) is int


def test_zero_denominator_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_poly("1/0*x1", L)
