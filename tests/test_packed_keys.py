"""Packed monomial keys against the tuple-keyed oracle (tuple_poly), and the
named error at the edge of a field."""

from __future__ import annotations

import io
from contextlib import redirect_stderr
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrmono import ExponentOverflow, NotInRing, ParseError, exp_jet, laurent_ring, poly_ring
from arrmono.cli import main
from arrmono.rings import FIELD_EXPONENT, MAX_EXPONENT, MAX_VARIABLES, Poly, format_poly

from conftest import FIXTURES
from tuple_poly import TuplePoly


def oracle(p: Poly) -> TuplePoly:
    """The oracle's copy of p, read through the ring's key API."""
    ring = p.ring
    return TuplePoly(ring.nvars, ring.laurent, ring.var,
                     {ring.exponents(k): c for k, c in p.terms.items()})


def agrees(p: Poly, t: TuplePoly) -> bool:
    """p and t hold the same terms, list them in the same order and print
    the same."""
    return (oracle(p).terms == t.terms and p.sorted_terms() == t.sorted_terms()
            and format_poly(p) == str(t))


coeffs = st.one_of(st.integers(-5, 5),
                   st.fractions(min_value=-3, max_value=3, max_denominator=4)).filter(bool)


def exponent(laurent: bool, wide: bool):
    low = -3 if laurent else 0
    small = st.integers(low, 3)
    if not wide:
        return small
    edges = [MAX_EXPONENT, MAX_EXPONENT - 1] + ([-MAX_EXPONENT, 1 - MAX_EXPONENT] if laurent else [])
    return st.one_of(small, st.sampled_from(edges),
                     st.integers(-MAX_EXPONENT if laurent else 0, MAX_EXPONENT))


def polys(ring, wide: bool, max_terms: int = 4):
    term = st.tuples(st.lists(exponent(ring.laurent, wide), min_size=ring.nvars,
                              max_size=ring.nvars), coeffs)
    return st.lists(term, max_size=max_terms).map(
        lambda ts: sum((ring.monomial(e, c) for e, c in ts), ring.zero()))


rings = st.builds(lambda n, laurent: laurent_ring(n) if laurent else poly_ring(n),
                  st.integers(1, 20), st.booleans())


@settings(max_examples=100, deadline=None)
@given(rings.flatmap(lambda r: st.tuples(polys(r, True), polys(r, True), st.integers(0, 3))))
def test_arithmetic_agrees_with_the_tuple_oracle(case):
    p, q, k = case
    tp, tq = oracle(p), oracle(q)
    assert agrees(p, tp) and agrees(q, tq)
    assert agrees(p + q, tp + tq)
    assert agrees(p - q, tp - tq)
    assert agrees(-p, -tp)
    assert agrees(p * q, tp * tq)
    assert agrees(p ** k, tp ** k)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 20).flatmap(lambda n: st.tuples(
    polys(laurent_ring(n), True, max_terms=1).filter(bool), st.integers(-3, -1))))
def test_negative_powers_of_unit_monomials_agree(case):
    m, k = case
    assert agrees(m ** k, oracle(m) ** k)
    assert m ** k * m ** -k == laurent_ring(m.ring.nvars).one()


def division_cases(r, wide: bool):
    """(p, q, content, rest): a quotient, a divisor times a monomial content
    and a remainder."""
    return st.tuples(polys(r, wide), polys(r, wide).filter(bool),
                     polys(r, wide, max_terms=1).filter(bool), polys(r, False))


@settings(max_examples=40, deadline=None)
@given(rings.flatmap(lambda r: st.tuples(division_cases(r, True), division_cases(r, False))))
def test_exact_division_agrees_with_the_tuple_oracle(cases):
    """Quotients of products, divisors with monomial content included, and
    divisions with a remainder, which both refuse.  A remainder meets small
    exponents only: long division by y1 - y2 walks through y1^k y2^(e - k)
    for every k, so with an exponent near MAX_EXPONENT it would take a
    million steps before it stops."""
    (p, q, content, _), (p_small, q_small, content_small, r) = cases
    d = q * content
    assert agrees((p * d).exact_div(d), oracle(p * d).exact_div(oracle(d)))
    p, d = p_small, q_small * content_small
    want = oracle(p * d + r).exact_div(oracle(d))
    if want is None:
        with pytest.raises(NotInRing):
            (p * d + r).exact_div(d)
    else:
        assert agrees((p * d + r).exact_div(d), want)


@settings(max_examples=100, deadline=None)
@given(rings.flatmap(lambda r: st.tuples(
    polys(r, True), st.integers(1, r.nvars),
    st.lists(st.integers(-2 if r.laurent else 0, 2), min_size=r.nvars, max_size=r.nvars),
    st.sampled_from([1, -1]), polys(r, False), polys(r, False, max_terms=3))))
def test_substitution_agrees_with_the_tuple_oracle(case):
    """Wide exponents meet a unit monomial replacement; a polynomial
    replacement meets small exponents."""
    p, j, mono, sign, small, replacement = case
    unit = p.ring.monomial(mono, sign)
    assert agrees(p.substitute(j, unit), oracle(p).substitute(j, oracle(unit)))
    if not p.ring.laurent:
        assert agrees(small.substitute(j, replacement),
                      oracle(small).substitute(j, oracle(replacement)))


@settings(max_examples=100, deadline=None)
@given(rings.flatmap(lambda r: st.tuples(polys(r, False), polys(r, True), st.lists(
    st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]),
    min_size=r.nvars, max_size=r.nvars))))
def test_evaluation_and_jets_agree_with_the_tuple_oracle(case):
    small, wide, point = case
    assert small.evaluate(point) == oracle(small).evaluate(point)
    ones = [(-1) ** k for k in range(wide.ring.nvars)]
    assert wide.evaluate(ones) == oracle(wide).evaluate(ones)
    for p in (small, wide):
        value, linear, quadratic = exp_jet(p, 2)
        t_value, t_linear, t_quadratic = oracle(p).exp_jet()
        assert value == t_value and agrees(linear, t_linear) and agrees(quadratic, t_quadratic)


def test_the_widest_ring_agrees_with_the_tuple_oracle():
    """1024 variables: monomials with the extreme exponents, and one with
    a nonzero exponent in every 32nd variable, first and last included."""
    n = MAX_VARIABLES
    ring = laurent_ring(n)
    dense = [(-1) ** j * (j % 7 + 1) if j % 32 == 0 or j == n - 1 else 0 for j in range(n)]
    a = ring.monomial({1: MAX_EXPONENT, n: -MAX_EXPONENT}, 3) + ring.monomial(dense) - 1
    b = ring.monomial({512: 2, 513: -1}, Fraction(1, 2)) + ring.variable(n)
    ta, tb = oracle(a), oracle(b)
    assert agrees(a, ta) and agrees(b, tb)
    assert agrees(a + b, ta + tb) and agrees(a - b, ta - tb) and agrees(a * b, ta * tb)
    assert agrees(b ** 2, tb ** 2) and agrees(ring.variable(7) ** -3, oracle(ring.variable(7)) ** -3)
    assert agrees((a * b).exact_div(b), ta)
    assert agrees(a.substitute(n, ring.variable(1)), ta.substitute(n, oracle(ring.variable(1))))
    ones = [1] * n
    assert a.evaluate(ones) == ta.evaluate(ones)
    value, linear, quadratic = exp_jet(a, 2)
    t_value, t_linear, t_quadratic = ta.exp_jet()
    assert value == t_value and agrees(linear, t_linear) and agrees(quadratic, t_quadratic)


def test_int_order_is_the_graded_lex_order():
    ring = laurent_ring(3)
    vectors = [(a, b, c) for a in (-2, 0, 1) for b in (-1, 0, 3) for c in (-FIELD_EXPONENT, 0, 5)]
    by_key = sorted(vectors, key=ring.key)
    assert by_key == sorted(vectors, key=lambda e: (sum(e), e))
    assert [ring.exponents(ring.key(e)) for e in vectors] == vectors


@pytest.mark.parametrize("n", [1, 5, MAX_VARIABLES])
def test_linear_variable_names_exactly_the_variables(n):
    for ring in (poly_ring(n), laurent_ring(n)):
        for j in {0, n // 2, n - 1}:
            unit = [int(i == j) for i in range(n)]
            assert ring.linear_variable(ring.key(unit)) == j
            assert ring.linear_variable(ring.key([2 * k for k in unit])) is None
            assert ring.linear_variable(ring.key([-k for k in unit])) is None
        assert ring.linear_variable(ring.unit_key) is None
        if n > 1:
            assert ring.linear_variable(ring.key([1, 1] + [0] * (n - 2))) is None
            assert ring.linear_variable(ring.key([2, -1] + [0] * (n - 2))) is None


# -- the edge of a field -----------------------------------------------------------


def test_a_product_past_the_field_width_is_a_named_error():
    ring = laurent_ring(3)
    half = ring.monomial({2: FIELD_EXPONENT // 2})
    with pytest.raises(ExponentOverflow):
        half * half
    low = ring.monomial({3: -FIELD_EXPONENT // 2})
    with pytest.raises(ExponentOverflow):
        low * low * ring.variable(3) ** -1
    with pytest.raises(ExponentOverflow):
        ring.variable(1) ** FIELD_EXPONENT
    with pytest.raises(ExponentOverflow):
        (ring.variable(1) * 2) ** -(FIELD_EXPONENT + 1)
    with pytest.raises(ExponentOverflow):
        ring.monomial({1: FIELD_EXPONENT})
    assert issubclass(ExponentOverflow, ParseError)
    # The largest exponents a field holds are still exact.
    top = ring.monomial({1: FIELD_EXPONENT - 1, 2: -FIELD_EXPONENT})
    assert top.sorted_terms() == [((FIELD_EXPONENT - 1, -FIELD_EXPONENT, 0), 1)]
    assert (top * ring.variable(1) ** -1).sorted_terms() == [
        ((FIELD_EXPONENT - 2, -FIELD_EXPONENT, 0), 1)]


def test_the_command_line_maps_a_field_overflow_to_exit_2(tmp_path):
    """A projection entry whose product passes the field width."""
    text = (FIXTURES / "pencil4_proj_res.txt").read_text()
    factors = "*".join([f"x1^{MAX_EXPONENT}"] * (FIELD_EXPONENT // MAX_EXPONENT + 1))
    lines = text.splitlines()
    row = next(i for i, ln in enumerate(lines) if ln.strip() == "xi") + 1
    lines[row] = ",".join([factors] + lines[row].split(",")[1:])
    path = tmp_path / "overflow_proj.txt"
    path.write_text("\n".join(lines) + "\n")
    err = io.StringIO()
    with redirect_stderr(err):
        code = main(["induced", "-a", str(FIXTURES / "pencil4.arr"),
                     "-p", str(FIXTURES / "pencil4.pres"),
                     "-e", str(FIXTURES / "pencil4_twist12.endo"),
                     "-c", str(FIXTURES / "pencil4_twist12.cert"), "--xi", str(path)])
    assert code == 2
    assert err.getvalue().startswith("parse error") and "range of its packed field" in err.getvalue()
    assert "Traceback" not in err.getvalue()
