"""Berkowitz characteristic polynomials against the Faddeev-LeVerrier
reference they replaced, and synthetic division on cleared term dicts
against synthetic division in Poly arithmetic."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from arrmono import QQ, CharPoly, RingMatrix, char_poly, laurent_ring, poly_ring
from arrmono.linalg import _from_terms, _terms, divide_linear_terms

Y = poly_ring(3)
X = laurent_ring(2)


def faddeev_leverrier(m):
    """Coefficients of det(zI - M), lowest degree first, by the recursion
    N_k = M (N_{k-1} + c_{n-k+1} I), c_{n-k} = -tr(N_k) / k."""
    n = m.rows
    ring = m.ring
    coeffs = [ring.zero() for _ in range(n + 1)]
    coeffs[n] = ring.one()
    nk = RingMatrix.zero(ring, n, n)
    for k in range(1, n + 1):
        rows = nk.entries
        for i in range(n):
            rows[i][i] = rows[i][i] + coeffs[n - k + 1]
        nk = m * RingMatrix(ring, rows)
        tr = nk.trace()
        coeffs[n - k] = -(tr.scale(Fraction(1, k)) if ring is not QQ else tr * Fraction(1, k))
    return tuple(coeffs)


def poly_divide_linear(coeffs, root):
    """Synthetic division by (z - root) in the coefficients' own arithmetic."""
    out = []
    carry = coeffs[-1]
    for i in range(len(coeffs) - 2, -1, -1):
        out.append(carry)
        carry = coeffs[i] + root * carry
    if carry:
        return None
    return tuple(reversed(out))


def divide_linear(cp, root):
    """The exact quotient of cp by (z - root) as a coefficient tuple, by
    divide_linear_terms on the cleared coefficients; None on a remainder."""
    coeffs, d = cp.cleared()
    out = divide_linear_terms(coeffs, _terms(root), cp.ring)
    return None if out is None else tuple(_from_terms(cp.ring, t, d) for t in out)


def square(entry):
    return st.integers(0, 6).flatmap(
        lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


rationals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4]))
linear_forms = st.lists(st.integers(-3, 3), min_size=3, max_size=3).map(
    lambda cs: sum((Y.variable(j + 1).scale(c) for j, c in enumerate(cs) if c), Y.zero()))
laurent_entries = st.lists(
    st.tuples(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.integers(-2, 2)),
    max_size=2).map(lambda ts: sum((X.monomial(e, c) for e, c in ts), X.zero()))


@settings(max_examples=80, deadline=None)
@given(square(rationals))
def test_char_poly_matches_oracle_over_q(rows):
    m = RingMatrix(QQ, rows)
    assert char_poly(m).coeffs == faddeev_leverrier(m)


@settings(max_examples=30, deadline=None)
@given(square(linear_forms))
def test_char_poly_matches_oracle_over_linear_forms(rows):
    m = RingMatrix(Y, rows)
    assert char_poly(m).coeffs == faddeev_leverrier(m)


@settings(max_examples=30, deadline=None)
@given(square(laurent_entries), st.sampled_from([1, 2, 3]))
def test_char_poly_matches_oracle_over_laurent(rows, den):
    # A shared denominator on top of negative exponents.
    m = RingMatrix(X, rows).map_entries(lambda e: e.scale(Fraction(1, den)))
    assert char_poly(m).coeffs == faddeev_leverrier(m)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), max_size=4),
       st.lists(st.integers(-2, 2), min_size=3, max_size=3),
       st.sampled_from([1, 2]), st.integers(-2, 2))
def test_divide_linear_matches_poly_arithmetic(quotient, root_coeffs, den, shift):
    # p = (z - root) * q + shift, with q monic; divisible exactly when shift = 0.
    root = sum((Y.variable(j + 1).scale(c) for j, c in enumerate(root_coeffs) if c), Y.zero())
    q = [sum((Y.variable(j + 1).scale(Fraction(c, den)) for j, c in enumerate(cs) if c),
             Y.zero()) for cs in quotient] + [Y.one()]
    p = [Y.zero()] * (len(q) + 1)
    for i, c in enumerate(q):
        p[i + 1] = p[i + 1] + c
        p[i] = p[i] - root * c
    p[0] = p[0] + Y.const(shift)
    got = divide_linear(CharPoly(Y, tuple(p)), root)
    want = poly_divide_linear(p, root)
    assert got == want
    assert (want is None) == (shift != 0)
    if want is not None:
        assert want == tuple(q)


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=6), rationals)
def test_divide_linear_over_q(coeffs, root):
    cp = CharPoly(QQ, tuple(coeffs) + (Fraction(1),))
    got = divide_linear(cp, root)
    want = poly_divide_linear(cp.coeffs, root)
    assert got == want
