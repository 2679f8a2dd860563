"""Zero-skipping entrywise matrix operations against a dense entry-by-entry
oracle, results that own their rows, and long division of polynomials."""

import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrmono import (
    QQ,
    NotInRing,
    RingMatrix,
    evaluate_matrix,
    exp_jet,
    laurent_ring,
    linearize_matrix,
    mat_exp_truncated,
    poly_ring,
    series_matrix,
)

RINGS = [QQ, poly_ring(2), laurent_ring(2)]


# -- the dense oracle: every entry visited, zeros included ------------------------


def dense(ring, rows, cols, entry):
    return RingMatrix(ring, [[entry(i, j) for j in range(cols)] for i in range(rows)])


def dense_add(a, b):
    return dense(a.ring, a.rows, a.cols, lambda i, j: a[i, j] + b[i, j])


def dense_sub(a, b):
    return dense(a.ring, a.rows, a.cols, lambda i, j: a[i, j] - b[i, j])


def dense_neg(a):
    return dense(a.ring, a.rows, a.cols, lambda i, j: -a[i, j])


def dense_scale(a, c):
    if a.ring == QQ:
        return dense(a.ring, a.rows, a.cols, lambda i, j: a[i, j] * Fraction(c))
    return dense(a.ring, a.rows, a.cols, lambda i, j: a[i, j].scale(c))


def dense_is_identity(a):
    return a.rows == a.cols and all(a[i, j] == (a.ring.one() if i == j else a.ring.zero())
                                    for i in range(a.rows) for j in range(a.cols))


def dense_evaluate(a, point):
    return dense(QQ, a.rows, a.cols, lambda i, j: a[i, j].evaluate(point))


def dense_jets(a, order):
    target = poly_ring(a.ring.nvars)
    return tuple(dense(QQ if k == 0 else target, a.rows, a.cols,
                       lambda i, j: exp_jet(a[i, j], order)[k]) for k in range(order + 1))


# -- strategies --------------------------------------------------------------------


def entry_pool(ring):
    """Mostly zeros, and pairs such as y1 and -y1 that cancel in a sum."""
    if ring == QQ:
        return [Fraction(0)] * 6 + [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 4)]
    y1, y2 = ring.variable(1), ring.variable(2)
    pool = [y1, -y1, y1 * y2, y2.scale(Fraction(1, 2)), ring.const(3), ring.one(), y1 - y2]
    if ring.laurent:
        pool += [y1 ** -1, -(y1 ** -1) * y2]
    return [ring.zero()] * 6 + pool


@st.composite
def matrices(draw, ring, rows, cols):
    entry = st.sampled_from(entry_pool(ring))
    grid = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    for i in draw(st.sets(st.integers(0, rows - 1))) if rows else ():
        grid[i] = [ring.zero()] * cols
    return RingMatrix(ring, grid)


@st.composite
def same_shape_pairs(draw):
    ring = draw(st.sampled_from(RINGS))
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    a = draw(matrices(ring, rows, cols))
    # b is sometimes -a or a itself, so every entry cancels or doubles.
    b = draw(st.one_of(matrices(ring, rows, cols), st.just(-a), st.just(a)))
    return a, b


@st.composite
def near_identities(draw):
    """Square matrices that are often the identity, or one entry off it."""
    ring = draw(st.sampled_from(RINGS))
    n = draw(st.integers(0, 4))
    rows = RingMatrix.identity(ring, n).entries
    if n and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = draw(st.sampled_from(entry_pool(ring)))
    return RingMatrix(ring, rows)


@st.composite
def laurent_matrices(draw):
    ring = draw(st.sampled_from(RINGS[1:]))
    return draw(matrices(ring, draw(st.integers(0, 4)), draw(st.integers(0, 4))))


# -- zero-skipping operations equal the dense oracle --------------------------------


@settings(max_examples=80, deadline=None)
@given(same_shape_pairs(), st.sampled_from([0, 1, -2, Fraction(1, 2)]))
def test_sums_negation_and_scaling_match_the_dense_oracle(pair, c):
    a, b = pair
    assert a + b == dense_add(a, b)
    assert a - b == dense_sub(a, b)
    assert -a == dense_neg(a)
    assert a.scale(c) == dense_scale(a, c)
    assert (a + b).shape() == (a - b).shape() == a.shape()


@settings(max_examples=80, deadline=None)
@given(near_identities())
def test_is_identity_matches_the_dense_oracle(m):
    assert m.is_identity() == dense_is_identity(m)


def test_is_identity_of_shapes_and_of_an_identity_with_an_extra_entry():
    assert RingMatrix(QQ, []).is_identity()
    assert not RingMatrix(QQ, [[], []]).is_identity()
    assert not RingMatrix(QQ, [[1, 0]]).is_identity()
    rows = RingMatrix.identity(laurent_ring(2), 3).entries
    rows[2][0] = laurent_ring(2).variable(1)
    assert not RingMatrix(laurent_ring(2), rows).is_identity()
    assert RingMatrix(QQ, [[1, 0], [0, 1]]).is_identity()


@settings(max_examples=80, deadline=None)
@given(laurent_matrices(), st.sampled_from([(2, 3), (1, 1), (Fraction(1, 2), -1)]))
def test_evaluation_and_jets_match_the_dense_oracle(m, point):
    assert evaluate_matrix(m, point) == dense_evaluate(m, point)
    assert series_matrix(m) == dense_jets(m, 2)
    assert linearize_matrix(m) == dense_jets(m, 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: matrices(poly_ring(2), n, n)))
def test_truncated_exponential_matches_the_dense_oracle(m):
    # Only entries without a constant term have a finite exponential part.
    m = m.map_entries(lambda e: e - e.terms.get(m.ring.unit_key, 0))
    zero, one, two = mat_exp_truncated(m)
    assert zero == dense(QQ, m.rows, m.rows, lambda i, j: Fraction(int(i == j)))
    assert one == m
    assert two == dense_scale(m * m, Fraction(1, 2))


# -- results own their rows -----------------------------------------------------------


def results(a, b):
    """Every operation with a row-built result on the operands a and b."""
    out = {"add": a + b, "sub": a - b, "neg": -a, "scale": a.scale(3),
           "mul": a * b.transpose(), "transpose": a.transpose(),
           "map": a.map_entries(lambda e: e), "zero": RingMatrix.zero(a.ring, a.rows, a.cols)}
    if a.ring != QQ:
        out["evaluate"] = evaluate_matrix(a, (2, 3))
        out.update({f"jet{k}": jet for k, jet in enumerate(series_matrix(a))})
        out.update({f"lin{k}": jet for k, jet in enumerate(linearize_matrix(a))})
    return out


@pytest.mark.parametrize("ring", RINGS, ids=["QQ", "poly", "laurent"])
def test_changing_a_row_of_a_result_leaves_its_operands_untouched(ring):
    pool = entry_pool(ring)
    a = RingMatrix(ring, [[pool[-1], pool[0], pool[-2]], [pool[0]] * 3])
    b = RingMatrix(ring, [[pool[0], pool[-3], pool[-1]], [pool[-1], pool[-2], pool[0]]])
    before = copy.deepcopy((a.entries, b.entries))
    for name, res in results(a, b).items():
        for row in res.entries:
            row[:] = [None] * len(row)
        assert (a.entries, b.entries) == before, name


# -- long division -------------------------------------------------------------------


def poly_pool(ring):
    y1, y2 = ring.variable(1), ring.variable(2)
    pool = [y1, y1 - y2, y1 * y2 + 1, (y1 + 2).scale(Fraction(2, 3)), y2 * y2 - y1]
    if ring.laurent:
        pool += [y1 ** -1 - y2, (y1 ** -2) * (y2 - 3)]
    return pool


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(RINGS[1:]).flatmap(
    lambda r: st.tuples(st.sampled_from(poly_pool(r) + [r.zero(), r.const(Fraction(-5, 2))]),
                        st.sampled_from(poly_pool(r) + [r.const(4)]))))
def test_exact_division_recovers_the_quotient(pair):
    q, d = pair
    p = q * d
    terms = dict(p.terms), dict(d.terms)
    got = p.exact_div(d)
    assert got == q
    assert (p.terms, d.terms) == terms
    assert all(type(c) is int or c.denominator > 1 for c in got.terms.values())


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(RINGS[1:]).flatmap(
    lambda r: st.tuples(st.sampled_from(poly_pool(r)), st.sampled_from(poly_pool(r)[1:]),
                        st.sampled_from([r.one(), r.const(Fraction(1, 3))]))))
def test_division_with_a_remainder_is_not_in_the_ring(triple):
    # The divisors have two or more terms, so none is a unit, and none
    # divides a nonzero constant: q * d + r leaves the remainder r.
    q, d, r = triple
    with pytest.raises(NotInRing):
        (q * d + r).exact_div(d)
    with pytest.raises(NotInRing):
        r.exact_div(d)
