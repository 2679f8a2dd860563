"""The two-phase sparse elimination over Q (forward, then back-substitution)
against a dense reference Gauss-Jordan: equal particular solutions, kernel
bases, kernel dimensions, NoSolution verdicts and reduced row echelon forms
on random sparse rational systems, whichever derived field is read first."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrmono import QQ, NoSolution, RingMatrix, solve_right
from arrmono.linalg import _back_substitute, _forward
from arrmono.rings import canonical


def dense_rref(rows):
    """Dense Gauss-Jordan; first nonzero row from the top is the pivot."""
    grid = [[Fraction(v) for v in row] for row in rows]
    nrows = len(grid)
    ncols = len(grid[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if grid[i][c] != 0), None)
        if pivot_row is None:
            continue
        grid[r], grid[pivot_row] = grid[pivot_row], grid[r]
        pv = grid[r][c]
        grid[r] = [v / pv for v in grid[r]]
        for i in range(nrows):
            if i != r and grid[i][c] != 0:
                f = grid[i][c]
                grid[i] = [v - f * p for v, p in zip(grid[i], grid[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return grid, pivots


def sparse_rref(rows):
    """The reduced row echelon form by _forward, then _back_substitute, laid
    out as dense_rref lays it out: (the pivot rows by pivot column, then
    zero rows, as Fractions; the pivot columns)."""
    ncols = len(rows[0]) if rows else 0
    sparse = [{j: canonical(v) for j, v in enumerate(row) if v} for row in rows]
    pivots = _forward(sparse, ncols)
    _back_substitute(sparse, pivots)
    out = [[Fraction(sparse[p].get(j, 0)) for j in range(ncols)] for _, p in pivots]
    out.extend([Fraction(0)] * ncols for _ in range(len(rows) - len(pivots)))
    return out, [c for c, _ in pivots]


def dense_solve_right(a, b):
    """Dense Gauss-Jordan on [A | B] over the columns of A.

    Returns (particular solution with free coordinates 0, kernel basis)."""
    m, n, k = a.rows, a.cols, b.cols
    aug = [[Fraction(v) for v in a.row(i)] + [Fraction(v) for v in b.row(i)] for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        pivot_row = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        pivot = aug[r][c]
        aug[r] = [e / pivot for e in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [e - f * p for e, p in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if any(aug[i][c] != 0 for c in range(n, n + k)):
            raise NoSolution(f"inconsistent row {i}")
    rows = [{} for _ in range(n)]
    for pi, c in enumerate(pivots):
        rows[c] = {j: aug[pi][n + j] for j in range(k)}
    cleared = RingMatrix.from_rows(QQ, rows, k)
    kernel = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for pi, c in enumerate(pivots):
            vec[c] = -aug[pi][fc]
        kernel.append(vec)
    return cleared, kernel


ENTRY = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), st.just(Fraction(0)),
                  st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))


def _grid(draw, rows, cols):
    return [[draw(ENTRY) for _ in range(cols)] for _ in range(rows)]


def _product(u, v, rows, cols):
    inner = len(v)
    return [[sum((u[i][t] * v[t][j] for t in range(inner)), Fraction(0))
             for j in range(cols)] for i in range(rows)]


@st.composite
def systems(draw):
    """[A | B] with shapes from empty to 7x7, wide and tall; A is either
    random or a product through a narrower inner dimension (rank deficient),
    and B is either random or A times a random X (consistent)."""
    m = draw(st.integers(0, 7))
    n = draw(st.integers(0, 7))
    k = draw(st.integers(1, 3))
    if draw(st.booleans()):
        inner = draw(st.integers(0, max(0, min(m, n) - 1)))
        a = _product(_grid(draw, m, inner), _grid(draw, inner, n), m, n)
    else:
        a = _grid(draw, m, n)
    if draw(st.booleans()):
        b = _product(a, _grid(draw, n, k), m, k)
    else:
        b = _grid(draw, m, k)
    return a, b


@settings(max_examples=300, deadline=None)
@given(systems(), st.booleans())
def test_sparse_solve_matches_dense_reference(system, kernel_first):
    """Back-substitution runs in place on the first read, so the derived
    fields are read in both orders; kernel_dimension comes before either
    and must not run it."""
    a_rows, b_rows = system
    a, b = RingMatrix(QQ, a_rows), RingMatrix(QQ, b_rows)
    try:
        expected = dense_solve_right(a, b)
    except NoSolution:
        with pytest.raises(NoSolution):
            solve_right(a, b)
        return
    res = solve_right(a, b)
    assert res.kernel_dimension == len(expected[1])
    assert "_reduced" not in vars(res)
    if kernel_first:
        assert res.kernel == expected[1]
    assert res.in_ring and res.denominator == 1
    assert res.cleared == res.numerator == expected[0]
    assert res.kernel == expected[1]
    if res.cleared.rows:
        assert a * res.cleared == b


@settings(max_examples=300, deadline=None)
@given(systems())
def test_sparse_rref_matches_dense_reference(system):
    a_rows, b_rows = system
    for rows in (a_rows, [ra + rb for ra, rb in zip(a_rows, b_rows)]):
        assert sparse_rref(rows) == dense_rref(rows)


def test_integer_entries_and_zero_rows():
    a = RingMatrix(QQ, [[0, 0, 0], [2, 4, 0], [0, 0, 0], [1, 2, 3]])
    b = RingMatrix(QQ, [[0], [2], [0], [4]])
    res = solve_right(a, b)
    assert [row[0] for row in res.cleared.entries] == [1, 0, 1]
    assert res.kernel == [[-2, 1, 0]]
    with pytest.raises(NoSolution):
        solve_right(a, RingMatrix(QQ, [[1], [2], [0], [4]]))


# -- canonical coefficients ---------------------------------------------------
#
# Both phases keep every entry an int when it is integral and a Fraction
# with denominator > 1 otherwise; a float would compare equal to the oracle
# and slip through, so the types are checked as well as the values.


def _canonical(v) -> bool:
    return type(v) is int or (type(v) is Fraction and v.denominator > 1)


def _reduced_pivot_rows(rows):
    ncols = len(rows[0])
    sparse = [{j: canonical(v) for j, v in row.items()}
              for row in RingMatrix(QQ, rows).nonzero_rows()]
    pivots = _forward(sparse, ncols)
    _back_substitute(sparse, pivots)
    for row in sparse:
        assert all(_canonical(v) for v in row.values()), row
    return [[sparse[p].get(j, 0) for j in range(ncols)] for _, p in pivots]


def test_gauss_jordan_on_int_rows_with_pivot_two():
    # Equal row lengths, so the first pivot is row 0 with pivot 2.
    rows = [[2, 4, 1], [6, 1, 2]]
    got = _reduced_pivot_rows(rows)
    expected, _ = dense_rref(rows)
    assert got == expected[:len(got)]
    assert got[0][:2] == [1, 0] and type(got[0][0]) is int
    assert all(type(v) is Fraction for row in sparse_rref(rows)[0] for v in row)


INT_ENTRY = st.one_of(st.just(0), st.just(0), st.integers(-4, 4))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_gauss_jordan_on_int_rows_matches_dense_reference(m, n, data):
    rows = [[data.draw(INT_ENTRY) for _ in range(n)] for _ in range(m)]
    got = _reduced_pivot_rows(rows)
    expected, pivots = dense_rref(rows)
    assert got == expected[:len(pivots)]
