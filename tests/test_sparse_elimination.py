"""solve_right over Q against a dense reference Gauss-Jordan: the
fraction-free elimination of [A | B] that decides consistency, and the
back-substitution on its echelon that every answer is read off.  Equal particular
solutions, kernel bases, kernel dimensions, NoSolution verdicts, pivot
columns and reduced row echelon forms on random sparse rational systems,
whichever answer is read first."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrmono import QQ, NoSolution, RingMatrix, solve_right


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


def solved_rref(rows):
    """The reduced row echelon form read off solve_right's kernel against a
    zero right side, laid out as dense_rref lays it out: (the pivot rows
    by pivot column, then zero rows; the pivot columns).  The kernel vector
    of a free column holds 1 there, as its last nonzero, and the pivot row
    of column c holds 1 at c and -k[c] at the free column of each kernel
    vector k.  The kernel's entries are asserted to be Fractions."""
    ncols = len(rows[0]) if rows else 0
    kernel = solve_right(RingMatrix(QQ, rows), RingMatrix.zero(QQ, len(rows), 1)).kernel
    assert all(type(v) is Fraction for k in kernel for v in k)
    free = {max(j for j, v in enumerate(k) if v): k for k in kernel}
    assert all(k[fc] == 1 for fc, k in free.items())
    pivots = [c for c in range(ncols) if c not in free]
    out = [[Fraction(int(j == c)) if j not in free else -free[j][c] for j in range(ncols)]
           for c in pivots]
    out.extend([Fraction(0)] * ncols for _ in range(len(rows) - len(pivots)))
    return out, pivots


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
    """The back-substitution runs on the first read, so the answers are
    read in both orders; kernel_dimension comes before either and must not
    run it.  The answers are Fractions, whatever ints the solve ran on."""
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
    assert "_solved" not in vars(res)
    if kernel_first:
        assert res.kernel == expected[1]
    assert res.in_ring and res.denominator == 1
    assert res.cleared == res.numerator == expected[0]
    assert res.kernel == expected[1]
    assert all(type(v) is Fraction for row in res.cleared.nonzero_rows() for v in row.values())
    assert all(type(v) is Fraction for k in res.kernel for v in k)
    if res.cleared.rows:
        assert a * res.cleared == b


@settings(max_examples=300, deadline=None)
@given(systems())
def test_sparse_rref_matches_dense_reference(system):
    """The reduced row echelon form that solve_right's kernel spells out,
    with its pivot columns, is the dense reference's."""
    a_rows, b_rows = system
    for rows in (a_rows, [ra + rb for ra, rb in zip(a_rows, b_rows)]):
        assert solved_rref(rows) == dense_rref(rows)


def test_integer_entries_and_zero_rows():
    a = RingMatrix(QQ, [[0, 0, 0], [2, 4, 0], [0, 0, 0], [1, 2, 3]])
    b = RingMatrix(QQ, [[0], [2], [0], [4]])
    res = solve_right(a, b)
    assert [row[0] for row in res.cleared.entries] == [1, 0, 1]
    assert res.kernel == [[-2, 1, 0]]
    with pytest.raises(NoSolution):
        solve_right(a, RingMatrix(QQ, [[1], [2], [0], [4]]))


# -- int rows ---------------------------------------------------------------------
#
# Integral rows enter the elimination as they are, and solve_right's
# answers are Fractions; a float would compare equal to the oracle and
# slip through, so the types are checked as well as the values.


def test_gauss_jordan_on_int_rows_with_pivot_two():
    # The pivot 2 of int rows gives Fractions in the reduced rows.
    rows = [[2, 4, 1], [6, 1, 2]]
    got = solved_rref(rows)
    assert got == dense_rref(rows)
    assert got[0][0] == [1, 0, Fraction(7, 22)]
    assert all(type(v) is Fraction for row in got[0] for v in row)


INT_ENTRY = st.one_of(st.just(0), st.just(0), st.integers(-4, 4))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_gauss_jordan_on_int_rows_matches_dense_reference(m, n, data):
    rows = [[data.draw(INT_ENTRY) for _ in range(n)] for _ in range(m)]
    assert solved_rref(rows) == dense_rref(rows)
