"""The one fraction-free elimination kernel against test-local oracles:
the row and column rank profiles and the pivot minor of the row-insertion
driver over Z, Q, Q[y] and the Laurent ring, and the ranks, determinants,
NoSolution verdicts and SolveResults built on it, rank-deficient,
inconsistent and non-ring systems included.  No oracle here calls the
driver or anything built on it."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arrmono import (
    QQ,
    NoSolution,
    NotInRing,
    RingMatrix,
    char_poly,
    laurent_ring,
    poly_ring,
    rational_rank,
    solve_right,
    symbolic_det,
)
from arrmono.linalg import fraction_free_echelon, generic_rank
from arrmono.rings import PolyRing
from conftest import mat

L2 = laurent_ring(2)
R2 = poly_ring(2)


# -- the replaced loops, kept as oracles ----------------------------------------------


def int_pivots_oracle(grid):
    """Integer Bareiss, in place; the pivot columns."""
    rows = len(grid)
    cols = len(grid[0]) if rows else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if grid[i][c] != 0), None)
        if pivot_row is None:
            continue
        grid[r], grid[pivot_row] = grid[pivot_row], grid[r]
        pivot = grid[r][c]
        for i in range(r + 1, rows):
            fi = grid[i][c]
            for j in range(c, cols):
                grid[i][j] = (grid[i][j] * pivot - fi * grid[r][j]) // prev
        prev = pivot
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def rational_det_oracle(m):
    """Bareiss over Fractions, sign by row swaps."""
    n = m.rows
    if n == 0:
        return Fraction(1)
    grid = [[Fraction(v) for v in row] for row in m.entries]
    sign = 1
    prev = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if grid[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            grid[c], grid[pivot_row] = grid[pivot_row], grid[c]
            sign = -sign
        pivot = grid[c][c]
        for i in range(c + 1, n):
            fi = grid[i][c]
            for j in range(c, n):
                grid[i][j] = (grid[i][j] * pivot - fi * grid[c][j]) / prev
        prev = pivot
    return sign * grid[n - 1][n - 1]


def poly_det_oracle(m):
    """Bareiss over the polynomial ring, sign by row swaps."""
    n = m.rows
    if n == 0:
        return m.ring.one()
    grid = [list(row) for row in m.entries]
    sign = 1
    prev = m.ring.one()
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if not grid[i][c].is_zero()), None)
        if pivot_row is None:
            return m.ring.zero()
        if pivot_row != c:
            grid[c], grid[pivot_row] = grid[pivot_row], grid[c]
            sign = -sign
        pivot = grid[c][c]
        for i in range(c + 1, n):
            fi = grid[i][c]
            for j in range(c, n):
                grid[i][j] = (grid[i][j] * pivot - fi * grid[c][j]).exact_div(prev)
        prev = pivot
    d = grid[n - 1][n - 1]
    return -d if sign < 0 else d


def _div(ring):
    """The exact division of ring's entries."""
    return (lambda a, b: a.exact_div(b)) if isinstance(ring, PolyRing) else (lambda a, b: a / b)


def echelon_info_oracle(grid, ring):
    """(rank, pivot rows in pivot order, pivot columns) of a list of rows
    over Q or a polynomial ring, by the column sweep with row swaps."""
    grid = [list(row) for row in grid]
    rows, cols = len(grid), len(grid[0]) if grid else 0
    perm = list(range(rows))
    div = _div(ring)
    pivot_rows, pivot_cols = [], []
    prev = ring.one()
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if grid[i][c]), None)
        if pivot_row is None:
            continue
        grid[r], grid[pivot_row] = grid[pivot_row], grid[r]
        perm[r], perm[pivot_row] = perm[pivot_row], perm[r]
        pivot = grid[r][c]
        for i in range(r + 1, rows):
            fi = grid[i][c]
            for j in range(c, cols):
                grid[i][j] = div(grid[i][j] * pivot - fi * grid[r][j], prev)
        prev = pivot
        pivot_rows.append(perm[r])
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break
    return len(pivot_cols), pivot_rows, pivot_cols


def profiles_oracle(grid, ring, ncols):
    """(row rank profile, column rank profile): the rows, and the columns,
    that raise the rank of those before them."""
    def rank(g):
        return echelon_info_oracle(g, ring)[0]

    rows = [i for i in range(len(grid)) if rank(grid[:i + 1]) > rank(grid[:i])]
    cols = [c for c in range(ncols)
            if rank([r[:c + 1] for r in grid]) > rank([r[:c] for r in grid])]
    return rows, cols


def leibniz_det_oracle(grid, ring):
    """The determinant as the signed sum over permutations: no division."""
    total = ring.zero()
    for perm in permutations(range(len(grid))):
        inversions = sum(perm[j] > perm[i] for i in range(len(perm)) for j in range(i))
        term = ring.one()
        for i, p in enumerate(perm):
            term = term * grid[i][p]
        total = total - term if inversions % 2 else total + term
    return total


def adjugate_oracle(m):
    n = m.rows
    if n == 1:
        return RingMatrix(m.ring, [[m.ring.one()]])
    grid = m.entries
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = RingMatrix(m.ring, [[grid[r][c] for c in range(n) if c != i]
                                        for r in range(n) if r != j])
            d = poly_det_oracle(minor)
            out[i][j] = -d if (i + j) % 2 else d
    return RingMatrix(m.ring, out)


def poly_solve_oracle(a, b):
    """Cramer on the minor on the row and column rank profiles:
    (numerator, denominator, kernel, in_ring, cleared entries), or
    NoSolution."""
    ring = a.ring
    n, k = a.cols, b.cols
    grid = a.entries
    piv_rows, piv_cols = profiles_oracle(grid, ring, n)
    if not piv_rows:
        if not b.is_zero():
            raise NoSolution("zero matrix")
        kernel = [[ring.one() if i == f else ring.zero() for i in range(n)] for f in range(n)]
        zero = RingMatrix.zero(ring, n, k)
        return zero, ring.one(), kernel, True, zero.entries
    sub = RingMatrix(ring, [[grid[i][j] for j in piv_cols] for i in piv_rows])
    det = poly_det_oracle(sub)
    adj = adjugate_oracle(sub)
    solved = adj * RingMatrix(ring, [b.row(i) for i in piv_rows])
    num_rows = [{} for _ in range(n)]
    for pi, c in enumerate(piv_cols):
        num_rows[c] = dict(enumerate(solved.row(pi)))
    numerator = RingMatrix.from_rows(ring, num_rows, k)
    if a * numerator != b.map_entries(lambda e: e * det):
        raise NoSolution("not in the column span")
    kernel = []
    for fc in (c for c in range(n) if c not in piv_cols):
        kp = adj * RingMatrix(ring, [[-grid[i][fc]] for i in piv_rows])
        vec = [ring.zero()] * n
        for pi, c in enumerate(piv_cols):
            vec[c] = kp[pi, 0]
        vec[fc] = det
        kernel.append(vec)
    cleared = []
    for row in numerator.entries:
        try:
            cleared.append([e.exact_div(det) for e in row])
        except NotInRing:
            return numerator, det, kernel, False, None
    return numerator, det, kernel, True, cleared


# -- strategies -------------------------------------------------------------------------


def polys(ring):
    lo = -1 if ring.laurent else 0
    term = st.tuples(st.tuples(st.integers(lo, 2), st.integers(lo, 2)),
                     st.integers(-2, 2).filter(bool))
    return st.lists(term, max_size=3).map(
        lambda ts: sum((ring.monomial(e, c) for e, c in ts), ring.zero()))


@st.composite
def dependent_rows(draw, entries, nrows, ncols, zero):
    """nrows rows of which some are combinations of the others, shuffled."""
    free = draw(st.integers(0, nrows))
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(free)]
    for _ in range(nrows - free):
        if free:
            i, j = draw(st.integers(0, free - 1)), draw(st.integers(0, free - 1))
            ci, cj = draw(entries), draw(entries)
            rows.append([ci * u + cj * v for u, v in zip(rows[i], rows[j])])
        else:
            rows.append([zero] * ncols)
    return [rows[i] for i in draw(st.permutations(range(nrows)))]


@st.composite
def int_grids(draw):
    """(rows, column count)."""
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    return draw(dependent_rows(st.integers(-3, 3), nrows, ncols, 0)), ncols


@st.composite
def square(draw, ring, entries, max_size):
    n = draw(st.integers(0, max_size))
    return RingMatrix(ring, draw(dependent_rows(entries, n, n, ring.zero())))


fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def grids(draw):
    """(ring, rows, column count) over Q, Q[y] or the Laurent ring, up to
    4 x 4 with 0 x k and k x 0 shapes, dependent rows, some rows and
    columns set to zero, and about half the other entries zero, so that
    the driver skips steps."""
    ring = draw(st.sampled_from([QQ, R2, L2]))
    entries = st.one_of(st.just(ring.zero()), fractions if ring is QQ else polys(ring))
    nrows, ncols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    rows = draw(dependent_rows(entries, nrows, ncols, ring.zero()))
    zero_rows = draw(st.sets(st.integers(0, nrows - 1))) if nrows else set()
    zero_cols = draw(st.sets(st.integers(0, ncols - 1))) if ncols else set()
    return ring, [[ring.zero() if i in zero_rows or j in zero_cols else v
                   for j, v in enumerate(row)] for i, row in enumerate(rows)], ncols


@st.composite
def poly_systems(draw, ring):
    """(A, B): B = A X in the ring, B = A X with A then scaled by a ring
    element (so the solution mostly leaves the ring), or B arbitrary (mostly
    inconsistent)."""
    m, n, k = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 2))
    entries = polys(ring)
    a = RingMatrix(ring, draw(dependent_rows(entries, m, n, ring.zero())))
    kind = draw(st.sampled_from(["ring", "fraction", "arbitrary"]))
    if kind == "arbitrary":
        return a, RingMatrix(ring, [[draw(entries) for _ in range(k)] for _ in range(m)])
    b = a * RingMatrix(ring, [[draw(entries) for _ in range(k)] for _ in range(n)])
    if kind == "fraction":
        scale = draw(entries) + ring.variable(1)
        a = a.map_entries(lambda e: e * scale)
    return a, b


# -- differential checks -----------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(grids())
@example((QQ, [], 3))
@example((R2, [[]] * 3, 0))
@example((L2, [[L2.zero()] * 2] * 2, 2))
def test_driver_reads_profiles_and_pivot_minor(case):
    """Dict rows inserted in input order: the kept rows are the row rank
    profile, the sorted pivot columns the column rank profile, and each
    pivot, the last one included, is the minor on the kept rows and pivot
    columns up to it, in insertion order.  The input rows are left as they
    were."""
    ring, rows, ncols = case
    given = [{j: v for j, v in enumerate(row) if v} for row in rows]
    before = [dict(row) for row in given]
    kept, echelon = fraction_free_echelon(given, ncols, _div(ring))
    assert given == before
    pivot_cols = [c for _, c in echelon]
    assert (kept, sorted(pivot_cols)) == profiles_oracle(rows, ring, ncols)
    for k, (top, c) in enumerate(echelon):
        minor = [[rows[i][j] for j in pivot_cols[:k + 1]] for i in kept[:k + 1]]
        assert top[c] == leibniz_det_oracle(minor, ring)
    # Columns from cols on are carried along and never pivot: the profiles
    # are those of the columns before.
    if ncols:
        kept, echelon = fraction_free_echelon(given, ncols - 1, _div(ring))
        assert (kept, sorted(c for _, c in echelon)) == profiles_oracle(
            [row[:ncols - 1] for row in rows], ring, ncols - 1)


@settings(max_examples=200, deadline=None)
@given(int_grids())
def test_integer_pivots_match_oracle(case):
    rows, ncols = case
    expected = int_pivots_oracle([row[:] for row in rows])
    kept, echelon = fraction_free_echelon([{j: v for j, v in enumerate(row) if v}
                                           for row in rows], ncols)
    assert sorted(c for _, c in echelon) == expected
    assert kept == [i for i in range(len(rows))
                    if len(int_pivots_oracle([r[:] for r in rows[:i + 1]]))
                    > len(int_pivots_oracle([r[:] for r in rows[:i]]))]
    m = RingMatrix.from_rows(QQ, [{j: Fraction(v) for j, v in enumerate(row)} for row in rows],
                             ncols)
    assert rational_rank(m) == len(expected)


@settings(max_examples=150, deadline=None)
@given(square(QQ, fractions, 5))
def test_rational_det_matches_oracle(m):
    assert symbolic_det(m) == rational_det_oracle(m)


@settings(max_examples=80, deadline=None)
@given(square(L2, polys(L2), 4))
def test_laurent_det_matches_oracle(m):
    assert symbolic_det(m) == poly_det_oracle(m)
    assert generic_rank(m) == echelon_info_oracle(m.entries, L2)[0]


@pytest.mark.parametrize("ring", [R2, L2], ids=["poly", "laurent"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_poly_solve_matches_oracle(ring, data):
    a, b = data.draw(poly_systems(ring))
    try:
        expected = poly_solve_oracle(a, b)
    except NoSolution:
        with pytest.raises(NoSolution):
            solve_right(a, b)
        return
    res = solve_right(a, b)
    numerator, det, kernel, in_ring, cleared = expected
    assert res.numerator == numerator
    assert res.denominator == det
    assert res.kernel == kernel
    assert res.in_ring == in_ring
    assert (res.cleared.entries if res.cleared is not None else None) == cleared


def test_det_with_positive_monomial_content():
    # The second elimination step divides by the first pivot
    # x1*x2 - x1 = x1*(x2 - 1), whose monomial factor exact_div must remove.
    m = mat(L2, [["x1*x2-x1", "1", "0"], ["x2-1", "x2", "1"], ["0", "1", "x1^-1"]])
    assert symbolic_det(m) == (-1) ** 3 * char_poly(m).coeffs[0]
