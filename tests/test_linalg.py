"""Exact linear algebra: products, ranks, solving, characteristic
polynomials, truncated exponentials, complexes."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrmono import (
    QQ,
    NoSolution,
    NonzeroConstantTerm,
    NotAComplex,
    RingComplex,
    RingMatrix,
    ShapeMismatch,
    char_poly,
    evaluate_matrix,
    exp_jet,
    generic_rank,
    laurent_ring,
    mat_exp_truncated,
    parse_poly,
    poly_ring,
    rational_rank,
    solve_right,
    symbolic_det,
)
from conftest import DELTA0, DELTA1, PHI1, PHI2, mat

L = laurent_ring(4)
R = poly_ring(4)


@pytest.fixture(scope="module")
def displayed():
    return {
        "d0": mat(L, DELTA0), "d1": mat(L, DELTA1),
        "p1": mat(L, PHI1), "p2": mat(L, PHI2),
    }


def test_complex_property_of_displayed_boundaries(displayed):
    assert (displayed["d0"] * displayed["d1"]).is_zero()


def test_chain_identity_of_displayed_maps(displayed):
    assert (displayed["d1"] * displayed["p2"] - displayed["p1"] * displayed["d1"]).is_zero()
    assert displayed["d0"] * displayed["p1"] == displayed["d0"]


def test_identity_multiplication(displayed):
    eye = RingMatrix.identity(L, 4)
    assert eye * displayed["p1"] == displayed["p1"]


def _entry_pool(ring):
    """Entries for random products: zero more often than not, and pairs
    such as y1 and -y1 whose products cancel in a sum."""
    y1, y2 = ring.variable(1), ring.variable(2)
    pool = [y1, -y1, y1 * y2, y2.scale(Fraction(1, 2)), ring.const(3), y1 - y2, y2 - y1]
    if ring.laurent:
        pool += [y1 ** -1, -(y1 ** -1) * y2]
    return [ring.zero()] * 8 + pool


@st.composite
def product_pairs(draw, ring):
    m, k, n = (draw(st.integers(1, 4)) for _ in range(3))
    entry = st.sampled_from(_entry_pool(ring))
    a = [[draw(entry) for _ in range(k)] for _ in range(m)]
    b = [[draw(entry) for _ in range(n)] for _ in range(k)]
    for i in draw(st.sets(st.integers(0, m - 1))):
        a[i] = [ring.zero()] * k
    for j in draw(st.sets(st.integers(0, n - 1))):
        for row in b:
            row[j] = ring.zero()
    return RingMatrix(ring, a), RingMatrix(ring, b)


def _naive_product(a, b):
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = a.ring.zero()
            for k in range(a.cols):
                acc = acc + a[i, k] * b[k, j]
            row.append(acc)
        out.append(row)
    return RingMatrix(a.ring, out)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([poly_ring(2), laurent_ring(2)]).flatmap(product_pairs))
def test_product_matches_the_naive_sum(pair):
    a, b = pair
    got = a * b
    assert got == _naive_product(a, b)
    assert all(type(c) is int or c.denominator > 1
               for row in got.entries for e in row for c in e.terms.values())


@pytest.mark.parametrize("ring", [poly_ring(2), laurent_ring(2)])
def test_product_multiplies_only_nonzero_pairs(ring, monkeypatch):
    """One term-dict product per pair of nonzeros A[i][k], B[k][j]."""
    import arrmono.linalg as linalg
    calls = []
    addmul = linalg._addmul

    def counted(acc, p, q, sign, ring):
        calls.append((p, q))
        return addmul(acc, p, q, sign, ring)

    monkeypatch.setattr(linalg, "_addmul", counted)
    pool = _entry_pool(ring)
    rng = random.Random(3)
    a_rows = [[rng.choice(pool) for _ in range(6)] for _ in range(5)]
    b_rows = [[rng.choice(pool) for _ in range(7)] for _ in range(6)]
    a_rows[2] = [ring.zero()] * 6
    for row in b_rows:
        row[4] = ring.zero()
    a, b = RingMatrix(ring, a_rows), RingMatrix(ring, b_rows)
    pairs = sum(1 for i in range(5) for k in range(6) for j in range(7) if a[i, k] and b[k, j])
    assert 0 < pairs < 5 * 6 * 7
    assert a * b == _naive_product(a, b)
    assert len(calls) == pairs
    assert all(p and q for p, q in calls)


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        RingMatrix.identity(QQ, 2) * RingMatrix.identity(QQ, 3)


def test_rank_at_points(displayed):
    d1 = displayed["d1"]
    assert rational_rank(evaluate_matrix(d1, [2, 2, 2, 2])) == 3
    assert rational_rank(evaluate_matrix(d1, [1, 1, 1, 1])) == 0
    assert rational_rank(evaluate_matrix(d1, [2, 3, Fraction(1, 6), 1])) == 2
    assert rational_rank(evaluate_matrix(displayed["d0"], [2, 2, 2, 2])) == 1
    xi = mat(L, [["x4-1", "0"], ["0", "x4-1"], ["x3-x2*x3", "1-x3"],
                 ["x1*x3-1", "x1-x1*x3"], ["1-x2", "x1*x2-1"]])
    assert rational_rank(evaluate_matrix(xi, [2, 2, 2, 2])) == 2


def test_generic_rank_of_delta1(displayed):
    assert generic_rank(displayed["d1"]) == 3


def test_generic_rank_ignores_agreeing_rank_drops():
    # (y1-2)(y1-15) vanishes at y1 = 2 and at y1 = 15, so the rank drops at
    # both points; over the fraction field the entry is nonzero.
    ring = poly_ring(1)
    m = mat(ring, [["(y1-2)*(y1-15)"]])
    assert rational_rank(evaluate_matrix(m, [2])) == rational_rank(evaluate_matrix(m, [15])) == 0
    assert generic_rank(m) == 1


@settings(max_examples=20, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=3, max_size=5),
       st.randoms(use_true_random=False))
def test_rank_invariant_under_permutation_and_transpose(rows, rng):
    m = RingMatrix(QQ, [[Fraction(v) for v in row] for row in rows])
    base = rational_rank(m)
    shuffled = list(m.entries)
    rng.shuffle(shuffled)
    assert rational_rank(RingMatrix(QQ, shuffled)) == base
    assert rational_rank(m.transpose()) == base


def test_solve_right_identity():
    b = RingMatrix(QQ, [[Fraction(i * 2 + j) for j in range(2)] for i in range(3)])
    res = solve_right(RingMatrix.identity(QQ, 3), b)
    assert res.in_ring and res.cleared == b and res.kernel_dimension == 0


def test_solve_right_induced(displayed):
    xi = mat(L, [["x4-1", "0"], ["0", "x4-1"], ["x3-x2*x3", "1-x3"],
                 ["x1*x3-1", "x1-x1*x3"], ["1-x2", "x1*x2-1"]])
    res = solve_right(xi, displayed["p2"] * xi)
    assert res.in_ring and res.kernel_dimension == 0
    assert res.cleared == mat(L, [["x1*x2", "0"], ["x2-1", "1"]])


def test_solve_right_fallback_kernel(displayed):
    d1, p1 = displayed["d1"], displayed["p1"]
    res = solve_right(d1, p1 * d1)
    assert res.kernel_dimension == 2
    for vec in res.kernel:
        col = RingMatrix(L, [[v] for v in vec])
        assert (d1 * col).is_zero()
    # A * X = den * B holds exactly for the particular solution.
    rhs = (p1 * d1).map_entries(lambda e: e * res.denominator)
    assert d1 * res.numerator == rhs


def test_solve_right_takes_the_last_pivot_row_without_division(displayed, monkeypatch):
    # On the last pivot row det is +-its pivot, so det * x there is +-the
    # row, with no product and no exact division.  On this system the
    # back-substitution then divides 5 entries fewer: 26 -> 21 in all,
    # counted through the first read of the numerator, which runs it.
    from arrmono.rings import Poly
    d1, p1 = displayed["d1"], displayed["p1"]
    calls = []
    exact_div = Poly.exact_div
    monkeypatch.setattr(Poly, "exact_div", lambda a, b: calls.append(1) or exact_div(a, b))
    res = solve_right(d1, p1 * d1)
    numerator = res.numerator
    assert len(calls) == 21
    assert d1 * numerator == (p1 * d1).map_entries(lambda e: e * res.denominator)


def test_solve_right_on_a_zero_laurent_matrix():
    a = RingMatrix.zero(L, 2, 3)
    res = solve_right(a, RingMatrix.zero(L, 2, 1))
    assert res.kernel == [[L.one() if i == j else L.zero() for i in range(3)]
                          for j in range(3)]
    assert res.denominator == L.one() and res.in_ring
    assert res.numerator == res.cleared == RingMatrix.zero(L, 3, 1)
    with pytest.raises(NoSolution):
        solve_right(a, mat(L, [["0"], ["x1"]]))


def test_a_matrix_without_rows_keeps_its_column_count():
    assert RingMatrix.zero(laurent_ring(2), 0, 3).shape() == (0, 3)
    assert RingMatrix.zero(QQ, 0, 3).transpose().shape() == (3, 0)
    assert RingMatrix.zero(QQ, 3, 0).transpose().shape() == (0, 3)


@pytest.mark.parametrize("ring", [QQ, L], ids=["rational", "laurent"])
def test_a_product_over_an_empty_inner_dimension_is_zero(ring):
    product = RingMatrix.zero(ring, 2, 0) * RingMatrix.zero(ring, 0, 3)
    assert product.shape() == (2, 3) and product == RingMatrix.zero(ring, 2, 3)
    assert (RingMatrix.zero(ring, 0, 2) * RingMatrix.zero(ring, 2, 3)).shape() == (0, 3)


def test_solve_right_with_no_unknowns_has_the_empty_solution():
    L2 = laurent_ring(2)
    res = solve_right(RingMatrix(L2, [[], []]), RingMatrix.zero(L2, 2, 1))
    assert res.kernel == [] and res.in_ring
    assert res.cleared.shape() == res.numerator.shape() == (0, 1)


def test_solve_right_no_solution():
    a = mat(L, [["x1-1"], ["0"]])
    b = mat(L, [["0"], ["1"]])
    with pytest.raises(NoSolution):
        solve_right(a, b)


def test_a_rational_answer_that_fails_its_product_check_is_refused(monkeypatch):
    """A wrong numerator from the back-substitution is caught by A * X = B
    on the first read of an answer, and nothing of it is kept."""
    from arrmono import linalg
    back = linalg._back_substitute

    def wrong(*args):
        numerator, det, kernel = back(*args)
        numerator[0] = {0: numerator[0].get(0, 0) + det}
        return numerator, det, kernel

    monkeypatch.setattr(linalg, "_back_substitute", wrong)
    res = solve_right(RingMatrix(QQ, [[1, 2], [3, 4]]), RingMatrix(QQ, [[1], [1]]))
    assert res.kernel_dimension == 0
    for _ in range(2):
        with pytest.raises(NoSolution):
            res.cleared
        assert "_solved" not in vars(res)


def test_an_inconsistent_row_after_every_pivot_is_refused_by_the_elimination(monkeypatch):
    """Over the Laurent ring the elimination runs past the last pivot on A's
    columns: the third row is x2 times the first plus the second on A's
    side, but not on B's, so its pivot lands on B's column and solve_right
    raises without back-substituting."""
    from arrmono import linalg
    calls = []
    back = linalg._back_substitute
    monkeypatch.setattr(linalg, "_back_substitute", lambda *args: calls.append(1) or back(*args))
    a = mat(L, [["x1", "0"], ["0", "x2-1"], ["x1*x2", "x2-1"]])
    with pytest.raises(NoSolution):
        solve_right(a, mat(L, [["1"], ["1"], ["0"]]))
    assert calls == []
    res = solve_right(a, mat(L, [["1"], ["1"], ["x2+1"]]))
    assert res.in_ring is False and calls == [1]
    assert a * res.numerator == mat(L, [["1"], ["1"], ["x2+1"]]).map_entries(
        lambda e: e * res.denominator)


def test_char_poly_zero_matrix():
    cp = char_poly(RingMatrix.zero(QQ, 3, 3))
    assert list(cp.coeffs) == [Fraction(0)] * 3 + [Fraction(1)]


def test_char_poly_gassner_block():
    # trace y1+y2, determinant 0 for the 2x2 block; two extra zero rows.
    om = mat(R, [["y2", "-y2", "0", "0"], ["-y1", "y1", "0", "0"],
                 ["0", "0", "0", "0"], ["0", "0", "0", "0"]])
    cp = char_poly(om)
    y1, y2 = R.variable(1), R.variable(2)
    assert cp.coeffs[4] == R.one()
    assert cp.coeffs[3] == -(y1 + y2)
    assert all(cp.coeffs[i].is_zero() for i in range(3))


def test_char_poly_triangular():
    pb = mat(L, [["x1*x2", "0"], ["x2-1", "1"]])
    cp = char_poly(pb)
    x1x2 = parse_poly("x1*x2", L)
    assert cp.coeffs[0] == x1x2
    assert cp.coeffs[1] == -(L.one() + x1x2)


def at_matrix(cp, m):
    """The characteristic polynomial evaluated at z := M."""
    acc = RingMatrix.zero(m.ring, m.rows, m.rows)
    power = RingMatrix.identity(m.ring, m.rows)
    for c in cp.coeffs:
        acc = acc + power.map_entries(lambda e, c=c: e * c)
        power = power * m
    return acc


@settings(max_examples=15, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=3, max_size=3))
def test_cayley_hamilton_rational(rows):
    m = RingMatrix(QQ, [[Fraction(v) for v in row] for row in rows])
    assert at_matrix(char_poly(m), m).is_zero()


@settings(max_examples=10, deadline=None)
@given(st.lists(st.lists(st.tuples(st.integers(-2, 2), st.integers(-1, 1)),
                         min_size=2, max_size=2), min_size=2, max_size=2))
def test_cayley_hamilton_polynomial(rows):
    r2 = poly_ring(2)
    m = RingMatrix(r2, [[r2.const(c) + r2.variable(1).scale(d) for c, d in row]
                        for row in rows])
    assert at_matrix(char_poly(m), m).is_zero()


@settings(max_examples=15, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=4, max_size=4))
def test_det_is_signed_constant_of_char_poly(rows):
    m = RingMatrix(QQ, [[Fraction(v) for v in row] for row in rows])
    assert symbolic_det(m) == (-1) ** 4 * char_poly(m).coeffs[0]


def test_symbolic_det_matches_char_poly(displayed):
    pb = mat(L, [["x1*x2", "0"], ["x2-1", "1"]])
    assert symbolic_det(pb) == char_poly(pb).coeffs[0] * ((-1) ** 2)


def test_mat_exp_zero_and_scalar():
    const, lin, quad = mat_exp_truncated(RingMatrix.zero(R, 3, 3))
    assert const.is_identity() and lin.is_zero() and quad.is_zero()
    one = RingMatrix(R, [[parse_poly("y1+y2", R)]])
    e = mat_exp_truncated(one)
    assert tuple(part.entries[0][0] for part in e) == exp_jet(parse_poly("x1*x2", L), 2)


def test_mat_exp_rejects_constant_terms():
    with pytest.raises(NonzeroConstantTerm):
        mat_exp_truncated(RingMatrix(R, [[R.one()]]))


def test_complex_specialization_and_betti(displayed):
    k = RingComplex(L, [1, 4, 5], [displayed["d0"], displayed["d1"]])  # a complex, or raises
    assert k.specialize([2, 2, 2, 2]).betti() == [0, 0, 2]
    assert k.specialize([2, 3, Fraction(1, 6), 1]).betti() == [0, 1, 3]
    assert k.specialize([1, 1, 1, 1]).betti() == [1, 4, 5]
    assert k.euler_characteristic() == 2


def test_not_a_complex():
    with pytest.raises(NotAComplex):
        RingComplex(L, [1, 1, 1], [mat(L, [["x1"]]), mat(L, [["x1"]])])


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_euler_characteristic_invariance(seed):
    rng = random.Random(seed)
    point = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(4)]
    k = RingComplex(L, [1, 4, 5], [mat(L, DELTA0), mat(L, DELTA1)])
    h = k.specialize(point).betti()
    assert h[0] - h[1] + h[2] == k.euler_characteristic()


def test_shape_mismatch_names_the_rings_when_they_differ():
    a = RingMatrix.identity(laurent_ring(4), 2)
    b = RingMatrix.identity(laurent_ring(3), 2)
    rings = ("PolyRing(nvars=4, laurent=True, var='x') and "
             "PolyRing(nvars=3, laurent=True, var='x')")
    for op, shapes in ((lambda u, v: u + v, "add (2, 2) vs (2, 2)"),
                       (lambda u, v: u - v, "sub (2, 2) vs (2, 2)"),
                       (lambda u, v: u * v, "mul (2, 2) by (2, 2)")):
        with pytest.raises(ShapeMismatch) as exc:
            op(a, b)
        assert str(exc.value) == f"{shapes} over {rings}"
    with pytest.raises(ShapeMismatch) as exc:
        RingMatrix.identity(QQ, 2) * RingMatrix.identity(poly_ring(2), 2)
    assert str(exc.value).endswith("over RationalField(tag='rational', nvars=0) and "
                                   "PolyRing(nvars=2, laurent=False, var='y')")
    with pytest.raises(ShapeMismatch) as exc:
        a * RingMatrix.identity(laurent_ring(4), 3)
    assert str(exc.value) == "mul (2, 2) by (3, 3)"


# -- the two doors: from_rows and nonzero_rows ------------------------------------


def _round_trip_pool(ring):
    """Zeros, one of them built by cancellation, and nonzeros; rationals
    are Fractions, as the rational constructors hold them."""
    if ring == QQ:
        return [Fraction(0), Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(7, 3)]
    y1, y2 = ring.variable(1), ring.variable(2)
    pool = [ring.zero(), y1 - y1, y1, -y2, y1 * y2, ring.const(Fraction(1, 2))]
    if ring.laurent:
        pool.append(y1 ** -1 * y2)
    return pool


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([QQ, poly_ring(2), laurent_ring(2)]), st.integers(0, 4),
       st.integers(0, 4), st.data())
def test_from_rows_and_nonzero_rows_round_trip(ring, nrows, ncols, data):
    pool = st.sampled_from(_round_trip_pool(ring))
    columns = st.integers(0, ncols - 1) if ncols else st.nothing()
    rows = [data.draw(st.dictionaries(columns, pool)) for _ in range(nrows)]
    m = RingMatrix.from_rows(ring, rows, ncols)
    want = [{j: v for j, v in row.items() if v} for row in rows]
    assert m.shape() == (nrows, ncols)
    got = m.nonzero_rows()
    assert got == want
    # A row keeps the order the caller built it in, and so do the entrywise
    # operations on it; a matrix built densely, a transpose and a product
    # have their rows in column order.
    assert [list(row) for row in got] == [list(row) for row in want]
    for same in (-m, m.scale(3), m - RingMatrix.zero(ring, nrows, ncols)):
        assert [list(row) for row in same.nonzero_rows()] == [list(row) for row in want]
    ident = RingMatrix.identity(ring, ncols)
    for built in (RingMatrix(ring, m.entries), m.transpose(), m * ident):
        assert all(list(row) == sorted(row) for row in built.nonzero_rows())
    for row in got:
        row.clear()
    assert m.nonzero_rows() == want  # each read is fresh
    zero = ring.zero()
    for i in range(nrows):
        assert m.row(i) == [want[i].get(j, zero) for j in range(ncols)]
        for j in range(ncols):
            if j not in want[i]:
                assert m[i, j] == zero
            if ring == QQ:
                assert type(m[i, j]) is Fraction
    assert RingMatrix.from_rows(ring, [], ncols).shape() == (0, ncols)
    assert RingMatrix.from_rows(ring, [{}] * nrows, 0).shape() == (nrows, 0)


def test_only_linalg_reads_or_writes_the_matrix_storage():
    """No module of the package but linalg, and no script, names the stored
    rows (_nz), the dense view (entries) or the private builder on rows
    (adopt, _adopt); inside linalg only the rational product,
    RingMatrix.__mul__, reads the dense view; and no file of the package,
    the scripts or the tests assigns through the dense view, which is
    built fresh on each read, so such a write would change nothing."""
    import ast
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    package = sorted((root / "src" / "arrmono").glob("*.py"))
    files = [p for p in package if p.name != "linalg.py"]
    files += sorted((root / "scripts").glob("*.py"))
    assert len(files) > 5
    found = [f"{path.relative_to(root)}:{node.lineno} .{node.attr}"
             for path in files for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute)
             and node.attr in ("_nz", "entries", "adopt", "_adopt")]
    assert found == []

    def dense_readers(node, scope=""):
        """The qualified names of the definitions that read .entries."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "entries":
                yield scope
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            yield from dense_readers(child, inner)

    linalg = ast.parse((root / "src" / "arrmono" / "linalg.py").read_text())
    assert set(dense_readers(linalg)) == {"RingMatrix.__mul__"}

    def targets(node):
        if isinstance(node, (ast.Assign, ast.Delete)):
            return node.targets
        if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            return [node.target]
        return []

    scanned = package + sorted((root / "scripts").glob("*.py"))
    scanned += sorted((root / "tests").glob("*.py"))
    assert Path(__file__).resolve() in scanned
    writes = [f"{path.relative_to(root)}:{node.lineno}"
              for path in scanned for node in ast.walk(ast.parse(path.read_text()))
              for target in targets(node) for sub in ast.walk(target)
              if isinstance(sub, ast.Attribute) and sub.attr == "entries"]
    assert writes == []


def test_the_package_has_no_assert_statement():
    """python -O strips assert statements, so a check written as one would
    report pass without running: every check in the package raises."""
    import ast
    from pathlib import Path

    package = sorted((Path(__file__).resolve().parent.parent / "src" / "arrmono").glob("*.py"))
    assert len(package) > 5
    found = [f"{path.name}:{node.lineno}" for path in package
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []


def test_storage_does_not_depend_on_width():
    """A matrix 10^7 columns wide with four nonzeros stores and computes on
    those alone: building it, reading it back and the entrywise operations
    stay under 1 MB (a dense row of that width is 80 MB)."""
    import tracemalloc

    width = 10 ** 7
    rows = [{0: Fraction(1), width - 1: Fraction(-2, 3)}, {}, {width // 2: Fraction(5), 7: 2}]
    tracemalloc.start()
    try:
        m = RingMatrix.from_rows(QQ, rows, width)
        assert m.shape() == (3, width)
        assert m.nonzero_rows() == rows
        assert m[0, width - 1] == Fraction(-2, 3) and m[1, 5] == 0 and m[2, 7] == 2
        assert not m.is_zero() and RingMatrix.zero(QQ, 3, width).is_zero()
        assert m + m == m.scale(2) and (m - m).is_zero()
        assert m.map_entries(lambda e: e * 3) == m.scale(3)
        assert m == RingMatrix.from_rows(QQ, [dict(row) for row in rows], width)
        assert m != m.scale(-1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
