"""Arrangement combinatorics: dependency classes, nbc bases, file parsing."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrmono import (
    Arrangement,
    Hyperplane,
    ParseError,
    aomoto_boundary,
    compute_dependencies,
    nbc_basis,
    parse_arrangement,
)
from arrmono.arrangement import format_arrangement, reduce_row
from arrmono.oscomplex import NbcRewriter
from conftest import (
    ScanningRewriter,
    _rank,
    betti_oracle,
    dependencies_oracle,
    is_independent,
    is_nbc,
    random_arrangement,
    scanning_nbc_basis,
)


_COEFF = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _arrangements(draw):
    """Arrangements in dimension 1-3 with rational coefficients, plus
    combinations a*h + b*h' of drawn hyperplanes, possibly shifted: repeated
    (b = 0), parallel (b = 0, shifted) or through the meet of h and h'
    (unshifted), in a shuffled order."""
    dim = draw(st.integers(1, 3))
    hps = []
    for _ in range(draw(st.integers(dim, dim + 3))):
        normal = draw(st.lists(_COEFF, min_size=dim, max_size=dim))
        if not any(normal):
            normal[0] = Fraction(1)
        hps.append((tuple(normal), draw(_COEFF)))
    for _ in range(draw(st.integers(0, 3))):
        (n1, o1), (n2, o2) = draw(st.sampled_from(hps)), draw(st.sampled_from(hps))
        a = draw(st.sampled_from([Fraction(1), Fraction(-2), Fraction(1, 3)]))
        b = draw(st.sampled_from([0, 1, -1]))
        normal = tuple(a * c1 + b * c2 for c1, c2 in zip(n1, n2))
        if any(normal):
            hps.append((normal, a * o1 + b * o2 + draw(st.sampled_from([0, 1]))))
    hps = draw(st.permutations(hps))
    try:
        return Arrangement(dim=dim, hyperplanes=tuple(
            Hyperplane(normal=normal, offset=offset) for normal, offset in hps))
    except ValueError:
        assume(False)


@settings(max_examples=100, deadline=None)
@given(_arrangements())
def test_dependencies_and_nbc_match_rank_definition(arr):
    dep = compute_dependencies(arr)
    assert (dep.circuits, dep.empty_min) == dependencies_oracle(arr)
    assert dep.broken_circuits == tuple(sorted({c[1:] for c in dep.circuits}))
    basis = nbc_basis(arr, dep)
    assert basis.by_degree == tuple(
        tuple(s for s in combinations(range(arr.n), q) if is_nbc(dep, s))
        for q in range(arr.dim + 1))


@st.composite
def _planar_with_many_empty_sets(draw):
    """Lines on four directions with offsets in -2..2: parallel pairs, empty
    triples, multiple points and repeated lines, in a drawn order."""
    lines = draw(st.lists(st.tuples(st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1)]),
                                    st.integers(-2, 2)), min_size=3, max_size=10))
    try:
        return Arrangement(dim=2, hyperplanes=tuple(
            Hyperplane(normal=tuple(map(Fraction, normal)), offset=Fraction(offset))
            for normal, offset in lines))
    except ValueError:
        assume(False)


@st.composite
def _central_in_high_dimension(draw):
    """Central arrangements in dimension 4-6: the coordinate hyperplanes
    and up to three drawn ones, shuffled, so every set meets (no empty
    sets) and the circuits run up to size dim + 1."""
    dim = draw(st.integers(4, 6))
    normals = [tuple(int(i == k) for i in range(dim)) for k in range(dim)]
    for _ in range(draw(st.integers(0, 3))):
        normal = draw(st.lists(st.integers(-1, 1), min_size=dim, max_size=dim))
        if any(normal):
            normals.append(tuple(normal))
    normals = draw(st.permutations(normals))
    return Arrangement(dim=dim, hyperplanes=tuple(
        Hyperplane(normal=tuple(map(Fraction, normal)), offset=Fraction(0))
        for normal in normals))


def _check_index_against_scans(arr):
    """Dependencies by the rank definition, the nbc sets and rewriting by
    the scans of the whole family, and each question to the prefix tree
    against the forbidden sets themselves, on every set of at most dim
    hyperplanes."""
    dep = compute_dependencies(arr)
    assert (dep.circuits, dep.empty_min) == dependencies_oracle(arr)
    assert nbc_basis(arr, dep).by_degree == scanning_nbc_basis(arr, dep)
    rewriter, oracle = NbcRewriter(dep), ScanningRewriter(dep)
    forbidden = dep.forbidden
    for size in range(arr.dim + 1):
        for s in combinations(range(arr.n), size):
            assert rewriter.rewrite(s) == oracle.rewrite(s)
            inside = [b for b in dep.broken_circuits if set(b) <= set(s)]
            assert forbidden.largest_broken(s) == max(inside, default=None)
            assert forbidden.has_empty(s) == any(set(e) <= set(s) for e in dep.empty_min)
            blocked = {f[-1] for f in (*dep.empty_min, *dep.broken_circuits)
                       if set(f[:-1]) <= set(s)}
            after = range(s[-1] + 1 if s else 0, arr.n)
            assert {j for j in after if j in forbidden.completions(s)} == blocked & set(after)


@settings(max_examples=60, deadline=None)
@given(_planar_with_many_empty_sets())
def test_index_matches_the_scans_on_planar_arrangements_with_many_empty_sets(arr):
    _check_index_against_scans(arr)


@settings(max_examples=30, deadline=None)
@given(_central_in_high_dimension())
def test_index_matches_the_scans_in_high_dimension_without_empty_sets(arr):
    assert compute_dependencies(arr).empty_min == ()
    _check_index_against_scans(arr)


def _check_truncations(arr):
    """Through each top degree, the dependencies, the nbc sets and mu are
    those of the full computation with at most top + 1 hyperplanes, top
    and top boundaries."""
    full = compute_dependencies(arr)
    basis = nbc_basis(arr, full)
    mu = aomoto_boundary(arr, full, basis).boundaries
    for top in range(arr.dim + 2):
        dep = compute_dependencies(arr, top)
        assert dep.circuits == tuple(c for c in full.circuits if len(c) <= top + 1)
        assert dep.empty_min == tuple(e for e in full.empty_min if len(e) <= top + 1)
        assert dep.broken_circuits == tuple(b for b in full.broken_circuits if len(b) <= top)
        assert dep.circuit_of_broken == {b: c for b, c in full.circuit_of_broken.items()
                                         if len(b) <= top}
        truncated = nbc_basis(arr, dep, top)
        assert truncated.by_degree == basis.by_degree[:top + 1]
        assert aomoto_boundary(arr, dep, truncated).boundaries == mu[:top]


def test_truncated_scan_matches_the_full_one_on_the_fixture(pencil):
    _check_truncations(pencil["arr"])


@settings(max_examples=60, deadline=None)
@given(st.one_of(_arrangements(), _planar_with_many_empty_sets(),
                 _central_in_high_dimension()))
def test_truncated_scan_matches_the_full_one(arr):
    _check_truncations(arr)


def _det(rows) -> int:
    """Determinant by Laplace expansion along the first row, apart from the
    fraction-free elimination under test."""
    if not rows:
        return 1
    return sum((-1) ** j * v * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, v in enumerate(rows[0]) if v)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=5, max_size=5), min_size=1, max_size=5))
def test_reduced_rows_hold_the_minors_of_the_input(rows):
    """Rows added one at a time, each reduced against the pivots before it
    and pivoting at its first nonzero column, as the dependency walk does:
    every free entry is the determinant on the pivot rows and columns so
    far plus its own row and column, in insertion order, and the pivot
    columns are the column rank profile."""
    echelon, chosen, free = [], [], list(range(5))
    for row in rows:
        reduced = row[:]
        reduce_row(reduced, echelon)
        for j in free:
            minor = [[r[c] for c in (*(e[1] for e in echelon), j)] for r in (*chosen, row)]
            assert reduced[j] == _det(minor)
        pivot = next((j for j in free if reduced[j]), None)
        if pivot is not None:
            free = [j for j in free if j != pivot]
            echelon.append((reduced, pivot, free))
            chosen.append(row)
    profile = [c for c in range(5)
               if _rank([r[:c + 1] for r in rows]) > _rank([r[:c] for r in rows])]
    assert sorted(e[1] for e in echelon) == profile


def test_pencil_dependencies(pencil):
    dep = pencil["dep"]
    assert dep.circuits == ((0, 1, 2),)
    assert dep.empty_min == ((0, 1, 3), (0, 2, 3), (1, 2, 3))
    assert dep.broken_circuits == ((1, 2),)


def test_pencil_nbc(pencil):
    basis = pencil["basis"]
    assert basis.degree(0) == ((),)
    assert basis.degree(1) == ((0,), (1,), (2,), (3,))
    assert basis.degree(2) == ((0, 1), (0, 2), (0, 3), (1, 3), (2, 3))
    assert basis.betti() == [1, 4, 5]


def test_euler_characteristic_two(pencil):
    b = pencil["basis"].betti()
    assert b[0] - b[1] + b[2] == 2


def test_boolean_arrangement_has_no_dependencies():
    arr = parse_arrangement("dim 2\n0 1 0\n0 0 1\n")
    dep = compute_dependencies(arr)
    assert dep.circuits == () and dep.empty_min == ()
    assert nbc_basis(arr, dep).betti() == [1, 2, 1]


def test_normal_must_be_nonzero():
    with pytest.raises(ValueError):
        Hyperplane(normal=(Fraction(0), Fraction(0)), offset=Fraction(1))


def test_hyperplane_count_is_at_most_max_variables():
    from arrmono.rings import MAX_VARIABLES

    lines = [f"{k} 1\n" for k in range(MAX_VARIABLES + 1)]
    assert parse_arrangement("dim 1\n" + "".join(lines[:-1])).n == MAX_VARIABLES
    with pytest.raises(ParseError, match="hyperplanes exceed"):
        parse_arrangement("dim 1\n" + "".join(lines))


def _boolean_text(n: int) -> str:
    return f"dim {n}\n" + "".join("0" + " 0" * k + " 1" + " 0" * (n - k - 1) + "\n"
                                  for k in range(n))


def _lines_text(n: int) -> str:
    rng = random.Random(n)
    return "dim 2\n" + "".join(f"{rng.randint(-9, 9)} {rng.randint(1, 9)} {rng.randint(-9, 9)}\n"
                               for _ in range(n))


class _ScanStarted(Exception):
    pass


@pytest.mark.parametrize("text,size", [
    (_boolean_text(16), 2 ** 16 - 1 - 16),
    (_boolean_text(17), 2 ** 17 - 1 - 17),
    (_boolean_text(18), 2 ** 18 - 1 - 18),
    (_lines_text(92), 4186 + 125580),
    (_lines_text(93), 4278 + 129766),
], ids=["boolean-16", "boolean-17", "boolean-18", "lines-92", "lines-93"])
def test_dependency_scan_limit_is_checked_before_the_scan(monkeypatch, text, size):
    """The scan of sum_{s=2}^{L+1} C(n, s) subsets runs exactly when that
    size is at most the limit, and the size is compared before the first
    elimination: a stand-in for reduce_row, which the walk calls for every
    subset it visits, singletons first, raises and so shows that an admitted
    arrangement reached the scan, so no scan runs here."""
    import arrmono.arrangement as arrangement

    def started(row, echelon):
        raise _ScanStarted

    arr = parse_arrangement(text)
    monkeypatch.setattr(arrangement, "reduce_row", started)
    with pytest.raises(_ScanStarted if size <= 2 ** 17 else ParseError):
        compute_dependencies(arr)
    # Exactly at the limit the scan starts; one subset past it, it does not.
    monkeypatch.setattr(arrangement, "MAX_DEPENDENCY_SUBSETS", size)
    with pytest.raises(_ScanStarted):
        compute_dependencies(arr)
    monkeypatch.setattr(arrangement, "MAX_DEPENDENCY_SUBSETS", size - 1)
    with pytest.raises(ParseError, match=f"{arr.n} hyperplanes in dimension {arr.dim} need "
                                         f"a dependency scan of more than {size - 1} subsets"):
        compute_dependencies(arr)


@pytest.mark.parametrize("n,admitted", [(92, True), (93, False)])
def test_the_scan_through_degree_two_counts_pairs_and_triples(monkeypatch, n, admitted):
    """Through degree 2 the limit counts C(n, 2) + C(n, 3) subsets:
    129,766 on Boolean 92 and 134,044 on Boolean 93."""
    import arrmono.arrangement as arrangement

    def started(row, echelon):
        raise _ScanStarted

    arr = parse_arrangement(_boolean_text(n))
    monkeypatch.setattr(arrangement, "reduce_row", started)
    with pytest.raises(_ScanStarted if admitted else ParseError):
        compute_dependencies(arr, 2)


def test_independent_hyperplanes_required():
    with pytest.raises(ParseError):
        parse_arrangement("dim 2\n0 1 1\n0 2 2\n")  # parallel normals only


def test_format_parse_round_trip(pencil):
    text = format_arrangement(pencil["arr"])
    assert parse_arrangement(text) == pencil["arr"]


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 3))
def test_format_parse_round_trip_on_random_arrangements(rng, dim):
    arr = random_arrangement(rng, dim)
    assert parse_arrangement(format_arrangement(arr)) == arr


def test_betti_oracle_agrees_on_pencil(pencil):
    assert betti_oracle(pencil["arr"]) == [1, 4, 5]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_nbc_counts_match_exterior_ideal_oracle(seed):
    arr = random_arrangement(random.Random(seed))
    dep = compute_dependencies(arr)
    assert nbc_basis(arr, dep).betti() == betti_oracle(arr)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_deleting_last_hyperplane_never_increases_betti(seed):
    arr = random_arrangement(random.Random(seed), max_n=5)
    try:
        smaller = Arrangement(dim=arr.dim, hyperplanes=arr.hyperplanes[:-1])
    except ValueError:
        return  # deletion lost full rank; monotonicity claim is vacuous
    big = nbc_basis(arr, compute_dependencies(arr)).betti()
    small = nbc_basis(smaller, compute_dependencies(smaller)).betti()
    assert all(s <= b for s, b in zip(small, big))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_broken_circuits_are_independent(seed):
    arr = random_arrangement(random.Random(seed))
    dep = compute_dependencies(arr)
    for b in dep.broken_circuits:
        assert is_independent(arr, b)


def test_reordering_hyperplanes_preserves_betti(pencil):
    arr = pencil["arr"]
    perm = [3, 0, 2, 1]
    shuffled = Arrangement(dim=arr.dim,
                           hyperplanes=tuple(arr.hyperplanes[i] for i in perm))
    assert nbc_basis(shuffled, compute_dependencies(shuffled)).betti() == [1, 4, 5]
