"""Formal connections, exp/log checks, certified spectra, induced maps,
cohomology actions, and weight classification."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrmono import (
    QQ,
    ChainIdentityFailed,
    FactorizationFailed,
    NoSolution,
    NotIdentityAtOne,
    RingComplex,
    RingMatrix,
    VerificationFailed,
    char_poly,
    classify_weights,
    cohomology_action,
    eigen_linear_forms,
    eigen_monomials,
    evaluate_matrix,
    formal_connection,
    induced_map,
    laurent_ring,
    phi1,
    phi2_from_certificate,
    poly_ring,
    solve_right,
    spectra_correspond,
    verify_chain_map,
    verify_exp_relation,
    verify_projection,
)
from conftest import (
    OMEGA1,
    OMEGA2,
    OMEGABAR_NONRES,
    OMEGABAR_RES,
    PHIBAR_NONRES,
    PHIBAR_RES,
    _rank,
    mat,
    random_certified_endo,
    rebuild_from_linear_coefficients,
)

L = laurent_ring(4)
R = poly_ring(4)


# -- formal connection ----------------------------------------------------------


def test_formal_connection_matches_display(pencil):
    fc = pencil["fc"]
    assert fc[1] == mat(R, OMEGA1)
    assert fc[2] == mat(R, OMEGA2)
    assert fc[0].is_zero()


def test_formal_connection_of_identity():
    phis = {1: RingMatrix.identity(L, 3)}
    fc = formal_connection(phis)
    assert fc[1].is_zero()


def test_formal_connection_rejects_non_identity_at_one(pencil):
    bad = mat(L, [["x1", "0"], ["0", "1"]])  # value at 1 is I, but shift it
    bad = mat(L, [["x1 + 1", "0"], ["0", "1"]])
    with pytest.raises(NotIdentityAtOne):
        formal_connection({1: bad})


# -- exp relation ------------------------------------------------------------------


def test_exp_relation_passes_on_twist_matrices(pencil):
    for q in (1, 2):
        rep = verify_exp_relation(pencil["phis"][q])
        assert rep.passed
        # The two sides are gauge conjugate but NOT equal entry by entry:
        # e.g. degree-2 terms of Phi1[0][0] and exp(Omega1)[0][0] differ.
        assert not rep.entrywise_degree2


@pytest.mark.xfail(strict=True, reason=(
    "wrong verdict on a valid loop (ROADMAP 4b): the exp/log check of Phi1 "
    "fails on both composites of the twist with the inner automorphism by "
    "g1^-1 g2^-1, while Phi2 passes"))
@pytest.mark.parametrize("order", ["CT", "TC"])
def test_exp_relation_passes_on_twist_composed_with_inner_loop(pencil, order):
    """C is conjugation by g1^-1 g2^-1 and T the pencil4 twist; CT applies
    T first.  Both composites are certified loops, so Phi1 must pass."""
    from arrmono import Endomorphism, compose_certificates, inner_certificate
    from arrmono.fox import parse_word
    pres, cx = pencil["pres"], pencil["cx"]
    w = parse_word("g1^-1 g2^-1", pres.ngens)
    inner = (Endomorphism.inner(pres.ngens, w), inner_certificate(pres, w))
    twist = (pencil["endo"], pencil["cert"])
    outer, first = (inner, twist) if order == "CT" else (twist, inner)
    endo, cert = compose_certificates(pres, *outer, *first)
    p1 = phi1(endo)
    assert verify_exp_relation(phi2_from_certificate(pres, endo, cert, cx, p1)).passed
    assert verify_exp_relation(p1).passed


def test_exp_relation_identity_case():
    rep = verify_exp_relation(RingMatrix.identity(L, 2))
    assert rep.passed and rep.entrywise_degree2


def test_exp_relation_scalar_case():
    phi = mat(L, [["x1*x2"]])
    rep = verify_exp_relation(phi)
    assert rep.passed and rep.entrywise_degree2


def test_exp_relation_rejects_non_identity_at_one():
    with pytest.raises(NotIdentityAtOne):
        verify_exp_relation(mat(L, [["x1 + 1", "0"], ["0", "1"]]))


def test_chain_identities_in_both_rings(pencil):
    verify_chain_map(pencil["cx"].boundaries, pencil["phis"])
    omegas = {q: pencil["fc"][q] for q in (0, 1, 2)}
    verify_chain_map(pencil["aomoto"].boundaries, omegas)


# -- gauss-manin specialization -------------------------------------------------------


def test_gauss_manin_values(pencil):
    lam = [Fraction(1, 3), Fraction(1, 5), Fraction(2, 7), Fraction(1, 2)]
    ombar = mat(R, OMEGABAR_NONRES)
    gm = evaluate_matrix(ombar, lam)
    assert gm.entries[0][0] == Fraction(8, 15)
    assert gm.entries[1][0] == Fraction(1, 5)
    assert gm.entries[0][1] == 0 and gm.entries[1][1] == 0
    assert evaluate_matrix(pencil["fc"][1], [0, 0, 0, 0]).is_zero()
    res = evaluate_matrix(mat(R, [["y1+y2"]]), lam)
    assert res.entries[0][0] == Fraction(8, 15)


# -- certified eigen structure ---------------------------------------------------------


def test_eigen_monomials_twist(pencil):
    assert eigen_monomials(pencil["phis"][1]).multiset() == {
        (0, 0, 0, 0): 3, (1, 1, 0, 0): 1}
    assert eigen_monomials(pencil["phis"][2]).multiset() == {
        (0, 0, 0, 0): 3, (1, 1, 0, 0): 2}


def test_eigen_linear_forms_twist(pencil):
    assert eigen_linear_forms(pencil["fc"][1]).multiset() == {
        (0, 0, 0, 0): 3, (1, 1, 0, 0): 1}
    assert eigen_linear_forms(pencil["fc"][2]).multiset() == {
        (0, 0, 0, 0): 3, (1, 1, 0, 0): 2}


def test_eigen_edge_cases():
    assert eigen_monomials(RingMatrix.identity(L, 3)).multiset() == {(0, 0, 0, 0): 3}
    assert eigen_linear_forms(RingMatrix.zero(R, 4, 4)).multiset() == {(0, 0, 0, 0): 4}


def test_eigen_monomials_negative_exponents():
    m = mat(L, [["x1^-1*x2^-1", "0"], ["x2 - 1", "1"]])
    assert eigen_monomials(m).multiset() == {(-1, -1, 0, 0): 1, (0, 0, 0, 0): 1}


def test_eigen_monomials_requires_identity_at_one():
    with pytest.raises(NotIdentityAtOne):
        eigen_monomials(mat(L, [["x1 + x2"]]))


def test_eigen_monomials_factorization_failure():
    # Identity at 1, but the eigenvalues 1 +- sqrt((x1-1)(x2-1)) are not
    # Laurent monomials.
    m = mat(L, [["1", "x1 - 1"], ["x2 - 1", "1"]])
    assert evaluate_matrix(m, [1, 1, 1, 1]).is_identity()
    with pytest.raises(FactorizationFailed):
        eigen_monomials(m)


def test_eigen_monomials_beyond_sixteen_variables():
    # More variables than the sixteen primes of the old probe point.
    l17 = laurent_ring(17)
    assert eigen_monomials(RingMatrix.identity(l17, 1)).multiset() == {(0,) * 17: 1}
    m = mat(l17, [["x1*x17", "0"], ["x2 - 1", "x17^-1"]])
    assert eigen_monomials(m).multiset() == {
        (1,) + (0,) * 15 + (1,): 1, (0,) * 16 + (-1,): 1}


def test_eigen_linear_forms_large_constant_term():
    # char = (z - 7 y1)^24: the axis probe has constant term 7^24, whose
    # divisors lie far beyond the root bound 2 * 24 * 7.
    m = RingMatrix.identity(R, 24).map_entries(lambda e: e.scale(7) * R.variable(1))
    assert eigen_linear_forms(m).multiset() == {(7, 0, 0, 0): 24}


def test_integer_roots_with_multiplicity():
    from arrmono.connection import _integer_roots
    # (z - 7)^24 (z + 3)^2 z^3 (z - 1000), coefficients lowest degree first.
    poly = [1]
    for root, mult in ((7, 24), (-3, 2), (0, 3), (1000, 1)):
        for _ in range(mult):
            poly = [a - root * b for a, b in zip([0] + poly, poly + [0])]
    roots = _integer_roots([Fraction(c) for c in poly])
    assert roots == {7: 24, -3: 2, 0: 3, 1000: 1}
    # z^2 - 3/2 z + 1/2 = (z - 1)(z - 1/2) has the single integer root 1.
    assert _integer_roots([Fraction(1, 2), Fraction(-3, 2), Fraction(1)]) == {1: 1}
    assert _integer_roots([Fraction(2), Fraction(0), Fraction(1)]) == {}


def _expand(factors):
    """Coefficients, lowest degree first, of a product of monic factors
    given lowest degree first."""
    poly = [Fraction(1)]
    for f in factors:
        out = [Fraction(0)] * (len(poly) + len(f) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(f):
                out[i + j] += a * b
        poly = out
    return poly


def test_integer_roots_cost_follows_bit_size():
    # A divisor scan up to the root bound would try about 10^12 candidates.
    from arrmono.connection import _integer_roots
    big = 10 ** 12 + 39
    start = time.perf_counter()
    roots = _integer_roots(_expand([[-big, 1], [3, 1], [3, 1]]))
    assert time.perf_counter() - start < 1.0
    assert roots == {big: 1, -3: 2}


def divisor_scan_roots(coeffs):
    """Integer roots by trial of the divisors of c0 up to Fujiwara's bound."""
    den = math.lcm(*(c.denominator for c in coeffs))
    work = [int(c * den) for c in coeffs]
    roots = {}
    while len(work) > 1 and work[0] == 0:
        work.pop(0)
        roots[0] = roots.get(0, 0) + 1
    degree = len(work) - 1
    if degree == 0:
        return roots
    bound = 2 * max(math.ceil(Fraction(abs(work[degree - k]), den) ** (1 / k))
                    for k in range(1, degree + 1)) + 2
    c0 = abs(work[0])
    for cand in range(1, bound + 1):
        if c0 % cand:
            continue
        for r in (cand, -cand):
            while len(work) > 1:
                out, carry = [], 0
                for c in reversed(work):
                    carry = carry * r + c
                    out.append(carry)
                if out.pop() != 0:
                    break
                work = out[::-1]
                roots[r] = roots.get(r, 0) + 1
    return roots


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-12, 12), max_size=8),
       st.lists(st.sampled_from([(Fraction(-1, 2), 1), (Fraction(2, 3), 1), (1, 0, 1),
                                 (-2, 0, 1), (1, 1, 1), (Fraction(-9, 4), 0, 1)]),
                max_size=3))
def test_integer_roots_match_divisor_scan(int_roots, others):
    from arrmono.connection import _integer_roots
    coeffs = _expand([[-r, 1] for r in int_roots] + [[Fraction(c) for c in f] for f in others])
    assert _integer_roots(coeffs) == divisor_scan_roots(coeffs)


def test_exp_relation_negative_gauge_verdict():
    # exp-substituted, x1^2 - x1 + 1 has degree-2 part 3/2 y1^2 against
    # Omega^2 / 2 = y1^2 / 2, and a diagonal Omega leaves no gauge room on
    # the diagonal.
    l1 = laurent_ring(1)
    report = verify_exp_relation(mat(l1, [["x1^2 - x1 + 1"]]))
    assert report.passed is False
    assert report.mismatch == "degree-2 terms are not gauge conjugate"
    l2 = laurent_ring(2)
    report = verify_exp_relation(mat(l2, [["x1^2 - x1 + 1", "0"], ["0", "x2"]]))
    assert report.passed is False
    assert report.mismatch == "degree-2 terms are not gauge conjugate"


def test_eigen_linear_forms_rejects_nonlinear():
    with pytest.raises(ValueError):
        eigen_linear_forms(mat(R, [["y1*y2"]]))


def test_eigen_linear_forms_failure():
    # Eigenvalues +-sqrt(y1*y2) are not linear forms.
    m = mat(R, [["0", "y1"], ["y2", "0"]])
    with pytest.raises(FactorizationFailed):
        eigen_linear_forms(m)


def test_eigen_linear_forms_cost_follows_spectrum_not_multiplicity():
    # char = (z - l)^28 in 8 variables has 237,336 terms expanded; shifted
    # by l it is z^28, so certifying the one factor is cheap.
    r8 = poly_ring(8)
    form = (1, 0, 1, 0, -1, 1, 0, 1)
    omega = RingMatrix.identity(r8, 28).map_entries(lambda e: e * r8.linear_form(form))
    start = time.perf_counter()
    report = eigen_linear_forms(omega)
    assert time.perf_counter() - start < 2.0
    assert report.multiset() == {form: 28}


def test_shift_by_dominant_form_still_rejects_non_splitting():
    # block-diag(l I_3, [[0, y1], [y2, 0]]): l = y1 + y2 is the dominant
    # candidate, but +-sqrt(y1*y2) stays a remainder after the shift.
    m = mat(R, [["y1 + y2", "0", "0", "0", "0"],
                ["0", "y1 + y2", "0", "0", "0"],
                ["0", "0", "y1 + y2", "0", "0"],
                ["0", "0", "0", "0", "y1"],
                ["0", "0", "0", "y2", "0"]])
    with pytest.raises(FactorizationFailed):
        eigen_linear_forms(m)


def test_a_candidate_that_divides_one_block_but_not_the_others_fails():
    # block-diag([y1], [[0, y1], [y2, 0]]): y1 divides the 1 x 1 block, and
    # +-sqrt(y1*y2) stays in the other.
    from arrmono.connection import _certified
    r2 = poly_ring(2)
    m = mat(r2, [["y1", "0", "0"], ["0", "0", "y1"], ["0", "y2", "0"]])
    cp = char_poly(m)
    assert len(cp.factors) == 2
    y1 = r2.linear_form((1, 0))
    with pytest.raises(FactorizationFailed, match="2 eigenvalues are not"):
        _certified(cp, "linear_form", [((1, 0), y1.terms, None)])
    with pytest.raises(FactorizationFailed, match="2 eigenvalues are not"):
        eigen_linear_forms(m)
    # diag(y1, y1) is one factor that two blocks have: a limit of 1 admits
    # neither division, and a limit of 2 both.
    twice = mat(r2, [["y1", "0"], ["0", "y1"]])
    with pytest.raises(FactorizationFailed, match="2 eigenvalues are not"):
        _certified(char_poly(twice), "linear_form", [((1, 0), y1.terms, 1)])
    report = _certified(char_poly(twice), "linear_form", [((1, 0), y1.terms, 2)])
    assert report.multiset() == {(1, 0): 2} and report.size == 2


def test_a_diagonal_omega_certifies_one_block_at_a_time():
    # Entry i is e_{floor(i/2) mod 8} * (-1)^i + e_{(3i+1) mod 8}: the
    # whole-matrix polynomial of this 20 x 20 Omega in 8 variables has
    # coefficients with thousands of terms; its blocks are 1 x 1.
    r8 = poly_ring(8)
    forms = []
    for i in range(20):
        form = [0] * 8
        form[i // 2 % 8] += (-1) ** i
        form[(3 * i + 1) % 8] += 1
        forms.append(tuple(form))
    omega = RingMatrix.from_rows(r8, [{i: r8.linear_form(f)} for i, f in enumerate(forms)], 20)
    want = {}
    for f in forms:
        want[f] = want.get(f, 0) + 1
    start = time.perf_counter()
    report = eigen_linear_forms(omega)
    assert time.perf_counter() - start < 0.05
    assert report.multiset() == want and report.size == 20


# -- Kronecker probe against the axis-probe search ----------------------------------


def axis_probe_linear_forms(omega):
    """The former candidate search, kept as an oracle: integer roots at every
    unit vector, their cartesian product filtered at a seeded generic point,
    and exact division of the cleared characteristic polynomial.  The
    multiset of certified factors, or FactorizationFailed."""
    from arrmono.connection import _eval_univariate, _integer_roots
    from arrmono.linalg import _cleared, _terms, divide_linear_terms
    ring, n, size = omega.ring, omega.ring.nvars, omega.rows
    cp = char_poly(omega)
    per_axis = []
    for j in range(n):
        roots = _integer_roots([c.evaluate([int(i == j) for i in range(n)]) for c in cp.coeffs])
        if sum(roots.values()) != size:
            raise FactorizationFailed(f"axis probe {j + 1} has non-integer eigenvalues")
        per_axis.append(sorted(roots))
    rng = random.Random(0)
    generic = [Fraction(rng.randint(2, 97), rng.randint(1, 9)) for _ in range(n)]
    cp_generic = [c.evaluate(generic) for c in cp.coeffs]
    cleared, _ = _cleared([_terms(c) for c in cp.coeffs])
    stack = [()]
    for axis in per_axis:
        stack = [t + (r,) for t in stack for r in axis]
    out = {}
    for cand in sorted(stack):
        value = sum(Fraction(c) * g for c, g in zip(cand, generic))
        if _eval_univariate(cp_generic, value) != 0:
            continue
        root = ring.linear_form(cand).terms
        while (nxt := divide_linear_terms(cleared, root, ring)) is not None:
            cleared = nxt
            out[cand] = out.get(cand, 0) + 1
    if len(cleared) > 1:
        raise FactorizationFailed(f"{len(cleared) - 1} eigenvalues are not integral linear forms")
    return out


@st.composite
def conjugated_triangular(draw):
    """(U * T * U^-1, diagonal of T) for an upper-triangular T of integral
    linear forms and a unimodular integer U, a product of elementary
    matrices.  The diagonal is drawn from a pool of at most size forms, so
    a form often repeats and the shifted certification is exercised."""
    n = draw(st.integers(1, 3))
    size = draw(st.integers(1, 5))
    ring = poly_ring(n)
    coeffs = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple)
    pool = draw(st.lists(coeffs, min_size=1, max_size=size))
    diag = [draw(st.sampled_from(pool)) for _ in range(size)]
    t_rows = [{} for _ in range(size)]
    for i in range(size):
        t_rows[i][i] = ring.linear_form(diag[i])
        for j in range(i + 1, size):
            t_rows[i][j] = ring.linear_form(draw(coeffs))
    t = RingMatrix.from_rows(ring, t_rows, size)
    u, u_inv = RingMatrix.identity(ring, size), RingMatrix.identity(ring, size)
    if size > 1:
        pairs = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1),
                          st.integers(-2, 2)).filter(lambda p: p[0] != p[1])
        for i, j, c in draw(st.lists(pairs, max_size=4)):
            e_rows = RingMatrix.identity(ring, size).entries
            e_inv_rows = RingMatrix.identity(ring, size).entries
            e_rows[i][j] = ring.const(c)
            e_inv_rows[i][j] = ring.const(-c)
            e, e_inv = RingMatrix(ring, e_rows), RingMatrix(ring, e_inv_rows)
            u, u_inv = u * e, e_inv * u_inv
    assert (u * u_inv).is_identity()
    multiset = {}
    for d in diag:
        multiset[d] = multiset.get(d, 0) + 1
    return u * t * u_inv, multiset


@settings(max_examples=100, deadline=None)
@given(conjugated_triangular())
def test_kronecker_probe_matches_axis_probe_search(case):
    omega, diagonal = case
    got = eigen_linear_forms(omega)
    assert got.multiset() == axis_probe_linear_forms(omega) == diagonal
    assert [f.data for f in got.factors] == sorted(diagonal)


def test_kronecker_bound_is_the_largest_row_sum():
    # y1 times the 3 x 3 all-ones matrix has the eigen-form 3 y1, beyond every
    # entry; the Gershgorin bound K = 3 (not the largest entry, 1) keeps its
    # coefficient a single digit.
    omega = mat(R, [["y1", "y1", "y1"]] * 3)
    want = {(3, 0, 0, 0): 1, (0, 0, 0, 0): 2}
    assert eigen_linear_forms(omega).multiset() == axis_probe_linear_forms(omega) == want


def test_spurious_kronecker_root_is_rejected():
    from arrmono.connection import _balanced_digits, _integer_roots
    # char = z^2 - 4 y1 y2.  K = 4, so the probe is (y1, y2) = (1, 9), where
    # z^2 - 36 has the integer roots +-6; they decode to the forms
    # -+(3 y1 - y2), which do not divide.
    r2 = poly_ring(2)
    assert _integer_roots([-36, 0, 1]) == {-6: 1, 6: 1}
    assert _balanced_digits(6, 9, 2) == (-3, 1)
    with pytest.raises(FactorizationFailed):
        eigen_linear_forms(mat(r2, [["0", "4*y1"], ["y2", "0"]]))


def test_kronecker_probe_on_wide_diagonal():
    # A 10 x 10 diagonal of forms in 8 variables with coefficients in
    # [-2, 2]: the axis-probe search filtered up to 5^8 candidate tuples
    # here.  Its duration shows in pytest --durations; no time is asserted.
    rng = random.Random(8)
    r8 = poly_ring(8)
    forms = [tuple(rng.randint(-2, 2) for _ in range(8)) for _ in range(10)]
    omega = RingMatrix.from_rows(r8, [{i: r8.linear_form(f)} for i, f in enumerate(forms)], 10)
    want = {}
    for f in forms:
        want[f] = want.get(f, 0) + 1
    assert eigen_linear_forms(omega).multiset() == want


def test_linear_coefficients_rebuild_the_matrix(pencil):
    from arrmono.connection import linear_coefficients
    for q in (1, 2):
        om = pencil["fc"][q]
        assert len(linear_coefficients(om)) == R.nvars
        assert rebuild_from_linear_coefficients(om) == om
    for bad in ("1/2*y1", "y1*y2", "y1 + 1", "y1^2", "-3/4*y2 + y3"):
        with pytest.raises(ValueError, match="not an integral linear form"):
            linear_coefficients(mat(R, [["0", bad]]))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.integers(-10 ** 12, 10 ** 12) | st.just(0),
                       min_size=n, max_size=n).map(tuple)))
def test_linear_form_and_linear_coefficients_round_trip(coeffs):
    from arrmono.connection import linear_coefficients
    ring = poly_ring(len(coeffs))
    form = ring.linear_form(coeffs)
    assert form.is_zero() == (not any(coeffs))
    assert form == sum((ring.variable(j).scale(c) for j, c in enumerate(coeffs, start=1)),
                       ring.zero())
    parts = linear_coefficients(RingMatrix(ring, [[form]]))
    assert tuple(part[0].get(0, 0) for part in parts) == coeffs
    assert ring.linear_form(tuple(part[0].get(0, 0) for part in parts)) == form


def test_formal_connection_rejects_a_half_integral_linear_part():
    # Phi = [[1 + x1/2 - 1/2]] is the identity at x = 1, and its linear part
    # y1/2 is not integral.
    phi = mat(L, [["1/2*x1 + 1/2"]])
    with pytest.raises(FactorizationFailed, match=r"degree 1 .*1/2\*y1"):
        formal_connection({0: RingMatrix.identity(L, 1), 1: phi})


# -- the degree-2 gauge system against the dense Fraction builder ---------------------


def dense_gauge_system(omega, rhs):
    """The former dense builder, kept as an oracle: a Fraction grid filled
    entry by entry from the Poly terms of Omega."""
    ring, s = omega.ring, omega.rows
    n = ring.nvars
    monomials = [(i, j) for i in range(n) for j in range(i, n)]
    mono_index = {m: idx for idx, m in enumerate(monomials)}
    rows, cols = s * s * len(monomials), s * s * n
    system = [[Fraction(0)] * cols for _ in range(rows)]
    rhs_vec = [Fraction(0)] * rows

    def ridx(a, b, m):
        return (a * s + b) * len(monomials) + m

    def cidx(a, b, v):
        return (a * s + b) * n + v

    for a in range(s):
        for b in range(s):
            for k in range(s):
                for e, c in omega.entries[k][b].sorted_terms():
                    u = e.index(1)
                    for v in range(n):
                        system[ridx(a, b, mono_index[(min(u, v), max(u, v))])][cidx(a, k, v)] += c
            for k in range(s):
                for e, c in omega.entries[a][k].sorted_terms():
                    u = e.index(1)
                    for v in range(n):
                        system[ridx(a, b, mono_index[(min(u, v), max(u, v))])][cidx(k, b, v)] -= c
            for e, c in rhs.entries[a][b].sorted_terms():
                support = [i for i, k in enumerate(e) if k]
                m = (support[0], support[-1])
                rhs_vec[ridx(a, b, mono_index[m])] = c
    return system, rhs_vec


def _boolean_inner_loop():
    """Degree 1 of an inner loop on Z^6 with support 3, as in the
    benchmark's boolean-inner workload."""
    from itertools import combinations
    from arrmono import (Endomorphism, Word, inner_certificate, parse_presentation,
                         universal_complex)
    n = 6
    pres = parse_presentation(f"generators {n}\n" + "\n".join(
        f"[g{i}, g{j}]" for i, j in combinations(range(1, n + 1), 2)))
    w = Word.from_letters(n, [(4, 1), (1, -1), (6, 1)])
    endo = Endomorphism.inner(n, w)
    p1 = phi1(endo)
    phis = {0: RingMatrix.identity(pres.ring(), 1), 1: p1,
            2: phi2_from_certificate(pres, endo, inner_certificate(pres, w),
                                     universal_complex(pres), p1)}
    return phis[1], formal_connection(phis)[1]


def reached_oracle_rows(system, rhs_vec):
    """The rows of the dense oracle's system, in order, that lie in a
    connected component of its row-column graph holding a nonzero right
    side: a union-find over rows r and columns as -1 - j."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = x = parent[parent[x]]
        return x

    for r, row in enumerate(system):
        for j, v in enumerate(row):
            if v:
                parent[find(r)] = find(-1 - j)
    sources = {find(r) for r, c in enumerate(rhs_vec) if c}
    return [r for r in range(len(system)) if find(r) in sources]


def oracle_for(phi):
    """(Omega, 2R by the former Poly matrix route, the jet's Phi_2) of a
    representation matrix."""
    from arrmono.linalg import mat_exp_truncated, series_matrix
    _, omega, phi2 = series_matrix(phi)
    return omega, (phi2 - mat_exp_truncated(omega)[2]).scale(2), phi2


def emitted_matches_oracle(omega, rhs, phi2):
    """The emitted system is the dense oracle's part that the nonzero right
    sides reach: the same rows in the same (entry, monomial) order, as ints
    on an integral Omega, with the same right sides, as rational matrices.
    rhs is 2R, and phi2 the part of degree 2 that the builder reads it from.
    Returns (A, b, oracle rows kept, the oracle system, its right side)."""
    from arrmono.connection import _GaugeEquations
    gauge = _GaugeEquations(omega)
    a, b = gauge.reached_system(gauge.twice_remainder(phi2))
    want, want_rhs = dense_gauge_system(omega, rhs)
    kept = reached_oracle_rows(want, want_rhs)
    assert a.ring == b.ring == QQ and b.cols == 1
    assert a.shape() == (len(kept), len(want[0]))
    assert a.entries == [want[r] for r in kept]  # equal as rationals, entry by entry
    integral = all(type(c) is int for row in omega.nonzero_rows()
                   for e in row.values() for c in e.terms.values())
    assert integral <= all(type(v) is int for row in a.nonzero_rows() for v in row.values())
    assert [v for v, in b.entries] == [want_rhs[r] for r in kept]
    return a, b, kept, want, want_rhs


def test_gauge_grid_matches_dense_fraction_builder(pencil):
    cases = [pencil["phis"][1], pencil["phis"][2], _boolean_inner_loop()[0]]
    for phi in cases:
        omega, rhs, phi2 = oracle_for(phi)
        assert not rhs.is_zero()
        _, _, kept, want, _ = emitted_matches_oracle(omega, rhs, phi2)
        assert 0 < len(kept) < len([r for r in want if any(r)])
        assert verify_exp_relation(phi).passed


def test_gauge_system_keeps_an_equation_with_zero_left_side():
    """A right side on a monomial that no term of Omega reaches gives the
    row 0 = c; it stays in the system, so the solve reports no gauge."""
    from arrmono.linalg import mat_exp_truncated
    r2 = poly_ring(2)
    omega = mat(r2, [["y1", "0"], ["0", "0"]])
    rhs = mat(r2, [["0", "y2^2"], ["0", "0"]])
    phi2 = mat_exp_truncated(omega)[2] + rhs.scale(Fraction(1, 2))
    a, b, _, _, _ = emitted_matches_oracle(omega, rhs, phi2)
    assert [0] * a.cols in a.entries
    with pytest.raises(NoSolution):
        solve_right(a, b)


def _corrupted(phi, rng):
    """phi with c * (x_i - 1) * (x_j - 1) added to one entry: the same
    value at x = 1 and Omega, and c * y_i * y_j more in Phi_2."""
    ring = phi.ring
    i, j = rng.randrange(ring.nvars), rng.randrange(ring.nvars)
    c = rng.choice([-2, -1, 1, 2])
    bump = (ring.variable(i + 1) - ring.one()) * (ring.variable(j + 1) - ring.one())
    rows = phi.nonzero_rows()
    a, b = rng.randrange(phi.rows), rng.randrange(phi.cols)
    rows[a][b] = phi[a, b] + bump.scale(c)
    return RingMatrix.from_rows(ring, rows, phi.cols)


def assert_reached_verdict_is_whole_verdict(phi):
    """verify_exp_relation's verdict, decided on the reached part, is the
    verdict of solve_right on the dense oracle's whole system; returns it."""
    omega, rhs, phi2 = oracle_for(phi)
    passed = verify_exp_relation(phi).passed
    if rhs.is_zero():
        assert passed
        return passed
    *_, want, want_rhs = emitted_matches_oracle(omega, rhs, phi2)
    try:
        solve_right(RingMatrix(QQ, want), RingMatrix(QQ, [[c] for c in want_rhs]))
        whole = True
    except NoSolution:
        whole = False
    assert passed == whole
    return passed


def test_reached_verdict_is_the_whole_system_verdict(pencil):
    """Fixtures, the boolean-inner loop and their corruptions: both verdicts
    occur, and the reached part decides each as the whole system does."""
    rng = random.Random(30)
    phis = [pencil["phis"][1], pencil["phis"][2], _boolean_inner_loop()[0]]
    phis += [_corrupted(phi, rng) for phi in phis for _ in range(4)]
    verdicts = [assert_reached_verdict_is_whole_verdict(phi) for phi in phis]
    assert verdicts[:3] == [True] * 3 and False in verdicts


def test_reached_verdict_with_rational_coefficients():
    """A Phi with rational coefficients, whose Omega is not integral, gets a
    verdict too, the whole system's."""
    l2 = laurent_ring(2)
    cases = [[["1/2*x1 + 1/2", "x2 - 1"], ["0", "1"]],
             [["1/2*x1 + 1/2", "1/3*x2 - 1/3"], ["0", "x1"]],
             [["x1", "1/2*x2 - 1/2"], ["0", "1"]],
             [["x1", "1/2*x1*x2 - 1/2*x1"], ["0", "x2"]]]
    assert {assert_reached_verdict_is_whole_verdict(mat(l2, rows)) for rows in cases} \
        == {True, False}


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 100_000))
def test_reached_verdict_on_random_certified_loops(pencil, certified_generators, seed):
    rng = random.Random(seed)
    pres, cx = pencil["pres"], pencil["cx"]
    endo, cert = random_certified_endo(rng, pres, certified_generators)
    p1 = phi1(endo)
    p2 = phi2_from_certificate(pres, endo, cert, cx, p1)
    for phi in (p1, p2, _corrupted(p1, rng), _corrupted(p2, rng)):
        assert_reached_verdict_is_whole_verdict(phi)


def test_gauge_check_runs_no_back_substitution(pencil, monkeypatch):
    """The gauge check needs consistency alone, which forward elimination
    proves: the fraction-free solve, which only the solution and the kernel
    read, never runs."""
    from arrmono import linalg
    calls = []
    solve = linalg._fraction_free_solve
    monkeypatch.setattr(linalg, "_fraction_free_solve",
                        lambda *args: calls.append(1) or solve(*args))
    for phi in (pencil["phis"][1], pencil["phis"][2], _boolean_inner_loop()[0]):
        rep = verify_exp_relation(phi)
        assert rep.passed and not rep.entrywise_degree2
    assert calls == []
    # The spy sees the phase where a result is read, and only once.
    res = solve_right(RingMatrix(QQ, [[1, 2], [2, 4]]), RingMatrix(QQ, [[1], [2]]))
    assert res.kernel_dimension == 1 and calls == []
    assert res.kernel == [[-2, 1]] and calls == [1]
    assert res.cleared.entries == [[1], [0]] and res.kernel == [[-2, 1]] and calls == [1]


def test_spectra_correspondence(pencil):
    for q in (1, 2):
        er = eigen_monomials(pencil["phis"][q])
        eo = eigen_linear_forms(pencil["fc"][q])
        assert spectra_correspond(er, eo)


def test_monomial_factors_evaluate_to_specialized_eigenvalues(pencil):
    """Expanding prod (z - r(t))^k over the certified factors must rebuild
    the characteristic polynomial of the specialized matrix exactly."""
    t = [Fraction(2), Fraction(3), Fraction(5), Fraction(7)]
    er = eigen_monomials(pencil["phis"][1])
    cp = char_poly(evaluate_matrix(pencil["phis"][1], t))
    coeffs = [Fraction(1)]
    for f in er.factors:
        v = Fraction(1)
        for base, e in zip(t, f.data):
            v *= base ** e
        for _ in range(f.multiplicity):
            # multiply the coefficient list by (z - v)
            coeffs = [Fraction(0)] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= v * coeffs[i + 1]
    assert coeffs == list(cp.coeffs)


def test_linear_form_factors_hit_gauss_manin_eigenvalues(pencil):
    """Each certified linear-form factor of Omega, evaluated at weights, is
    an eigenvalue of the specialized connection matrix."""
    lam = [Fraction(2, 3), Fraction(-1, 2), Fraction(5, 7), Fraction(3)]
    for q in (1, 2):
        om = pencil["fc"][q]
        gm = evaluate_matrix(om, lam)
        cp = char_poly(gm)
        for f in eigen_linear_forms(om).factors:
            value = sum(Fraction(c) * l for c, l in zip(f.data, lam))
            assert _eval_list(list(cp.coeffs), value) == 0


def test_exponent_log_bookkeeping_one_by_one(pencil):
    """x1*x2 pairs with y1 + y2: exponents equal coefficients, so the formal
    substitution x = exp(-2 pi i lambda) sends one factor to the other."""
    er = eigen_monomials(mat(L, [["x1*x2"]]))
    eo = eigen_linear_forms(mat(R, [["y1+y2"]]))
    assert er.factors[0].data == eo.factors[0].data


# -- induced maps -----------------------------------------------------------------------


def test_nonresonant_projection_and_induced(pencil):
    proj = pencil["proj_nonres"]
    verify_projection(pencil["cx"].boundaries[1], pencil["aomoto"].boundaries[1], proj)
    phibar = induced_map(proj.xi, pencil["phis"][2])
    ombar = induced_map(proj.upsilon, pencil["fc"][2])
    assert phibar == mat(L, PHIBAR_NONRES)
    assert ombar == mat(R, OMEGABAR_NONRES)


def test_resonant_projection_and_induced(pencil):
    proj = pencil["proj_res"]
    assert proj.locus is not None
    verify_projection(pencil["cx"].boundaries[1], pencil["aomoto"].boundaries[1], proj)
    phibar = induced_map(proj.xi, pencil["phis"][2])
    ombar = induced_map(proj.upsilon, pencil["fc"][2])
    assert phibar == mat(L, PHIBAR_RES)
    assert ombar == mat(R, OMEGABAR_RES)


def test_resonant_projection_fails_without_locus(pencil):
    from arrmono import ProjectionData, VerificationFailed
    proj = pencil["proj_res"]
    bare = ProjectionData(xi=proj.xi, upsilon=proj.upsilon, locus=None)
    with pytest.raises(VerificationFailed):
        verify_projection(pencil["cx"].boundaries[1], pencil["aomoto"].boundaries[1], bare)


def test_induced_map_identity_projection(pencil):
    eye = RingMatrix.identity(L, 5)
    assert induced_map(eye, pencil["phis"][2]) == pencil["phis"][2]


def test_induced_eigenvalues(pencil):
    phibar = mat(L, PHIBAR_NONRES)
    assert eigen_monomials(phibar).multiset() == {(1, 1, 0, 0): 1, (0, 0, 0, 0): 1}
    ombar_res = mat(R, OMEGABAR_RES)
    assert eigen_linear_forms(ombar_res).multiset() == {(1, 1, 0, 0): 2, (0, 0, 0, 0): 1}


# -- cohomology action --------------------------------------------------------------------


def _action_at(pencil, t):
    cx = pencil["cx"].specialize(t)
    maps = {q: evaluate_matrix(m, t) for q, m in pencil["phis"].items()}
    return cohomology_action(cx, maps)


def test_cohomology_action_nonresonant(pencil):
    t = [Fraction(2)] * 4
    act = _action_at(pencil, t)
    assert act.betti == [0, 0, 2]
    cp = char_poly(act.matrices[2])
    # eigenvalues {t1 t2, 1} = {4, 1}
    assert list(cp.coeffs) == [Fraction(4), Fraction(-5), Fraction(1)]


def test_cohomology_action_resonant(pencil):
    t = [Fraction(2), Fraction(3), Fraction(1, 6), Fraction(1)]
    act = _action_at(pencil, t)
    assert act.betti == [0, 1, 3]
    assert act.matrices[1].entries == [[Fraction(6)]]
    cp2 = char_poly(act.matrices[2])
    # eigenvalues {t1 t2 = 6 (twice), 1}: (z-6)^2 (z-1)
    assert list(cp2.coeffs) == [Fraction(-36), Fraction(48), Fraction(-13), Fraction(1)]


@pytest.mark.parametrize("shift", [-1, 1])
def test_cohomology_action_checks_the_quotient_dimension(pencil, monkeypatch, shift):
    """A betti count that disagrees with the completed basis is a named
    failure, which python -O does not skip."""
    t = [Fraction(2)] * 4
    betti = RingComplex.betti
    monkeypatch.setattr(RingComplex, "betti",
                        lambda self: [h + shift if q == 2 else h
                                      for q, h in enumerate(betti(self))])
    with pytest.raises(VerificationFailed, match="2 representatives in degree 2, "
                                                 f"betti number {2 + shift}") as info:
        _action_at(pencil, t)
    assert info.value.name == "cohomology.quotient_dimension"


def test_cohomology_action_identity_maps(pencil):
    t = [Fraction(2)] * 4
    cx = pencil["cx"].specialize(t)
    maps = {q: RingMatrix.identity(QQ, r) for q, r in enumerate(cx.ranks)}
    act = cohomology_action(cx, maps)
    for m in act.matrices.values():
        assert m.is_identity()


def test_cohomology_eigenvalues_are_monomial_evaluations(pencil):
    """Eigenvalues of the induced cohomology action at t are evaluations of
    the certified monomial factors of the chain-level matrices."""
    t = [Fraction(3), Fraction(5), Fraction(2), Fraction(7)]
    act = _action_at(pencil, t)
    er = eigen_monomials(pencil["phis"][2])
    allowed = set()
    for f in er.factors:
        v = Fraction(1)
        for base, e in zip(t, f.data):
            v *= base ** e
        allowed.add(v)
    cp = char_poly(act.matrices[2])
    # all roots of cp lie in the allowed set
    remaining = list(cp.coeffs)
    for v in sorted(allowed):
        while len(remaining) > 1 and _eval_list(remaining, v) == 0:
            remaining = _deflate(remaining, v)
    assert len(remaining) == 1


def _eval_list(coeffs, v):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * v + c
    return acc


def _deflate(coeffs, v):
    out = []
    carry = coeffs[-1]
    for i in range(len(coeffs) - 2, -1, -1):
        out.append(carry)
        carry = coeffs[i] + v * carry
    assert carry == 0
    return list(reversed(out))


def per_vector_cohomology_action(cx, maps):
    """The former algorithm, kept as an oracle: take as image basis the
    incoming boundary's rows that raise the rank, complete it to a kernel
    basis one kernel vector at a time, keeping a vector when it raises the
    rank of the stack, and solve for the coordinates of each
    representative's image separately.  Its ranks come from conftest's
    forward-elimination _rank, not from the fraction-free elimination that
    cohomology_action and RingComplex.betti use.  (betti, matrices,
    representatives)."""
    ranks = [_rank(b.entries) for b in cx.boundaries] + [0]
    betti = [bq - ranks[q] - (ranks[q - 1] if q else 0) for q, bq in enumerate(cx.ranks)]
    matrices, reps = {}, {}
    for q in sorted(maps):
        bq = cx.ranks[q]
        if q < len(cx.boundaries):
            d = cx.boundaries[q]
            kernel = solve_right(d.transpose(), RingMatrix.zero(QQ, d.cols, 1)).kernel
        else:
            kernel = [[Fraction(int(i == j)) for i in range(bq)] for j in range(bq)]
        image = []
        for row in cx.boundaries[q - 1].entries if q > 0 else []:
            if _rank(image + [row]) > len(image):
                image.append(row)
        stack, chosen = list(image), []
        for v in kernel:
            if _rank(stack + [v]) > len(stack):
                stack.append(v)
                chosen.append(v)
        reps[q] = chosen
        rows = []
        for v in chosen:
            w = [sum(v[k] * maps[q].entries[k][j] for k in range(bq)) for j in range(bq)]
            span = RingMatrix(QQ, [[u[j] for u in stack] for j in range(bq)])
            try:
                res = solve_right(span, RingMatrix(QQ, [[x] for x in w]))
            except NoSolution:
                raise ChainIdentityFailed(f"image of a degree-{q} cocycle left the kernel")
            rows.append([res.cleared.entries[i][0] for i in range(len(image), len(stack))])
        matrices[q] = RingMatrix(QQ, rows) if chosen else RingMatrix.zero(QQ, 0, 0)
    return betti, matrices, reps


weights = st.one_of(
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]),
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9)))


@settings(max_examples=60, deadline=None)
@given(st.lists(weights, min_size=4, max_size=4))
def test_cohomology_action_matches_per_vector_oracle(pencil, t):
    """One elimination per degree picks the same representatives and gives
    the same matrices as the per-vector completion, resonant weights
    included."""
    act = _action_at(pencil, t)
    maps = {q: evaluate_matrix(m, t) for q, m in pencil["phis"].items()}
    betti, matrices, reps = per_vector_cohomology_action(pencil["cx"].specialize(t), maps)
    assert act.betti == betti
    assert act.representatives == reps
    assert act.matrices == matrices


def test_cohomology_action_on_an_incoming_boundary_with_dependent_rows():
    """The incoming boundary's rows feed the completion as they are: a zero
    row and a repeated row are dropped, and the representatives and the
    action are those of the per-vector oracle."""
    half = Fraction(1, 2)
    d0 = RingMatrix(QQ, [[half, -half, 0], [0, 0, 0], [half, -half, 0]])
    d1 = RingMatrix(QQ, [[1], [1], [0]])
    cx = RingComplex(QQ, [3, 3, 1], [d0, d1])
    maps = {0: RingMatrix.identity(QQ, 3),
            1: RingMatrix(QQ, [[2, 0, 0], [1, 1, 0], [0, 0, 3]]),
            2: RingMatrix(QQ, [[2]])}
    act = cohomology_action(cx, maps)
    assert act.betti == [2, 1, 0]
    assert act.matrices[1].entries == [[Fraction(3)]] and act.matrices[0].is_identity()
    assert (act.betti, act.matrices, act.representatives) == per_vector_cohomology_action(cx, maps)
    identity = cohomology_action(cx, {q: RingMatrix.identity(QQ, r)
                                      for q, r in enumerate(cx.ranks)})
    assert all(m.is_identity() for m in identity.matrices.values())


# -- classification -----------------------------------------------------------------------


def test_classify_weights(pencil):
    cx = pencil["cx"]
    nonres = classify_weights(cx, [2, 2, 2, 2])
    assert nonres.verdict() == "non-resonant"
    assert nonres.betti == [0, 0, 2] and nonres.top_matches_euler and nonres.euler == 2
    res = classify_weights(cx, [2, 3, Fraction(1, 6), 1])
    assert res.verdict() == "resonant" and res.betti == [0, 1, 3]
    triv = classify_weights(cx, [1, 1, 1, 1])
    assert triv.verdict() == "trivial" and triv.betti == [1, 4, 5]


# -- randomized loop suite ------------------------------------------------------------------


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 100_000))
def test_random_certified_loops_full_pipeline(pencil, certified_generators, seed):
    rng = random.Random(seed)
    pres, cx = pencil["pres"], pencil["cx"]
    endo, cert = random_certified_endo(rng, pres, certified_generators)
    p1 = phi1(endo)
    p2 = phi2_from_certificate(pres, endo, cert, cx, p1)
    phis = {0: RingMatrix.identity(L, 1), 1: p1, 2: p2}
    fc = formal_connection(phis)
    verify_chain_map(cx.boundaries, phis)
    verify_chain_map(pencil["aomoto"].boundaries,
                     {q: fc[q] for q in (0, 1, 2)})
    for q in (1, 2):
        er = eigen_monomials(phis[q])
        eo = eigen_linear_forms(fc[q])
        assert spectra_correspond(er, eo)
        assert er.multiset() == {f.data: f.multiplicity for f in eo.factors}
