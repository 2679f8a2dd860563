"""Acceptance suite: one test per shipped criterion, each printing a single
PASS/FAIL line.  All comparisons are bit-exact; no tolerances anywhere.

Run with `pytest tests/test_acceptance.py -s` to see the criterion lines.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from arrmono import (
    AbelianizationNotPreserved,
    CertificateInvalid,
    ChainIdentityFailed,
    RingMatrix,
    aomoto_boundary,
    char_poly,
    cohomology_action,
    compute_dependencies,
    classify_weights,
    eigen_linear_forms,
    eigen_monomials,
    evaluate_matrix,
    formal_connection,
    induced_map,
    laurent_ring,
    linearize_matrix,
    load_arrangement,
    load_certificate,
    load_endomorphism,
    load_presentation,
    load_projection,
    nbc_basis,
    parse_endomorphism,
    phi1,
    phi2_from_certificate,
    poly_ring,
    spectra_correspond,
    universal_complex,
    verify_chain_map,
    verify_exp_relation,
    verify_projection,
)
from conftest import (
    DELTA0,
    DELTA1,
    FIXTURES,
    MU0,
    MU1,
    OMEGA1,
    OMEGA2,
    OMEGABAR_NONRES,
    OMEGABAR_RES,
    PHI1,
    PHI2,
    PHIBAR_NONRES,
    PHIBAR_RES,
    betti_oracle,
    mat,
    random_arrangement,
    random_certified_endo,
    rebuild_from_linear_coefficients,
)

L = laurent_ring(4)
R = poly_ring(4)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS")


def test_criterion_1_fox_reconstruction(pencil):
    with criterion(1, "Fox reconstruction"):
        pres = load_presentation(FIXTURES / "pencil4.pres")
        cx = universal_complex(pres)
        assert cx.boundaries[0] == mat(L, DELTA0)
        assert cx.boundaries[1] == mat(L, DELTA1)
        assert (cx.boundaries[0] * cx.boundaries[1]).is_zero()


def test_criterion_2_aomoto_reconstruction(pencil):
    with criterion(2, "Aomoto reconstruction"):
        arr = load_arrangement(FIXTURES / "pencil4.arr")
        basis = nbc_basis(arr, compute_dependencies(arr))
        assert basis.degree(2) == ((0, 1), (0, 2), (0, 3), (1, 3), (2, 3))
        ac = aomoto_boundary(arr)
        assert ac.boundaries[0] == mat(R, MU0)
        assert ac.boundaries[1] == mat(R, MU1)
        for b in ac.boundaries:
            assert rebuild_from_linear_coefficients(b) == b
        cx = pencil["cx"]
        for q in (0, 1):
            const, lin = linearize_matrix(cx.boundaries[q])
            assert const.is_zero()
            assert lin == ac.boundaries[q]


def test_criterion_3_monodromy(pencil):
    with criterion(3, "Monodromy matrices"):
        pres = pencil["pres"]
        endo = load_endomorphism(FIXTURES / "pencil4_twist12.endo", 4)
        cert = load_certificate(FIXTURES / "pencil4_twist12.cert", pres)
        p1 = phi1(endo)
        p2 = phi2_from_certificate(pres, endo, cert, pencil["cx"], p1)
        assert p1 == mat(L, PHI1)
        assert p2 == mat(L, PHI2)
        d0, d1 = pencil["cx"].boundaries
        assert d1 * p2 == p1 * d1
        assert d0 * p1 == d0
        assert evaluate_matrix(p1, [1, 1, 1, 1]).is_identity()
        assert evaluate_matrix(p2, [1, 1, 1, 1]).is_identity()


def test_criterion_4_formal_connection(pencil):
    with criterion(4, "Formal connection"):
        fc = pencil["fc"]
        assert fc[1] == mat(R, OMEGA1)
        assert fc[2] == mat(R, OMEGA2)
        for q in (1, 2):
            assert verify_exp_relation(pencil["phis"][q]).passed
        mu = pencil["aomoto"].boundaries
        verify_chain_map(mu, {0: fc[0], 1: fc[1], 2: fc[2]})


def test_criterion_5_eigen_structure(pencil):
    with criterion(5, "Certified eigen structure"):
        one, x1x2 = (0, 0, 0, 0), (1, 1, 0, 0)
        assert eigen_monomials(pencil["phis"][1]).multiset() == {one: 3, x1x2: 1}
        assert eigen_monomials(pencil["phis"][2]).multiset() == {one: 3, x1x2: 2}
        assert eigen_linear_forms(pencil["fc"][1]).multiset() == {one: 3, x1x2: 1}
        assert eigen_linear_forms(pencil["fc"][2]).multiset() == {one: 3, x1x2: 2}
        for report in (eigen_monomials(pencil["phis"][1]),
                       eigen_monomials(pencil["phis"][2])):
            assert sum(f.multiplicity for f in report.factors) == report.size


def test_criterion_6_induced_maps(pencil):
    with criterion(6, "Induced maps on cohomology"):
        d1 = pencil["cx"].boundaries[1]
        mu1 = pencil["aomoto"].boundaries[1]
        nonres = load_projection(FIXTURES / "pencil4_proj_nonres.txt")
        res = load_projection(FIXTURES / "pencil4_proj_res.txt")
        for proj in (nonres, res):
            verify_projection(d1, mu1, proj)  # D1*Xi = 0 (mod locus), Upsilon = lin(Xi)
        assert induced_map(nonres.xi, pencil["phis"][2]) == mat(L, PHIBAR_NONRES)
        assert induced_map(nonres.upsilon, pencil["fc"][2]) == mat(R, OMEGABAR_NONRES)
        assert induced_map(res.xi, pencil["phis"][2]) == mat(L, PHIBAR_RES)
        assert induced_map(res.upsilon, pencil["fc"][2]) == mat(R, OMEGABAR_RES)


def test_criterion_7_specialization_cohomology(pencil):
    with criterion(7, "Specialization and cohomology action"):
        cx = pencil["cx"]
        t_nonres = [Fraction(2)] * 4
        cls = classify_weights(cx, t_nonres)
        assert cls.betti == [0, 0, 2]
        assert cls.verdict() == "non-resonant"
        assert cls.top_matches_euler and abs(cls.euler) == 2

        t_res = [Fraction(2), Fraction(3), Fraction(1, 6), Fraction(1)]
        assert cx.specialize(t_res).betti() == [0, 1, 3]

        maps_res = {q: evaluate_matrix(m, t_res) for q, m in pencil["phis"].items()}
        act = cohomology_action(cx.specialize(t_res), maps_res)
        assert act.matrices[1].entries == [[Fraction(6)]]  # [t1 * t2]

        maps_non = {q: evaluate_matrix(m, t_nonres) for q, m in pencil["phis"].items()}
        act2 = cohomology_action(cx.specialize(t_nonres), maps_non)
        cp = char_poly(act2.matrices[2])
        t1t2 = t_nonres[0] * t_nonres[1]
        # eigenvalues {t1 t2, 1}: char poly (z - t1t2)(z - 1)
        assert list(cp.coeffs) == [t1t2, -(t1t2 + 1), Fraction(1)]


def test_criterion_8_property_suite(pencil, certified_generators):
    with criterion(8, "Randomized property suite"):
        rng = random.Random(202402)
        for _ in range(50):
            arr = random_arrangement(rng)
            ac = aomoto_boundary(arr)  # raises if mu * mu != 0
            betti = ac.ranks
            # nbc counts against the independent exterior-ideal oracle,
            # degree by degree (implies alternating-sum consistency)
            assert betti == betti_oracle(arr)
            h0 = ac.specialize([0] * arr.n).betti()
            assert h0 == betti
            point = [Fraction(rng.randint(-2, 2)) for _ in range(arr.n)]
            h = ac.specialize(point).betti()
            assert sum((-1) ** q * v for q, v in enumerate(h)) == \
                sum((-1) ** q * b for q, b in enumerate(betti))

        pres, cx = pencil["pres"], pencil["cx"]
        mu = pencil["aomoto"].boundaries
        for _ in range(20):
            endo, cert = random_certified_endo(rng, pres, certified_generators)
            p1 = phi1(endo)
            p2 = phi2_from_certificate(pres, endo, cert, cx, p1)  # chain identity inside
            phis = {0: RingMatrix.identity(L, 1), 1: p1, 2: p2}
            for q in (1, 2):
                assert evaluate_matrix(phis[q], [1] * 4).is_identity()
            verify_chain_map(cx.boundaries, phis)
            fc = formal_connection(phis)
            verify_chain_map(mu, {q: fc[q] for q in (0, 1, 2)})
            for q in (1, 2):
                er = eigen_monomials(phis[q])
                eo = eigen_linear_forms(fc[q])
                # Omega spectrum is the exponent-wise logarithm of Phi's.
                assert er.multiset() == eo.multiset()
                assert spectra_correspond(er, eo)


def test_criterion_9_negative_tests(pencil):
    with criterion(9, "Negative tests"):
        pres, endo = pencil["pres"], pencil["endo"]

        from arrmono.fox import format_certificate, parse_certificate
        broken = format_certificate(pencil["cert"]).replace(
            "( 1 , 2 , -1 )", "( g4 , 2 , -1 )")
        with pytest.raises(CertificateInvalid):
            parse_certificate(broken, pres).validate(pres, endo)

        swapped = parse_endomorphism("g2\ng1\ng3\ng4\n", 4)
        with pytest.raises(AbelianizationNotPreserved):
            phi1(swapped)

        rows = pencil["phis"][2].entries
        rows[2][3] = rows[2][3] + L.variable(1)
        corrupt = RingMatrix(L, rows)
        with pytest.raises(ChainIdentityFailed) as err:
            verify_chain_map(pencil["cx"].boundaries, {1: pencil["phis"][1], 2: corrupt})
        assert err.value.entry is not None
