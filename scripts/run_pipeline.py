#!/usr/bin/env python3
"""End-to-end demo on the pencil4 fixture set: arrangement combinatorics,
both cochain complexes, the twist monodromy matrices, formal connections,
certified spectra, induced cohomology maps, and sample specializations.

Usage:  python scripts/run_pipeline.py
"""

from fractions import Fraction
from pathlib import Path

from arrmono import (
    RingMatrix,
    aomoto_boundary,
    char_poly,
    classify_weights,
    cohomology_action,
    eigen_linear_forms,
    eigen_monomials,
    evaluate_matrix,
    formal_connection,
    induced_map,
    load_arrangement,
    load_certificate,
    load_endomorphism,
    load_presentation,
    load_projection,
    phi1,
    phi2_from_certificate,
    poly_ring,
    verify_exp_relation,
    verify_projection,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def show(name, matrix):
    print(f"{name} =")
    widths = [max(len(str(matrix.entries[i][j])) for i in range(matrix.rows))
              for j in range(matrix.cols)]
    for row in matrix.entries:
        print("   [ " + "   ".join(str(e).rjust(w) for e, w in zip(row, widths)) + " ]")
    print()


def main():
    arr = load_arrangement(FIXTURES / "pencil4.arr")
    ac = aomoto_boundary(arr)
    pres = load_presentation(FIXTURES / "pencil4.pres")
    endo = load_endomorphism(FIXTURES / "pencil4_twist12.endo", pres.ngens)
    cert = load_certificate(FIXTURES / "pencil4_twist12.cert", pres)

    from arrmono import universal_complex
    cx = universal_complex(pres)
    print(f"arrangement: {arr.n} hyperplanes in dimension {arr.dim}, "
          f"betti {ac.betti}, euler {cx.euler_characteristic()}\n")
    show("Delta0", cx.boundaries[0])
    show("Delta1", cx.boundaries[1])
    show("mu0", ac.boundary(0))
    show("mu1", ac.boundary(1))

    ring = pres.ring()
    yring = poly_ring(pres.ngens, var="y")
    p1 = phi1(endo, ring)
    phis = {0: RingMatrix.identity(ring, 1), 1: p1,
            2: phi2_from_certificate(pres, endo, cert, ring, cx=cx, p1=p1)}
    fc = formal_connection(phis, yring)
    show("Phi1", phis[1])
    show("Phi2", phis[2])
    show("Omega1", fc.degree(1))
    show("Omega2", fc.degree(2))

    for q in (1, 2):
        rep = verify_exp_relation(phis[q], fc.degree(q))
        print(f"exp relation degree {q}: gauge-conjugate at order 2: {rep.gauge_degree2}"
              f" (entrywise equal: {rep.entrywise_degree2})")
        for f in eigen_monomials(phis[q]).factors:
            print(f"  eigen Phi{q}: {f.describe('x')}")
        for f in eigen_linear_forms(fc.degree(q)).factors:
            print(f"  eigen Omega{q}: {f.describe('y')}")
    print()

    for tag, path in (("non-resonant", "pencil4_proj_nonres.txt"),
                      ("resonant", "pencil4_proj_res.txt")):
        proj = load_projection(FIXTURES / path)
        verify_projection(cx.boundaries[1], ac.boundary(1), proj)
        show(f"PhiBar ({tag})", induced_map(proj.xi, phis[2]))
        show(f"OmegaBar ({tag})", induced_map(proj.upsilon, fc.degree(2)))

    for t in ([Fraction(2)] * 4, [Fraction(2), Fraction(3), Fraction(1, 6), Fraction(1)]):
        cls = classify_weights(cx, t)
        print(f"t = {tuple(str(v) for v in t)}: betti {cls.betti}, {cls.verdict()}")
        maps = {q: evaluate_matrix(m, t) for q, m in phis.items()}
        act = cohomology_action(cx.specialize(t), maps)
        for q, m in sorted(act.matrices.items()):
            if m.rows:
                cp = char_poly(m)
                print(f"  H^{q} action: {m.entries}  char poly coeffs {list(cp.coeffs)}")
    print("\nall identities verified")


if __name__ == "__main__":
    main()
