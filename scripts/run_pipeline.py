#!/usr/bin/env python3
"""End-to-end demo on the pencil4 fixture set: both cochain complexes, the
twist monodromy matrices, formal connections, certified spectra and induced
maps, all read off one CLI job, then the monodromy action on cohomology at
sample weights, which no subcommand prints.

Usage:  python scripts/run_pipeline.py
"""

from fractions import Fraction
from pathlib import Path

from arrmono import char_poly, cohomology_action, evaluate_matrix
from arrmono.cli import Job, build_parser

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def show(name, matrix):
    print(f"{name} =")
    widths = [max(len(str(matrix[i, j])) for i in range(matrix.rows))
              for j in range(matrix.cols)]
    for i in range(matrix.rows):
        print("   [ " + "   ".join(str(e).rjust(w) for e, w in zip(matrix.row(i), widths)) + " ]")
    print()


def main():
    job = Job(build_parser().parse_args([
        "verify", "-a", str(FIXTURES / "pencil4.arr"), "-p", str(FIXTURES / "pencil4.pres"),
        "-e", str(FIXTURES / "pencil4_twist12.endo"),
        "-c", str(FIXTURES / "pencil4_twist12.cert"),
        "--xi", str(FIXTURES / "pencil4_proj_nonres.txt"),
        "--xi", str(FIXTURES / "pencil4_proj_res.txt")]))
    cx, ac, phis, omega = job.cx, job.aomoto, job.phis, job.omega
    print(f"arrangement: {job.arr.n} hyperplanes in dimension {job.arr.dim}, "
          f"betti {ac.ranks}, euler {cx.euler_characteristic()}\n")
    show("Delta0", cx.boundaries[0])
    show("Delta1", cx.boundaries[1])
    show("mu0", ac.boundaries[0])
    show("mu1", ac.boundaries[1])
    show("Phi1", phis[1])
    show("Phi2", phis[2])
    show("Omega1", omega[1])
    show("Omega2", omega[2])

    for q, (er, eo) in job.spectra.items():
        for f in er.factors:
            print(f"  eigen Phi{q}: {f.describe()}")
        for f in eo.factors:
            print(f"  eigen Omega{q}: {f.describe()}")
    print()

    for tag, (phibar, ombar, _, _) in zip(("non-resonant", "resonant"), job.projections()):
        show(f"PhiBar ({tag})", phibar)
        show(f"OmegaBar ({tag})", ombar)

    for t in ([Fraction(2)] * 4, [Fraction(2), Fraction(3), Fraction(1, 6), Fraction(1)]):
        maps = {q: evaluate_matrix(m, t) for q, m in phis.items()}
        act = cohomology_action(cx.specialize(t), maps)
        print(f"t = {tuple(str(v) for v in t)}: betti {[m.rows for m in act.matrices.values()]}")
        for q, m in sorted(act.matrices.items()):
            if m.rows:
                cp = char_poly(m)
                rows = [m.row(i) for i in range(m.rows)]
                print(f"  H^{q} action: {rows}  char poly coeffs {list(cp.coeffs)}")
    if job.chain_universal and job.chain_aomoto:  # each raises on failure
        print("\nall identities verified")


if __name__ == "__main__":
    main()
