"""Command-line front end.

Subcommands: info, aomoto, fox, monodromy, connection, specialize, induced,
verify.  Structured output (--format structured) is line-oriented and
deterministic so golden tests are plain file comparisons; human output is a
readable rendering of the same content.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from . import __version__
from .arrangement import compute_dependencies, load_arrangement, nbc_basis
from .connection import (
    classify_weights,
    eigen_linear_forms,
    eigen_monomials,
    formal_connection,
    induced_map,
    load_projection,
    spectra_correspond,
    verify_exp_relation,
    verify_projection,
)
from .errors import ArrmonoError, ChainIdentityFailed, ParseError, VerificationFailed
from .fox import (
    load_certificate,
    load_endomorphism,
    load_presentation,
    phi1,
    phi2_from_certificate,
    phi2_solve_fallback,
    universal_complex,
)
from .linalg import RingMatrix, evaluate_matrix, linearize_matrix, verify_chain_map
from .oscomplex import aomoto_boundary
from .rings import parse_point, poly_ring
from .serialize import ReportWriter


@dataclass
class JobSpec:
    """Parsed invocation: input paths, evaluation point, output options."""

    subcommand: str
    arrangement: str | None = None
    presentation: str | None = None
    endomorphism: str | None = None
    certificate: str | None = None
    xi: list[str] | None = None
    at: str | None = None
    ring: str = "x"
    seed: int = 0
    fmt: str = "human"
    fallback_solve: bool = False


def _label(subset: tuple[int, ...]) -> str:
    return "{" + ",".join(str(i + 1) for i in subset) + "}"


def _load_pair(job: JobSpec):
    pres = load_presentation(job.presentation)
    endo = load_endomorphism(job.endomorphism, pres.ngens)
    return pres, endo


def _phi_matrices(job: JobSpec):
    pres, endo = _load_pair(job)
    ring = pres.ring()
    cx = universal_complex(pres)
    p0 = RingMatrix.identity(ring, 1)
    p1 = phi1(endo, ring)
    cert = load_certificate(job.certificate, pres)
    p2 = phi2_from_certificate(pres, endo, cert, ring, cx=cx, p1=p1)
    return pres, endo, cx, {0: p0, 1: p1, 2: p2}


def cmd_info(job: JobSpec, report: ReportWriter) -> None:
    arr = load_arrangement(job.arrangement)
    dep = compute_dependencies(arr)
    basis = nbc_basis(arr, dep)
    report.section("info")
    report.kv("dim", arr.dim)
    report.kv("hyperplanes", arr.n)
    report.kv("circuits", " ".join(_label(c) for c in dep.circuits) or "-")
    report.kv("empty_min", " ".join(_label(c) for c in dep.empty_min) or "-")
    report.kv("broken_circuits", " ".join(_label(c) for c in dep.broken_circuits) or "-")
    for q, sets in enumerate(basis.by_degree):
        report.kv(f"nbc[{q}]", " ".join(_label(s) for s in sets) or "-")
    report.kv("betti", ",".join(str(b) for b in basis.betti()))
    euler = sum((-1) ** q * b for q, b in enumerate(basis.betti()))
    report.kv("euler", euler)


def cmd_aomoto(job: JobSpec, report: ReportWriter) -> None:
    arr = load_arrangement(job.arrangement)
    dep = compute_dependencies(arr)
    basis = nbc_basis(arr, dep)
    ac = aomoto_boundary(arr, dep, basis)
    report.section("aomoto")
    report.kv("betti", ",".join(str(b) for b in ac.betti))
    for q, mat in enumerate(ac.boundaries):
        report.kv(f"rows[mu{q}]", " ".join(_label(s) for s in basis.degree(q)))
        report.kv(f"cols[mu{q}]", " ".join(_label(s) for s in basis.degree(q + 1)))
        report.matrix(f"mu{q}", mat)
    linear = all(e.is_linear_integer_form() for mat in ac.boundaries
                 for row in mat.entries for e in row)
    report.check("aomoto.linear_forms", linear)
    report.check("aomoto.complex", True)  # verified at construction


def cmd_fox(job: JobSpec, report: ReportWriter) -> None:
    pres = load_presentation(job.presentation)
    cx = universal_complex(pres)
    report.section("fox")
    report.kv("generators", pres.ngens)
    report.kv("relators", pres.nrels)
    report.matrix("Delta0", cx.boundaries[0])
    report.matrix("Delta1", cx.boundaries[1])
    report.check("fox.complex", (cx.boundaries[0] * cx.boundaries[1]).is_zero())


def cmd_monodromy(job: JobSpec, report: ReportWriter) -> None:
    pres, endo = _load_pair(job)
    ring = pres.ring()
    cx = universal_complex(pres)
    p1 = phi1(endo, ring)
    report.section("monodromy")
    report.matrix("Phi1", p1)
    ident1 = evaluate_matrix(p1, [1] * pres.ngens).is_identity()
    report.check("monodromy.phi1_identity_at_one", ident1)
    report.check("monodromy.phi1_chain", cx.boundaries[0] * p1 == cx.boundaries[0])
    if job.certificate:
        cert = load_certificate(job.certificate, pres)
        p2 = phi2_from_certificate(pres, endo, cert, ring, cx=cx, p1=p1)  # validates cert
        report.check("certificate.valid", True)
        report.matrix("Phi2", p2)
        report.check("monodromy.phi2_identity_at_one",
                     evaluate_matrix(p2, [1] * pres.ngens).is_identity())
        report.check("monodromy.phi2_chain", True)  # raised on failure above
    elif job.fallback_solve:
        res = phi2_solve_fallback(cx.boundaries[1], p1)
        report.kv("phi2_fallback", "NON-CANONICAL (determined only up to the kernel)")
        report.matrix("Phi2_particular_numerator", res.numerator)
        report.kv("phi2_denominator", res.denominator)
        report.kv("phi2_kernel_dimension", res.kernel_dimension)


def cmd_connection(job: JobSpec, report: ReportWriter) -> None:
    pres, endo, cx, phis = _phi_matrices(job)
    yring = poly_ring(pres.ngens, var="y")
    fc = formal_connection(phis, yring)
    report.section("connection")
    for q in (1, 2):
        report.matrix(f"Phi{q}", phis[q])
    for q in (1, 2):
        report.matrix(f"Omega{q}", fc.degree(q))
    for q in (1, 2):
        er = eigen_monomials(phis[q])
        for f in er.factors:
            report.kv(f"eigen[Phi{q}]", f.describe("x"))
        eo = eigen_linear_forms(fc.degree(q))
        for f in eo.factors:
            report.kv(f"eigen[Omega{q}]", f.describe("y"))
        report.check(f"eigen.certified_deg{q}", True)
        report.check(f"eigen.correspondence_deg{q}", spectra_correspond(er, eo))
        rep = verify_exp_relation(phis[q], fc.degree(q))
        report.check(f"exp.relation_deg{q}", rep.passed, rep.mismatch)
        report.kv(f"exp.entrywise_deg{q}", rep.entrywise_degree2)
    # Degree 1 was checked by phi2_from_certificate.
    verify_chain_map(cx.boundaries, {q: phis[q] for q in (0, 1)})
    report.check("chain.universal", True)
    if job.arrangement:
        arr = load_arrangement(job.arrangement)
        ac = aomoto_boundary(arr)
        omegas = {q: fc.degree(q) for q in sorted(fc.matrices)}
        verify_chain_map(ac.boundaries, omegas)
        report.check("chain.aomoto", True)
        _, lin1 = linearize_matrix(cx.boundaries[1], yring)
        _, lin0 = linearize_matrix(cx.boundaries[0], yring)
        agree = lin0 == ac.boundary(0) and lin1 == ac.boundary(1)
        report.check("linearization.delta_equals_mu", agree, warn_only=True)
    if job.at:
        point = parse_point(job.at, pres.ngens)
        report.kv("at", job.at)
        if job.ring == "x":
            for q in (1, 2):
                report.matrix(f"Phi{q}_at", evaluate_matrix(phis[q], point))
        else:
            for q in (1, 2):
                report.matrix(f"GaussManin{q}_at", evaluate_matrix(fc.degree(q), point))


def cmd_specialize(job: JobSpec, report: ReportWriter) -> None:
    report.section("specialize")
    if job.ring == "x":
        pres = load_presentation(job.presentation)
        cx = universal_complex(pres)
        n = pres.ngens
    else:
        arr = load_arrangement(job.arrangement)
        cx = aomoto_boundary(arr).complex
        n = arr.n
    point = parse_point(job.at, n)
    cls = classify_weights(cx, point)
    report.kv("ring", job.ring)
    report.kv("at", job.at)
    report.kv("betti", ",".join(str(h) for h in cls.betti))
    report.kv("euler", cls.euler)
    report.kv("verdict", cls.verdict())
    report.kv("top_matches_euler", cls.top_matches_euler)


def cmd_induced(job: JobSpec, report: ReportWriter) -> None:
    pres, endo, cx, phis = _phi_matrices(job)
    yring = poly_ring(pres.ngens, var="y")
    fc = formal_connection(phis, yring)
    arr = load_arrangement(job.arrangement)
    ac = aomoto_boundary(arr)
    report.section("induced")
    for idx, path in enumerate(job.xi or []):
        proj = load_projection(path)
        name = f"projection{idx}"
        verify_projection(cx.boundaries[1], ac.boundary(1), proj, seed=job.seed)
        report.check(f"{name}.verified", True)
        phibar = induced_map(proj.xi, phis[2])
        ombar = induced_map(proj.upsilon, fc.degree(2))
        report.matrix(f"PhiBar{idx}", phibar)
        report.matrix(f"OmegaBar{idx}", ombar)
        for f in eigen_monomials(phibar).factors:
            report.kv(f"eigen[PhiBar{idx}]", f.describe("x"))
        for f in eigen_linear_forms(ombar).factors:
            report.kv(f"eigen[OmegaBar{idx}]", f.describe("y"))


def cmd_verify(job: JobSpec, report: ReportWriter) -> None:
    """Full identity suite over the supplied inputs."""
    report.section("verify")
    arr = load_arrangement(job.arrangement)
    dep = compute_dependencies(arr)
    basis = nbc_basis(arr, dep)
    ac = aomoto_boundary(arr, dep, basis)
    report.check("aomoto.complex", True)
    report.check("aomoto.linear_forms",
                 all(e.is_linear_integer_form() for m in ac.boundaries
                     for row in m.entries for e in row))

    pres = load_presentation(job.presentation)
    cx = universal_complex(pres)
    report.check("fox.complex", True)

    yring = poly_ring(pres.ngens, var="y")
    if pres.nrels == len(basis.degree(2)) and pres.ngens == len(basis.degree(1)):
        _, lin0 = linearize_matrix(cx.boundaries[0], yring)
        _, lin1 = linearize_matrix(cx.boundaries[1], yring)
        report.check("linearization.delta_equals_mu",
                     lin0 == ac.boundary(0) and lin1 == ac.boundary(1), warn_only=True)

    endo = load_endomorphism(job.endomorphism, pres.ngens)
    report.check("endo.abelianization", endo.preserves_abelianization())
    cert = load_certificate(job.certificate, pres)
    ring = pres.ring()
    p1 = phi1(endo, ring)
    phis = {0: RingMatrix.identity(ring, 1), 1: p1,
            2: phi2_from_certificate(pres, endo, cert, ring, cx=cx, p1=p1)}  # validates cert
    report.check("certificate.valid", True)
    for q in (1, 2):
        report.check(f"monodromy.identity_at_one_deg{q}",
                     evaluate_matrix(phis[q], [1] * pres.ngens).is_identity())
    # Degree 1 was checked by phi2_from_certificate.
    verify_chain_map(cx.boundaries, {q: phis[q] for q in (0, 1)})
    report.check("chain.universal", True)

    fc = formal_connection(phis, yring)
    verify_chain_map(ac.boundaries, {q: fc.degree(q) for q in sorted(fc.matrices)})
    report.check("chain.aomoto", True)

    for q in (1, 2):
        rep = verify_exp_relation(phis[q], fc.degree(q))
        report.check(f"exp.relation_deg{q}", rep.passed, rep.mismatch)
        er = eigen_monomials(phis[q])
        eo = eigen_linear_forms(fc.degree(q))
        report.check(f"eigen.certified_deg{q}", True)
        report.check(f"eigen.correspondence_deg{q}", spectra_correspond(er, eo))

    for idx, path in enumerate(job.xi or []):
        proj = load_projection(path)
        verify_projection(cx.boundaries[1], ac.boundary(1), proj, seed=job.seed)
        phibar = induced_map(proj.xi, phis[2])
        ombar = induced_map(proj.upsilon, fc.degree(2))
        eigen_monomials(phibar)
        eigen_linear_forms(ombar)
        report.check(f"projection{idx}.verified", True)
        report.check(f"projection{idx}.induced_certified", True)


COMMANDS = {
    "info": (cmd_info, ("arrangement",)),
    "aomoto": (cmd_aomoto, ("arrangement",)),
    "fox": (cmd_fox, ("presentation",)),
    "monodromy": (cmd_monodromy, ("presentation", "endomorphism")),
    "connection": (cmd_connection, ("presentation", "endomorphism", "certificate")),
    "specialize": (cmd_specialize, ("at",)),
    "induced": (cmd_induced, ("arrangement", "presentation", "endomorphism",
                              "certificate", "xi")),
    "verify": (cmd_verify, ("arrangement", "presentation", "endomorphism",
                            "certificate")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arrmono",
        description="Exact monodromy and connection matrices for hyperplane "
                    "arrangement complexes.")
    parser.add_argument("--version", action="version", version=f"arrmono {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--arrangement", "-a", help="arrangement file")
    common.add_argument("--presentation", "-p", help="presentation file")
    common.add_argument("--endo", "-e", dest="endomorphism", help="endomorphism file")
    common.add_argument("--certificate", "-c", help="relator certificate file")
    common.add_argument("--xi", action="append", help="projection file (repeatable)")
    common.add_argument("--at", help="comma-separated rational point")
    common.add_argument("--ring", choices=("x", "y"), default="x",
                        help="which ring --at refers to")
    common.add_argument("--seed", type=int, default=0, help="probe point seed")
    common.add_argument("--format", dest="fmt", choices=("human", "structured"),
                        default="human")
    common.add_argument("--fallback-solve", action="store_true",
                        help="monodromy: solve for a non-canonical Phi2 without "
                             "a certificate")
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    job = JobSpec(subcommand=args.subcommand, arrangement=args.arrangement,
                  presentation=args.presentation, endomorphism=args.endomorphism,
                  certificate=args.certificate, xi=args.xi, at=args.at,
                  ring=args.ring, seed=args.seed, fmt=args.fmt,
                  fallback_solve=args.fallback_solve)
    fn, required = COMMANDS[job.subcommand]
    missing = [r for r in required if not getattr(job, r if r != "endomorphism" else "endomorphism")]
    if job.subcommand == "specialize":
        if job.ring == "x" and not job.presentation:
            missing.append("presentation")
        if job.ring == "y" and not job.arrangement:
            missing.append("arrangement")
    if missing:
        print(f"error: {job.subcommand} requires --{', --'.join(missing)}", file=sys.stderr)
        return 2
    report = ReportWriter(structured=(job.fmt == "structured"))
    try:
        fn(job, report)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ChainIdentityFailed as exc:
        report.check("chain.identity", False, str(exc))
        print(report.text(), end="")
        return 1
    except VerificationFailed as exc:
        report.check(exc.name, False, exc.detail)
        print(report.text(), end="")
        return 1
    except ArrmonoError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    print(report.text(), end="")
    if report.failures:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
