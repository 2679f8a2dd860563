"""Command-line front end.

Subcommands: info, aomoto, fox, monodromy, connection, specialize, induced,
verify.  Each invocation is one Job, whose stages are computed on first use
and kept, so each runs at most once per job: arr -> dep -> basis -> aomoto
(the Aomoto complex in every degree); arr -> mu (mu_0 and mu_1, through
degree 2 only); pres -> cx (Delta); endo -> p1 -> phis (Phi, from the
certificate) -> omega -> spectra per degree; projections with their
induced maps and spectra.  Where mu meets Delta or Omega, it is read
through the mu stage, which raises ParseError unless the ranks agree.  A
cmd_* function only reports what it reads off the Job; a check that a
stage proves, such as aomoto.linear_forms or
monodromy.identity_at_one_deg2, is not computed again, and the stage is
read before the check is reported, so no check reports pass unless it
ran.
Structured output (--format structured) is line-oriented and deterministic
so golden tests are plain file comparisons; human output is a readable
rendering of the same content.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache, cached_property
from typing import Callable, Iterable

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
from .errors import (
    ArrmonoError,
    ChainIdentityFailed,
    ParseError,
    VerificationFailed,
    ZeroAtPole,
)
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
from .rings import parse_point
from .serialize import ReportWriter


class Job:
    """One invocation: the parsed arguments and the pipeline stages.

    Stages call the names this module imports.  A stage that proves an
    identity raises when it fails, so a check read off it passed:
    aomoto_boundary and universal_complex (mu and Delta are complexes,
    proved when each RingComplex is constructed; aomoto_boundary writes
    every entry of mu as an integral linear form), phi1 (every generator
    image abelianizes to its generator), phi2_from_certificate (the
    certificate is valid and D1 * Phi2 = Phi1 * D1), formal_connection
    (Phi_q is the identity at x = 1 in every degree and Omega_q has
    integral linear forms as entries), eigen_* (the spectrum splits as
    certified), verify_chain_map and verify_projection."""

    def __init__(self, args: argparse.Namespace):
        self.args = args

    arr = cached_property(lambda self: load_arrangement(self.args.arrangement))
    dep = cached_property(lambda self: compute_dependencies(self.arr))
    basis = cached_property(lambda self: nbc_basis(self.arr, self.dep))
    aomoto = cached_property(lambda self: aomoto_boundary(self.arr, self.dep, self.basis))
    pres = cached_property(lambda self: load_presentation(self.args.presentation))
    cx = cached_property(lambda self: universal_complex(self.pres))
    endo = cached_property(
        lambda self: load_endomorphism(self.args.endomorphism, self.pres.ngens))
    p1 = cached_property(lambda self: phi1(self.endo))
    phi2_fallback = cached_property(
        lambda self: phi2_solve_fallback(self.cx.boundaries[1], self.p1))
    omega = cached_property(lambda self: formal_connection(self.phis))

    @cached_property
    def phis(self) -> dict[int, RingMatrix]:
        pres, endo, cx = self.pres, self.endo, self.cx
        cert = load_certificate(self.args.certificate, pres)
        return {0: RingMatrix.identity(pres.ring(), 1), 1: self.p1,
                2: phi2_from_certificate(pres, endo, cert, cx, self.p1)}

    @cached_property
    def spectra(self):
        """Per degree q, the certified spectra of Phi_q and Omega_q."""
        return {q: (eigen_monomials(self.phis[q]), eigen_linear_forms(self.omega[q]))
                for q in (1, 2)}

    @cached_property
    def mu(self) -> list[RingMatrix]:
        """mu_0 and mu_1, for the stages that read them next to Delta and
        Omega, which live in degrees 0..2: the Aomoto complex through
        degree 2, from the dependencies and nbc sets of at most 3
        hyperplanes, with mu_0 * mu_1 = 0 proved on construction.  Raises
        ParseError unless its ranks are those of the presentation's
        complex."""
        dep = compute_dependencies(self.arr, 2)
        aomoto = aomoto_boundary(self.arr, dep, nbc_basis(self.arr, dep, 2))
        arr_ranks, ranks = aomoto.ranks, self.cx.ranks
        if arr_ranks != ranks:
            raise ParseError(f"arrangement ranks {arr_ranks} and presentation ranks {ranks} "
                             "differ in degrees 0..2")
        return aomoto.boundaries

    @cached_property
    def chain_universal(self) -> bool:
        """The chain identity in degree 0, D0 * Phi1 = D0, from Phi1 alone
        (phi2_from_certificate checks degree 1).  phi1 checked that the
        abelianization is fixed, so by Fox's fundamental formula this fails
        only on a fault in the package."""
        verify_chain_map(self.cx.boundaries,
                         {0: RingMatrix.identity(self.pres.ring(), 1), 1: self.p1})
        return True

    @cached_property
    def chain_aomoto(self) -> bool:
        verify_chain_map(self.mu, self.omega)
        return True

    @cached_property
    def delta_equals_mu(self) -> bool:
        lin = [linearize_matrix(self.cx.boundaries[q])[1] for q in (0, 1)]
        return lin[0] == self.mu[0] and lin[1] == self.mu[1]

    def projections(self):
        """Per --xi file: (PhiBar, OmegaBar, their spectra), after its counts
        are checked against the presentation's and verify_projection.  Each is
        built when the iteration reaches it, so a failing projection is
        reported after those before it."""
        delta, mu = self.cx.boundaries[1], self.mu[1]
        phi2, omega2 = self.phis[2], self.omega[2]

        def build(path):
            proj = load_projection(path)
            if proj.xi.ring.nvars != self.pres.ngens:
                raise ParseError(f"projection nvars {proj.xi.ring.nvars} and presentation "
                                 f"generators {self.pres.ngens} differ")
            if proj.xi.rows != delta.cols:
                raise ParseError(f"projection rows {proj.xi.rows} and presentation relators "
                                 f"{delta.cols} differ")
            verify_projection(delta, mu, proj)
            phibar, ombar = induced_map(proj.xi, phi2), induced_map(proj.upsilon, omega2)
            return phibar, ombar, eigen_monomials(phibar), eigen_linear_forms(ombar)
        return map(build, self.args.xi or [])


def _labels(arr) -> Callable[[Iterable[tuple[int, ...]]], str]:
    """The writer of a list of hyperplane index sets, '{1,3} {2,4}', from
    the 1-based names of arr's hyperplanes, computed once."""
    names = [str(i) for i in range(1, arr.n + 1)]
    pick = names.__getitem__

    def labels(sets: Iterable[tuple[int, ...]]) -> str:
        return " ".join(["{" + ",".join(map(pick, s)) + "}" for s in sets])
    return labels


def cmd_info(job: Job, report: ReportWriter) -> None:
    arr, dep, basis = job.arr, job.dep, job.basis
    labels = _labels(arr)
    report.section("info")
    report.kv("dim", arr.dim)
    report.kv("hyperplanes", arr.n)
    report.kv("circuits", labels(dep.circuits) or "-")
    report.kv("empty_min", labels(dep.empty_min) or "-")
    report.kv("broken_circuits", labels(dep.broken_circuits) or "-")
    for q, sets in enumerate(basis.by_degree):
        report.kv(f"nbc[{q}]", labels(sets) or "-")
    report.kv("betti", ",".join(str(b) for b in basis.betti()))
    report.kv("euler", sum((-1) ** q * b for q, b in enumerate(basis.betti())))


def cmd_aomoto(job: Job, report: ReportWriter) -> None:
    ac = job.aomoto
    labels = _labels(job.arr)
    report.section("aomoto")
    report.kv("betti", ",".join(str(b) for b in ac.ranks))
    for q, mat in enumerate(ac.boundaries):
        report.kv(f"rows[mu{q}]", labels(job.basis.degree(q)))
        report.kv(f"cols[mu{q}]", labels(job.basis.degree(q + 1)))
        report.matrix(f"mu{q}", mat)
    report.check("aomoto.linear_forms", True)  # aomoto_boundary writes them so
    report.check("aomoto.complex", True)  # RingComplex construction raised otherwise


def cmd_fox(job: Job, report: ReportWriter) -> None:
    cx = job.cx
    report.section("fox")
    report.kv("generators", job.pres.ngens)
    report.kv("relators", job.pres.nrels)
    report.matrix("Delta0", cx.boundaries[0])
    report.matrix("Delta1", cx.boundaries[1])
    report.check("fox.complex", True)  # universal_complex raised otherwise


def cmd_monodromy(job: Job, report: ReportWriter) -> None:
    p1 = job.p1
    report.section("monodromy")
    report.matrix("Phi1", p1)
    ident1 = evaluate_matrix(p1, [1] * job.pres.ngens).is_identity()
    report.check("monodromy.phi1_identity_at_one", ident1)
    report.check("monodromy.phi1_chain", job.chain_universal)
    if job.args.certificate:
        p2 = job.phis[2]
        report.check("certificate.valid", True)  # phi2_from_certificate raised otherwise
        report.matrix("Phi2", p2)
        report.check("monodromy.phi2_identity_at_one",
                     evaluate_matrix(p2, [1] * job.pres.ngens).is_identity())
        report.check("monodromy.phi2_chain", True)  # likewise
    elif job.args.fallback_solve:
        res = job.phi2_fallback
        report.kv("phi2_fallback", "NON-CANONICAL (determined only up to the kernel)")
        report.matrix("Phi2_particular_numerator", res.numerator)
        report.kv("phi2_denominator", res.denominator)
        report.kv("phi2_kernel_dimension", res.kernel_dimension)


def cmd_connection(job: Job, report: ReportWriter) -> None:
    point = parse_point(job.args.at, job.pres.ngens) if job.args.at else None
    if job.args.arrangement:
        job.mu  # the dependency limit and the rank check fail before any connection work
    phis, omega = job.phis, job.omega
    report.section("connection")
    for q in (1, 2):
        report.matrix(f"Phi{q}", phis[q])
    for q in (1, 2):
        report.matrix(f"Omega{q}", omega[q])
    for q in (1, 2):
        er, eo = job.spectra[q]
        for f in er.factors:
            report.kv(f"eigen[Phi{q}]", f.describe())
        for f in eo.factors:
            report.kv(f"eigen[Omega{q}]", f.describe())
        report.check(f"eigen.certified_deg{q}", True)  # eigen_* raised otherwise
        report.check(f"eigen.correspondence_deg{q}", spectra_correspond(er, eo))
        rep = verify_exp_relation(phis[q])
        report.check(f"exp.relation_deg{q}", rep.passed, rep.mismatch)
        report.kv(f"exp.entrywise_deg{q}", rep.entrywise_degree2)
    report.check("chain.universal", job.chain_universal)
    if job.args.arrangement:
        report.check("chain.aomoto", job.chain_aomoto)
        report.check("linearization.delta_equals_mu", job.delta_equals_mu, warn_only=True)
    if point is not None:
        report.kv("at", job.args.at)
        name, mats = ("Phi", phis) if job.args.ring == "x" else ("GaussManin", omega)
        for q in (1, 2):
            report.matrix(f"{name}{q}_at", evaluate_matrix(mats[q], point))


def cmd_specialize(job: Job, report: ReportWriter) -> None:
    x_side = job.args.ring == "x"
    point = parse_point(job.args.at, job.pres.ngens if x_side else job.arr.n)
    report.section("specialize")
    cls = classify_weights(job.cx if x_side else job.aomoto, point)
    report.kv("ring", job.args.ring)
    report.kv("at", job.args.at)
    report.kv("betti", ",".join(str(h) for h in cls.betti))
    report.kv("euler", cls.euler)
    report.kv("verdict", cls.verdict())
    report.kv("top_matches_euler", cls.top_matches_euler)


def cmd_induced(job: Job, report: ReportWriter) -> None:
    projections = job.projections()
    report.section("induced")
    for idx, (phibar, ombar, er, eo) in enumerate(projections):
        report.check(f"projection{idx}.verified", True)  # verify_projection raised otherwise
        report.matrix(f"PhiBar{idx}", phibar)
        report.matrix(f"OmegaBar{idx}", ombar)
        for f in er.factors:
            report.kv(f"eigen[PhiBar{idx}]", f.describe())
        for f in eo.factors:
            report.kv(f"eigen[OmegaBar{idx}]", f.describe())


def cmd_verify(job: Job, report: ReportWriter) -> None:
    """Full identity suite over the supplied inputs.  The connection lives
    in degrees 0..2, so the arrangement is read through degree 2 (Job.mu):
    aomoto.complex here proves mu_0 * mu_1 = 0, the composition that the
    chain identity meets, and `arrmono aomoto` proves it in every degree."""
    report.section("verify")
    job.mu  # the stage proves both aomoto checks, and reads Delta for its ranks
    report.check("aomoto.complex", True)  # RingComplex construction raised otherwise
    report.check("aomoto.linear_forms", True)  # aomoto_boundary writes them so
    report.check("fox.complex", True)  # universal_complex raised otherwise
    report.check("linearization.delta_equals_mu", job.delta_equals_mu, warn_only=True)
    phis = job.phis
    job.omega  # with phis, the stages prove the next four lines
    report.check("endo.abelianization", True)  # phi1 raised otherwise
    report.check("certificate.valid", True)  # phi2_from_certificate raised otherwise
    for q in (1, 2):
        report.check(f"monodromy.identity_at_one_deg{q}", True)  # formal_connection likewise
    report.check("chain.universal", job.chain_universal)
    report.check("chain.aomoto", job.chain_aomoto)
    for q in (1, 2):
        rep = verify_exp_relation(phis[q])
        report.check(f"exp.relation_deg{q}", rep.passed, rep.mismatch)
        er, eo = job.spectra[q]
        report.check(f"eigen.certified_deg{q}", True)  # eigen_* raised otherwise
        report.check(f"eigen.correspondence_deg{q}", spectra_correspond(er, eo))
    for idx, _ in enumerate(job.projections()):
        report.check(f"projection{idx}.verified", True)  # verify_projection raised otherwise
        report.check(f"projection{idx}.induced_certified", True)  # eigen_* likewise


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


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls."""
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
    fn, required = COMMANDS[args.subcommand]
    missing = [r for r in required if not getattr(args, r)]
    if args.subcommand == "specialize":
        side = "presentation" if args.ring == "x" else "arrangement"
        if not getattr(args, side):
            missing.append(side)
    if missing:
        print(f"error: {args.subcommand} requires --{', --'.join(missing)}", file=sys.stderr)
        return 2
    report = ReportWriter(structured=(args.fmt == "structured"))
    try:
        fn(Job(args), report)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ZeroAtPole as exc:  # only an --at point can meet a pole
        print(f"parse error: --at {args.at}: {exc}", file=sys.stderr)
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
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())
