"""The three workloads: each builds, from a seed, the input files of a fixed
job list and the oracle that checks every job's report.

A job is one ``arrmono`` command line.  Its input files are written during
set-up, so the parsers run inside the measured jobs, and the program sees
only those files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
import oracles

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    check: Callable[[int, str], list[str]]


@dataclass(frozen=True)
class Workload:
    jobs: tuple[Job, ...]
    warmup: Job


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- pencil4-loops ---------------------------------------------------------------

# Loops are the twist (T) or its inverse (I) composed with an inner
# automorphism (C) by a two-letter word g_a^(+-1) g_b^(+-1).  The cost of a
# loop depends mostly on the pattern and on the generators a, b (it ranges
# over about 2.5x), so the sample is stratified: every seed runs each
# pattern with each generator pair below and draws only the signs.  That
# keeps the cost of a pass, and its median job, nearly independent of the
# seed.  The pairs include (1, 2) and (2, 1), whose loops can end in the
# exp.relation verdict.
PENCIL_PATTERNS = ("CT", "IC")
PENCIL_PAIRS = ((1, 2), (2, 1), (3, 4), (4, 3), (1, 3), (3, 1), (2, 4), (4, 2))

PENCIL_FIXTURES = ("pencil4.arr", "pencil4.pres", "pencil4_twist12.endo",
                   "pencil4_twist12.cert", "pencil4_proj_nonres.txt", "pencil4_proj_res.txt")


def pencil4_loops(am, rng: random.Random, work: Path) -> Workload:
    """The golden battery (every README command on pencil4) plus certified
    composite loops, each through verify with both projections."""
    f = {name: _write(work / name, (ROOT / "fixtures" / name).read_text(encoding="utf-8"))
         for name in PENCIL_FIXTURES}
    g = {p.stem: p.read_text(encoding="utf-8") for p in (ROOT / "tests" / "golden").glob("*.txt")}
    a, p, e, c = (f["pencil4.arr"], f["pencil4.pres"], f["pencil4_twist12.endo"],
                  f["pencil4_twist12.cert"])
    xi = ("--xi", f["pencil4_proj_nonres.txt"], "--xi", f["pencil4_proj_res.txt"])
    spectra = [("Phi1", "Omega1", 4), ("Phi2", "Omega2", 5)]
    bars = [("PhiBar0", "OmegaBar0", 2), ("PhiBar1", "OmegaBar1", 3)]
    battery = [
        Job("info", ("info", "-a", a), oracles.golden(g["info"])),
        Job("aomoto", ("aomoto", "-a", a), oracles.golden(g["aomoto"])),
        Job("fox", ("fox", "-p", p), oracles.golden(g["fox"])),
        Job("monodromy", ("monodromy", "-p", p, "-e", e, "-c", c),
            oracles.monodromy_matches(g["connection"])),
        Job("connection", ("connection", "-a", a, "-p", p, "-e", e, "-c", c),
            oracles.with_spectra(oracles.golden(g["connection"]), spectra, 4)),
        Job("connection-at", ("connection", "-a", a, "-p", p, "-e", e, "-c", c,
                              "--at", "2,3,1/6,1", "--ring", "x"),
            oracles.with_spectra(oracles.connection_at(g["connection"]), spectra, 4)),
        Job("specialize-x", ("specialize", "-p", p, "--ring", "x", "--at", "2,2,2,2"),
            oracles.specialize_expect("0,0,2", "non-resonant")),
        Job("specialize-y", ("specialize", "-a", a, "--ring", "y", "--at", "0,0,0,0"),
            oracles.specialize_expect("1,4,5", "trivial")),
        Job("induced", ("induced", "-a", a, "-p", p, "-e", e, "-c", c) + xi,
            oracles.with_spectra(oracles.golden(g["induced"]), bars, 4)),
        Job("verify", ("verify", "-a", a, "-p", p, "-e", e, "-c", c) + xi,
            oracles.golden(g["verify"])),
    ]

    pres = am.load_presentation(p)
    twist = (am.load_endomorphism(e, pres.ngens), am.load_certificate(c, pres))
    inv = (am.load_endomorphism(gen.DATA / "pencil4_twist12_inv.endo", pres.ngens),
           am.load_certificate(gen.DATA / "pencil4_twist12_inv.cert", pres))
    for endo, cert in (twist, inv):
        cert.validate(pres, endo)
    loops = []
    strata = [(pattern, pair) for pattern in PENCIL_PATTERNS for pair in PENCIL_PAIRS]
    for k, (pattern, pair) in enumerate(strata):
        endo, cert = gen.pencil_loop(am, pres, twist, inv, rng, pattern, pair)
        le = _write(work / f"loop{k:02d}.endo", gen.format_endomorphism(endo))
        lc = _write(work / f"loop{k:02d}.cert", gen.format_certificate(cert))
        loops.append(Job(f"loop{k:02d}-{pattern}", ("verify", "-a", a, "-p", p, "-e", le,
                                                   "-c", lc) + xi,
                         oracles.verify_report(20)))
    warmup = Job("warmup-info", ("info", "-a", a), oracles.golden(g["info"]))
    return Workload(tuple(battery + loops), warmup)


# -- boolean-inner ---------------------------------------------------------------

BOOLEAN_N = 6
# Support widths of the inner loops.  The cost of the Omega characteristic
# polynomial grows steeply with the width (about 4x from 3 to 4), so the
# widths are fixed and the seed picks only which generators and signs.
BOOLEAN_SUPPORTS = (3, 4)


def boolean_inner(am, rng: random.Random, work: Path) -> Workload:
    """Z^n with the Boolean arrangement and inner-automorphism loops."""
    n = BOOLEAN_N
    a = _write(work / "boolean.arr", gen.boolean_arrangement_text(n))
    p = _write(work / "zn.pres", gen.zn_presentation_text(n))
    pres = am.load_presentation(p)
    jobs = []
    for k, support in enumerate(BOOLEAN_SUPPORTS):
        w = gen.inner_support_word(am, rng, n, support)
        endo, cert = gen.compose_loop(am, pres, [(am.Endomorphism.inner(n, w),
                                                  am.inner_certificate(pres, w))])
        e = _write(work / f"inner{k}.endo", gen.format_endomorphism(endo))
        c = _write(work / f"inner{k}.cert", gen.format_certificate(cert))
        jobs.append(Job(f"verify-support{support}", ("verify", "-a", a, "-p", p, "-e", e, "-c", c),
                        oracles.verify_report(16)))
        if k == 0:
            # The eigen oracle needs printed spectra, which verify omits.
            jobs.append(Job(f"connection-support{support}",
                            ("connection", "-a", a, "-p", p, "-e", e, "-c", c),
                            oracles.inner_connection(n, w.abelianization())))
        else:
            # A cheap fourth job.  With three jobs the median flipped from run
            # to run between the two support-3 jobs, which cost about the
            # same; with four, job_p50_s is the mean of those two.
            jobs.append(Job(f"monodromy-support{support}", ("monodromy", "-p", p, "-e", e, "-c", c),
                            oracles.monodromy_report(n, pres.nrels)))
    warmup = Job("warmup-fox", ("fox", "-p", p),
                 lambda code, text: oracles.all_checks_pass(code, text, "fox", 1, False))
    return Workload(tuple(jobs), warmup)


# -- arrangement-resonance -----------------------------------------------------------

# (dim, n, multiplicities of the planted flats).
ARRANGEMENTS = ((2, 16, (4, 3, 3)), (2, 14, (5, 4)), (3, 12, (4, 3)), (3, 12, (3, 3, 3)))


def arrangement_resonance(am, rng: random.Random, work: Path) -> Workload:
    """Arrangements with planted multiple points through info, aomoto and
    specialize --ring y at a generic and at a local-resonance weight."""
    jobs = []
    for k, (dim, n, mults) in enumerate(ARRANGEMENTS):
        arr = gen.planted_arrangement(rng, dim, n, mults)
        a = _write(work / f"arr{k}.arr", arr.text())
        am.load_arrangement(a)
        low = arr.betti_low()
        generic = ",".join(map(str, gen.generic_weight(rng, n)))
        resonant = ",".join(map(str, gen.local_resonance_weight(rng, n, arr.groups[0])))
        tag = f"arr{k}-d{dim}n{n}"
        jobs += [
            Job(f"{tag}-info", ("info", "-a", a), oracles.arrangement_info(low)),
            Job(f"{tag}-aomoto", ("aomoto", "-a", a), oracles.arrangement_aomoto(low, dim)),
            Job(f"{tag}-generic", ("specialize", "-a", a, "--ring", "y", f"--at={generic}"),
                oracles.specialized_betti(generic=True)),
            Job(f"{tag}-resonant", ("specialize", "-a", a, "--ring", "y", f"--at={resonant}"),
                oracles.specialized_betti(generic=False, multiplicity=mults[0])),
        ]
    # The smallest arrangement's info job warms up.
    warmup = Job("warmup-info", jobs[4].argv, jobs[4].check)
    return Workload(tuple(jobs), warmup)


BUILDERS = {
    "pencil4-loops": pencil4_loops,
    "boolean-inner": boolean_inner,
    "arrangement-resonance": arrangement_resonance,
}


def build(am, name: str, seed: int, work: Path) -> Workload:
    """Generate, validate and write the inputs of one workload."""
    rng = random.Random(f"{name}/{seed}")
    work.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](am, rng, work)
