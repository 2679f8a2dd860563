"""Output oracles: each takes a job's exit code and structured report text
and returns an empty list when the output is right, or the reasons it is
wrong.  They read only the report text and what the generator planted, never
the package's own objects, so a defect in the package cannot vouch for
itself.
"""

from __future__ import annotations

import re

# A verify report on a certified loop may fail this one check: at the seed,
# some composite pencil4 loops have degree-2 exp terms that the gauge solve
# finds not conjugate.  It is a verdict, counted by the trace, not a failure.
EXP_VERDICT = re.compile(r"check exp\.relation_deg\d FAIL degree-2 terms are not gauge conjugate$")


def lines_of(text: str) -> list[str]:
    return text.splitlines()


def kv(text: str, key: str) -> list[str]:
    prefix = f"kv {key} "
    return [ln[len(prefix):] for ln in lines_of(text) if ln.startswith(prefix)]


def matrix_block(text: str, name: str) -> list[str]:
    lines = lines_of(text)
    for i, ln in enumerate(lines):
        if ln.startswith(f"matrix {name} "):
            return lines[i:lines.index("endmatrix", i) + 1]
    return []


def matrix_shape(text: str, name: str) -> tuple[int, int] | None:
    block = matrix_block(text, name)
    if not block:
        return None
    m = re.search(r"rows=(\d+) cols=(\d+)", block[0])
    return (int(m.group(1)), int(m.group(2))) if m else None


def checks(text: str) -> list[str]:
    return [ln for ln in lines_of(text) if ln.startswith("check ")]


# -- eigenvalue lines ------------------------------------------------------------

_MONO = re.compile(r"x(\d+)(?:\^(-?\d+))?$")
_FORM = re.compile(r"([+-]?)(?:(\d+)\*)?y(\d+)")


def parse_monomial(body: str, n: int) -> tuple[int, ...]:
    exps = [0] * n
    if body != "1":
        for factor in body.split("*"):
            m = _MONO.match(factor)
            if not m:
                raise ValueError(f"not a unit monomial: {body!r}")
            exps[int(m.group(1)) - 1] += int(m.group(2) or 1)
    return tuple(exps)


def parse_linear_form(body: str, n: int) -> tuple[int, ...]:
    coeffs = [0] * n
    compact = body.replace(" ", "")
    if compact != "0":
        if _FORM.sub("", compact):
            raise ValueError(f"not an integral linear form: {body!r}")
        for sign, mag, var in _FORM.findall(compact):
            coeffs[int(var) - 1] += (-1 if sign == "-" else 1) * int(mag or 1)
    return tuple(coeffs)


def eigen_multiset(text: str, key: str, n: int) -> dict[tuple[int, ...], int]:
    """Spectrum printed under ``kv eigen[key]`` as {exponents: multiplicity}."""
    out: dict[tuple[int, ...], int] = {}
    parse = parse_monomial if key.startswith("Phi") else parse_linear_form
    for value in kv(text, f"eigen[{key}]"):
        m = re.fullmatch(r"(.*) \(multiplicity (\d+)\)", value)
        if not m:
            raise ValueError(f"bad eigen line {value!r}")
        vec = parse(m.group(1), n)
        out[vec] = out.get(vec, 0) + int(m.group(2))
    return out


def spectrum_problems(text: str, pairs, n: int) -> list[str]:
    """For each (Phi name, Omega name, size): the Phi and Omega eigen
    multisets are equal under x^m <-> m.y, and multiplicities sum to size."""
    out = []
    for phi, omega, size in pairs:
        try:
            ph, om = eigen_multiset(text, phi, n), eigen_multiset(text, omega, n)
        except ValueError as exc:
            out.append(str(exc))
            continue
        if ph != om:
            out.append(f"eigen[{phi}] {ph} differs from eigen[{omega}] {om}")
        for name, ms in ((phi, ph), (omega, om)):
            if sum(ms.values()) != size:
                out.append(f"eigen[{name}] multiplicities sum to {sum(ms.values())}, not {size}")
    return out


# -- oracles -----------------------------------------------------------------------


def golden(expected: str):
    def check(code: int, text: str) -> list[str]:
        if code != 0:
            return [f"exit {code}"]
        return [] if text == expected else ["report differs from the golden file"]
    return check


def all_checks_pass(code: int, text: str, section: str, expect_checks: int,
                    allow_exp_verdict: bool) -> list[str]:
    out = []
    if f"section {section}" not in lines_of(text):
        out.append(f"no '{section}' section")
    cks = checks(text)
    if len(cks) != expect_checks:
        out.append(f"{len(cks)} check lines, expected {expect_checks}")
    bad = [ln for ln in cks if not ln.endswith(" pass")
           and not (allow_exp_verdict and EXP_VERDICT.match(ln))]
    out.extend(f"unexpected {ln!r}" for ln in bad)
    failed = any(" FAIL" in ln for ln in cks)
    if code != (1 if failed else 0):
        out.append(f"exit {code} with {'a' if failed else 'no'} failing check")
    return out


def verify_report(expect_checks: int):
    """verify on a certified loop: every check passes except the counted
    exp.relation verdict."""
    def check(code: int, text: str) -> list[str]:
        return all_checks_pass(code, text, "verify", expect_checks, allow_exp_verdict=True)
    return check


def monodromy_matches(connection_golden: str):
    def check(code: int, text: str) -> list[str]:
        out = all_checks_pass(code, text, "monodromy", 5, allow_exp_verdict=False)
        for name in ("Phi1", "Phi2"):
            if matrix_block(text, name) != matrix_block(connection_golden, name):
                out.append(f"{name} differs from the connection golden")
        return out
    return check


def monodromy_report(ngens: int, nrels: int):
    def check(code: int, text: str) -> list[str]:
        out = all_checks_pass(code, text, "monodromy", 5, allow_exp_verdict=False)
        for name, size in (("Phi1", ngens), ("Phi2", nrels)):
            if matrix_shape(text, name) != (size, size):
                out.append(f"{name} shape {matrix_shape(text, name)}, expected {size}x{size}")
        return out
    return check


def connection_at(connection_golden: str):
    def check(code: int, text: str) -> list[str]:
        if code != 0:
            return [f"exit {code}"]
        out = [] if text.startswith(connection_golden) else ["prefix differs from the golden"]
        for name in ("Phi1_at", "Phi2_at"):
            if not matrix_block(text, name):
                out.append(f"no {name} matrix")
        return out
    return check


def specialize_expect(betti: str, verdict: str):
    def check(code: int, text: str) -> list[str]:
        if code != 0:
            return [f"exit {code}"]
        out = []
        if kv(text, "betti") != [betti]:
            out.append(f"betti {kv(text, 'betti')}, expected {betti}")
        if kv(text, "verdict") != [verdict]:
            out.append(f"verdict {kv(text, 'verdict')}, expected {verdict}")
        return out
    return check


def inner_connection(n: int, exps: tuple[int, ...]):
    """connection on an inner loop by a word with abelianization m: Phi1 has
    x^m (n-1 times) and 1, Phi2 is x^m times the identity, and the Omega
    spectra are the matching linear forms."""
    rels = n * (n - 1) // 2
    zero = (0,) * n
    expect = {"Phi1": {exps: n - 1, zero: 1}, "Phi2": {exps: rels}}

    def check(code: int, text: str) -> list[str]:
        out = all_checks_pass(code, text, "connection", 9, allow_exp_verdict=True)
        out += spectrum_problems(text, [("Phi1", "Omega1", n), ("Phi2", "Omega2", rels)], n)
        for name, ms in expect.items():
            try:
                got = eigen_multiset(text, name, n)
            except ValueError as exc:
                out.append(str(exc))
                continue
            if got != ms:
                out.append(f"eigen[{name}] {got}, expected {ms}")
        return out
    return check


def with_spectra(inner, pairs, n: int):
    """Add the Phi/Omega spectrum oracle to another oracle."""
    def check(code: int, text: str) -> list[str]:
        return inner(code, text) + spectrum_problems(text, pairs, n)
    return check


def _betti_of(text: str) -> list[int]:
    vals = kv(text, "betti")
    if len(vals) != 1:
        raise ValueError("no single betti line")
    return [int(v) for v in vals[0].split(",")]


def arrangement_info(betti_low: tuple[int, int, int]):
    """info: b0, b1, b2 as planted, nbc counts equal betti, euler consistent."""
    def check(code: int, text: str) -> list[str]:
        if code != 0:
            return [f"exit {code}"]
        try:
            betti = _betti_of(text)
        except ValueError as exc:
            return [str(exc)]
        out = []
        if tuple(betti[:3]) != betti_low:
            out.append(f"betti {betti[:3]}, planted structure gives {list(betti_low)}")
        for q, b in enumerate(betti):
            sets = kv(text, f"nbc[{q}]")
            count = 0 if sets == ["-"] else len(sets[0].split()) if sets else -1
            if count != b:
                out.append(f"nbc[{q}] has {count} sets, betti says {b}")
        euler = sum((-1) ** q * b for q, b in enumerate(betti))
        if kv(text, "euler") != [str(euler)]:
            out.append(f"euler {kv(text, 'euler')}, betti give {euler}")
        return out
    return check


def arrangement_aomoto(betti_low: tuple[int, int, int], dim: int):
    def check(code: int, text: str) -> list[str]:
        out = all_checks_pass(code, text, "aomoto", 2, allow_exp_verdict=False)
        try:
            betti = _betti_of(text)
        except ValueError as exc:
            return out + [str(exc)]
        if tuple(betti[:3]) != betti_low:
            out.append(f"betti {betti[:3]}, planted structure gives {list(betti_low)}")
        for q in range(dim):
            if matrix_shape(text, f"mu{q}") != (betti[q], betti[q + 1]):
                out.append(f"mu{q} shape {matrix_shape(text, f'mu{q}')}")
        return out
    return check


def specialized_betti(generic: bool, multiplicity: int = 0):
    """specialize --ring y: the cohomology ranks have the complex's Euler
    characteristic; a positive weight is non-resonant with the top rank equal
    to |euler|; a local-resonance weight at a flat of multiplicity m is
    resonant with h^1 >= m - 2."""
    def check(code: int, text: str) -> list[str]:
        if code != 0:
            return [f"exit {code}"]
        try:
            betti = _betti_of(text)
            euler = int(kv(text, "euler")[0])
        except (ValueError, IndexError) as exc:
            return [f"unreadable report: {exc}"]
        out = []
        if sum((-1) ** q * h for q, h in enumerate(betti)) != euler:
            out.append(f"betti {betti} do not have euler characteristic {euler}")
        verdict = kv(text, "verdict")
        if generic:
            if verdict != ["non-resonant"] or abs(euler) != betti[-1]:
                out.append(f"generic weight gave {verdict} with betti {betti}")
        elif verdict != ["resonant"] or betti[1] < multiplicity - 2:
            out.append(f"local-resonance weight (m={multiplicity}) gave {verdict}, h1={betti[1]}")
        return out
    return check
