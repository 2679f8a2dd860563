"""Formal connection matrices, their exp/log relation to the representation
matrices, Gauss-Manin specializations, certified eigenvalue factorizations,
induced maps on cohomology, and weight classification.

Eigenvalue extraction never touches floating point.  Candidates are read off
exactly (trace terms for unit-monomial eigenvalues, the integer roots at one
Kronecker point for integral linear forms) and certified by exact polynomial
division of the characteristic polynomial, one factor per distinct diagonal
block (linalg.char_poly).  Certification turns the candidate search into a
proof: a wrong candidate simply fails to divide.
A matrix of integral linear forms is handled as its integer coefficient
matrices, M = sum_j y_j M_j (linear_coefficients).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    ChainIdentityFailed,
    FactorizationFailed,
    NoSolution,
    NotIdentityAtOne,
    NotInRing,
    ParseError,
    VerificationFailed,
)
from .linalg import (
    QQ,
    CharPoly,
    RingComplex,
    RingMatrix,
    char_poly,
    clear_row_denominators,
    divide_linear_terms,
    evaluate_matrix,
    fraction_free_echelon,
    generic_rank,
    linearize_matrix,
    mat_exp_truncated,
    rational_left_kernel,
    rational_row_space,
    series_matrix,
    solve_right,
    verify_chain_map,
)
from .rings import (
    MAX_VARIABLES,
    Poly,
    _shown,
    content_lines,
    exp_jet,
    format_poly,
    laurent_ring,
    parse_int,
    parse_poly,
    poly_ring,
)

# -- formal connection -------------------------------------------------------------


def formal_connection(phis: dict[int, RingMatrix]) -> dict[int, RingMatrix]:
    """Omega per degree: the entrywise linear part of each representation
    matrix under x_j = exp(y_j), whose entries are integral linear forms.
    Requires the value at x = 1 to be the identity in every degree."""
    omegas = {}
    for q, phi in sorted(phis.items()):
        const, lin = linearize_matrix(phi)
        if not const.is_identity():
            raise NotIdentityAtOne(f"degree {q} matrix is not the identity at x = 1")
        try:
            linear_coefficients(lin)
        except ValueError as exc:
            raise FactorizationFailed(f"degree {q} linear part: {exc}") from None
        omegas[q] = lin
    return omegas


# -- exp/log verification ------------------------------------------------------------


@dataclass
class ExpRelationReport:
    """Outcome of the degree-2 exp/log comparison for one degree.

    entrywise_degree2 records literal equality of exp-substituted Phi and
    exp(Omega) at truncation 2.  The two sides are gauge conjugate rather
    than equal in general, so the certified check, passed, is the existence
    of G = I + G1 with exp_sub(Phi) * G = G * exp(Omega) up to degree 2,
    an exactly solvable linear condition.
    """

    passed: bool
    entrywise_degree2: bool

    @property
    def mismatch(self) -> str:
        return "" if self.passed else "degree-2 terms are not gauge conjugate"


def linear_coefficients(m: RingMatrix) -> list[list[dict[int, int]]]:
    """The integer matrices M_1, ..., M_n with M = sum_j y_j * M_j, for a
    matrix whose entries are integral linear forms in n variables.  Row i
    of M_j is a dict from column to its nonzero int entries.  The package's
    one test of an integral linear form: every term has exponent sum 1, no
    negative exponent and an int coefficient; ValueError names an entry
    that fails it.  PolyRing.linear_form writes such forms."""
    out: list[list[dict[int, int]]] = [[{} for _ in range(m.rows)]
                                       for _ in range(m.ring.nvars)]
    variable = m.ring.linear_variable
    for i, row in enumerate(m.nonzero_rows()):
        for k, e in row.items():
            for key, c in e.terms.items():
                j = variable(key)
                if j is None or type(c) is not int:
                    raise ValueError(f"entry {e} is not an integral linear form")
                out[j][i][k] = c
    return out


def _gauge_system(omega: RingMatrix, rhs: RingMatrix) -> tuple[RingMatrix, RingMatrix]:
    """The linear system A * g = b of G1 * Omega - Omega * G1 = rhs over Q,
    for a matrix Omega of linear forms.

    Unknowns: n * s^2 rational coefficients of G1; equations: coefficients of
    the quadratic monomials of every entry, in (entry, monomial) order.  Only
    the equations that carry a nonzero are emitted; a row that no term
    reaches, or whose terms cancel, with a zero right side (0 = 0) is not.
    A is built from the terms c * y_u of Omega's entries, read as they are
    (ints on an integral Omega); the right side b is rational.  Equations
    are sparse dicts, and those that survive are the rows of A as they are.
    """
    s = omega.rows
    ring = omega.ring
    n = ring.nvars
    monomials = [(i, j) for i in range(n) for j in range(i, n)]
    mono_index = {m: idx for idx, m in enumerate(monomials)}
    # mono[u][v]: index of the monomial y_u * y_v.
    mono = [[mono_index[(min(u, v), max(u, v))] for v in range(n)] for u in range(n)]
    nmono = len(monomials)
    cols = s * s * n
    # Equation (a * s + b) * nmono + m holds the coefficient of monomial m in
    # entry (a, b); unknown (a * s + b) * n + v is the coefficient of y_v in
    # G1[a][b].  The equations of row a of the product form block a.
    terms = [[(j, ring.linear_variable(key), c) for j, e in row.items()
              for key, c in e.terms.items()] for row in omega.nonzero_rows()]
    # In (G1 * Omega)[a][j], the term c * y_u of Omega[i][j] meets G1[a][i]:
    # the same template in every block a, shifted by a * s * n unknowns.
    left: dict[int, dict[int, int]] = defaultdict(dict)
    for i, row in enumerate(terms):
        for j, u, c in row:
            for v in range(n):
                left[j * nmono + mono[u][v]][i * n + v] = c
    rhs_rows = rhs.nonzero_rows()
    a_rows: list[dict[int, int]] = []
    b_rows: list[dict] = []
    for a in range(s):
        shift = a * s * n
        block = defaultdict(dict, {e: {col + shift: c for col, c in eq.items()}
                                   for e, eq in left.items()})
        # In -(Omega * G1)[a][b], the term c * y_u of Omega[a][j] meets G1[j][b].
        for j, u, c in terms[a]:
            for b in range(s):
                for v in range(n):
                    eq = block[b * nmono + mono[u][v]]
                    col = (j * s + b) * n + v
                    new = eq.get(col, 0) - c
                    if new:
                        eq[col] = new
                    else:
                        del eq[col]
        right = {}
        for b, entry in rhs_rows[a].items():
            for key, c in entry.terms.items():
                exps = ring.exponents(key)
                if sum(exps) != 2:
                    raise ValueError("expected a homogeneous quadratic")
                support = [i for i, k in enumerate(exps) if k]
                right[b * nmono + mono[support[0]][support[-1]]] = c
        for e in sorted(block.keys() | right.keys()):
            eq = block.get(e, {})
            if eq or e in right:
                a_rows.append(eq)
                b_rows.append({0: right.get(e, 0)})
    return RingMatrix.from_rows(QQ, a_rows, cols), RingMatrix.from_rows(QQ, b_rows, 1)


def verify_exp_relation(phi: RingMatrix) -> ExpRelationReport:
    """Compare the representation matrix with the exponential of its formal
    connection at truncation order 2, all read off one 2-jet of
    Phi(exp y): its part of degree 0 must be I (NotIdentityAtOne otherwise),
    its part of degree 1 is Omega, and all rests on
    R = Phi_2 - Omega^2/2.  The sides agree entrywise when R = 0, and are
    gauge conjugate when G1 * Omega - Omega * G1 = R has a solution.  The
    solve is posed for 2 * G1 against 2R, which has the same verdict and on
    an integral Phi has int entries (x^k = 1 + k y + k^2 y^2 / 2 + ...); it
    decides consistency alone and reads neither a solution nor a kernel."""
    jet = series_matrix(phi)
    if not jet[0].is_identity():
        raise NotIdentityAtOne("representation matrix is not the identity at x = 1")
    omega = jet[1]
    rest = jet[2] - mat_exp_truncated(omega)[2]
    if rest.is_zero():
        return ExpRelationReport(passed=True, entrywise_degree2=True)
    try:
        solve_right(*_gauge_system(omega, rest.scale(2)))
    except NoSolution:
        return ExpRelationReport(passed=False, entrywise_degree2=False)
    return ExpRelationReport(passed=True, entrywise_degree2=False)


# -- eigenvalue factorization ---------------------------------------------------------


@dataclass(frozen=True)
class EigenFactor:
    """One certified factor (z - value)^multiplicity of the char polynomial.

    kind is 'monomial' (value given by integer exponents) or 'linear_form'
    (value given by integer coefficients of the weights)."""

    kind: str
    data: tuple[int, ...]
    multiplicity: int

    def describe(self) -> str:
        """The factor as text: the eigenvalue, a monomial in x or a linear
        form in y, and its multiplicity."""
        n = len(self.data)
        if self.kind == "monomial":
            body = format_poly(laurent_ring(n).monomial(self.data))
        else:
            body = format_poly(poly_ring(n).linear_form(self.data))
        return f"{body} (multiplicity {self.multiplicity})"


@dataclass
class EigenReport:
    size: int
    factors: tuple[EigenFactor, ...]

    def multiset(self) -> dict[tuple[int, ...], int]:
        return {f.data: f.multiplicity for f in self.factors}


def _certified(cp: CharPoly, kind: str, candidates: Iterable) -> EigenReport:
    """Divide the cleared factors of the characteristic polynomial
    (CharPoly.cleared_factors) by (z - root) for each candidate (data,
    root term dict, limit): each factor as often as the division stays
    exact, while the multiplicity, which counts a division once per block
    with that factor, stays at most limit (None: no limit).  A candidate
    that divides is a factor of that kind; the divisions must leave 1 in
    every factor, or FactorizationFailed is raised."""
    blocks = cp.cleared_factors()
    factors: list[EigenFactor] = []
    for data, root, limit in candidates:
        mult = 0
        for k, (coeffs, count) in enumerate(blocks):
            while len(coeffs) > 1 and (limit is None or mult + count <= limit):
                nxt = divide_linear_terms(coeffs, root, cp.ring)
                if nxt is None:
                    break
                coeffs = nxt
                mult += count
            blocks[k] = (coeffs, count)
        if mult:
            factors.append(EigenFactor(kind, data, mult))
    left = sum((len(coeffs) - 1) * count for coeffs, count in blocks)
    if left:
        what = "unit monomials" if kind == "monomial" else "integral linear forms"
        raise FactorizationFailed(f"{left} eigenvalues are not {what}")
    return EigenReport(size=cp.degree, factors=tuple(factors))


def eigen_monomials(phi: RingMatrix) -> EigenReport:
    """Certify char(Phi) = prod (z - x^{m_i})^{k_i} with integer exponents.

    Candidate exponent vectors are the terms of the trace: for a genuine
    factorization the trace is exactly sum k_i x^{m_i}, and distinct
    monomials cannot cancel.  Each candidate is certified by exact division
    of the cleared characteristic polynomial, and the divisions must leave 1.
    """
    ring = phi.ring
    if not evaluate_matrix(phi, [1] * ring.nvars).is_identity():
        raise NotIdentityAtOne("representation matrix must be the identity at x = 1")
    return _certified(char_poly(phi), "monomial",
                      ((exps, {ring.key(exps): 1}, None)
                       for exps in sorted(map(ring.exponents, phi.trace().terms))))


def _eval_univariate(coeffs: Sequence, z):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _integer_roots(coeffs: list[Fraction | int]) -> dict[int, int]:
    """Integer roots with multiplicity of a monic polynomial over Q.

    After clearing denominators and stripping roots at zero, every integer
    root lies within Fujiwara's bound B = 2 * max_k |c_{d-k}|^{1/k} and is a
    simple root of the squarefree part g = f / gcd(f, f').  Take the first
    prime p dividing neither g's leading coefficient nor its discriminant,
    so that g stays squarefree mod p: each root of g mod p lifts uniquely by
    Newton (Hensel) steps to a root modulo some p^k > 2B, read in the
    symmetric range.  Exact division keeps the true roots with their full
    multiplicity.  The cost grows with the bit size of the coefficients,
    not with B.
    """
    den = math.lcm(*(c.denominator for c in coeffs))
    work = [int(c * den) for c in coeffs]
    roots: dict[int, int] = {}
    zeros = 0
    while len(work) > 1 and work[0] == 0:
        work.pop(0)
        zeros += 1
    if zeros:
        roots[0] = zeros
    degree = len(work) - 1
    if degree == 0:
        return roots
    bound = 2 * max(_ceil_root(abs(work[degree - k]), den, k) for k in range(1, degree + 1))
    for r in _lifted_roots(_squarefree_part(work), bound):
        while len(work) > 1:
            quotient = _divide_root(work, r)
            if quotient is None:
                break
            work = quotient
            roots[r] = roots.get(r, 0) + 1
    return roots


def _squarefree_part(f: list[int]) -> list[int]:
    """The primitive integer polynomial f / gcd(f, f'), lowest degree first."""
    d = _poly_gcd(f, [k * c for k, c in enumerate(f)][1:])
    # d is primitive, so by Gauss's lemma the quotient is integral and every
    # step of the long division below is exact.
    g = list(f)
    q = [0] * (len(f) - len(d) + 1)
    for i in range(len(q) - 1, -1, -1):
        q[i] = g[i + len(d) - 1] // d[-1]
        for j, dj in enumerate(d):
            g[i + j] -= q[i] * dj
    return _primitive(q)


def _poly_gcd(a: list[int], b: list[int], p: int = 0) -> list[int]:
    """A gcd of a and b (lowest degree first), over F_p when p is given and
    otherwise primitive over Z."""
    while b and not b[-1]:
        b = b[:-1]
    while b:
        a, b = b, _remainder(a, b, p)
    return a if p else _primitive(a)


def _primitive(a: list[int]) -> list[int]:
    content = math.gcd(*a)
    return [x // content for x in a]


def _remainder(a: list[int], b: list[int], p: int) -> list[int]:
    """The remainder of a by b over F_p when p is given, and otherwise the
    primitive part of the pseudo-remainder over Z, which keeps the
    coefficients small without fractions.  No leading zeros."""
    a = list(a)
    lead, db = b[-1], len(b) - 1
    inv = pow(lead, -1, p) if p else 1
    while len(a) > db:
        c = a.pop()
        if not c:
            continue
        s = len(a) - db
        if p:
            c = c * inv % p
            for j in range(db):
                a[s + j] = (a[s + j] - c * b[j]) % p
        else:
            a = [x * lead for x in a]
            for j in range(db):
                a[s + j] -= c * b[j]
    while a and not a[-1]:
        a.pop()
    return a if p or not a else _primitive(a)


def _lifted_roots(g: list[int], bound: int) -> list[int]:
    """Candidate integer roots of g in [-bound, bound]: each root of g mod
    p, for the first prime p that keeps g squarefree, Hensel-lifted past
    2 * bound and read in the symmetric range."""
    dg = [k * c for k, c in enumerate(g)][1:]
    for p in _primes():
        if g[-1] % p and len(_poly_gcd([c % p for c in g], [c % p for c in dg], p)) == 1:
            break
    out = []
    for x in range(p):
        if _eval_univariate(g, x) % p:
            continue
        m = p
        while m <= 2 * bound:
            m *= m
            x = (x - _eval_univariate(g, x) * pow(_eval_univariate(dg, x), -1, m)) % m
        r = x if x <= m // 2 else x - m
        if abs(r) <= bound:
            out.append(r)
    return sorted(out)


def _primes():
    p = 2
    while True:
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            yield p
        p += 1


def _ceil_root(num: int, den: int, k: int) -> int:
    """The least integer b >= 0 with b^k >= num / den, that is, with b^k at
    least N = ceil(num / den): the floor k-th root x of N, from Newton's
    steps x <- ((k - 1) x + N // x^(k-1)) // k started above the root and
    stopped when they no longer decrease, as math.isqrt takes them, plus
    one unless x^k = N."""
    target = -(-num // den)
    if target <= 1:
        return target
    x = 1 << -(-target.bit_length() // k)
    while True:
        y = ((k - 1) * x + target // x ** (k - 1)) // k
        if y >= x:
            return x if x ** k == target else x + 1
        x = y


def _divide_root(work: list[int], r: int) -> list[int] | None:
    """Quotient of sum work[i] z^i by (z - r), or None if r is not a root."""
    out = []
    carry = 0
    for c in reversed(work):
        carry = carry * r + c
        out.append(carry)
    if out.pop() != 0:
        return None
    return out[::-1]


def eigen_linear_forms(omega: RingMatrix) -> EigenReport:
    """Certify char(Omega) = prod (z - l_i(y))^{k_i} with l_i integral
    linear forms.

    Bound: write Omega = sum_j y_j * Omega_j with integer Omega_j.  The j-th
    coefficient of an eigen-form is an eigenvalue of Omega(e_j) = Omega_j,
    so by Gershgorin every coefficient lies in [-K, K] with
    K = max(1, max_j ||Omega_j||_inf) (largest absolute row sum).
    Probe: at the Kronecker point y_j = B^(j-1), B = 2K + 1, each eigen-form
    takes an integer value whose balanced base-B digits are its
    coefficients, and distinct forms take distinct values.  Evaluation is a
    ring homomorphism, so the characteristic polynomial of the integer
    matrix Omega(probe) = sum_j B^(j-1) * Omega_j is char(Omega) evaluated
    there.  Its integer roots decode into the only possible candidates (a
    root that does not decode to n digits is dropped), and a root's
    multiplicity is the most its form can have.  The roots are found per
    distinct factor of that polynomial (CharPoly.factors: the probe matrix
    has Omega's diagonal blocks), and the multiplicities add.
    Shift: l* is the candidate of highest probe multiplicity (the first in
    sorted order on a tie; the zero form if there is none).  Since
    char(Omega)(z) = char(Omega - l* I)(z - l*), char(Omega) has the factor
    (z - l)^k exactly when char(Omega - l* I) has (z - (l - l*))^k, and the
    shifted polynomial stays small however often l* repeats: on
    Omega = l* I it is z^s.
    Certification: exact division of char(Omega - l* I), on the int term
    dicts of its block factors, by (z - (l - l*)) for every candidate l,
    up to its probe multiplicity, must leave 1.  If char(Omega) splits
    into integral linear forms the factorization is unique and is found;
    otherwise a remainder is left and FactorizationFailed is raised.
    """
    n = omega.ring.nvars
    parts = linear_coefficients(omega)
    size = omega.rows
    bound = max([1] + [sum(map(abs, row.values())) for part in parts for row in part])
    base = 2 * bound + 1
    probe: list[dict[int, int]] = [{} for _ in range(size)]
    for j, part in enumerate(parts):
        weight = base ** j
        for i, row in enumerate(part):
            for k, c in row.items():
                probe[i][k] = probe[i].get(k, 0) + c * weight
    candidates: dict[tuple[int, ...], int] = {}
    for factor, count in char_poly(RingMatrix.from_rows(QQ, probe, size)).factors:
        for root, mult in _integer_roots(list(factor)).items():
            digits = _balanced_digits(root, base, n)
            if digits is not None:
                candidates[digits] = candidates.get(digits, 0) + mult * count

    star = max(sorted(candidates), key=candidates.get, default=(0,) * n)
    shift = omega.ring.linear_form(star)
    shifted = omega - RingMatrix.from_rows(omega.ring, ({i: shift} for i in range(size)), size)
    return _certified(char_poly(shifted), "linear_form",
                      ((cand, omega.ring.linear_form([c - s for c, s in zip(cand, star)]).terms,
                        candidates[cand]) for cand in sorted(candidates)))


def _balanced_digits(value: int, base: int, count: int) -> tuple[int, ...] | None:
    """The count lowest digits of value in balanced base `base` (odd), each
    in [-(base - 1) / 2, (base - 1) / 2]; None if value needs more digits."""
    half = base // 2
    digits = []
    for _ in range(count):
        digit = (value + half) % base - half
        digits.append(digit)
        value = (value - digit) // base
    return tuple(digits) if value == 0 else None


def spectra_correspond(phi_report: EigenReport, omega_report: EigenReport) -> bool:
    """Each monomial x^m of multiplicity k must appear as the linear form
    m . y with multiplicity >= k (linearization preserves eigenvalues)."""
    omega_mult = omega_report.multiset()
    for f in phi_report.factors:
        if omega_mult.get(f.data, 0) < f.multiplicity:
            return False
    return True


# -- projections and induced maps --------------------------------------------------------


@dataclass
class LocusSpec:
    """Substitutions x_j -> unit monomial (or 1) cutting out the locus on
    which a projection is a chain projection; the y-side substitutions are
    the linearizations y_j -> integer form."""

    x_subs: dict[int, Poly]
    y_subs: dict[int, Poly]


@dataclass
class ProjectionData:
    """User-supplied projection onto cohomology in the top degree: Xi over
    the Laurent ring, its linearization Upsilon, optional locus relations."""

    xi: RingMatrix
    upsilon: RingMatrix
    locus: LocusSpec | None = None


def verify_projection(delta: RingMatrix, mu: RingMatrix, proj: ProjectionData) -> None:
    """Check D1 * Xi = 0 and mu1 * Upsilon = 0 (on the locus, if any),
    Upsilon = linear part of Xi, and generic rank Xi = number of columns."""
    def require_zero(prod: RingMatrix, subs: dict[int, Poly], check: str, label: str) -> None:
        for i, row in enumerate(prod.nonzero_rows()):
            for j, e in row.items():
                for v, rep in sorted(subs.items()):
                    e = e.substitute(v, rep)
                if not e.is_zero():
                    raise VerificationFailed(check, f"({label})[{i + 1}][{j + 1}] = {e} != 0")

    locus = proj.locus or LocusSpec({}, {})
    require_zero(delta * proj.xi, locus.x_subs, "projection.delta_xi", "D1 * Xi")
    require_zero(mu * proj.upsilon, locus.y_subs, "projection.mu_upsilon", "mu1 * Upsilon")
    _, lin = linearize_matrix(proj.xi)
    if lin != proj.upsilon:
        raise VerificationFailed("projection.linearization",
                                 "Upsilon is not the linear part of Xi")
    if generic_rank(proj.xi) != proj.xi.cols:
        raise VerificationFailed("projection.rank",
                                 "Xi does not have full column rank")


# Projection file format (each header line exactly once):
#   ring x
#   nvars 4
#   rows 5
#   cols 2
#   locus x3 = x1^-1*x2^-1     (zero or more, at most one per variable;
#                               right side a unit monomial)
#   xi
#   <cols comma-separated x-expressions per line, rows lines>
#   upsilon                     (optional; defaults to the linear part of xi)
#   <cols comma-separated y-expressions per line, rows lines>


def parse_projection(text: str) -> ProjectionData:
    lines = content_lines(text)
    header: dict[str, str] = {}
    locus_lines: list[str] = []
    idx = 0
    while idx < len(lines) and lines[idx] not in ("xi", "upsilon"):
        ln = lines[idx]
        if ln.startswith("locus "):
            locus_lines.append(ln[len("locus "):])
        else:
            parts = ln.split()
            if len(parts) != 2 or parts[0] not in ("ring", "nvars", "rows", "cols"):
                raise ParseError(f"bad projection header line {_shown(ln)}")
            if parts[0] in header:
                raise ParseError(f"repeated projection header '{parts[0]}'")
            header[parts[0]] = parts[1]
        idx += 1
    for key in ("ring", "nvars", "rows", "cols"):
        if key not in header:
            raise ParseError(f"projection file missing '{key}'")
    if header["ring"] != "x":
        raise ParseError("projection matrices live over the x-ring")
    # A row is a line and an entry a field of it, so a count is bounded by
    # the size of the text.
    rows = parse_int(header["rows"], 0, len(lines), "row count")
    cols = parse_int(header["cols"], 0, len(text), "column count")
    n = parse_int(header["nvars"], 0, MAX_VARIABLES, "variable count")
    xring, yring = laurent_ring(n), poly_ring(n)

    def read_matrix(ring, start: int) -> tuple[RingMatrix, int]:
        entries = []
        for r in range(rows):
            if start + r >= len(lines):
                raise ParseError("projection matrix is truncated")
            cells = lines[start + r].split(",")
            if len(cells) != cols:
                raise ParseError(f"expected {cols} entries on line {_shown(lines[start + r])}")
            entries.append([parse_poly(c, ring) for c in cells])
        return RingMatrix(ring, entries), start + rows

    if idx >= len(lines) or lines[idx] != "xi":
        raise ParseError("projection file must contain an 'xi' block")
    xi, idx = read_matrix(xring, idx + 1)
    upsilon = None
    if idx < len(lines) and lines[idx] == "upsilon":
        upsilon, idx = read_matrix(yring, idx + 1)
    if idx != len(lines):
        raise ParseError("trailing lines in projection file")
    if upsilon is None:
        upsilon = linearize_matrix(xi)[1]

    locus = None
    if locus_lines:
        x_subs: dict[int, Poly] = {}
        y_subs: dict[int, Poly] = {}
        for ln in locus_lines:
            if "=" not in ln:
                raise ParseError(f"bad locus line {_shown(ln)}")
            lhs, rhs = (s.strip() for s in ln.split("=", 1))
            if not lhs.startswith("x"):
                raise ParseError("locus substitutions target x-variables")
            j = parse_int(lhs[1:], 1, n, "locus variable index")
            if j in x_subs:
                raise ParseError(f"repeated locus variable x{j}")
            rep = parse_poly(rhs, xring)
            mono = rep.as_monomial()
            if mono is None or mono[1] != 1:
                raise ParseError("locus right side must be a unit monomial")
            x_subs[j] = rep
            y_subs[j] = exp_jet(rep, 1)[1]
        locus = LocusSpec(x_subs=x_subs, y_subs=y_subs)
    return ProjectionData(xi=xi, upsilon=upsilon, locus=locus)


def load_projection(path) -> ProjectionData:
    with open(path, encoding="utf-8") as fh:
        return parse_projection(fh.read())


def induced_map(projection: RingMatrix, chain_map: RingMatrix) -> RingMatrix:
    """The unique X with chain_map * projection = projection * X, certified
    to have ring entries.  Uniqueness needs full column rank of projection."""
    res = solve_right(projection, chain_map * projection)
    if res.kernel_dimension != 0:
        raise NoSolution("projection has a kernel; induced map not unique")
    if not res.in_ring:
        raise NotInRing("induced map does not have ring entries")
    return res.cleared


# -- cohomology action ---------------------------------------------------------------


@dataclass
class CohomologyAction:
    """Action matrices on H^q of a specialized complex, with the chosen
    quotient bases (rows of representatives)."""

    betti: list[int]
    matrices: dict[int, RingMatrix]
    representatives: dict[int, list[list[Fraction]]]


def cohomology_action(cx: RingComplex, maps: dict[int, RingMatrix]) -> CohomologyAction:
    """Induced action on cohomology of a rational specialized complex.

    Per degree, one elimination completes a basis of the image of the
    incoming boundary to a basis of the kernel of the outgoing one.  It
    inserts the image basis, then the kernel basis, as rows scaled to
    integers (dicts of their nonzeros), and keeps a row exactly when it is
    independent of the rows before it, so every image row is kept and the
    kept kernel rows are the greedy completion.  Those kernel vectors
    represent the cohomology classes; their number must be the betti
    number, and VerificationFailed ("cohomology.quotient_dimension") is
    raised otherwise.  One solve, with one right-hand column per
    representative, writes the images of all representatives in the basis
    image + representatives; the action matrix holds their coordinates on
    the representatives.  The chain identity is verified first.
    """
    verify_chain_map(cx.boundaries, maps)
    betti = cx.betti()
    matrices: dict[int, RingMatrix] = {}
    reps: dict[int, list[list[Fraction]]] = {}
    for q in range(len(cx.ranks)):
        if q not in maps:
            continue
        bq = cx.ranks[q]
        if q < len(cx.boundaries):
            kernel = rational_left_kernel(cx.boundaries[q])
        else:
            kernel = [[Fraction(1) if i == j else Fraction(0) for i in range(bq)]
                      for j in range(bq)]
        image = rational_row_space(cx.boundaries[q - 1]) if q > 0 else []
        kept, _ = fraction_free_echelon((clear_row_denominators(dict(enumerate(row)))
                                         for row in image + kernel), bq)
        chosen = [kernel[i - len(image)] for i in kept[len(image):]]
        if len(chosen) != betti[q]:
            raise VerificationFailed("cohomology.quotient_dimension", f"{len(chosen)} "
                                     f"representatives in degree {q}, betti number {betti[q]}")
        reps[q] = chosen
        if not chosen:
            matrices[q] = RingMatrix.zero(QQ, 0, 0)
            continue
        span = RingMatrix(QQ, image + chosen).transpose()
        images = (RingMatrix(QQ, chosen) * maps[q]).transpose()
        try:
            coords = solve_right(span, images).cleared
        except NoSolution:
            raise ChainIdentityFailed(f"image of a degree-{q} cocycle left the kernel") from None
        matrices[q] = RingMatrix(QQ, [[coords[i, t] for i in range(len(image), coords.rows)]
                                      for t in range(coords.cols)])
    return CohomologyAction(betti=betti, matrices=matrices, representatives=reps)


# -- weight classification --------------------------------------------------------------


@dataclass
class WeightClassification:
    betti: list[int]
    euler: int
    trivial: bool
    nonresonant: bool
    top_matches_euler: bool

    def verdict(self) -> str:
        if self.trivial:
            return "trivial"
        return "non-resonant" if self.nonresonant else "resonant"


def classify_weights(cx: RingComplex, point: Sequence[Fraction | int]) -> WeightClassification:
    """Specialize, compute cohomology ranks, and classify: non-resonant
    means cohomology concentrated in the top degree, whose dimension is then
    compared with |Euler characteristic|."""
    spec = cx.specialize(point)
    betti = spec.betti()
    euler = cx.euler_characteristic()
    trivial = all(b.is_zero() for b in spec.boundaries)
    top = len(cx.ranks) - 1
    nonres = all(h == 0 for h in betti[:top])
    return WeightClassification(
        betti=betti,
        euler=euler,
        trivial=trivial,
        nonresonant=nonres and not trivial,
        top_matches_euler=(betti[top] == abs(euler)),
    )

