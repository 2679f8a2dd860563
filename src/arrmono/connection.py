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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

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
    mat_exp_truncated,  # unused here; bench/spans.py wraps it by this name
    series_matrix,
    solve_right,
    verify_chain_map,
)
from .rings import (
    MAX_VARIABLES,
    Coeff,
    Poly,
    _shown,
    canonical,
    content_lines,
    exp_jet,
    format_poly,
    laurent_ring,
    parse_int,
    parse_poly,
    poly_ring,
    read_text,
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


class _GaugeEquations:
    """The equations of G1 * Omega - Omega * G1 = R for a matrix Omega of
    linear forms, s x s in n variables, on coefficient dicts.

    Unknown (a * s + b) * n + v is the coefficient of y_v in G1[a][b], and
    equation ((a * s + b) * n + u) * n + v, u <= v, is the coefficient of
    y_u * y_v in entry (a, b); sorted, the equations run in (entry,
    monomial) order.  Omega is read once into its terms c * y_u, indexed
    by row and by column and, within each, by variable.  A coefficient is
    canonical (rings.canonical), so on an integral Omega every equation
    holds ints.  twice_remainder gives the right side 2R, and
    reached_system builds, lazily and one connected component at a time,
    the equations that it reaches: verify_exp_relation solves each
    component before the next is built."""

    def __init__(self, omega: RingMatrix):
        self.s, self.n = s, n = omega.rows, omega.ring.nvars
        variable = omega.ring.linear_variable
        # by_row[i][u] holds (k, c) for each term c * y_u of Omega[i][k],
        # by_col[k][u] holds (i, c) for the same term, and diagonal[i][u] is
        # c when k = i.
        self.by_row: list[dict[int, list]] = [{} for _ in range(s)]
        self.by_col: list[dict[int, list]] = [{} for _ in range(s)]
        self.diagonal: list[dict[int, Coeff]] = [{} for _ in range(s)]
        for i, row in enumerate(omega.nonzero_rows()):
            for k, e in row.items():
                for key, c in e.terms.items():
                    u = variable(key)
                    self.by_row[i].setdefault(u, []).append((k, c))
                    self.by_col[k].setdefault(u, []).append((i, c))
                    if k == i:
                        self.diagonal[i][u] = c

    def twice_remainder(self, phi2: RingMatrix) -> dict[int, Coeff]:
        """2R = 2 * Phi_2 - Omega^2 by equation, nonzero coefficients only,
        for the part Phi_2 of degree 2 of Phi(exp y)."""
        s, n = self.s, self.n
        nn = n * n
        exponents = phi2.ring.exponents
        monomial: dict[int, int] = {}  # key of y_u * y_v -> u * n + v
        out: dict[int, Coeff] = {}
        for a, row in enumerate(phi2.nonzero_rows()):
            for b, entry in row.items():
                base = (a * s + b) * nn
                for key, c in entry.terms.items():
                    m = monomial.get(key)
                    if m is None:
                        u, v = [i for i, k in enumerate(exponents(key)) for _ in range(k)]
                        m = monomial[key] = u * n + v
                    # 2c.  On an integral Phi a coefficient is an int or a
                    # half (x^k gives k^2/2 y^2): no Fraction arithmetic.
                    if type(c) is int:
                        c *= 2
                    elif c.denominator == 2:
                        c = c.numerator
                    else:
                        c = canonical(2 * c)
                    out[base + m] = out.get(base + m, 0) + c
        # (Omega^2)[a][b] sums c * d * y_u * y_w over the terms c * y_u of
        # Omega[a][k] and d * y_w of Omega[k][b].
        for a, terms in enumerate(self.by_row):
            for u, pairs in terms.items():
                for k, c in pairs:
                    for w, inner in self.by_row[k].items():
                        base = a * s * nn + (u * n + w if u <= w else w * n + u)
                        for b, d in inner:
                            e = base + b * nn
                            out[e] = out.get(e, 0) - c * d
        return {e: canonical(v) for e, v in out.items() if v}

    def reached_system(self, rhs: dict[int, Coeff]) -> Iterator[tuple[RingMatrix, RingMatrix]]:
        """The system A * g = b over Q of the equations that the nonzero
        right sides reach, one connected component of its row-column graph
        at a time (Pothen and Fan 1990), each over all s^2 * n unknowns
        with its rows in (entry, monomial) order.  An equation is reached
        when it has a nonzero right side or holds a reached unknown, and an
        unknown when a reached equation holds it.  Every other equation has
        a zero right side and only unknowns that are not reached, so it is
        solved by zero, and the whole system is consistent exactly when
        each component is.  An equation with a right side and no term,
        0 = c, is a component of its own.  Each component is the reach
        (_reach) from the least nonzero right side that no earlier
        component holds, and it is built only when the one before it has
        been taken, so a caller that stops early never builds the rest."""
        cols = self.s * self.s * self.n
        pending = set(rhs)  # the nonzero right sides that no component holds yet
        for start in sorted(rhs):
            if start in pending:
                rows = self._reach(start)
                pending.difference_update(rows)
                order = sorted(rows)
                yield (RingMatrix.from_rows(QQ, [rows[e] for e in order], cols),
                       RingMatrix.from_rows(QQ, [{0: rhs[e]} if e in rhs else {}
                                                 for e in order], 1))

    def _reach(self, start: int) -> dict[int, dict[int, Coeff]]:
        """The equations, by index, of the connected component that holds
        equation start, each a dict from unknown to coefficient.  A reached
        equation is read for its unknowns alone; an unknown, when first
        reached, writes its coefficient into each of its equations and
        reaches those.  So every coefficient of the component is written
        once, by its unknown."""
        s, n = self.s, self.n
        nn, sn = n * n, s * n
        by_row, by_col, diagonal = self.by_row, self.by_col, self.diagonal
        rows: dict[int, dict[int, Coeff]] = {start: {}}
        queue = [start]
        unknowns: set[int] = set()
        while queue:
            rest, v = divmod(queue.pop(), n)
            rest, u = divmod(rest, n)
            a, b = divmod(rest, s)
            diag_a, diag_b = diagonal[a], diagonal[b]
            fresh = []
            # The coefficient of y_u * y_v in (G1 * Omega - Omega * G1)[a][b]
            # holds G1[a][k] * y_w for each term y_x of Omega[k][b], and
            # G1[k][b] * y_w for each term y_x of Omega[a][k], {x, w} = {u, v};
            # the diagonal terms of the two meet at G1[a][b] * y_w (below).
            for x, w in ((u, v), (v, u)) if u != v else ((u, v),):
                for k, c in by_col[b].get(x, ()):
                    if k == b and diag_a.get(x) == c:
                        continue
                    j = a * sn + k * n + w
                    if j not in unknowns:
                        unknowns.add(j)
                        fresh.append(j)
                for k, c in by_row[a].get(x, ()):
                    if k == a and diag_b.get(x) == c:
                        continue
                    j = k * sn + b * n + w
                    if j not in unknowns:
                        unknowns.add(j)
                        fresh.append(j)
            for j in fresh:
                rest, v = divmod(j, n)
                a, b = divmod(rest, s)
                # G1[a][b] * y_v meets each term c * y_u of Omega[b][k] in
                # entry (a, k), with coefficient c, and of Omega[k][a] in
                # entry (k, b), with -c.  The diagonal terms, k = b and
                # k = a, meet in entry (a, b): there the coefficient is that
                # of y_u in Omega[b][b] less that in Omega[a][a], written
                # from the first and absent when it is zero.
                diag_a, diag_b = diagonal[a], diagonal[b]
                for u, pairs in by_row[b].items():
                    m = u * n + v if u <= v else v * n + u
                    for k, c in pairs:
                        if k == b:
                            c = canonical(c - diag_a.get(u, 0))
                            if not c:
                                continue
                        e = (a * s + k) * nn + m
                        row = rows.get(e)
                        if row is None:
                            row = rows[e] = {}
                            queue.append(e)
                        row[j] = c
                for u, pairs in by_col[a].items():
                    m = u * n + v if u <= v else v * n + u
                    for k, c in pairs:
                        if k == a and u in diag_b:
                            continue
                        e = (k * s + b) * nn + m
                        row = rows.get(e)
                        if row is None:
                            row = rows[e] = {}
                            queue.append(e)
                        row[j] = -c
        return rows


def verify_exp_relation(phi: RingMatrix) -> ExpRelationReport:
    """Compare the representation matrix with the exponential of its formal
    connection at truncation order 2, all read off one 2-jet of
    Phi(exp y): its part of degree 0 must be I (NotIdentityAtOne otherwise),
    its part of degree 1 is Omega, and all rests on
    R = Phi_2 - Omega^2/2.  The sides agree entrywise when R = 0, and are
    gauge conjugate when G1 * Omega - Omega * G1 = R has a solution.  The
    solve is posed for 2 * G1 against 2R = 2 * Phi_2 - Omega^2, built on
    coefficient dicts with no matrix product, which has the same verdict
    and on an integral Phi has int entries (x^k = 1 + k y + k^2 y^2 / 2 +
    ...).  Only the equations that the nonzero coefficients of 2R reach
    through shared unknowns are built and solved
    (_GaugeEquations.reached_system): the rest have a zero right side and
    unknowns of their own, so zero solves them.  The reached equations
    are built and solved one connected component at a time, one
    solve_right each, and the whole system is consistent exactly when
    every component is, so the check fails at the first inconsistent
    component and builds none after it.  Each solve decides consistency
    alone, by the fraction-free elimination, and reads neither a solution
    nor a kernel."""
    jet = series_matrix(phi)
    if not jet[0].is_identity():
        raise NotIdentityAtOne("representation matrix is not the identity at x = 1")
    gauge = _GaugeEquations(jet[1])
    rhs = gauge.twice_remainder(jet[2])
    if not rhs:
        return ExpRelationReport(passed=True, entrywise_degree2=True)
    try:
        for component in gauge.reached_system(rhs):
            solve_right(*component)
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

    After clearing denominators to a_d z^d + ... + a_0 (a_d = den) and
    stripping roots at zero, every integer root is a simple root of the
    squarefree part g = f / gcd(f, f') and lies within Fujiwara's bound
    2 * max_k |a_{d-k} / a_d|^{1/k}, so within the bound read off bit
    lengths, B = 2 * max_k 2^ceil(max(0, bits(a_{d-k}) - bits(a_d) + 1) / k),
    since |a| / a_d < 2^(bits(a) - bits(a_d) + 1).  Take the first prime p
    dividing neither g's leading coefficient nor its discriminant, so that
    g stays squarefree mod p: each root of g mod p lifts uniquely by Newton
    (Hensel) steps to a root modulo some p^k > 2B, read in the symmetric
    range.  Exact division keeps the true roots with their full
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
    bits = den.bit_length() - 1
    bound = 2 * max(1 << -(-max(0, abs(work[degree - k]).bit_length() - bits) // k)
                    for k in range(1, degree + 1))
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
    return parse_projection(read_text(path))


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
    inserts the incoming boundary's own rows, then the kernel basis, as
    rows scaled to integers (dicts of their nonzeros), and keeps a row
    exactly when it is independent of the rows before it, so the kept
    boundary rows are a basis of the image and the kept kernel rows are
    the greedy completion, which depends only on that span.  The kernel is
    the left kernel of the outgoing boundary, the kernel of its transpose
    (solve_right).  The kept kernel vectors represent the cohomology
    classes; their number must be the betti number, and VerificationFailed
    ("cohomology.quotient_dimension") is raised otherwise.  One solve, with
    one right-hand column per representative, writes the images of all
    representatives in the basis image + representatives; the action
    matrix holds their coordinates on the representatives.  The chain
    identity is verified first.
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
            d = cx.boundaries[q]
            kernel = solve_right(d.transpose(), RingMatrix.zero(QQ, d.cols, 1)).kernel
        else:
            kernel = [[Fraction(1) if i == j else Fraction(0) for i in range(bq)]
                      for j in range(bq)]
        incoming = cx.boundaries[q - 1].nonzero_rows() if q > 0 else []
        rows = incoming + [dict(enumerate(v)) for v in kernel]
        kept, _ = fraction_free_echelon(map(clear_row_denominators, rows), bq)
        image = sum(i < len(incoming) for i in kept)
        chosen = [kernel[i - len(incoming)] for i in kept[image:]]
        if len(chosen) != betti[q]:
            raise VerificationFailed("cohomology.quotient_dimension", f"{len(chosen)} "
                                     f"representatives in degree {q}, betti number {betti[q]}")
        reps[q] = chosen
        if not chosen:
            matrices[q] = RingMatrix.zero(QQ, 0, 0)
            continue
        span = RingMatrix.from_rows(QQ, [rows[i] for i in kept], bq).transpose()
        images = (RingMatrix(QQ, chosen) * maps[q]).transpose()
        try:
            coords = solve_right(span, images).cleared
        except NoSolution:
            raise ChainIdentityFailed(f"image of a degree-{q} cocycle left the kernel") from None
        matrices[q] = RingMatrix(QQ, [[coords[i, t] for i in range(image, coords.rows)]
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

