"""Free-group words, group presentations, Fox derivatives, the universal
cochain complex of a presentation in degrees 0..2, and the action matrices
of a certified endomorphism.

Words are freely reduced tuples of (generator index 1..n, exponent +-1).
The abelianized Fox derivative of w with respect to generator j lives in the
Laurent ring Q[x1^{+-1}..xn^{+-1}]:

    d(uv) = du + u^ab * dv,   d(g_j) = 1,   d(g_j^{-1}) = -x_j^{-1}.

Commutator convention: [a, b] = a b a^{-1} b^{-1}.

A relator certificate for an endomorphism f writes each f(r_l) as an exact
product of conjugated relators, prod_i  w_i r_{k_i}^{e_i} w_i^{-1}; this is
the data that pins down the degree-2 action matrix exactly.  Certificates
are validated by free reduction, never trusted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    AbelianizationNotPreserved,
    CertificateInvalid,
    FundamentalIdentityFailed,
    NotAComplex,
    ParseError,
)
from .linalg import RingComplex, RingMatrix, solve_right, verify_chain_map
from .rings import (
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_VARIABLES,
    Poly,
    PolyRing,
    _shown,
    content_lines,
    laurent_ring,
    parse_int,
    read_text,
    tokenize,
)

Letter = tuple[int, int]


def _reduce_letters(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    out: list[Letter] = []
    for g, e in letters:
        if e not in (1, -1):
            raise ValueError("letters carry exponent +-1 only")
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """Freely reduced word in a free group on ngens generators."""

    ngens: int
    letters: tuple[Letter, ...]

    @staticmethod
    def from_letters(ngens: int, letters: Iterable[Letter]) -> "Word":
        reduced = _reduce_letters(letters)
        for g, _ in reduced:
            if not 1 <= g <= ngens:
                raise ValueError(f"generator {g} out of range 1..{ngens}")
        return Word(ngens, reduced)

    @staticmethod
    def identity(ngens: int) -> "Word":
        return Word(ngens, ())

    @staticmethod
    def gen(ngens: int, j: int) -> "Word":
        return Word.from_letters(ngens, [(j, 1)])

    @staticmethod
    def product(ngens: int, factors: Iterable["Word"]) -> "Word":
        """The product of the factors in order.  Free reduction is
        confluent, so reducing their letters in one pass as they stream in
        gives the same word as multiplying factor by factor, in linear time
        and with only the reduced prefix held."""
        def letters() -> Iterable[Letter]:
            for w in factors:
                if w.ngens != ngens:
                    raise ValueError("mixing free groups of different rank")
                yield from w.letters
        return Word(ngens, _reduce_letters(letters()))

    def __mul__(self, other: "Word") -> "Word":
        return Word.product(self.ngens, (self, other))

    def inverse(self) -> "Word":
        return Word(self.ngens, tuple((g, -e) for g, e in reversed(self.letters)))

    def conjugate(self, by: "Word") -> "Word":
        """by * self * by^{-1}."""
        return Word.product(self.ngens, (by, self, by.inverse()))

    def commutator(self, other: "Word") -> "Word":
        return Word.product(self.ngens, (self, other, self.inverse(), other.inverse()))

    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def abelianization(self) -> tuple[int, ...]:
        vec = [0] * self.ngens
        for g, e in self.letters:
            vec[g - 1] += e
        return tuple(vec)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(f"g{g}" if e == 1 else f"g{g}^-1" for g, e in self.letters)


# -- word syntax -----------------------------------------------------------------
#
#   word       :=  factor*
#   factor     :=  generator | commutator, optionally ^<int>
#   commutator :=  '[' word ',' word ']'        ( [a,b] = a b a^-1 b^-1 )
#   generator  :=  g<k>


_WORD_TOKEN = re.compile(r"\s*(\[|\]|,|\^-?[0-9]+|g[0-9]+|1)")

# The most letters the words of one file (a presentation, an endomorphism or
# a certificate) may stand for together before free reduction: every power
# expanded, a commutator [a, b] counted as a b a^-1 b^-1, a written 1 as
# one letter and a word of no letters as one.  Parsing builds and reduces
# that expansion, so a short power such as g1^1000000 would otherwise
# allocate with its exponent, and a file of many such words with their sum.
# Every word of a file is parsed and counted before any is expanded.
MAX_LETTERS = 1_000_000

# A parsed word before expansion: a list of (atom, power) factors, where the
# atom is a generator index, 0 for a written 1, or the (left, right) pair of
# a commutator's parsed words.
_Factors = list[tuple[object, int]]


def _over_budget() -> ParseError:
    return ParseError(f"text expands to more than {MAX_LETTERS} letters "
                      "(all words of one file together)")


def _parse_factors(text: str, ngens: int, room: int) -> tuple[_Factors, int]:
    """(the factors of the word text, the letters it stands for); ParseError
    as soon as the count passes room."""
    toks = tokenize(text, _WORD_TOKEN)

    def parse_seq(i: int, stop: str, depth: int) -> tuple[_Factors, int, int]:
        """(the factors, the next token, their letters)."""
        factors: _Factors = []
        letters = 0
        while i < len(toks) and toks[i] != stop:
            tok = toks[i]
            if tok == "[":
                if depth == MAX_NESTING:
                    raise ParseError(f"commutators nest deeper than {MAX_NESTING}")
                left, i, left_letters = parse_seq(i + 1, ",", depth + 1)
                if i >= len(toks) or toks[i] != ",":
                    raise ParseError("commutator missing ','")
                right, i, right_letters = parse_seq(i + 1, "]", depth + 1)
                if i >= len(toks) or toks[i] != "]":
                    raise ParseError("commutator missing ']'")
                i += 1
                atom, size = (left, right), 2 * (left_letters + right_letters)
            elif tok == "1":
                atom, size = 0, 1
                i += 1
            elif tok.startswith("g"):
                atom, size = parse_int(tok[1:], 1, ngens, "generator"), 1
                i += 1
            else:
                raise ParseError(f"unexpected token {_shown(tok)}")
            power = 1
            if i < len(toks) and toks[i].startswith("^"):
                power = parse_int(toks[i][1:], -MAX_EXPONENT, MAX_EXPONENT, "exponent")
                i += 1
            letters += size * abs(power)
            if letters > room:
                raise _over_budget()
            factors.append((atom, power))
        return factors, i, letters

    factors, i, letters = parse_seq(0, "", 0)
    if i != len(toks):
        raise ParseError("trailing tokens in word")
    return factors, letters


def _expand(factors: _Factors, ngens: int) -> Word:
    """The word of parsed factors, every power expanded and reduced."""
    out: list[Word] = []
    for atom, power in factors:
        if type(atom) is tuple:
            w = _expand(atom[0], ngens).commutator(_expand(atom[1], ngens))
        else:
            # The parser checked the generator index against ngens.
            w = Word(ngens, ((atom, 1),) if atom else ())
        out += [w if power > 0 else w.inverse()] * abs(power)
    return Word.product(ngens, out)


def parse_words(texts: Iterable[str], ngens: int) -> list[Word]:
    """The words of one file, against one budget of MAX_LETTERS letters
    over all of them; no word is expanded until every one is counted.
    Every word costs at least one letter, so the budget also bounds the
    word count: an empty word, which a certificate term may hold, is not
    free."""
    room = MAX_LETTERS
    parsed = []
    for text in texts:
        factors, letters = _parse_factors(text, ngens, room)
        room -= max(letters, 1)
        if room < 0:
            raise _over_budget()
        parsed.append(factors)
    return [_expand(factors, ngens) for factors in parsed]


def parse_word(text: str, ngens: int) -> Word:
    """One word, alone against the MAX_LETTERS budget."""
    return parse_words([text], ngens)[0]


# -- presentation ------------------------------------------------------------------


@dataclass(frozen=True)
class Presentation:
    ngens: int
    relators: tuple[Word, ...]

    def __post_init__(self):
        for r in self.relators:
            if r.is_identity():
                raise ValueError("relators must be nonempty words")

    @property
    def nrels(self) -> int:
        return len(self.relators)

    def ring(self) -> PolyRing:
        return laurent_ring(self.ngens)


def parse_presentation(text: str) -> Presentation:
    lines = content_lines(text)
    if not lines:
        raise ParseError("empty presentation file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "generators":
        raise ParseError(f"expected 'generators N' header, got {_shown(lines[0])}")
    ngens = parse_int(head[1], 0, MAX_VARIABLES, "generator count")
    relators = tuple(parse_words(lines[1:], ngens))
    try:
        return Presentation(ngens=ngens, relators=relators)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def load_presentation(path) -> Presentation:
    return parse_presentation(read_text(path))


# -- Fox calculus -------------------------------------------------------------------


def fox_derivative(w: Word, j: int) -> Poly:
    """Abelianized Fox derivative dw/dg_j as a Laurent polynomial: entry j
    of fox_derivatives, or zero."""
    return fox_derivatives(w).get(j) or laurent_ring(w.ngens).zero()


def fox_derivatives(w: Word) -> dict[int, Poly]:
    """Every nonzero dw/dg_j, by 1-based j, from one pass over the letters
    of w: g_j adds the monomial of the prefix before it to dw/dg_j alone,
    and g_j^-1 minus that of the prefix through it, so the pass costs one
    monomial key per letter and collects each derivative's +-monomials in
    one term dict."""
    ring = laurent_ring(w.ngens)
    prefix = [0] * w.ngens
    terms: dict[int, dict[int, int]] = {}
    for g, e in w.letters:
        if e == -1:
            prefix[g - 1] -= 1
        key = ring.key(prefix)
        t = terms.setdefault(g, {})
        c = t.get(key, 0) + e
        if c:
            t[key] = c
        else:
            del t[key]
        if e == 1:
            prefix[g - 1] += 1
    return {g: Poly(ring, t) for g, t in terms.items() if t}


def _fox_matrix(ring: PolyRing, words: Sequence[Word]) -> RingMatrix:
    """The matrix whose column k holds the Fox derivatives of the k-th
    word, row i by generator i + 1."""
    rows: list[dict[int, Poly]] = [{} for _ in range(ring.nvars)]
    for k, w in enumerate(words):
        for g, d in fox_derivatives(w).items():
            rows[g - 1][k] = d
    return RingMatrix.from_rows(ring, rows, len(words))


def _boundaries(pres: Presentation) -> list[RingMatrix]:
    """[D0, D1] over the Laurent ring of pres: the row of (x_j - 1) and the
    Fox matrix."""
    ring = pres.ring()
    gens = range(1, pres.ngens + 1)
    return [RingMatrix(ring, [[ring.variable(j) - 1 for j in gens]]),
            _fox_matrix(ring, pres.relators)]


def universal_complex(pres: Presentation) -> RingComplex:
    """Degrees 0..2 from the presentation: D0 = row of (x_j - 1); D1 has the
    Fox derivatives of the relators, rows by generator, columns by relator.

    The composite D0 * D1 vanishes exactly when every relator abelianizes
    trivially (fundamental identity of Fox calculus); otherwise
    FundamentalIdentityFailed is raised."""
    try:
        return RingComplex(pres.ring(), [1, pres.ngens, pres.nrels], _boundaries(pres))
    except NotAComplex:
        raise FundamentalIdentityFailed("a relator does not abelianize to zero") from None


# -- endomorphisms ------------------------------------------------------------------


@dataclass(frozen=True)
class Endomorphism:
    """Free-group endomorphism given by generator images."""

    ngens: int
    images: tuple[Word, ...]

    def __post_init__(self):
        if len(self.images) != self.ngens:
            raise ValueError("need exactly one image per generator")

    @staticmethod
    def identity(ngens: int) -> "Endomorphism":
        return Endomorphism(ngens, tuple(Word.gen(ngens, j) for j in range(1, ngens + 1)))

    @staticmethod
    def inner(ngens: int, by: Word) -> "Endomorphism":
        """Conjugation g_j -> by g_j by^{-1}."""
        return Endomorphism(ngens, tuple(Word.gen(ngens, j).conjugate(by)
                                         for j in range(1, ngens + 1)))

    def apply(self, w: Word) -> Word:
        images = {1: self.images, -1: [img.inverse() for img in self.images]}
        return Word.product(self.ngens, (images[e][g - 1] for g, e in w.letters))

    def after(self, other: "Endomorphism") -> "Endomorphism":
        """self o other: apply other first, then self."""
        return Endomorphism(self.ngens, tuple(self.apply(im) for im in other.images))

    def preserves_abelianization(self) -> bool:
        for j, img in enumerate(self.images, start=1):
            vec = img.abelianization()
            if any(v != (1 if i == j else 0) for i, v in enumerate(vec, start=1)):
                return False
        return True


def parse_endomorphism(text: str, ngens: int) -> Endomorphism:
    lines = content_lines(text)
    if len(lines) != ngens:
        raise ParseError(f"expected {ngens} image words, got {len(lines)}")
    return Endomorphism(ngens, tuple(parse_words(lines, ngens)))


def load_endomorphism(path, ngens: int) -> Endomorphism:
    return parse_endomorphism(read_text(path), ngens)


def phi1(endo: Endomorphism) -> RingMatrix:
    """Degree-1 action matrix: entry [i][j] = d f(g_j) / d g_i.

    Requires f(g_j) to abelianize to x_j; under the row-vector convention the
    result satisfies D0 * Phi1 = D0."""
    if not endo.preserves_abelianization():
        raise AbelianizationNotPreserved("generator images must abelianize to themselves")
    return _fox_matrix(laurent_ring(endo.ngens), endo.images)


# -- certificates -------------------------------------------------------------------


CertTerm = tuple[Word, int, int]  # (conjugator, 1-based relator index, sign +-1)


@dataclass(frozen=True)
class RelatorCertificate:
    """Per relator l, terms (w, k, e) with  prod_i w_i r_{k_i}^{e_i} w_i^{-1}
    freely reducing to f(r_l)."""

    terms: tuple[tuple[CertTerm, ...], ...]

    def validate(self, pres: Presentation, endo: Endomorphism) -> None:
        if len(self.terms) != pres.nrels:
            raise CertificateInvalid(
                f"certificate covers {len(self.terms)} relators, presentation has {pres.nrels}")
        rels = pres.relators
        for l, terms in enumerate(self.terms):
            for _, k, e in terms:
                if not 1 <= k <= pres.nrels:
                    raise CertificateInvalid(f"relator index {k} out of range")
                if e not in (1, -1):
                    raise CertificateInvalid(f"sign must be +-1, got {e}")
            prod = Word.product(pres.ngens, ((rels[k - 1] if e == 1 else rels[k - 1].inverse())
                                             .conjugate(w) for w, k, e in terms))
            target = endo.apply(rels[l])
            if prod != target:
                raise CertificateInvalid(
                    f"relator {l + 1}: product reduces to '{prod}', image is '{target}'")


def phi2_from_certificate(pres: Presentation, endo: Endomorphism,
                          cert: RelatorCertificate, cx: RingComplex,
                          p1: RingMatrix) -> RingMatrix:
    """Degree-2 action matrix: entry [k][l] sums e * x^{ab(w)} over the
    certificate terms of relator l that target relator k.  cx is the
    universal complex of pres and p1 is phi1(endo), which the caller
    already holds.  Raises ChainIdentityFailed unless D1 * Phi2 = Phi1 * D1."""
    cert.validate(pres, endo)
    ring = pres.ring()
    m = pres.nrels
    rows: list[dict[int, Poly]] = [{} for _ in range(m)]
    zero = ring.zero()
    for l, terms in enumerate(cert.terms):
        for w, k, e in terms:
            rows[k - 1][l] = rows[k - 1].get(l, zero) + ring.monomial(w.abelianization(), e)
    out = RingMatrix.from_rows(ring, rows, m)
    verify_chain_map(cx.boundaries, {1: p1, 2: out})
    return out


def phi2_solve_fallback(d1: RingMatrix, p1: RingMatrix):
    """One solution of D1 * X = Phi1 * D1 over the fraction field, plus the
    right-kernel basis of D1 quantifying the non-uniqueness.  The output is
    NOT canonical: any kernel shift of the columns is an equally valid X."""
    return solve_right(d1, p1 * d1)


# -- certificate algebra -------------------------------------------------------------


def identity_certificate(pres: Presentation) -> RelatorCertificate:
    return RelatorCertificate(tuple(
        ((Word.identity(pres.ngens), l + 1, 1),) for l in range(pres.nrels)))


def inner_certificate(pres: Presentation, by: Word) -> RelatorCertificate:
    """Conjugation by g sends r_l to g r_l g^{-1}."""
    return RelatorCertificate(tuple(
        ((by, l + 1, 1),) for l in range(pres.nrels)))


def compose_certificates(pres: Presentation,
                         outer: Endomorphism, outer_cert: RelatorCertificate,
                         inner: Endomorphism, inner_cert: RelatorCertificate,
                         ) -> tuple[Endomorphism, RelatorCertificate]:
    """Certificate for outer o inner from certificates of the two factors.

    (outer o inner)(r_l) = outer(prod_i u_i r_{j_i}^{d_i} u_i^{-1}); each
    outer(r_{j_i}) expands through outer's own certificate, conjugators
    getting outer(u_i) prepended.  Inverse factors reverse their expansion.
    """
    composed = outer.after(inner)
    new_terms = []
    for l in range(pres.nrels):
        acc: list[CertTerm] = []
        for u, j, d in inner_cert.terms[l]:
            fu = outer.apply(u)
            expansion = outer_cert.terms[j - 1]
            if d == 1:
                for w, k, e in expansion:
                    acc.append((fu * w, k, e))
            else:
                for w, k, e in reversed(expansion):
                    acc.append((fu * w, k, -e))
        new_terms.append(tuple(acc))
    cert = RelatorCertificate(tuple(new_terms))
    cert.validate(pres, composed)
    return composed, cert


# -- certificate file format ----------------------------------------------------------
#
#   relator 1
#   ( g3 g1 g2 g3^-1 , 1 , +1 )
#   ( 1 , 2 , -1 )
#   ...
# One 'relator L' header per relator, then one '(word, index, sign)' triple
# per line, in product order.

_SIGNS = {"+1": 1, "+": 1, "1": 1, "-1": -1, "-": -1}


def parse_certificate(text: str, pres: Presentation) -> RelatorCertificate:
    # relator -> (position in texts, index, sign) of each of its terms
    heads: dict[int, list[tuple[int, int, int]]] = {}
    texts: list[str] = []  # the word of each term line, in file order
    current: int | None = None
    for ln in content_lines(text):
        if ln.startswith("relator"):
            parts = ln.split()
            if len(parts) != 2:
                raise ParseError(f"bad relator header {_shown(ln)}")
            current = parse_int(parts[1], 1, pres.nrels, "relator index")
            if current in heads:
                raise ParseError(f"repeated relator header {current}")
            heads[current] = []
            continue
        if current is None:
            raise ParseError("certificate term before any 'relator' header")
        if len(texts) == MAX_LETTERS:  # every word costs at least one letter
            raise _over_budget()
        # The word may hold commas of its own; the last two end it.
        parts = ln[1:-1].rsplit(",", 2) if ln.startswith("(") and ln.endswith(")") else []
        sign = _SIGNS.get(parts[-1].strip()) if len(parts) == 3 else None
        if sign is None:
            raise ParseError(f"bad certificate term {_shown(ln)}")
        k = parse_int(parts[1].strip(), 1, pres.nrels, "relator index")
        heads[current].append((len(texts), k, sign))
        texts.append(parts[0])
    if len(heads) != pres.nrels:
        raise ParseError("certificate must list every relator exactly once")
    words = parse_words(texts, pres.ngens)
    return RelatorCertificate(tuple(
        tuple((words[at], k, sign) for at, k, sign in heads[l]) for l in range(1, pres.nrels + 1)))


def format_certificate(cert: RelatorCertificate) -> str:
    lines = []
    for l, terms in enumerate(cert.terms, start=1):
        lines.append(f"relator {l}")
        for w, k, e in terms:
            lines.append(f"( {w} , {k} , {'+1' if e == 1 else '-1'} )")
    return "\n".join(lines) + "\n"


def load_certificate(path, pres: Presentation) -> RelatorCertificate:
    return parse_certificate(read_text(path), pres)
