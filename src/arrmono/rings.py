"""Exact coefficient rings: rationals, polynomials and Laurent polynomials,
and the 2-jet of a Laurent polynomial under the substitution x_j = exp(y_j).

A polynomial is a sparse dict mapping exponent tuples to nonzero rational
coefficients in canonical form: an int when the value is integral, and
otherwise a Fraction whose denominator exceeds 1, never a float.

    x1*x2 - 1   ->   {(1, 1, 0, 0): 1, (0, 0, 0, 0): -1}
    1/2*y1      ->   {(1, 0): Fraction(1, 2)}

Almost every coefficient of the pipeline is integral (Fox derivatives,
certificates, connection and Aomoto matrices), so ints keep the arithmetic
off Fraction.  Every quotient of coefficients goes through coeff_div, so a
negative power or an exact division never leaks a float, and an integral
quotient comes back as an int.  str of an int equals str of the integral
Fraction, so the printed form does not depend on the representation.

The ambient ring fixes the variable count, the variable stem used for
display ("x" or "y"), and whether negative exponents are allowed (Laurent).
All values are immutable after construction; operations are pure.

Canonical term order is graded lexicographic (total degree first, then the
exponent tuple), descending, so serialization is deterministic.

Every input syntax (the file formats, the polynomial and word grammars and
the --at point) reads its lines, tokens and numbers through the lexical
layer below: content_lines, tokenize, parse_int and parse_fraction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import add
from typing import Iterable, Sequence

from .errors import ParseError, ZeroAtPole

Exponent = tuple[int, ...]
Coeff = int | Fraction
# The most variables a ring may have, and so the largest generator count of a
# presentation and variable count of a projection file.  Every monomial holds
# an exponent per variable, so a count read from a file allocates with it.
MAX_VARIABLES = 1024
_ZERO = Fraction(0)
_ONE = Fraction(1)


def canonical(c) -> Coeff:
    """The canonical coefficient of an exact rational value: an int when it
    is integral, otherwise a Fraction in lowest terms."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def coeff_div(a: Coeff, b: Coeff) -> Coeff:
    """The exact quotient a / b of two coefficients, canonical.  Raises
    ZeroDivisionError when b is 0."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return canonical((a if type(a) is Fraction else Fraction(a)) / b)


def _addmul(acc: dict, p: dict, q: dict, sign: int) -> None:
    """acc += sign * p * q in place, on term dicts.  No zero coefficient is
    stored, so a sum that cancels was already present and is deleted."""
    for e1, c1 in p.items():
        c1 *= sign
        for e2, c2 in q.items():
            e = tuple(map(add, e1, e2))
            c = acc.get(e, 0) + c1 * c2
            if c:
                acc[e] = c
            else:
                del acc[e]


def canonical_terms(terms: dict[Exponent, Coeff]) -> dict[Exponent, Coeff]:
    """terms with every integral Fraction replaced by its int, in place."""
    for e, c in terms.items():
        if type(c) is not int and c.denominator == 1:
            terms[e] = c.numerator
    return terms


@dataclass(frozen=True)
class RationalField:
    """The scalar field Q; matrices over it hold bare Fractions."""

    tag: str = "rational"
    nvars: int = 0

    def zero(self) -> Fraction:
        return _ZERO

    def one(self) -> Fraction:
        return _ONE


QQ = RationalField()


@dataclass(frozen=True)
class PolyRing:
    """Q[v1..vn] (laurent=False) or Q[v1^{+-1}..vn^{+-1}] (laurent=True)."""

    nvars: int
    laurent: bool = False
    var: str = "y"

    @property
    def tag(self) -> str:
        return "laurent" if self.laurent else "poly"

    def zero(self) -> Poly:
        return Poly(self, {})

    def one(self) -> Poly:
        return self.const(1)

    def const(self, c: Coeff) -> Poly:
        c = canonical(c)
        if c == 0:
            return Poly(self, {})
        return Poly(self, {(0,) * self.nvars: c})

    def variable(self, j: int) -> Poly:
        """The variable v_j, 1-based."""
        return self.monomial({j: 1})

    def monomial(self, exps: dict[int, int] | Sequence[int], coeff: Coeff = 1) -> Poly:
        """Monomial from a 1-based {index: exponent} dict or a full exponent tuple."""
        if isinstance(exps, dict):
            vec = [0] * self.nvars
            for j, e in exps.items():
                if not 1 <= j <= self.nvars:
                    raise ValueError(f"variable index {j} out of range 1..{self.nvars}")
                vec[j - 1] = e
            key = tuple(vec)
        else:
            key = tuple(exps)
            if len(key) != self.nvars:
                raise ValueError("exponent tuple length mismatch")
        c = canonical(coeff)
        if c == 0:
            return Poly(self, {})
        if not self.laurent and any(e < 0 for e in key):
            raise ValueError(f"negative exponent {key} in non-Laurent ring")
        return Poly(self, {key: c})

    def linear_form(self, coeffs: Sequence[int]) -> Poly:
        """sum_j coeffs[j - 1] * v_j, one int coefficient per variable: the
        writer of integral linear forms (connection.linear_coefficients reads)."""
        if len(coeffs) != self.nvars:
            raise ValueError("coefficient tuple length mismatch")
        zeros = (0,) * self.nvars
        return Poly(self, {zeros[:j] + (1,) + zeros[j + 1:]: c
                           for j, c in enumerate(coeffs) if c})


@cache
def poly_ring(nvars: int) -> PolyRing:
    """Q[y1..yn], the ring of the weights y_j = log x_j.  One object per n,
    so Poly._coerce meets equal rings by identity."""
    return PolyRing(nvars, laurent=False, var="y")


@cache
def laurent_ring(nvars: int) -> PolyRing:
    """Q[x1^{+-1}..xn^{+-1}], the ring of the monodromy variables x_j.  One
    object per n, like poly_ring."""
    return PolyRing(nvars, laurent=True, var="x")


def _term_key(exps: Exponent) -> tuple[int, Exponent]:
    return (sum(exps), exps)


class Poly:
    """Sparse exact multivariate (Laurent) polynomial over Q.

    terms maps exponent tuples to nonzero canonical coefficients (see
    canonical); the constructor trusts its caller to keep that invariant,
    and every operation here does."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict[Exponent, Coeff]):
        self.ring = ring
        self.terms = terms

    # -- basic protocol ----------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented  # type: ignore[return-value]

    def __eq__(self, other) -> bool:
        if type(other) is Poly and other.ring is self.ring:
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            old = terms.get(e)
            if old is None:
                terms[e] = c
                continue
            s = old + c
            if s:
                terms[e] = s if type(s) is int or s.denominator != 1 else s.numerator
            else:
                del terms[e]
        return Poly(self.ring, terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[Exponent, Coeff] = {}
        _addmul(terms, self.terms, other.terms, 1)
        return Poly(self.ring, canonical_terms(terms))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            # Only unit monomials are invertible, and only in a Laurent ring.
            mono = self.as_monomial()
            if mono is None or not self.ring.laurent:
                raise ValueError("negative power of a non-unit")
            e, c = mono
            return Poly(self.ring, {tuple(k * n for k in e): coeff_div(1, c ** -n)})
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scale(self, c: Coeff) -> "Poly":
        c = canonical(c)
        if c == 0:
            return self.ring.zero()
        return Poly(self.ring, canonical_terms({e: c * v for e, v in self.terms.items()}))

    # -- structural queries ------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponent, Coeff]]:
        """Terms in canonical (descending graded-lex) order."""
        return sorted(self.terms.items(), key=lambda t: _term_key(t[0]), reverse=True)

    def as_monomial(self) -> tuple[Exponent, Coeff] | None:
        if len(self.terms) != 1:
            return None
        ((e, c),) = self.terms.items()
        return e, c

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, point: Sequence[Fraction | int]) -> Fraction:
        if len(point) != self.ring.nvars:
            raise ValueError("point length mismatch")
        return self._evaluate([canonical(v) for v in point])

    def _evaluate(self, pt: list[Coeff]) -> Fraction:
        """The value at a point of canonical coefficients, already checked
        for length, so a matrix converts its point once
        (linalg.evaluate_matrix).  An integral point keeps the arithmetic in
        ints; a negative power divides exactly."""
        total = 0
        for e, c in self.terms.items():
            val = c
            for v, k in zip(pt, e):
                if k == 0:
                    continue
                if v == 0:
                    if k < 0:
                        raise ZeroAtPole(f"exponent {k} at zero coordinate")
                    val = 0
                    break
                val = val * v ** k if k > 0 else coeff_div(val, v ** -k)
            total += val
        if type(total) is Fraction:
            return total
        return Fraction(total) if total else _ZERO

    def substitute(self, j: int, replacement: "Poly") -> "Poly":
        """Replace variable v_j (1-based).  A negative exponent of v_j needs a
        unit monomial replacement, whose inverse exists (ValueError otherwise)."""
        if replacement.ring != self.ring:
            raise ValueError("replacement ring mismatch")
        i = j - 1
        out = self.ring.zero()
        for e, c in self.terms.items():
            out = out + Poly(self.ring, {e[:i] + (0,) + e[i + 1:]: c}) * replacement ** e[i]
        return out

    # -- exact division ------------------------------------------------------

    def exact_div(self, divisor: "Poly") -> "Poly":
        """Exact quotient self / divisor; raises NotInRing if not divisible.

        Long division on one remainder term dict: each quotient term t
        subtracts t * divisor from it in place (_addmul), so no Poly is
        built until the quotient is whole."""
        from .errors import NotInRing

        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self.ring.zero()
        rem, div = self.terms, divisor.terms
        if self.ring.laurent:
            # Shift both operands into the polynomial cone, divide there.
            shift_self, shift_div = self._monomial_shift(), divisor._monomial_shift()
            rem = {tuple(a - s for a, s in zip(e, shift_self)): c for e, c in rem.items()}
            div = {tuple(a - s for a, s in zip(e, shift_div)): c for e, c in div.items()}
            delta = tuple(a - b for a, b in zip(shift_self, shift_div))
        else:
            rem = dict(rem)
        de = max(div, key=_term_key)
        dc = div[de]
        quotient: dict[Exponent, Coeff] = {}
        while rem:
            re_ = max(rem, key=_term_key)
            qe = tuple(a - b for a, b in zip(re_, de))
            if min(qe, default=0) < 0:
                raise NotInRing("leading term not divisible")
            # The remainder's coefficients need not be canonical; coeff_div
            # makes the quotient's so.
            qc = quotient[qe] = coeff_div(rem[re_], dc)
            _addmul(rem, {qe: qc}, div, -1)
        if self.ring.laurent:
            quotient = {tuple(map(add, e, delta)): c for e, c in quotient.items()}
        return Poly(self.ring, quotient)

    def _monomial_shift(self) -> Exponent:
        """The least exponent of each variable over the terms.  Shifting by
        it removes every monomial factor, so a Laurent quotient of two
        shifted operands is already a polynomial."""
        return tuple(min(e[i] for e in self.terms) for i in range(self.ring.nvars))

    # -- display -------------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({self.ring.var}:{format_poly(self)})"


# -- exp substitution ---------------------------------------------------------


def exp_jet(p: Poly, order: int) -> tuple[Fraction, Poly] | tuple[Fraction, Poly, Poly]:
    """The homogeneous parts of p(exp(y)) up to total degree order (1 or 2).

    Under x_j = exp(y_j) a term c*x^e becomes c*exp(e.y), whose parts of
    degree 0, 1 and 2 are c, c*(e.y) and c*(e.y)^2/2, negative exponents
    included.  One pass over the terms accumulates them; part 0 is the
    value p(1, ..., 1) in Q and parts 1 and 2 are polynomials over
    poly_ring(n), n the variable count of p.
    """
    if order not in (1, 2):
        raise ValueError("exp_jet computes order 1 or 2")
    n = p.ring.nvars
    target = poly_ring(n)
    value = 0
    # Keyed by the variable indices of the monomial: (i,) or (i, j), i <= j.
    # twice_quadratic holds 2 * part 2, so it is integral when p is, and
    # one exact halving per monomial ends the pass.
    linear: dict[tuple[int, ...], Coeff] = {}
    twice_quadratic: dict[tuple[int, ...], Coeff] = {}
    for e, c in p.terms.items():
        value += c
        support = [(j, m) for j, m in enumerate(e) if m]
        for a, (i, mi) in enumerate(support):
            cm = c * mi
            linear[i,] = linear.get((i,), 0) + cm
            if order == 2:
                twice_quadratic[i, i] = twice_quadratic.get((i, i), 0) + cm * mi
                for j, mj in support[a + 1:]:
                    twice_quadratic[i, j] = twice_quadratic.get((i, j), 0) + 2 * cm * mj

    def poly(coeffs: dict[tuple[int, ...], Coeff], den: int) -> Poly:
        terms = {}
        for idx, c in coeffs.items():
            if c:
                e = [0] * n
                for i in idx:
                    e[i] += 1
                terms[tuple(e)] = coeff_div(c, den)
        return Poly(target, terms)

    value = Fraction(value)
    if order == 1:
        return value, poly(linear, 1)
    return value, poly(linear, 1), poly(twice_quadratic, 2)


# -- the lexical layer of every input syntax ----------------------------------
#
# Every file format and flag reads its lines, tokens, integers and rationals
# through the four readers below, so what counts as a number is decided once:
# ASCII decimal digits, signed where negatives are allowed, and for a
# rational an optional '/denominator', the form str(Fraction) writes.
# Decimals, exponent notation, '_' separators and non-ASCII digits are parse
# errors.

# The deepest nesting of commutator brackets in a word and of parentheses in
# a polynomial.  Both parsers descend recursively, so deeper input would end
# in RecursionError.
MAX_NESTING = 100
# The largest absolute exponent of a word or a polynomial.
MAX_EXPONENT = 1_000_000
_INTEGER = re.compile(r"([+-]?)0*([0-9]+)")
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _shown(text: str) -> str:
    return repr(text if len(text) <= 40 else text[:40] + "...")


def content_lines(text: str) -> list[str]:
    """The stripped lines of text, without blank lines and '#' comments."""
    return [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]


def tokenize(text: str, token: re.Pattern) -> list[str]:
    """text cut into tokens: the pattern token, which skips whitespace
    before a token, is matched at each position and its group 1 is the
    token.  ParseError at the first character that starts no token."""
    toks = []
    pos, end = 0, len(text.rstrip())
    while pos < end:
        m = token.match(text, pos)
        if m is None:
            raise ParseError(f"bad token at {_shown(text[pos:end].lstrip())}")
        toks.append(m.group(1))
        pos = m.end()
    return toks


def parse_int(text: str, low: int, high: int, what: str) -> int:
    """The integer that text spells in decimal, signed only when low < 0;
    ParseError unless it is one in low..high.  The digits are counted before
    int() reads them, so a long digit string is rejected in time linear in
    its length."""
    m = _INTEGER.fullmatch(text)
    if (m is not None and (low < 0 or not m.group(1))
            and len(m.group(2)) <= len(str(max(-low, high)))):
        value = int(m.group(1) + m.group(2))
        if low <= value <= high:
            return value
    raise ParseError(f"{what} {_shown(text)} is not an integer in {low}..{high}")


def parse_fraction(text: str) -> Fraction:
    """The rational that text spells as [+-]digits[/digits], surrounding
    whitespace allowed.  ParseError on any other form, on a zero denominator
    and on more digits than int() converts."""
    m = _RATIONAL.fullmatch(text.strip())
    try:
        if m is not None:
            return Fraction(int(m.group(1)), int(m.group(2) or 1))
    except (ValueError, ZeroDivisionError):
        pass
    raise ParseError(f"bad rational {_shown(text)}: expected [+-]digits[/digits] with a "
                     "nonzero denominator, within int()'s digit limit")


def format_poly(p: Poly) -> str:
    """Human-readable form, canonical term order, e.g. 'x1*x2 - 1'."""
    if p.is_zero():
        return "0"
    pieces = []
    for e, c in p.sorted_terms():
        factors = []
        for j, k in enumerate(e, start=1):
            if k == 0:
                continue
            factors.append(f"{p.ring.var}{j}" + (f"^{k}" if k != 1 else ""))
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = str(abs(c)) + "*" + "*".join(factors)
        sign = "-" if c < 0 else "+"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


_POLY_TOKEN = re.compile(r"\s*([A-Za-z]\w*|[0-9]+|\^|\*|\+|\-|/|\(|\))")


class _PolyParser:
    """Recursive-descent parser for expressions like 'x1*x2 - 1' or '-y2'."""

    def __init__(self, text: str, ring: PolyRing):
        self.toks = tokenize(text, _POLY_TOKEN)
        self.pos = 0
        self.depth = 0
        self.ring = ring

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse(self) -> Poly:
        p = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing tokens from {self.toks[self.pos:self.pos + 5]}")
        return p

    def signs(self, ops: tuple[str, ...]) -> int:
        """The sign of a run of the tokens ops ('+' or '-'), read in a loop."""
        sign = 1
        while self.peek() in ops:
            if self.take() == "-":
                sign = -sign
        return sign

    def expr(self) -> Poly:
        sign = self.signs(("+", "-"))
        p = self.term().scale(sign)
        while self.peek() in ("+", "-"):
            op = self.take()
            q = self.term()
            p = p + q.scale(-1 if op == "-" else 1)
        return p

    def term(self) -> Poly:
        p = self.atom()
        while self.peek() == "*":
            self.take()
            p = p * self.atom()
        return p

    def atom(self) -> Poly:
        if self.peek() == "-":
            # The whole run of signs is read here, so this recursion is one deep.
            return -self.atom() if self.signs(("-",)) < 0 else self.atom()
        tok = self.take()
        if tok == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}")
            p = self.expr()
            if self.take() != ")":
                raise ParseError("missing closing parenthesis")
            self.depth -= 1
            return p
        if tok[0].isdigit():
            if self.peek() == "/":
                tok += self.take() + self.take()
            return self.ring.const(parse_fraction(tok))
        var = self.ring.var
        if not tok.startswith(var):
            raise ParseError(f"unknown symbol {_shown(tok)} in {var}-ring")
        j = parse_int(tok[len(var):], 1, self.ring.nvars, f"{var}-variable index")
        exp = 1
        if self.peek() == "^":
            self.take()
            t = self.take()
            if t == "-":
                t += self.take()
            exp = parse_int(t, -MAX_EXPONENT, MAX_EXPONENT, "exponent")
        if exp < 0 and not self.ring.laurent:
            raise ParseError("negative exponent in non-Laurent ring")
        return self.ring.monomial({j: exp})


def parse_poly(text: str, ring: PolyRing) -> Poly:
    return _PolyParser(text, ring).parse()


def poly_to_pairs(p: Poly) -> list[list]:
    """Canonical [[coeff, [exponents...]], ...] pairs, leading term first."""
    return [[str(c), list(e)] for e, c in p.sorted_terms()]


def poly_from_pairs(pairs: Iterable, ring: PolyRing) -> Poly:
    terms: dict[Exponent, Fraction] = {}
    for coeff, exps in pairs:
        e = tuple(parse_int(str(k), -MAX_EXPONENT, MAX_EXPONENT, "exponent") for k in exps)
        if len(e) != ring.nvars:
            raise ParseError("exponent vector length mismatch")
        c = parse_fraction(str(coeff))
        if c:
            terms[e] = terms.get(e, _ZERO) + c
    return Poly(ring, {e: canonical(c) for e, c in terms.items() if c})


def parse_point(text: str, nvars: int) -> tuple[Fraction, ...]:
    """Comma-separated rational coordinates, e.g. '2,3,1/6,1'.  Every field
    holds one coordinate; the point with no coordinates is written ','."""
    parts = [] if text.strip() == "," else text.split(",")
    if any(not s.strip() for s in parts):
        raise ParseError(f"empty coordinate in point {_shown(text)}")
    if len(parts) != nvars:
        raise ParseError(f"expected {nvars} coordinates, got {len(parts)}")
    return tuple(parse_fraction(s) for s in parts)
