"""Exact coefficient rings: rationals, polynomials and Laurent polynomials,
and the 2-jet of a Laurent polynomial under the substitution x_j = exp(y_j).

A polynomial is a sparse dict mapping monomial keys to nonzero rational
coefficients in canonical form: an int when the value is integral, and
otherwise a Fraction whose denominator exceeds 1, never a float.

A monomial key is one int that packs the exponent vector (Monagan and
Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007).  Each of the n variables has a 32-bit field
holding its exponent plus 2^30, variable 1 in the most significant field,
and the total degree sits above them all, unbounded and unbiased:

    key(e) = sum(e) * 2^(32 n) + sum_i (e_i + 2^30) * 2^(32 (n - i))

So int order is the canonical term order (graded lexicographic: total
degree first, then the exponent vector), key is affine in e, and:

    product       key(a + b) = key(a) + key(b) - key(0)
    leading term  max(terms)
    divisibility  b - a >= 0 iff bit 30 of every field of
                  key(b) - key(a) + key(0) is set (for a, b >= 0)

An exponent lies in [-2^30, 2^30), a field value in [0, 2^31), so its top
bit, the guard, is clear.  The sum of two such fields, less the bias, lies
in [-2^30, 3 * 2^30): it never carries past its field, and it leaves the
range exactly when it borrows or reaches 2^31, which sets the guard.  So a
product of valid keys is valid unless one mask test finds a guard bit, and
then ExponentOverflow (a ParseError, so the command line exits 2) is
raised rather than a silent carry.  The margin: an exponent read from
input, or summed along a word, is at most 10^6 < 2^20 in absolute value
(MAX_EXPONENT, fox.MAX_LETTERS), so a product of up to 1024 such monomials
(2^10, as many as a ring has variables) stays in range, and one past it
meets the guard.  Only this module reads or writes the layout;
PolyRing.key, exponents, unit_key, key_steps and linear_variable are its
interface, and a key is unpacked only to print a term or to read its
exponents, in time linear in n (int.to_bytes and struct over whole
fields).

    x1*x2 - 1   ->   {key((1, 1, 0, 0)): 1, key((0, 0, 0, 0)): -1}
    1/2*y1      ->   {key((1, 0)): Fraction(1, 2)}

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
layer below: content_lines, tokenize, parse_int and parse_fraction.  Every
input file is read through read_text.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from typing import Iterable, Sequence

from .errors import ExponentOverflow, NotInRing, ParseError, ZeroAtPole

Exponent = tuple[int, ...]
Coeff = int | Fraction
# The most variables a ring may have, and so the largest generator count of a
# presentation and variable count of a projection file.  Every monomial key
# holds a 32-bit field per variable, so a count read from a file allocates
# with it.
MAX_VARIABLES = 1024
_ZERO = Fraction(0)
_ONE = Fraction(1)

# The packed layout (module docstring): a field per variable, FIELD_BITS
# wide, holding exponent + _BIAS; its top bit is the guard.
FIELD_BITS = 32
_BIAS = 1 << (FIELD_BITS - 2)
_FIELD_MASK = (1 << FIELD_BITS) - 1
# Every exponent lies in [-FIELD_EXPONENT, FIELD_EXPONENT).
FIELD_EXPONENT = _BIAS


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


def _overflow() -> ExponentOverflow:
    return ExponentOverflow(f"an exponent leaves [-2^{FIELD_BITS - 2}, 2^{FIELD_BITS - 2}), "
                            "the range of its packed field")


def _addmul(acc: dict, p: dict, q: dict, sign: int, ring) -> None:
    """acc += sign * p * q in place, on the term dicts of ring.  No zero
    coefficient is stored, so a sum that cancels was already present and is
    deleted.  A product key with a guard bit set has left its field
    (module docstring): ExponentOverflow."""
    unit, guard = ring.unit_key, ring._guard
    for e1, c1 in p.items():
        c1 *= sign
        e1 -= unit
        for e2, c2 in q.items():
            e = e1 + e2
            if e & guard:
                raise _overflow()
            c = acc.get(e, 0) + c1 * c2
            if c:
                acc[e] = c
            else:
                del acc[e]


def canonical_terms(terms: dict[int, Coeff]) -> dict[int, Coeff]:
    """terms with every integral Fraction replaced by its int, in place."""
    for e, c in terms.items():
        if type(c) is not int and c.denominator == 1:
            terms[e] = c.numerator
    return terms


def _power(v: Coeff, a: int, powers: dict) -> Coeff:
    """v ** a, kept in powers under (v, a).  A power not yet there is one
    product or exact quotient by v from a neighbour a - 1 or a + 1 that is,
    so the exponents of a Fox derivative of g^k, the run 1, ..., k - 1 or
    its reverse, cost one small step each rather than a power each."""
    pw = powers.get((v, a))
    if pw is None:
        if (v, a - 1) in powers:
            pw = powers[v, a - 1] * v
        elif (v, a + 1) in powers:
            pw = coeff_div(powers[v, a + 1], v)
        else:
            pw = v ** a
        powers[v, a] = pw
    return pw


@dataclass(frozen=True)
class RationalField:
    """The scalar field Q; matrices over it hold bare Fractions.  Term
    dicts over Q (linalg.char_poly) have the one key of the empty exponent
    vector, 0."""

    tag: str = "rational"
    nvars: int = 0
    unit_key = 0
    _guard = 0

    def zero(self) -> Fraction:
        return _ZERO

    def one(self) -> Fraction:
        return _ONE


QQ = RationalField()


@dataclass(frozen=True)
class PolyRing:
    """Q[v1..vn] (laurent=False) or Q[v1^{+-1}..vn^{+-1}] (laurent=True).

    The ring owns the monomial keys of its polynomials (module docstring):
    unit_key is the key of the monomial 1, key and exponents convert
    between keys and exponent tuples, and linear_variable reads a variable
    off its key."""

    nvars: int
    laurent: bool = False
    var: str = "y"
    # The layout constants, fixed by nvars: the key of 1 (2^30 in every
    # field), the guard bits (2^31 in every field), the mask of the fields,
    # the position of the degree and the codec of the fields.
    unit_key: int = field(init=False, repr=False, compare=False)
    _guard: int = field(init=False, repr=False, compare=False)
    _fields: int = field(init=False, repr=False, compare=False)
    _shift: int = field(init=False, repr=False, compare=False)
    _codec: struct.Struct = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.nvars
        nbytes = FIELD_BITS // 8
        setattr_ = object.__setattr__
        setattr_(self, "unit_key", int.from_bytes(_BIAS.to_bytes(nbytes, "big") * n, "big"))
        setattr_(self, "_guard", self.unit_key << 1)
        setattr_(self, "_shift", FIELD_BITS * n)
        setattr_(self, "_fields", (1 << self._shift) - 1)
        setattr_(self, "_codec", struct.Struct(f">{n}i"))

    def __reduce__(self):
        # Copies and pickles rebuild the layout from the three fields.
        return PolyRing, (self.nvars, self.laurent, self.var)

    @property
    def tag(self) -> str:
        return "laurent" if self.laurent else "poly"

    # -- monomial keys ---------------------------------------------------------

    def key(self, exps: Sequence[int]) -> int:
        """The key of an exponent vector of length nvars; ExponentOverflow
        if an exponent is outside [-FIELD_EXPONENT, FIELD_EXPONENT)."""
        if len(exps) != self.nvars:
            raise ValueError("exponent tuple length mismatch")
        # Packed as 32-bit two's complement, a field flips to e + 2^31 under
        # the guard bit and drops to e + 2^30 less the bias.
        try:
            low = (int.from_bytes(self._codec.pack(*exps), "big") ^ self._guard) - self.unit_key
        except struct.error:
            low = self._guard
        if low & self._guard:
            raise _overflow()
        return (sum(exps) << self._shift) + low

    def exponents(self, key: int) -> Exponent:
        """The exponent vector of a key: the inverse of key, fields in two's
        complement read by struct."""
        low = ((key + self.unit_key) & self._fields) ^ self._guard
        return self._codec.unpack(low.to_bytes(self._codec.size, "big"))

    def linear_variable(self, key: int) -> int | None:
        """j (0-based) if key is the key of the variable v_{j+1}, else None."""
        return self._variables.get(key)

    @cached_property
    def key_steps(self) -> list[int]:
        """key(e + u_i) - key(e) by i, u_i the unit vector of v_{i+1}: built
        once per ring, on first use, and read only.  The key is affine in
        e, so a caller can carry a key along a walk of unit steps
        (fox.fox_derivatives) instead of packing each exponent vector."""
        degree = 1 << self._shift
        return [degree + (1 << FIELD_BITS * i) for i in reversed(range(self.nvars))]

    @cached_property
    def _variables(self) -> dict[int, int]:
        """The key of each variable v_{i+1}, to i."""
        unit = self.unit_key
        return {unit + step: i for i, step in enumerate(self.key_steps)}

    def _exponent(self, key: int, i: int) -> int:
        """The exponent of v_{i+1} in key."""
        return ((key >> FIELD_BITS * (self.nvars - 1 - i)) & _FIELD_MASK) - _BIAS

    def _checked(self, key: int) -> int:
        """key, if no field of it has left its range (module docstring)."""
        if key & self._guard:
            raise _overflow()
        return key

    # -- elements --------------------------------------------------------------

    def zero(self) -> Poly:
        return Poly(self, {})

    def one(self) -> Poly:
        return self.const(1)

    def const(self, c: Coeff) -> Poly:
        c = canonical(c)
        if c == 0:
            return Poly(self, {})
        return Poly(self, {self.unit_key: c})

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
        else:
            vec = list(exps)
            if len(vec) != self.nvars:
                raise ValueError("exponent tuple length mismatch")
        c = canonical(coeff)
        if c == 0:
            return Poly(self, {})
        if not self.laurent and any(e < 0 for e in vec):
            raise ValueError(f"negative exponent {tuple(vec)} in non-Laurent ring")
        return Poly(self, {self.key(vec): c})

    def linear_form(self, coeffs: Sequence[int]) -> Poly:
        """sum_j coeffs[j - 1] * v_j, one int coefficient per variable: the
        writer of integral linear forms (connection.linear_coefficients reads)."""
        if len(coeffs) != self.nvars:
            raise ValueError("coefficient tuple length mismatch")
        unit, steps = self.unit_key, self.key_steps
        return Poly(self, {unit + steps[j]: c for j, c in enumerate(coeffs) if c})


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


class Poly:
    """Sparse exact multivariate (Laurent) polynomial over Q.

    terms maps monomial keys (PolyRing.key) to nonzero canonical
    coefficients (see canonical); the constructor trusts its caller to keep
    that invariant, and every operation here does."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict[int, Coeff]):
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
        terms: dict[int, Coeff] = {}
        _addmul(terms, self.terms, other.terms, 1, self.ring)
        return Poly(self.ring, canonical_terms(terms))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        ring = self.ring
        if n < 0:
            # Only unit monomials are invertible, and only in a Laurent ring.
            mono = self.as_monomial()
            if mono is None or not ring.laurent:
                raise ValueError("negative power of a non-unit")
        if n and self.terms:
            # The extreme exponent of each variable is attained by one term,
            # whose n-th power survives in the result, so the result fits
            # its fields exactly when these bounds do; the check comes
            # before any coefficient is raised.
            exps = [k for e in self.terms for k in ring.exponents(e)]
            if not all(-_BIAS <= k * n < _BIAS for k in (min(exps), max(exps))):
                raise _overflow()
        if n < 0:
            e, c = mono
            unit = ring.unit_key
            return Poly(ring, {unit + n * (e - unit): coeff_div(1, c ** -n)})
        out = ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def scale(self, c: Coeff) -> "Poly":
        c = canonical(c)
        if c == 0:
            return self.ring.zero()
        return Poly(self.ring, canonical_terms({e: c * v for e, v in self.terms.items()}))

    # -- structural queries ------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponent, Coeff]]:
        """(exponent tuple, coefficient) pairs in canonical (descending
        graded-lex) order, which is the order of the keys."""
        exponents, terms = self.ring.exponents, self.terms
        return [(exponents(e), terms[e]) for e in sorted(terms, reverse=True)]

    def as_monomial(self) -> tuple[int, Coeff] | None:
        """(key, coefficient) of a one-term polynomial, else None."""
        if len(self.terms) != 1:
            return None
        ((e, c),) = self.terms.items()
        return e, c

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, point: Sequence[Fraction | int]) -> Fraction:
        if len(point) != self.ring.nvars:
            raise ValueError("point length mismatch")
        return self._evaluate([canonical(v) for v in point], {})

    def _evaluate(self, pt: list[Coeff], powers: dict) -> Fraction:
        """The value at a point of canonical coefficients, already checked
        for length, so a matrix converts its point once, and its entries
        share one powers table (linalg.evaluate_matrix, _power).  An
        integral point keeps the arithmetic in ints; a negative power
        divides exactly.  A term that vanishes at a zero coordinate is still
        a pole if a later zero coordinate has a negative exponent; only a
        Laurent ring has those, so only there is the rest of the term
        read."""
        total = 0
        exponents = self.ring.exponents
        for key, c in self.terms.items():
            e = exponents(key)
            val = c
            for v, k in zip(pt, e):
                if k == 0:
                    continue
                if v == 0:
                    if k < 0 or self.ring.laurent and any(m < 0 and not w for w, m in zip(pt, e)):
                        j = next(j for j, (w, m) in enumerate(zip(pt, e)) if m < 0 and not w)
                        raise ZeroAtPole(f"{self.ring.var}{j + 1} = 0 is a pole "
                                         f"(exponent {e[j]})")
                    val = 0
                    break
                if k == 1:
                    val = val * v
                elif k > 0:
                    val = val * _power(v, k, powers)
                else:
                    val = coeff_div(val, v if k == -1 else _power(v, -k, powers))
            total += val
        if type(total) is Fraction:
            return total
        return Fraction(total) if total else _ZERO

    def substitute(self, j: int, replacement: "Poly") -> "Poly":
        """Replace variable v_j (1-based).  A negative exponent of v_j needs a
        unit monomial replacement, whose inverse exists (ValueError otherwise)."""
        if replacement.ring != self.ring:
            raise ValueError("replacement ring mismatch")
        ring, i = self.ring, j - 1
        step = ring.key_steps[i]
        out = ring.zero()
        for e, c in self.terms.items():
            k = ring._exponent(e, i)
            out = out + Poly(ring, {e - k * step: c}) * replacement ** k
        return out

    # -- exact division ------------------------------------------------------

    def exact_div(self, divisor: "Poly") -> "Poly":
        """Exact quotient self / divisor; raises NotInRing if not divisible.

        Long division on one remainder term dict: each quotient term t
        subtracts t * divisor from it in place (_addmul), so no Poly is
        built until the quotient is whole.  The leading term is the largest
        key, and the divisibility of leading terms one mask test (module
        docstring).  The term order is a monomial order, so the trailing
        term of a multiple q * divisor is tt(q) * tt(divisor): when tt(divisor)
        does not divide tt(self), one mask test on the least keys rejects
        the division before any step."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self.ring.zero()
        ring = self.ring
        unit = ring.unit_key
        rem, div = self.terms, divisor.terms
        if len(div) == 1:
            # A monomial divides term by term: in Q[y] when every field of
            # the quotient keeps its bias bit, in the Laurent ring always.
            ((de, dc),) = div.items()
            quotient = {}
            for e, c in rem.items():
                qe = e - de + unit
                if not ring.laurent and qe & unit != unit:
                    raise NotInRing("term not divisible by the monomial")
                quotient[ring._checked(qe)] = coeff_div(c, dc)
            return Poly(ring, quotient)
        if ring.laurent:
            # Divide both operands by their monomial content, into the
            # polynomial cone; divide there, and multiply the quotient by
            # the content of self over that of divisor.
            shift_self, shift_div = self._monomial_shift(), divisor._monomial_shift()
            rem = {ring._checked(e - shift_self + unit): c for e, c in rem.items()}
            div = {ring._checked(e - shift_div + unit): c for e, c in div.items()}
        else:
            rem = dict(rem)
        if (min(rem) - min(div) + unit) & unit != unit:
            raise NotInRing("trailing term not divisible")
        de = max(div)
        dc = div[de]
        quotient: dict[int, Coeff] = {}
        while rem:
            re_ = max(rem)
            qe = re_ - de + unit
            if qe & unit != unit:
                raise NotInRing("leading term not divisible")
            # The remainder's coefficients need not be canonical; coeff_div
            # makes the quotient's so.
            qc = quotient[qe] = coeff_div(rem[re_], dc)
            _addmul(rem, {qe: qc}, div, -1, ring)
        if ring.laurent:
            quotient = {ring._checked(e + shift_self - shift_div): c
                        for e, c in quotient.items()}
        return Poly(ring, quotient)

    def _monomial_shift(self) -> int:
        """The key of the least exponent of each variable over the terms.
        Dividing by it removes every monomial factor, so a Laurent quotient
        of two shifted operands is already a polynomial."""
        return self.ring.key(tuple(map(min, zip(*map(self.ring.exponents, self.terms)))))

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
    exponents = p.ring.exponents
    target = poly_ring(p.ring.nvars)
    steps = target.key_steps
    value = 0
    # Keyed by the key of the monomial less the key of 1: steps[i] for y_i,
    # steps[i] + steps[j] for y_i * y_j.  twice_quadratic holds 2 * part 2,
    # so it is integral when p is, and one exact halving per monomial ends
    # the pass.
    linear: dict[int, Coeff] = {}
    twice_quadratic: dict[int, Coeff] = {}
    for e, c in p.terms.items():
        value += c
        support = [(steps[j], m) for j, m in enumerate(exponents(e)) if m]
        for a, (si, mi) in enumerate(support):
            cm = c * mi
            linear[si] = linear.get(si, 0) + cm
            if order == 2:
                sii = si + si
                twice_quadratic[sii] = twice_quadratic.get(sii, 0) + cm * mi
                for sj, mj in support[a + 1:]:
                    sij = si + sj
                    twice_quadratic[sij] = twice_quadratic.get(sij, 0) + 2 * cm * mj

    def poly(coeffs: dict[int, Coeff], den: int) -> Poly:
        unit = target.unit_key
        return Poly(target, {unit + k: coeff_div(c, den) for k, c in coeffs.items() if c})

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
# The longest input file in bytes.  The letter limit of the word formats
# (fox.MAX_LETTERS) admits files of about 15 MB, so 64 MiB leaves room for
# whitespace and comments.
MAX_INPUT_BYTES = 1 << 26
_INTEGER = re.compile(r"([+-]?)0*([0-9]+)")
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _shown(text: str) -> str:
    return repr(text if len(text) <= 40 else text[:40] + "...")


def read_text(path) -> str:
    """The whole file at path, decoded as UTF-8.  ParseError past
    MAX_INPUT_BYTES, found by reading at most one byte more, so an endless
    file such as /dev/zero costs no more; ParseError, naming the byte
    offset, on the first byte sequence that is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read(MAX_INPUT_BYTES + 1)
    if len(data) > MAX_INPUT_BYTES:
        raise ParseError(f"{path} is longer than {MAX_INPUT_BYTES} bytes")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: byte offset {exc.start}") from None


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
    terms: dict[int, Fraction] = {}
    for coeff, exps in pairs:
        e = [parse_int(str(k), -MAX_EXPONENT, MAX_EXPONENT, "exponent") for k in exps]
        if len(e) != ring.nvars:
            raise ParseError("exponent vector length mismatch")
        c = parse_fraction(str(coeff))
        if c:
            key = ring.key(e)
            terms[key] = terms.get(key, _ZERO) + c
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
