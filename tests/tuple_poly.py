"""A polynomial keyed by exponent tuples: the representation rings.Poly had
before monomials were packed into ints, kept as the oracle of the packed
one.  Coefficients are Fractions throughout, and it shares no code with
arrmono."""

from __future__ import annotations

from fractions import Fraction


def _clean(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c}


def _order(e: tuple) -> tuple:
    return (sum(e), e)


class TuplePoly:
    """terms: exponent tuple -> nonzero Fraction, over n variables named
    var1..varn, negative exponents allowed when laurent."""

    def __init__(self, n: int, laurent: bool, var: str, terms: dict):
        self.n, self.laurent, self.var = n, laurent, var
        self.terms = _clean({tuple(e): Fraction(c) for e, c in terms.items()})

    def _new(self, terms: dict) -> "TuplePoly":
        return TuplePoly(self.n, self.laurent, self.var, terms)

    def one(self) -> "TuplePoly":
        return self._new({(0,) * self.n: 1})

    def __add__(self, other: "TuplePoly") -> "TuplePoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return self._new(out)

    def __neg__(self) -> "TuplePoly":
        return self._new({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "TuplePoly") -> "TuplePoly":
        return self + (-other)

    def __mul__(self, other: "TuplePoly") -> "TuplePoly":
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return self._new(out)

    def __pow__(self, k: int) -> "TuplePoly":
        if k < 0 or len(self.terms) == 1:
            ((e, c),) = self.terms.items()
            return self._new({tuple(a * k for a in e): c ** k})
        out = self.one()
        for _ in range(k):
            out = out * self
        return out

    def exact_div(self, divisor: "TuplePoly") -> "TuplePoly | None":
        """The exact quotient, or None when there is none.  In a Laurent
        ring both sides are first shifted into the polynomial cone."""
        rem, div = dict(self.terms), dict(divisor.terms)
        shift = [0] * self.n
        if self.laurent and rem:
            lo_r = [min(e[i] for e in rem) for i in range(self.n)]
            lo_d = [min(e[i] for e in div) for i in range(self.n)]
            rem = {tuple(a - s for a, s in zip(e, lo_r)): c for e, c in rem.items()}
            div = {tuple(a - s for a, s in zip(e, lo_d)): c for e, c in div.items()}
            shift = [a - b for a, b in zip(lo_r, lo_d)]
        de = max(div, key=_order)
        quotient: dict = {}
        while rem:
            re_ = max(rem, key=_order)
            qe = tuple(a - b for a, b in zip(re_, de))
            if min(qe, default=0) < 0:
                return None
            qc = rem[re_] / div[de]
            quotient[qe] = qc
            for e, c in div.items():
                t = tuple(a + b for a, b in zip(qe, e))
                rem[t] = rem.get(t, Fraction(0)) - qc * c
                if not rem[t]:
                    del rem[t]
        return self._new({tuple(a + s for a, s in zip(e, shift)): c
                          for e, c in quotient.items()})

    def substitute(self, j: int, replacement: "TuplePoly") -> "TuplePoly":
        out = self._new({})
        for e, c in self.terms.items():
            rest = self._new({e[:j - 1] + (0,) + e[j:]: c})
            out = out + rest * replacement ** e[j - 1]
        return out

    def evaluate(self, point) -> Fraction:
        total = Fraction(0)
        for e, c in self.terms.items():
            val = c
            for v, k in zip(point, e):
                val *= Fraction(v) ** k
            total += val
        return total

    def exp_jet(self):
        """Parts 0, 1 and 2 of p(exp(y)), the parts 1 and 2 over the
        polynomial ring of the same variable count."""
        def unit(*idx):
            return tuple(idx.count(i) for i in range(self.n))

        value, linear, quadratic = Fraction(0), {}, {}
        for e, c in self.terms.items():
            value += c
            support = [(i, m) for i, m in enumerate(e) if m]
            for i, mi in support:
                linear[unit(i)] = linear.get(unit(i), Fraction(0)) + c * mi
                for j, mj in support:
                    key = unit(i, j)
                    quadratic[key] = quadratic.get(key, Fraction(0)) + c * mi * mj / 2
        return (value, TuplePoly(self.n, False, "y", linear),
                TuplePoly(self.n, False, "y", quadratic))

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda t: _order(t[0]), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        out = ""
        for idx, (e, c) in enumerate(self.sorted_terms()):
            factors = [f"{self.var}{j}" + (f"^{k}" if k != 1 else "")
                       for j, k in enumerate(e, start=1) if k]
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = f"{mag}*" + "*".join(factors)
            if idx == 0:
                out = ("-" if c < 0 else "") + body
            else:
                out += f" {'-' if c < 0 else '+'} {body}"
        return out
