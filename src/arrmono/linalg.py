"""Exact matrices over the kernel rings and their fraction fields.

Convention used throughout the package: row vectors act on the left,
v -> v * M, so a chain map F between complexes with boundaries D satisfies
the literal matrix identity D^q * F^{q+1} = F^q * D^q.

Only this module knows how a RingMatrix is stored.  Every other module
builds one through RingMatrix.from_rows (per row, a dict from column to
entry; zero entries are dropped) or the public constructor on dense rows,
and reads its nonzeros through RingMatrix.nonzero_rows (a fresh dict per
row); m[i, j] and m.row(i) read it densely, for printing.  No cell of a
constructed matrix is written.  Each row is stored as a dict that holds
only its nonzeros, beside the shape, so what a matrix holds and what an
operation on it costs do not depend on its width: from_rows keeps the
caller's dicts, and m[i, j] reads the ring's zero where a row has no
entry.  RingMatrix.entries is a dense view, built fresh on each read; it
stays public because the benchmark's count hooks read it
(bench/spans.py) until the in-package trace replaces those hooks
(ROADMAP 2).

Matrix work pays for the nonzero entries, and each result is built once.
A product over Q[y] or the Laurent ring is built row by row (Gustavson,
ACM TOMS 4(3), 1978): row i of A * B sums A[i][k] * (row k of B) over the
nonzero A[i][k] and the nonzero entries of that row, each output entry in
one term dict, so it costs its nonzero pairs rather than rows x columns x
inner dimension.  The elementwise operations (sums, negation, scaling,
evaluation, the exp-jets, is_zero, is_identity, equality, transpose,
trace and map_entries, whose function must send 0 to 0) read each row's
nonzero entries, compute on those alone and build the result from them.
The Aomoto and connection matrices are mostly zeros (about 94% of mu_2 on
a dimension-3 arrangement; 210 of the 225 entries of a 15 x 15 Phi_2 on
Z^6), and the degree-2 gauge system of Z^28 is 64,288 x 21,952 with
175,392 nonzeros: its equation dicts become the rows through from_rows,
and the rational solve reads them with no dense row in between.  The one
reader of dense rows is the rational product, which keeps its dense loop
until the benchmark harness stops tying memory to speed (ROADMAP 1a).

One fraction-free elimination (Bareiss 1968) on dict rows, parametrized
by the ring's exact division, gives every rank, determinant, dependency
step and solution: over Q on rows cleared to integers (//), over Q[y] and
the Laurent ring with Poly.exact_div (_exact_rows).  fraction_free_echelon
inserts rows in input order, each reduced against the pivot rows so far
by reduce_row, the step the dependency walk of arrangement also applies
to one new row against a prefix's echelon.  A step at a pivot column
where the row is zero is skipped, and one closing rescale makes up for
the skipped ones, so a sparse row pays for its nonzero pivot columns
only.  A reduced row is zero at every earlier pivot column, so its pivot
is its least column, or it is dropped as dependent; columns from a given
bound on are carried along and never pivot.  The kept rows are the row
rank profile, the sorted pivot columns the column rank profile, and the
last pivot is the minor on them (Sylvester's identity), signed by the
permutation that sorts the pivot columns; every caller reads what it
needs off that one pass.  Ranks stay fraction-free and on integers: the
sparse forward elimination below is more than ten times slower on a
dense integer matrix.

Solving reduces the rows of [A | B] in the fraction-free elimination,
with pivots on A's columns only, and stops once every column of A has
one.  Fraction-free back-substitution on the pivot rows (Nakos, Turner
and Williams, ACM SIGSAM Bull. 31(3), 1997) then gives the numerator
det * x of the particular solution, free coordinates zero, over the one
explicit denominator det, the signed pivot minor, and every kernel
vector, with det at its free column; each entry is a minor of [A | B],
so every division is exact.  The empty minor of a zero matrix has
determinant 1 and takes the same path.  This is the one back-substitution
for every ring; over Q its answers are divided by det, so the solution
and each kernel vector, with 1 at its free column, are the unique ones
that the reduced row echelon form gives.  A left kernel is the kernel of
the transpose.

Consistency is decided apart from the answers.  Over Q[y] and the
Laurent ring the numerator is divided exactly first, and the check on all
rows is A * X == B on the quotient, or A * numerator == det * B when X is
not a ring matrix.  Over Q a sparse forward elimination (Duff, Erisman and
Reid, Direct Methods for Sparse Matrices, 1986) decides it: rows hold
only their nonzeros, the pivot is the unused row with the fewest of them
(Markowitz 1957), and only the unused rows are updated; the system is
consistent exactly when every non-pivot row ends empty.  There the
answers are solved for only when they are first read, so the gauge check,
which asks only the verdict, builds neither.  The forward pass stays because it
decides the gauge systems more than ten times faster than the
fraction-free elimination of all their rows: 26 ms against 405 ms on the
7,840 x 2,744 system of Z^14, 145 ms against 3.6 s on the 23,200 x 8,000
system of Z^20 (one run each, Python 3.11).

A characteristic polynomial is the product of those of the diagonal
blocks that the strongly connected components of the matrix's support
graph cut out (Tarjan 1972; Duff and Reid 1978), kept as its distinct
factors with their counts; a block of one entry a gives z - a, and a
larger block Berkowitz's division-free algorithm (Berkowitz 1984) on the
matrix times one common denominator, so on integral input the whole
computation, and the synthetic division that certifies eigenvalues, runs
on int coefficients in term dicts.  The
substitution x_j = exp(y_j) is needed only to order 2: a Laurent matrix
maps entry by entry through the closed-form 2-jet of rings.exp_jet, and
exp of a connection matrix Omega without constant terms is
I + Omega + Omega^2/2.  A RingComplex proves d_q * d_{q+1} = 0 once, when
it is constructed, so no later stage checks it again;
RingComplex.specialize builds a new complex, whose construction multiplies
the specialized boundaries once more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, floordiv, neg, sub
from typing import Callable, Iterable, Sequence

from .errors import (
    ChainIdentityFailed,
    NoSolution,
    NonzeroConstantTerm,
    NotAComplex,
    NotInRing,
    ShapeMismatch,
)
from .rings import (
    QQ,
    Coeff,
    Poly,
    PolyRing,
    RationalField,
    _addmul,
    canonical,
    canonical_terms,
    coeff_div,
    exp_jet,
    poly_ring,
)


def _mismatch(what: str, a: "RingMatrix", b: "RingMatrix") -> ShapeMismatch:
    """The error of operands that do not conform, naming differing rings."""
    return ShapeMismatch(what if a.ring == b.ring else f"{what} over {a.ring} and {b.ring}")


class RingMatrix:
    """Matrix with entries in one ring (Fraction or Poly), built and read
    through two doors: from_rows builds it from the nonzero entries of each
    row, and nonzero_rows gives them back; m[i, j] and row(i) read it
    densely.  Entries are immutable and no cell changes after construction.

    Each row is stored as a dict from column to entry that holds only the
    row's nonzeros, beside the shape, so what a matrix stores and what an
    elementwise operation costs follow its nonzeros, not its width.  A row
    iterates in the order it was built: from_rows keeps the caller's dicts
    and the entrywise operations their operand's order, while a matrix
    built densely, a transpose and a product have their rows in column
    order.  No stored row is ever written, so matrices share rows freely.

    entries is a dense view, built fresh on each read, with the ring's zero
    in every absent cell; writing into it changes nothing.  In this module
    only the rational product reads it (ROADMAP 1a), and it stays public
    for the benchmark's count hooks until the in-package trace replaces
    them (ROADMAP 2).  The elimination reads the stored dict rows
    themselves, and never writes them.
    """

    __slots__ = ("ring", "rows", "cols", "_nz")

    def __init__(self, ring, entries: Sequence[Sequence]):
        """The matrix on dense rows of one length; zero entries are dropped."""
        rows = [dict(enumerate(row)) for row in entries]
        self.ring = ring
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        if any(len(row) != self.cols for row in rows):
            raise ShapeMismatch("ragged rows")
        self._nz = [_nonzeros(ring, row) for row in rows]

    @classmethod
    def _adopt(cls, ring, rows: list[dict], cols: int) -> "RingMatrix":
        """The matrix on dict rows that an operation here has just built,
        with no zero entry and every column below cols: they are kept as
        they are, with no copy and no check."""
        out = cls.__new__(cls)
        out.ring = ring
        out._nz = rows
        out.rows = len(rows)
        out.cols = cols
        return out

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rows(cls, ring, rows: Iterable[dict], cols: int) -> "RingMatrix":
        """The rows x cols matrix whose row i holds rows[i], a dict from
        column to entry.  Each dict is kept as the row, or copied without
        its zero entries when it has any, so the caller hands it over and
        does not write it again; cols is the width even when there are no
        rows."""
        return cls._adopt(ring, [_nonzeros(ring, row) for row in rows], cols)

    @staticmethod
    def zero(ring, rows: int, cols: int) -> "RingMatrix":
        return RingMatrix._adopt(ring, [{} for _ in range(rows)], cols)

    @staticmethod
    def identity(ring, size: int) -> "RingMatrix":
        one = ring.one()
        return RingMatrix._adopt(ring, [{i: one} for i in range(size)], size)

    # -- protocol ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return (self.ring == other.ring and self.rows == other.rows
                and self.cols == other.cols and self._nz == other._nz)

    def __getitem__(self, key: tuple[int, int]):
        i, j = key
        e = self._nz[i].get(j)
        if e is not None:
            return e
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} out of range")
        return self.ring.zero()

    @property
    def entries(self) -> list[list]:
        """A fresh dense copy of the rows, the ring's zero in absent cells."""
        return [_dense(row, self.cols, self.ring.zero()) for row in self._nz]

    def row(self, i: int) -> list:
        """Row i as a fresh list of all its entries."""
        return _dense(self._nz[i], self.cols, self.ring.zero())

    def nonzero_rows(self) -> list[dict]:
        """Per row, a fresh dict from column to each nonzero entry."""
        return [dict(row) for row in self._nz]

    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not any(self._nz)

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        one = self.ring.one()
        return all(len(row) == 1 and row.get(i) == one for i, row in enumerate(self._nz))

    def transpose(self) -> "RingMatrix":
        out: list[dict] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self._nz):
            for j, e in row.items():
                out[j][i] = e
        return RingMatrix._adopt(self.ring, out, self.rows)

    def map_entries(self, fn: Callable, ring=None) -> "RingMatrix":
        """fn on the nonzero entries only, so fn must send 0 to 0; an entry
        that fn sends to zero is dropped."""
        return RingMatrix.from_rows(ring if ring is not None else self.ring,
                                    ({j: fn(e) for j, e in row.items()} for row in self._nz),
                                    self.cols)

    def _combine(self, other: "RingMatrix", what: str, both: Callable,
                 alone: Callable) -> "RingMatrix":
        """Entrywise both(a, b) where a and b are nonzero, alone(b) where
        only b is, and a where only a is: the cost is other's nonzeros.  An
        entry that cancels is dropped."""
        if self.shape() != other.shape() or self.ring != other.ring:
            raise _mismatch(f"{what} {self.shape()} vs {other.shape()}", self, other)
        poly = isinstance(self.ring, PolyRing)
        out = []
        for r1, r2 in zip(self._nz, other._nz):
            if not r2:
                out.append(r1)
                continue
            row = dict(r1)
            for j, b in r2.items():
                a = row.get(j)
                if a is None:
                    row[j] = alone(b)
                else:
                    v = both(a, b)
                    if v.terms if poly else v:
                        row[j] = v
                    else:
                        del row[j]
            out.append(row)
        return RingMatrix._adopt(self.ring, out, self.cols)

    def __add__(self, other: "RingMatrix") -> "RingMatrix":
        return self._combine(other, "add", add, _itself)

    def __sub__(self, other: "RingMatrix") -> "RingMatrix":
        return self._combine(other, "sub", sub, neg)

    def __neg__(self) -> "RingMatrix":
        return self.map_entries(neg)

    def __mul__(self, other: "RingMatrix") -> "RingMatrix":
        if not isinstance(other, RingMatrix):
            return NotImplemented
        if self.cols != other.rows or self.ring != other.ring:
            raise _mismatch(f"mul {self.shape()} by {other.shape()}", self, other)
        ring = self.ring
        out = []
        if isinstance(ring, PolyRing):
            # Row by row (Gustavson 1978): row i of A * B is the sum of
            # A[i][k] * (row k of B) over the nonzero A[i][k], each entry
            # accumulated in one term dict, so only nonzero pairs multiply.
            brows = [[(j, b.terms) for j, b in row.items()] for row in other._nz]
            for arow in self._nz:
                accs: dict[int, dict] = {}
                for k, a in arow.items():
                    for j, b in brows[k]:
                        _addmul(accs.setdefault(j, {}), a.terms, b, 1, ring)
                out.append({j: Poly(ring, canonical_terms(accs[j]))
                            for j in sorted(accs) if accs[j]})
            return RingMatrix._adopt(ring, out, other.cols)
        # Over Q the dense loop stays until ROADMAP 1a (module docstring):
        # each dense row of A meets every dense column of B, and each
        # nonzero A[i][k] multiplies every B[k][j].
        columns = list(zip(*other.entries)) if other.rows else [()] * other.cols
        zero = ring.zero()
        for arow in self.entries:
            row = {}
            for j, col in enumerate(columns):
                acc = zero
                for a, b in zip(arow, col):
                    if a:
                        acc = acc + a * b
                if acc:
                    row[j] = acc
            out.append(row)
        return RingMatrix._adopt(ring, out, other.cols)

    def scale(self, c) -> "RingMatrix":
        c = canonical(c)
        if isinstance(self.ring, PolyRing):
            return self.map_entries(lambda e: e.scale(c))
        c = Fraction(c)
        return self.map_entries(lambda e: e * c)

    def trace(self):
        if self.rows != self.cols:
            raise ShapeMismatch("trace of non-square matrix")
        acc = self.ring.zero()
        for i, row in enumerate(self._nz):
            if i in row:
                acc = acc + row[i]
        return acc

    def __repr__(self) -> str:
        body = "; ".join(", ".join(f"{j}: {e}" for j, e in row.items()) for row in self._nz)
        return f"RingMatrix({self.rows}x{self.cols}, nonzeros by row: {body})"


def _nonzeros(ring, row: dict) -> dict:
    """row itself when every entry is nonzero, else a copy without its
    zeros.  A Poly is zero when it has no terms; reading that slot skips
    a __bool__ call per entry."""
    if isinstance(ring, PolyRing):
        return row if all(e.terms for e in row.values()) else {
            j: e for j, e in row.items() if e.terms}
    return row if all(row.values()) else {j: e for j, e in row.items() if e}


def _dense(row: dict, cols: int, zero) -> list:
    """The dict row as a list of cols entries, zero in absent cells."""
    out = [zero] * cols
    for j, e in row.items():
        out[j] = e
    return out


def _itself(x):
    return x


def evaluate_matrix(m: RingMatrix, point: Sequence[Fraction | int]) -> RingMatrix:
    """Entrywise evaluation of a polynomial matrix at a rational point,
    converted to canonical coefficients once for the whole matrix.  Only
    the nonzero entries are evaluated, and each power of a coordinate is
    built once per call (rings._power)."""
    if isinstance(m.ring, RationalField):
        return m
    if len(point) != m.ring.nvars:
        raise ValueError("point length mismatch")
    pt = [canonical(v) for v in point]
    powers: dict = {}
    return m.map_entries(lambda p: p._evaluate(pt, powers), ring=QQ)


def _jet_matrices(m: RingMatrix, order: int) -> tuple[RingMatrix, ...]:
    """The parts of degree 0..order of m under x_j = exp(y_j), one
    rings.exp_jet per nonzero entry; a zero entry is zero in every part."""
    jets = [{j: exp_jet(e, order) for j, e in row.items()} for row in m._nz]
    target = poly_ring(m.ring.nvars)
    return tuple(RingMatrix.from_rows(target if d else QQ,
                                      ({j: jet[d] for j, jet in row.items()} for row in jets),
                                      m.cols) for d in range(order + 1))


def linearize_matrix(m: RingMatrix) -> tuple[RingMatrix, RingMatrix]:
    """(value at x = 1 over Q, entrywise linear part over Q[y]) of a Laurent
    matrix under x_j = exp(y_j)."""
    return _jet_matrices(m, 1)


def series_matrix(m: RingMatrix) -> tuple[RingMatrix, ...]:
    """The parts of degree 0 (over Q), 1 and 2 (over Q[y]) of a Laurent
    matrix under x_j = exp(y_j), entry by entry."""
    return _jet_matrices(m, 2)


# -- elimination ----------------------------------------------------------------


def clear_row_denominators(row: dict) -> dict[int, int]:
    """The dict row of rationals times the least common multiple of its
    denominators, as ints; zero entries are dropped."""
    lcm = math.lcm(*(v.denominator for v in row.values()))
    return {j: v.numerator * (lcm // v.denominator) for j, v in row.items() if v}


def reduce_row(row: dict, echelon: list, div: Callable = floordiv) -> dict:
    """row, a dict of nonzeros, reduced against the pivot rows of echelon,
    (pivot row, pivot column) pairs in insertion order: a dict that is zero
    at every pivot column and holds, at each other column, the minor on
    echelon's pivot rows and columns plus row and that column.  A step
    at pivot column c, where row holds f, takes row to (row * top[c] - f *
    top) / (the pivot of the step before), exact by Sylvester's identity.
    A step where row is zero only scales it, so it is skipped and the next
    step divides by the pivot of the last step taken instead; one scaling
    at the end, by the last pivot over that one, makes up for the skipped
    steps.  div is the exact division of the entries' ring.  row itself
    is never written, and is returned as it is when echelon is empty."""
    taken = None
    for top, c in echelon:
        f = row.get(c)
        if f is None:
            continue
        p = top[c]
        out = {}
        for j, v in row.items():
            if j != c:
                t = top.get(j)
                v = v * p if t is None else v * p - f * t
                if v:
                    out[j] = v if taken is None else div(v, taken)
        for j, t in top.items():
            if j not in row:  # a product of nonzeros, so nonzero
                out[j] = -(f * t) if taken is None else div(-(f * t), taken)
        row, taken = out, p
    if echelon:
        top, c = echelon[-1]
        last = top[c]
        if taken is not last:
            row = {j: v * last if taken is None else div(v * last, taken)
                   for j, v in row.items()}
    return row


def fraction_free_echelon(rows: Iterable[dict], cols: int,
                          div: Callable = floordiv) -> tuple[list[int], list]:
    """Fraction-free elimination (Bareiss 1968) on dict rows of nonzeros,
    one row at a time: each is reduced against the pivot rows so far
    (reduce_row), so it is zero at every earlier pivot column and its
    first nonzero column, min(row), is its pivot when that is below cols;
    otherwise the row is dropped.  Columns from cols on are carried along
    and never pivot.  The loop stops once every column below cols has a
    pivot.  Returns (the kept rows' input indices, the echelon as (pivot
    row, pivot column) pairs).  The kept rows are the row rank profile, the
    sorted pivot columns the column rank profile, and the last pivot is
    the minor on the kept rows and the pivot columns in insertion order."""
    pivot_rows: list[int] = []
    echelon: list = []
    for i, row in enumerate(rows):
        if len(echelon) == cols:
            break
        row = reduce_row(row, echelon, div)
        if row:
            pivot = min(row)
            if pivot < cols:
                echelon.append((row, pivot))
                pivot_rows.append(i)
    return pivot_rows, echelon


def _pivot_minor(echelon: list, one):
    """The determinant of the minor on the kept rows and the sorted pivot
    columns: the last pivot, signed by the permutation that sorts the pivot
    columns, or the ring's one for the empty minor."""
    if not echelon:
        return one
    cols = [c for _, c in echelon]
    top, c = echelon[-1]
    inversions = sum(cols[j] > cols[i] for i in range(len(cols)) for j in range(i))
    return -top[c] if inversions % 2 else top[c]


def _exact_rows(ring, rows: Iterable[dict]) -> tuple[Iterable[dict], Callable, object]:
    """What the fraction-free elimination runs on over ring: (the rows,
    their entries' exact division, the one of the entries).  Over Q each
    row is cleared to integers (clear_row_denominators), divided by //,
    with one 1; otherwise the rows themselves, Poly.exact_div and the
    ring's one."""
    if isinstance(ring, RationalField):
        return map(clear_row_denominators, rows), floordiv, 1
    return rows, Poly.exact_div, ring.one()


def generic_rank(m: RingMatrix) -> int:
    """Rank over the fraction field, by exact elimination: rows cleared to
    integers over Q, and Poly.exact_div over Q[y] and the Laurent ring."""
    rows, div, _ = _exact_rows(m.ring, m._nz)
    return len(fraction_free_echelon(rows, m.cols, div)[0])


def rational_rank(m: RingMatrix) -> int:
    if not isinstance(m.ring, RationalField):
        raise ValueError("rational_rank needs a matrix over Q")
    return generic_rank(m)


def symbolic_det(m: RingMatrix):
    """Determinant over Q or a (Laurent) polynomial ring: the last pivot of
    the fraction-free elimination, signed by the permutation that sorts
    the pivot columns, or 0 when a row is dependent.  Over Q the rows are
    cleared to integers first, and the minor divided by the product of the
    row multipliers at the end."""
    if m.rows != m.cols:
        raise ShapeMismatch("det of non-square matrix")
    rows, div, one = _exact_rows(m.ring, m._nz)
    pivot_rows, echelon = fraction_free_echelon(rows, m.cols, div)
    if len(pivot_rows) < m.rows:
        return m.ring.zero()
    det = _pivot_minor(echelon, one)
    if isinstance(m.ring, RationalField):
        return Fraction(det, math.prod(math.lcm(*(v.denominator for v in row.values()))
                                       for row in m._nz))
    return det


# -- fraction-field solving ------------------------------------------------------


def _forward(rows: list[dict[int, Coeff]], stop: int) -> list[tuple[int, int]]:
    """Sparse forward elimination over Q on columns 0..stop-1, in place.

    rows holds only nonzeros, as canonical coefficients (rings.canonical:
    ints stay ints, and an integral Fraction becomes its int), so entries
    that cancel are deleted.  Columns are taken left to right; the pivot is
    the unused row with the fewest nonzeros (Markowitz; ties to the lowest
    index), and only the unused rows with a nonzero in the pivot column are
    updated.  Rows sit in buckets by length: rank[i] = len(rows[i]) *
    len(rows) + i, kept as rows change, so the pivot is the least rank
    among the column's unused rows, one min over ints with no key
    function.  The column index holds unused rows only: a pivot row leaves
    it and is never changed again.  Pivot rows are normalized by the exact
    rings.coeff_div and every update is re-canonicalized, so an entry that
    is integral stays an int and integer input with unit pivots never
    touches Fraction.  Returns (column, row index) per pivot, by column.
    Each pivot row then holds 1 at its column and nothing at an earlier
    pivot column; every other row is zero on columns below stop.
    """
    col_rows: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            col_rows.setdefault(j, set()).add(i)
    size = len(rows)
    rank = [len(row) * size + i for i, row in enumerate(rows)]
    pivots: list[tuple[int, int]] = []
    for c in sorted(j for j in col_rows if j < stop):
        holders = col_rows[c]
        if not holders:
            continue
        p = min(map(rank.__getitem__, holders)) % size
        prow = rows[p]
        for j in prow:
            col_rows[j].discard(p)
        pv = prow[c]
        if pv != 1:
            for j, v in prow.items():
                prow[j] = coeff_div(v, pv)
        for i in list(holders):
            row = rows[i]
            f = row[c]
            for j, v in prow.items():
                old = row.get(j)
                new = -f * v if old is None else old - f * v
                if new:
                    row[j] = canonical(new)
                    if old is None:
                        col_rows[j].add(i)
                else:
                    del row[j]
                    col_rows[j].discard(i)
            rank[i] = len(row) * size + i
        pivots.append((c, p))
    return pivots


def _fraction_free_solve(a: RingMatrix, b: RingMatrix) -> tuple[list[dict], object, list[dict]]:
    """(numerator, det, kernel) of A * X = B by the fraction-free
    elimination of the rows of [A | B], pivots on A's columns only, and
    fraction-free back-substitution (module docstring).  Over Q the rows
    are cleared to integers first, so det and every entry are ints.
    numerator holds, per unknown, the dict row of det * x with the free
    coordinates zero; det is the signed minor on the row and column rank
    profiles; kernel holds, per free column fc of A, the dict row of the
    kernel vector with det at fc.  It proves no consistency: each row of
    [A | B] that is dependent on A's side is left unread."""
    n = a.cols
    rows, div, one = _exact_rows(a.ring, [{**ra, **{n + j: v for j, v in rb.items()}}
                                          for ra, rb in zip(a._nz, b._nz)])
    _, echelon = fraction_free_echelon(rows, n, div)
    det = _pivot_minor(echelon, one)
    pivots = {c for _, c in echelon}

    # Last pivot row first: solved[c] maps each non-pivot column j of
    # [A | B] to det * x_c, where x solves S x = column j on the pivot rows
    # with S the minor on the pivot rows and columns.  By Cramer's rule
    # det * x_c is a minor of [A | B], so each division is exact.  B's
    # columns give the numerator; a free column fc of A gives the kernel
    # vector with det at fc and -det * x on the pivot columns.  On the last
    # pivot row det is +-its pivot, so det * x there is +-the row itself.
    solved: dict[int, dict] = {}
    if echelon:
        top, c = echelon[-1]
        flip = det != top[c]
        solved[c] = {j: -v if flip else v for j, v in top.items() if j not in pivots}
    for top, c in reversed(echelon[:-1]):
        acc = {j: det * v for j, v in top.items() if j not in pivots}
        for c_l, y in solved.items():
            if c_l in top:
                u = top[c_l]
                for j, v in y.items():
                    acc[j] = acc[j] - u * v if j in acc else -(u * v)
        solved[c] = {j: div(v, top[c]) for j, v in acc.items() if v}
    numerator = [{j - n: v for j, v in solved.get(i, {}).items() if j >= n} for i in range(n)]
    kernel = {fc: {fc: det} for fc in range(n) if fc not in pivots}
    for c, y in solved.items():
        for j, v in y.items():
            if j < n:
                kernel[j][c] = -v
    return numerator, det, list(kernel.values())


@dataclass
class SolveResult:
    """A solution of A * X = B over the fraction field, and a basis of the
    right kernel of A.

    The particular solution is numerator / denominator, one explicit ring
    denominator for all entries.  Kernel vectors have denominators cleared,
    so they are exact ring vectors with A*k = 0.  in_ring is True when
    every entry of the solution cleared to the ring by exact division, in
    which case `cleared` holds the ring-entry matrix.  Over Q[y] and the
    Laurent ring every field is built with the result; over Q the result is
    a _RationalSolve, which builds them when they are first read.
    """

    ring: object
    numerator: RingMatrix
    denominator: object
    kernel: list[list]
    in_ring: bool
    cleared: RingMatrix | None = None

    @property
    def kernel_dimension(self) -> int:
        return len(self.kernel)


class _RationalSolve(SolveResult):
    """solve_right's result over Q, once _forward has proved A * X = B
    consistent.  The first read of cleared (the particular solution with
    free coordinates 0, also the numerator over denominator 1) or of kernel
    runs _fraction_free_solve once, and each answer is its integer
    counterpart over det, so every kernel vector holds 1 at its free
    column.  kernel_dimension is n minus the rank and builds nothing."""

    ring = QQ
    denominator = Fraction(1)
    in_ring = True

    def __init__(self, a: RingMatrix, b: RingMatrix, rank: int):
        self._a, self._b, self._rank = a, b, rank

    @cached_property
    def _solved(self) -> tuple[RingMatrix, list[list[Fraction]]]:
        numerator, det, kernel = _fraction_free_solve(self._a, self._b)
        cleared = RingMatrix._adopt(QQ, [_over(row, det) for row in numerator], self._b.cols)
        return cleared, [_dense(_over(vec, det), self._a.cols, QQ.zero()) for vec in kernel]

    @property
    def cleared(self) -> RingMatrix:
        return self._solved[0]

    numerator = cleared

    @property
    def kernel(self) -> list[list[Fraction]]:
        return self._solved[1]

    @property
    def kernel_dimension(self) -> int:
        return self._a.cols - self._rank


def _over(row: dict[int, int], det: int) -> dict[int, Fraction]:
    return {j: Fraction(v, det) for j, v in row.items()}


def solve_right(a: RingMatrix, b: RingMatrix) -> SolveResult:
    """Solve A*X = B over the fraction field of the entry ring.

    Returns one particular solution, a basis of the right kernel of A with
    denominators cleared to ring entries, and whether X itself lies in the
    ring.  Raises NoSolution when the system is inconsistent.  A kernel of
    positive dimension signals non-uniqueness; it is not an error.  Every
    answer comes from _fraction_free_solve.  Over Q the call runs only the
    sparse forward elimination of [A | B] (_forward), which decides
    consistency: NoSolution on the first non-pivot row that keeps a right
    side.  The result (_RationalSolve) runs the fraction-free solve when
    the solution or the kernel is first read.  Over Q[y] and the Laurent
    ring the fraction-free solve runs at once, and A * X == B on every row
    is checked before the result is returned.
    """
    if a.rows != b.rows:
        raise ShapeMismatch(f"solve {a.shape()} against {b.shape()}")
    if a.ring != b.ring:
        raise ShapeMismatch("ring mismatch between A and B")
    n, k = a.cols, b.cols
    if isinstance(a.ring, RationalField):
        rows = [{j: canonical(v) for j, v in row.items()} for row in a._nz]
        for row, rb in zip(rows, b._nz):
            for j, v in rb.items():
                row[n + j] = canonical(v)
        pivots = _forward(rows, n)
        pivot_rows = {p for _, p in pivots}
        for i, row in enumerate(rows):
            if row and i not in pivot_rows:
                raise NoSolution(f"inconsistent row {i}")
        return _RationalSolve(a, b, len(pivots))

    ring: PolyRing = a.ring
    numerator, det, kernel = _fraction_free_solve(a, b)
    numerator = RingMatrix._adopt(ring, numerator, k)
    kernel = [_dense(vec, n, ring.zero()) for vec in kernel]
    # X = numerator / det when every entry divides exactly.  The definitive
    # consistency check on all rows is then A * X == B, and otherwise the
    # fraction-free A * numerator == det * B.
    try:
        cleared = numerator.map_entries(lambda e: e.exact_div(det))
    except NotInRing:
        cleared = None
    if (a * cleared != b if cleared is not None
            else a * numerator != b.map_entries(lambda e: e * det)):
        raise NoSolution("right side is not in the column span of A")
    return SolveResult(ring=ring, numerator=numerator, denominator=det,
                       kernel=kernel, in_ring=cleared is not None, cleared=cleared)


# -- characteristic polynomial ----------------------------------------------
#
# Term dicts map a monomial key (rings) to a nonzero coefficient; over Q the
# only key is QQ.unit_key.  Both kernels below clear one common denominator
# first, so on integral input every coefficient they touch is an int.


def _terms(c) -> dict:
    """The term dict of a Poly or a rational, canonical coefficients."""
    if isinstance(c, Poly):
        return c.terms
    return {QQ.unit_key: canonical(c)} if c else {}


def _from_terms(ring, terms: dict, den: int):
    """The ring element sum(terms) / den.  A Poly gets canonical
    coefficients, so on den = 1 int coefficients stay ints; a rational is
    always a Fraction."""
    if isinstance(ring, PolyRing):
        return Poly(ring, {e: coeff_div(c, den) for e, c in terms.items()})
    return Fraction(terms.get(ring.unit_key, 0), den)


def _cleared(dicts: list[dict]) -> tuple[list[dict], int]:
    """(d * each dict, d) for the least d making every coefficient integral."""
    d = math.lcm(*(c.denominator for t in dicts for c in t.values()))
    return [{e: c.numerator * (d // c.denominator) for e, c in t.items()}
            for t in dicts], d


def _dot(pairs: list[tuple[int, dict]], v: list[dict], ring) -> dict:
    """The sum of x * v[j] over the (j, x) pairs, term dicts of ring."""
    acc: dict = {}
    for j, x in pairs:
        if v[j]:
            _addmul(acc, x, v[j], 1, ring)
    return acc


class CharPoly:
    """Monic characteristic polynomial det(zI - M); coeffs[i] multiplies z^i.

    It is kept as its factors: the distinct characteristic polynomials of
    M's diagonal blocks (char_poly), each a coefficient tuple, lowest
    degree first, with the number of blocks that have it.  coeffs, their
    product, is built when it is first read."""

    def __init__(self, ring, factors: tuple[tuple[tuple, int], ...]):
        self.ring = ring
        self.factors = factors

    @cached_property
    def coeffs(self) -> tuple:
        out = [self.ring.one()]
        for factor, count in self.factors:
            for _ in range(count):
                prod = [self.ring.zero()] * (len(out) + len(factor) - 1)
                for i, a in enumerate(out):
                    for j, b in enumerate(factor):
                        if a and b:
                            prod[i + j] = prod[i + j] + a * b
                out = prod
        return tuple(out)

    @property
    def degree(self) -> int:
        return sum((len(factor) - 1) * count for factor, count in self.factors)

    def cleared_factors(self) -> list[tuple[list[dict], int]]:
        """Per factor, (d * the term dict of each coefficient, for the least
        common denominator d; on an integral factor every coefficient is an
        int) and its count."""
        return [(_cleared([_terms(c) for c in factor])[0], count)
                for factor, count in self.factors]


def divide_linear_terms(coeffs: list[dict], root: dict, ring) -> list[dict] | None:
    """Synthetic division of sum coeffs[i] z^i by (z - root), over term
    dicts of ring; None if the division has remainder."""
    out = []
    carry = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        out.append(carry)
        nxt = dict(c)
        _addmul(nxt, root, carry, 1, ring)
        carry = nxt
    return None if carry else out[::-1]


def char_poly(m: RingMatrix) -> CharPoly:
    """det(zI - M) over Q, Q[y] or Q[x^{+-1}], as the product of the
    characteristic polynomials of M's diagonal blocks.

    Blocks: the strongly connected components of the graph with an edge
    i -> j for each off-diagonal nonzero M[i][j] (_diagonal_blocks).
    Ordering the indices component by component, in the order the graph
    reaches them, puts M in block triangular form (Duff and Reid, ACM TOMS
    4(2), 1978), so det(zI - M) is the product of the blocks' polynomials;
    equal ones are kept once, with their count (CharPoly).  A 1 x 1 block
    [a] has z - a, and a larger block has Berkowitz's polynomial.  On a
    diagonal Omega of s linear forms this keeps s factors, where the
    product's coefficient of z^k is the k-th elementary symmetric
    polynomial of the forms.
    """
    if m.rows != m.cols:
        raise ShapeMismatch("char_poly of non-square matrix")
    ring = m.ring
    if not isinstance(ring, (RationalField, PolyRing)):
        raise ValueError("char_poly needs a matrix over Q or a (Laurent) polynomial ring")
    terms = [{j: _terms(e) for j, e in row.items()} for row in m._nz]
    d = math.lcm(*(c.denominator for row in terms for t in row.values() for c in t.values()))
    if d != 1:
        terms = [{j: {e: c.numerator * (d // c.denominator) for e, c in t.items()}
                  for j, t in row.items()} for row in terms]
    counts: dict[tuple, int] = {}
    for block in _diagonal_blocks(terms):
        if len(block) == 1:
            a = m[block[0], block[0]]
            factor = (-a if isinstance(ring, PolyRing) else -Fraction(a), ring.one())
        else:
            factor = _berkowitz(ring, terms, sorted(block), d)
        counts[factor] = counts.get(factor, 0) + 1
    return CharPoly(ring, tuple(counts.items()))


def _diagonal_blocks(rows: list[dict]) -> list[list[int]]:
    """The strongly connected components of the graph on the row indices
    with an edge i -> j for each key j != i of rows[i], by Tarjan's
    algorithm (SIAM J. Comput. 1(2), 1972) with an explicit stack of
    (vertex, iterator over its edges), so no recursion depth limits the
    size.  Each component is closed when its root finishes, so the
    components come in reverse topological order."""
    n = len(rows)
    index = [0] * n  # discovery number, from 1; 0 while undiscovered
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    blocks: list[list[int]] = []
    count = 0
    for root in range(n):
        if index[root]:
            continue
        count += 1
        index[root] = low[root] = count
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(rows[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if not index[w]:
                    count += 1
                    index[w] = low[w] = count
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(rows[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    block = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        block.append(w)
                        if w == v:
                            break
                    blocks.append(block)
    return blocks


def _berkowitz(ring, rows: list[dict], block: Sequence[int], d: int) -> tuple:
    """The coefficients, lowest degree first, of det(zI - M_block) by
    Berkowitz's division-free algorithm (S. J. Berkowitz, Inf. Process.
    Lett. 18 (1984)), where M = A / d and rows[i] maps column j to the int
    term dict of A[i][j].

    A's polynomial is built up over its leading principal submatrices:
    adding row and column r (row part R, column part C, corner a)
    multiplies the coefficient vector, highest power first, by the
    Toeplitz matrix with first column
    [1, -a, -R C, -R A_r C, ..., -R A_r^(r-1) C].  Only matrix-vector
    products occur, all over int term dicts; coefficient i of M's
    polynomial is then coefficient i of A's over d^(n-i).
    """
    n = len(block)
    a = [[rows[i].get(j, {}) for j in block] for i in block]
    poly = [{ring.unit_key: 1}]
    nonzeros: list[list[tuple[int, dict]]] = []  # row i of A_r: (j, A[i][j]) with j < r
    for r in range(n):
        row = [(j, a[r][j]) for j in range(r) if a[r][j]]
        toeplitz = [a[r][r]]
        v = [a[i][r] for i in range(r)]
        for k in range(r if row else 0):
            if k:
                v = [_dot(nz, v, ring) for nz in nonzeros]
                if not any(v):
                    break
            toeplitz.append(_dot(row, v, ring))
        new = []
        for i in range(r + 2):
            acc = dict(poly[i]) if i <= r else {}
            for j in range(max(0, i - len(toeplitz)), i):
                t = toeplitz[i - j - 1]
                if t and poly[j]:
                    _addmul(acc, t, poly[j], -1, ring)
            new.append(acc)
        poly = new
        for i in range(r):
            if a[i][r]:
                nonzeros[i].append((r, a[i][r]))
        nonzeros.append(row + ([(r, a[r][r])] if a[r][r] else []))
    return tuple(_from_terms(ring, poly[n - i], d ** (n - i)) for i in range(n + 1))


# -- truncated matrix exponential ---------------------------------------------


def mat_exp_truncated(m: RingMatrix) -> tuple[RingMatrix, RingMatrix, RingMatrix]:
    """The parts of degree 0 (over Q), 1 and 2 of exp(M) = I + M + M^2/2 + ...
    Entries must have zero constant term, so the degree grading makes the
    parts finite."""
    if m.rows != m.cols:
        raise ShapeMismatch("matrix exponential of non-square matrix")
    if not isinstance(m.ring, PolyRing) or m.ring.laurent:
        raise ValueError("mat_exp_truncated expects a plain polynomial matrix")
    unit = m.ring.unit_key
    for row in m._nz:
        for e in row.values():
            if unit in e.terms:
                raise NonzeroConstantTerm(str(e))
    return RingMatrix.identity(QQ, m.rows), m, (m * m).scale(Fraction(1, 2))


# -- cochain complexes ---------------------------------------------------------


@dataclass
class RingComplex:
    """Finite cochain complex of free modules, given by boundary matrices.

    boundaries[q] is the b_q x b_{q+1} matrix of the map from degree q to
    degree q+1 in the row-vector convention.  Construction multiplies out
    each d_q * d_{q+1} once and raises NotAComplex unless it is zero, so
    every RingComplex is a complex.
    """

    ring: object
    ranks: list[int]
    boundaries: list[RingMatrix]

    def __post_init__(self):
        if len(self.boundaries) != len(self.ranks) - 1:
            raise ShapeMismatch("need one boundary per consecutive rank pair")
        for q, b in enumerate(self.boundaries):
            if b.shape() != (self.ranks[q], self.ranks[q + 1]):
                raise ShapeMismatch(f"boundary {q} has shape {b.shape()}, "
                                    f"expected {(self.ranks[q], self.ranks[q + 1])}")
        for q in range(len(self.boundaries) - 1):
            if not (self.boundaries[q] * self.boundaries[q + 1]).is_zero():
                raise NotAComplex(f"composition at degree {q} is nonzero")

    def specialize(self, point: Sequence[Fraction | int]) -> "RingComplex":
        return RingComplex(QQ, list(self.ranks),
                           [evaluate_matrix(b, point) for b in self.boundaries])

    def betti(self) -> list[int]:
        """h^q = dim ker(d^q) - rank(d^{q-1}) by exact rank computation."""
        if not isinstance(self.ring, RationalField):
            raise ValueError("betti needs a specialized (rational) complex")
        ranks_of_maps = [rational_rank(b) for b in self.boundaries]
        out = []
        for q, bq in enumerate(self.ranks):
            r_out = ranks_of_maps[q] if q < len(self.boundaries) else 0
            r_in = ranks_of_maps[q - 1] if q > 0 else 0
            out.append(bq - r_out - r_in)
        return out

    def euler_characteristic(self) -> int:
        return sum((-1) ** q * b for q, b in enumerate(self.ranks))


def verify_chain_map(boundaries: list[RingMatrix], maps: dict[int, RingMatrix]) -> None:
    """Check D^q * F^{q+1} = F^q * D^q for all consecutive degrees present."""
    for q, bq in enumerate(boundaries):
        if q in maps and (q + 1) in maps:
            lhs = bq * maps[q + 1]
            rhs = maps[q] * bq
            if lhs != rhs:
                # The first nonzero of the difference, row by row.
                i, j = next((i, min(row)) for i, row in enumerate((lhs - rhs).nonzero_rows())
                            if row)
                raise ChainIdentityFailed(f"chain identity fails in degree {q} at entry "
                                          f"({i + 1}, {j + 1})", entry=(i, j))
