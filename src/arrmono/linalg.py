"""Exact matrices over the kernel rings and their fraction fields.

Convention used throughout the package: row vectors act on the left,
v -> v * M, so a chain map F between complexes with boundaries D satisfies
the literal matrix identity D^q * F^{q+1} = F^q * D^q.

Matrix work pays for the nonzero entries, and each result is built once.
A product over Q[y] or the Laurent ring is built row by row (Gustavson,
ACM TOMS 4(3), 1978): row i of A * B sums A[i][k] * (row k of B) over the
nonzero A[i][k] and the nonzero entries of that row, each output entry in
one term dict, so it costs its nonzero pairs rather than rows x columns x
inner dimension.  The elementwise operations (sums, negation, scaling,
evaluation, the exp-jets, is_identity and map_entries, whose function
must send 0 to 0) find each row's nonzero entries (_supports), compute on
those alone and write the result ring's one zero everywhere else.  The
Aomoto and connection matrices are mostly zeros (about 94% of mu_2 on a
dimension-3 arrangement; 210 of the 225 entries of a 15 x 15 Phi_2 on
Z^6).  Every operation here keeps the rows it has just built
(RingMatrix.adopt); only the public constructor copies.

The rational product keeps the dense loop: the row-sparse one took
arrangement-resonance wall_s from 1.05 to 0.65 s but raised its
peak_rss_mb 10-13%, which comes from the benchmark harness keeping every
pass's reports (ROADMAP 1a).  The degree-2 gauge system reaches
solve_right holding only its nonzero equations, as dense rows adopted
without a copy (connection._gauge_system), and the rational solve reads
the nonzeros of A and of B's columns straight into its sparse rows; a
solve straight from sparse equations waits for the in-package trace
(ROADMAP 2), since the benchmark reads the gauge's shape from that
solve_right call.  The gauge check asks only whether the system is
consistent, and the rational solve answers that by forward elimination
alone: the particular solution and the kernel are derived when first
read, so the check builds neither.

One fraction-free Bareiss elimination, parametrized by the ring's exact
division, gives every rank and determinant: rational ranks on rows cleared
to integers (//), determinants over Q (/) and over Q[y] and the Laurent
ring (Poly.exact_div), and the pivot rows and columns of symbolic solving.
Its row update is bareiss_step, which the dependency walk of arrangement
also applies, one new row at a time, against a prefix's echelon.
Solving over Q and the rational reduced row echelon form share one sparse
elimination in two phases (Duff, Erisman and Reid, Direct Methods for
Sparse Matrices, 1986): rows hold only their nonzeros, forward elimination
takes as pivot the unused row with the fewest of them (Markowitz 1957) and
updates only the unused rows, and back-substitution then reduces the
pivot rows to the reduced row echelon form.  That form is unique, so the
answer does not depend on the pivot order.  The reduced row echelon form
runs both phases; solve_right over Q runs the forward phase, which alone
decides consistency, and leaves back-substitution to the first read of
the solution or the kernel.

Symbolic solving applies Cramer's rule to the pivot minor S, whose
determinant is the last pivot of the elimination and whose adjugate comes
from cofactor determinants.  One product adj(S) * [B_P | -A_P,free] on
the pivot rows P gives both the numerator of the particular solution,
over the one explicit denominator det(S), and every kernel vector.  The
empty minor of a zero matrix has determinant 1 and an empty adjugate, so
it takes the same path.  The numerator is divided exactly first, and the
consistency check on all rows is A * X == B on the quotient, or
A * numerator == det * B when X is not a ring matrix.  The induced maps of
the benchmark have pivot minors of size 2 and 3, where the cofactors are
the cheaper route: fraction-free back-substitution on the Bareiss echelon
of [A | B] gave identical solutions on 400 random systems over Q[y] and
the Laurent ring, but doubled the symbolic solve time of a pencil4 run.

Characteristic polynomials use Berkowitz's division-free algorithm
(Berkowitz 1984) on the matrix times one common denominator, so on
integral input the whole computation, and the synthetic division that
certifies eigenvalues, runs on int coefficients in term dicts.  The
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
from itertools import compress
from operator import add, floordiv, neg, sub, truediv
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
    """Dense matrix with entries in one ring (Fraction or Poly)."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring, entries: Sequence[Sequence]):
        self.ring = ring
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ShapeMismatch("ragged rows")

    @classmethod
    def adopt(cls, ring, rows: list[list], cols: int | None = None) -> "RingMatrix":
        """The matrix on rows that the caller has just built, of one length
        each and shared with nothing: they are kept as they are, with no
        copy and no check.  Every operation here builds its result so, and
        passes cols, which a matrix with no rows cannot show."""
        out = cls.__new__(cls)
        out.ring = ring
        out.entries = rows
        out.rows = len(rows)
        out.cols = cols if cols is not None else len(rows[0]) if rows else 0
        return out

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(ring, rows: int, cols: int) -> "RingMatrix":
        # Entries are immutable and replaced, never changed in place, so one
        # zero serves every cell; a sparse Aomoto matrix then costs little.
        zero = ring.zero()
        return RingMatrix.adopt(ring, [[zero] * cols for _ in range(rows)], cols)

    @staticmethod
    def identity(ring, size: int) -> "RingMatrix":
        out = RingMatrix.zero(ring, size, size)
        for i in range(size):
            out.entries[i][i] = ring.one()
        return out

    # -- protocol ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return (self.ring == other.ring and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __getitem__(self, key: tuple[int, int]):
        i, j = key
        return self.entries[i][j]

    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.entries)

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        one = self.ring.one()
        return all(len(cols) == 1 and cols[0] == i and row[i] == one
                   for i, (row, cols) in enumerate(zip(self.entries, _supports(self))))

    def transpose(self) -> "RingMatrix":
        cols = ([list(col) for col in zip(*self.entries)] if self.rows
                else [[] for _ in range(self.cols)])
        return RingMatrix.adopt(self.ring, cols, self.rows)

    def map_entries(self, fn: Callable, ring=None) -> "RingMatrix":
        """fn on the nonzero entries only, so fn must send 0 to 0; every
        zero entry becomes the one zero of the result ring."""
        ring = ring if ring is not None else self.ring
        zero = ring.zero()
        out = []
        for row, cols in zip(self.entries, _supports(self)):
            new = [zero] * self.cols
            for j in cols:
                new[j] = fn(row[j])
            out.append(new)
        return RingMatrix.adopt(ring, out, self.cols)

    def _combine(self, other: "RingMatrix", what: str, both: Callable,
                 alone: Callable) -> "RingMatrix":
        """Entrywise both(a, b) where a and b are nonzero, alone(b) where
        only b is, and a where only a is: the cost is other's nonzeros.  An
        entry that cancels becomes the ring's one zero."""
        if self.shape() != other.shape() or self.ring != other.ring:
            raise _mismatch(f"{what} {self.shape()} vs {other.shape()}", self, other)
        zero = self.ring.zero()
        out = []
        for r1, r2, cols in zip(self.entries, other.entries, _supports(other)):
            row = list(r1)
            for j in cols:
                a = r1[j]
                v = both(a, r2[j]) if a else alone(r2[j])
                row[j] = v if v else zero
            out.append(row)
        return RingMatrix.adopt(self.ring, out, self.cols)

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
        zero = self.ring.zero()
        out = []
        if isinstance(self.ring, PolyRing):
            # Row by row (Gustavson 1978): row i of A * B is the sum of
            # A[i][k] * (row k of B) over the nonzero A[i][k], each entry
            # accumulated in one term dict, so only nonzero pairs multiply.
            brows = [[(j, b.terms) for j, b in enumerate(row) if b.terms]
                     for row in other.entries]
            for arow in self.entries:
                accs: dict[int, dict] = {}
                for a, brow in zip(arow, brows):
                    if brow and a.terms:
                        for j, b in brow:
                            _addmul(accs.setdefault(j, {}), a.terms, b, 1, self.ring)
                row = [zero] * other.cols
                for j, acc in accs.items():
                    if acc:
                        row[j] = Poly(self.ring, canonical_terms(acc))
                out.append(row)
            return RingMatrix.adopt(self.ring, out, other.cols)
        columns = list(zip(*other.entries)) if other.rows else [()] * other.cols
        for arow in self.entries:
            row = []
            for col in columns:
                acc = zero
                for a, b in zip(arow, col):
                    if a:
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return RingMatrix.adopt(self.ring, out, other.cols)

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
        for i in range(self.rows):
            acc = acc + self.entries[i][i]
        return acc

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(e) for e in row) for row in self.entries)
        return f"RingMatrix({self.rows}x{self.cols}: {body})"


def _itself(x):
    return x


def _supports(m: RingMatrix) -> list[list[int]]:
    """The columns of the nonzero entries of each row of m.  A Poly is zero
    when it has no terms; reading that slot skips a __bool__ call per
    entry."""
    if isinstance(m.ring, PolyRing):
        return [[j for j, e in enumerate(row) if e.terms] for row in m.entries]
    return [list(compress(range(len(row)), row)) for row in m.entries]


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
    target = poly_ring(m.ring.nvars)
    rings = [QQ] + [target] * order
    zeros = [r.zero() for r in rings]
    parts: list[list[list]] = [[] for _ in rings]
    for row, cols in zip(m.entries, _supports(m)):
        new = [[z] * m.cols for z in zeros]
        for j in cols:
            for part, v in zip(new, exp_jet(row[j], order)):
                part[j] = v
        for rows, part in zip(parts, new):
            rows.append(part)
    return tuple(RingMatrix.adopt(r, rows, m.cols) for r, rows in zip(rings, parts))


def linearize_matrix(m: RingMatrix) -> tuple[RingMatrix, RingMatrix]:
    """(value at x = 1 over Q, entrywise linear part over Q[y]) of a Laurent
    matrix under x_j = exp(y_j)."""
    return _jet_matrices(m, 1)


def series_matrix(m: RingMatrix) -> tuple[RingMatrix, ...]:
    """The parts of degree 0 (over Q), 1 and 2 (over Q[y]) of a Laurent
    matrix under x_j = exp(y_j), entry by entry."""
    return _jet_matrices(m, 2)


# -- elimination ----------------------------------------------------------------


def clear_row_denominators(row: Sequence[Fraction]) -> list[int]:
    """The row times the least common multiple of its denominators."""
    lcm = math.lcm(*(v.denominator for v in row))
    return [v.numerator * (lcm // v.denominator) for v in row]


def bareiss_step(rows: Iterable[list], top: Sequence, c: int, columns: Iterable[int],
                 prev, div: Callable = floordiv) -> None:
    """One fraction-free step in place: each row becomes, on columns,
    (row * top[c] - row[c] * top) / prev, the division exact by
    Sylvester's identity (prev is the pivot of the step before; None on
    the first step, which divides by nothing).  If every entry of a row is
    the minor on the pivot rows and columns so far plus its own row and
    column, it is so after the step too, whichever columns were the
    pivots."""
    pivot = top[c]
    for row in rows:
        f = row[c]
        for j in columns:
            v = row[j] * pivot - f * top[j]
            row[j] = v if prev is None else div(v, prev)


def bareiss(grid: list[list], div: Callable = floordiv) -> tuple[list[int], list[int]]:
    """Fraction-free elimination (Bareiss 1968) in place, columns left to right.

    div is the exact division of the entry ring: // for ints, / for
    Fractions, Poly.exact_div for Q[y] and the Laurent ring.  Every division
    is exact by Sylvester's identity.  Returns the pivot rows, as input
    indices in pivot order, and the pivot columns.  Row k of grid then holds
    from column c_k on the fraction-free echelon row of the k-th pivot, and
    its pivot grid[k][c_k] is the minor on the first k + 1 pivot rows (in
    pivot order) and columns; entries left of c_k are not cleared.
    """
    rows = len(grid)
    cols = len(grid[0]) if rows else 0
    order = list(range(rows))
    pivot_cols: list[int] = []
    prev = None
    r = 0
    for c in range(cols):
        for p in range(r, rows):
            if grid[p][c]:
                break
        else:
            continue
        grid[r], grid[p] = grid[p], grid[r]
        order[r], order[p] = order[p], order[r]
        top = grid[r]
        bareiss_step(grid[r + 1:], top, c, range(c + 1, cols), prev, div)
        prev = top[c]
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break
    return order[:r], pivot_cols


def rational_rank(m: RingMatrix) -> int:
    if not isinstance(m.ring, RationalField):
        raise ValueError("rational_rank needs a matrix over Q")
    return len(bareiss([clear_row_denominators(row) for row in m.entries])[1])


def _sparse_rows(entries: Iterable[Sequence]) -> list[dict[int, Coeff]]:
    """Each row as a dict from column to its nonzero entries, as canonical
    coefficients (rings.canonical): ints stay ints, and an integral
    Fraction becomes its int."""
    return [{j: canonical(row[j]) for j in compress(range(len(row)), row)} for row in entries]


def _forward(rows: list[dict[int, Coeff]], stop: int) -> list[tuple[int, int]]:
    """Sparse forward elimination over Q on columns 0..stop-1, in place.

    rows holds only nonzeros, as canonical coefficients, so entries that
    cancel are deleted.  Columns are taken left to right; the pivot is the
    unused row with the fewest nonzeros (Markowitz; ties to the lowest
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


def _back_substitute(rows: list[dict[int, Coeff]], pivots: list[tuple[int, int]]) -> None:
    """Turn _forward's echelon into the reduced row echelon form, in place.

    Last pivot first, each pivot row loses its entries at the later pivot
    columns by subtracting those columns' pivot rows, which are reduced
    already and so bring in no pivot column.  The pivot rows are then the
    rows of the unique reduced row echelon form, whatever the pivot order.
    """
    pivot_row = dict(pivots)
    for c, p in reversed(pivots):
        row = rows[p]
        for t in [j for j in row if j != c and j in pivot_row]:
            f = row[t]
            for j, v in rows[pivot_row[t]].items():
                new = row.get(j, 0) - f * v
                if new:
                    row[j] = canonical(new)
                else:
                    del row[j]


def rational_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q; returns (rref rows, pivot columns)."""
    ncols = len(rows[0]) if rows else 0
    sparse = _sparse_rows(rows)
    pivots = _forward(sparse, ncols)
    _back_substitute(sparse, pivots)
    zero = Fraction(0)
    out = [[Fraction(sparse[p].get(j, 0)) for j in range(ncols)] for _, p in pivots]
    out.extend([zero] * ncols for _ in range(len(rows) - len(pivots)))
    return out, [c for c, _ in pivots]


def rational_left_kernel(m: RingMatrix) -> list[list[Fraction]]:
    """Basis of {v : v * M = 0} as row vectors, via the null space of M^T."""
    res = solve_right(m.transpose(), RingMatrix.zero(QQ, m.cols, 1))
    return [list(vec) for vec in res.kernel]


def rational_row_space(m: RingMatrix) -> list[list[Fraction]]:
    """Basis (rref rows) of the row space of a rational matrix."""
    if m.rows == 0:
        return []
    rref, pivots = rational_rref([list(row) for row in m.entries])
    return rref[:len(pivots)]


def generic_rank(m: RingMatrix) -> int:
    """Rank over the fraction field, by exact elimination: rows cleared to
    integers over Q, and Bareiss with Poly.exact_div over Q[y] and the
    Laurent ring."""
    if isinstance(m.ring, RationalField):
        return rational_rank(m)
    return len(bareiss([list(row) for row in m.entries], Poly.exact_div)[1])


def symbolic_det(m: RingMatrix):
    """Determinant over Q or a (Laurent) polynomial ring: the last pivot of
    the fraction-free elimination, signed by the parity of the pivot rows."""
    if m.rows != m.cols:
        raise ShapeMismatch("det of non-square matrix")
    n = m.rows
    if n == 0:
        return m.ring.one()
    if isinstance(m.ring, RationalField):
        grid, div = [[Fraction(v) for v in row] for row in m.entries], truediv
    else:
        grid, div = [list(row) for row in m.entries], Poly.exact_div
    order, _ = bareiss(grid, div)
    if len(order) < n:
        return m.ring.zero()
    inversions = sum(order[j] > order[i] for i in range(n) for j in range(i))
    d = grid[n - 1][n - 1]
    return -d if inversions % 2 else d


def _adjugate(m: RingMatrix) -> RingMatrix:
    """Adjugate via cofactors: adj(M)[i][j] = (-1)^{i+j} det(M minor j,i)."""
    n = m.rows
    out = RingMatrix.zero(m.ring, n, n)
    for i in range(n):
        for j in range(n):
            minor = RingMatrix(m.ring, [[m.entries[r][c] for c in range(n) if c != i]
                                        for r in range(n) if r != j])
            d = symbolic_det(minor)
            out.entries[i][j] = -d if (i + j) % 2 else d
    return out


# -- fraction-field solving ------------------------------------------------------


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
    an _EchelonSolve, which derives them when they are read.
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


class _EchelonSolve(SolveResult):
    """solve_right's result over Q: the forward echelon of [A | B] (pivot
    columns below n, right sides from n on).  The first read of cleared
    (the particular solution with free coordinates 0, also the numerator
    over denominator 1) or of kernel runs the one back-substitution, in
    place, and each is then built from the reduced rows once.
    kernel_dimension is n minus the rank and builds nothing."""

    ring = QQ
    denominator = Fraction(1)
    in_ring = True

    def __init__(self, rows: list[dict[int, Coeff]], pivots: list[tuple[int, int]],
                 n: int, k: int):
        self._rows, self._pivots, self._n, self._k = rows, pivots, n, k

    @cached_property
    def _reduced(self) -> list[dict[int, Coeff]]:
        _back_substitute(self._rows, self._pivots)
        return self._rows

    @cached_property
    def cleared(self) -> RingMatrix:
        rows, n = self._reduced, self._n
        out = RingMatrix.zero(QQ, n, self._k)
        for c, p in self._pivots:
            for j, v in rows[p].items():
                if j >= n:
                    out.entries[c][j - n] = Fraction(v)
        return out

    @property
    def numerator(self) -> RingMatrix:
        return self.cleared

    @cached_property
    def kernel(self) -> list[list[Fraction]]:
        rows, n = self._reduced, self._n
        pivot_cols = {c for c, _ in self._pivots}
        free = {fc: t for t, fc in enumerate(c for c in range(n) if c not in pivot_cols)}
        out = [[QQ.zero()] * n for _ in free]
        for fc, t in free.items():
            out[t][fc] = QQ.one()
        for c, p in self._pivots:
            for j, v in rows[p].items():
                if j in free:
                    out[free[j]][c] = Fraction(-v)
        return out

    @property
    def kernel_dimension(self) -> int:
        return self._n - len(self._pivots)


def _solve_right_rational(a: RingMatrix, b: RingMatrix) -> SolveResult:
    """Forward elimination over Q on the rows of [A | B], read off A's and
    B's nonzeros.  The system is consistent exactly when every non-pivot
    row ends empty; NoSolution is raised on the first that keeps a right
    side, before any back-substitution."""
    n, k = a.cols, b.cols
    rows = _sparse_rows(a.entries)
    for row, rb in zip(rows, b.entries):
        for j in compress(range(k), rb):
            row[n + j] = canonical(rb[j])
    pivots = _forward(rows, n)
    pivot_rows = {p for _, p in pivots}
    for i, row in enumerate(rows):
        if row and i not in pivot_rows:
            raise NoSolution(f"inconsistent row {i}")
    return _EchelonSolve(rows, pivots, n, k)


def solve_right(a: RingMatrix, b: RingMatrix) -> SolveResult:
    """Solve A*X = B over the fraction field of the entry ring.

    Returns one particular solution, a basis of the right kernel of A with
    denominators cleared to ring entries, and whether X itself lies in the
    ring.  Raises NoSolution when the system is inconsistent.  A kernel of
    positive dimension signals non-uniqueness; it is not an error.  Over Q
    the call runs forward elimination only, which proves consistency, and
    the result derives the solution and the kernel when they are first
    read (_EchelonSolve); over Q[y] and the Laurent ring it builds both.
    """
    if a.rows != b.rows:
        raise ShapeMismatch(f"solve {a.shape()} against {b.shape()}")
    if a.ring != b.ring:
        raise ShapeMismatch("ring mismatch between A and B")
    if isinstance(a.ring, RationalField):
        return _solve_right_rational(a, b)

    ring: PolyRing = a.ring
    n, k = a.cols, b.cols
    grid = [list(row) for row in a.entries]
    piv_rows, piv_cols = bareiss(grid, Poly.exact_div)
    free_cols = [c for c in range(n) if c not in piv_cols]

    # Cramer on the square nonsingular pivot minor S = A[piv_rows, piv_cols],
    # whose determinant is the last pivot of the elimination, rows in pivot
    # order (1 for the empty minor).  One product adj(S) * [B_P | -A_P,free]
    # gives the numerator adj(S) * B_P of x_P = adj(S) * B_P / det(S), free
    # coordinates zero, and for each free column the pivot coordinates of
    # the kernel vector whose free coordinate is det(S).
    sub = RingMatrix(ring, [[a.entries[i][j] for j in piv_cols] for i in piv_rows])
    det = grid[len(piv_rows) - 1][piv_cols[-1]] if piv_cols else ring.one()
    rhs = RingMatrix.adopt(ring, [b.entries[i] + [-a.entries[i][fc] for fc in free_cols]
                                  for i in piv_rows])
    solved = _adjugate(sub) * rhs
    numerator = RingMatrix.zero(ring, n, k)
    zero = ring.zero()
    kernel = [[det if i == fc else zero for i in range(n)] for fc in free_cols]
    for c, row in zip(piv_cols, solved.entries):
        numerator.entries[c] = row[:k]
        for vec, v in zip(kernel, row[k:]):
            vec[c] = v

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


@dataclass(frozen=True)
class CharPoly:
    """Monic characteristic polynomial det(zI - M); coeffs[i] multiplies z^i."""

    ring: object
    coeffs: tuple

    def cleared(self) -> tuple[list[dict], int]:
        """(d * the term dict of each coefficient, d) for the least common
        denominator d; on an integral polynomial d = 1 and every
        coefficient is an int."""
        return _cleared([_terms(c) for c in self.coeffs])


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
    """det(zI - M) by Berkowitz's division-free algorithm (S. J. Berkowitz,
    Inf. Process. Lett. 18 (1984)), over Q, Q[y] or Q[x^{+-1}].

    M = A / d with A integral, and A's polynomial is built up over its
    leading principal submatrices: adding row and column r (row part R,
    column part C, corner a) multiplies the coefficient vector, highest
    power first, by the Toeplitz matrix with first column
    [1, -a, -R C, -R A_r C, ..., -R A_r^(r-1) C].  Only matrix-vector
    products occur, all over int term dicts; coefficient i of M's
    polynomial is then coefficient i of A's over d^(n-i).
    """
    if m.rows != m.cols:
        raise ShapeMismatch("char_poly of non-square matrix")
    ring = m.ring
    if not isinstance(ring, (RationalField, PolyRing)):
        raise ValueError("char_poly needs a matrix over Q or a (Laurent) polynomial ring")
    n = m.rows
    flat, d = _cleared([_terms(e) for row in m.entries for e in row])
    a = [flat[i * n:(i + 1) * n] for i in range(n)]
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
    return CharPoly(ring, tuple(_from_terms(ring, poly[n - i], d ** (n - i))
                                for i in range(n + 1)))


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
    for row in m.entries:
        for e in row:
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
            for i in range(lhs.rows):
                for j in range(lhs.cols):
                    if lhs.entries[i][j] != rhs.entries[i][j]:
                        raise ChainIdentityFailed(
                            f"chain identity fails in degree {q} at entry "
                            f"({i + 1}, {j + 1})", entry=(i, j))
