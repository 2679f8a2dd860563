"""Affine hyperplane arrangements with rational coefficients.

A hyperplane is offset + normal . u = 0.  Matroid dependencies split into
two classes, which is what makes the affine (non-central) case work:

  * circuits: minimal index sets whose normals are dependent and whose
    hyperplanes still meet (these give boundary relations of the exterior
    algebra quotient);
  * empty_min: minimal index sets with empty intersection (monomials on
    these sets are annihilated outright).

Both classes come from two ranks per index set: of its normals and of its
rows [normal | -offset].  Each row is scaled to integers once (scaling a row
changes no rank) and kept as a dict of its nonzero entries, so a normal
with zeros, like those of a Boolean arrangement, stores only the rest.  A
subset is good when it is independent and its hyperplanes meet; good sets
are closed under taking subsets, and the circuits and the minimal empty
sets together are exactly the sets that are not good while all their faces
(drop-one subsets) are.  A proper superset of an empty set is not minimal,
and a dependent set that meets contains a meeting circuit, any element of
which any superset can drop without changing its intersection, so it is
not minimal either.

The walk visits the subsets in increasing order of their bit masks, that
is, lexicographically in their elements read from the largest down, so every
face of a set comes before it.  A set is its prefix (itself without its
least element) plus one hyperplane, and the walk keeps the fraction-free
echelon of each prefix on its stack, as (pivot row, pivot column) pairs.
The new row is reduced against the at most L pivot rows of the prefix by
linalg.reduce_row, the step of the package's one fraction-free
elimination: it is exact by Sylvester's identity, so every entry stays a
minor of the input, and it skips a pivot column where the row is already
zero, so the unit rows of a Boolean arrangement take no step at all.  The
reduced row is zero at the prefix's pivot columns, so its least column, if
it has any entry, is its pivot, and the pivot columns are the column rank
profile.  Both ranks come from that one row: no entry means dependent and
meeting, a pivot at the offset column means empty, at a normal column
good.  Only good sets are extended, and a set that is not good is kept
when the bit masks of its faces are all in the set of good ones.

A scan given a top degree stops extending good sets once they hold top + 1
hyperplanes, so it visits only the subsets of at most top + 1 elements and
finds every circuit and minimal empty set among them: a set's faces have
one element less, so whether it is minimal does not depend on the larger
sets the scan skips.  That is all that the nbc sets of degree at most top,
and the rewriting of sets of that size, ask (nbc_basis); the connection
stages read the arrangement only through degree 2.

Broken circuits delete the least element of a circuit; nbc sets avoid both
broken circuits and empty_min members, and index the monomial basis of the
quotient algebra degree by degree.  The forbidden sets (empty_min and the
broken circuits) live in one prefix tree over their sorted elements
(ForbiddenSets): a forbidden set t + (j,) is the end j at the node of t, and
a question about a set S walks only the branches whose elements are in S,
in order, never the whole family and never every subset of S.  Subsets of
nbc sets are nbc, so degree q + 1 comes from extending each nbc q-set s by
a larger index j that no forbidden set t + (j,) with t inside s ends at.
The hyperplane input order 1 < 2 < ... < n is the nbc order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Collection

from .errors import ParseError
from .linalg import QQ, RingMatrix, clear_row_denominators, rational_rank, reduce_row
from .rings import MAX_VARIABLES, _shown, content_lines, parse_fraction, parse_int, read_text


@dataclass(frozen=True)
class Hyperplane:
    normal: tuple[Fraction, ...]
    offset: Fraction

    def __post_init__(self):
        if all(c == 0 for c in self.normal):
            raise ValueError("hyperplane normal must be nonzero")


@dataclass(frozen=True)
class Arrangement:
    dim: int
    hyperplanes: tuple[Hyperplane, ...]

    def __post_init__(self):
        for h in self.hyperplanes:
            if len(h.normal) != self.dim:
                raise ValueError("normal length must equal the ambient dimension")
        normals = [list(h.normal) for h in self.hyperplanes]
        if rational_rank(RingMatrix(QQ, normals)) != self.dim:
            raise ValueError(f"arrangement must contain {self.dim} independent hyperplanes")

    @property
    def n(self) -> int:
        return len(self.hyperplanes)


@dataclass(frozen=True)
class DependencyData:
    """circuits and empty_min are minimal under inclusion; broken_circuits
    maps each circuit minus its least element back to its circuit."""

    circuits: tuple[tuple[int, ...], ...]
    empty_min: tuple[tuple[int, ...], ...]
    broken_circuits: tuple[tuple[int, ...], ...]
    circuit_of_broken: dict[tuple[int, ...], tuple[int, ...]] = field(hash=False, default_factory=dict)

    @cached_property
    def forbidden(self) -> "ForbiddenSets":
        """The index that nbc_basis and the nbc rewriting ask, built once."""
        return ForbiddenSets(self.empty_min, self.broken_circuits)


# The most subsets the dependency scan may eliminate.  Every nbc set of two or
# more hyperplanes is one, so the nbc count, and mu's ranks, are at most
# MAX_DEPENDENCY_SUBSETS + n + 1.  Boolean 17 is admitted in every degree,
# Boolean 18 is not; through degree 2, Boolean 92 is admitted, Boolean 93 is not.
MAX_DEPENDENCY_SUBSETS = 2 ** 17


def compute_dependencies(arr: Arrangement, top: int | None = None) -> DependencyData:
    """The circuits and minimal empty sets of at most top + 1 hyperplanes
    (every one when top is None or at least dim): by the rank bound both
    classes lie among the subsets of size <= dim + 1.  The scan visits
    sum_{s=2}^{t+1} C(n, s) subsets, t = min(top, dim); past
    MAX_DEPENDENCY_SUBSETS, ParseError before any elimination.  The walk
    (module docstring) reduces one row per visited subset."""
    depth = arr.dim if top is None else min(top, arr.dim)
    if sum(comb(arr.n, s) for s in range(2, depth + 2)) > MAX_DEPENDENCY_SUBSETS:
        raise ParseError(f"{arr.n} hyperplanes in dimension {arr.dim} need a dependency "
                         f"scan of more than {MAX_DEPENDENCY_SUBSETS} subsets")
    rows = [clear_row_denominators(dict(enumerate((*h.normal, -h.offset))))
            for h in arr.hyperplanes]
    dim = arr.dim
    good: set[int] = set()  # bit masks of the independent subsets that meet
    circuits: list[tuple[int, ...]] = []
    empty_min: list[tuple[int, ...]] = []

    def extend(subset: tuple[int, ...], mask: int, echelon: list) -> None:
        """Visit subset + b for each b below subset's least element;
        echelon holds subset's (pivot row, pivot column) pairs."""
        for b in range(subset[0] if subset else arr.n):
            row = reduce_row(rows[b], echelon)
            pivot = min(row, default=None)
            bigger = mask | 1 << b
            if pivot is not None and pivot < dim:
                if len(subset) < depth:  # a good set of depth + 1 is neither kept nor extended
                    good.add(bigger)
                    extend((b, *subset), bigger, [*echelon, (row, pivot)])
            elif all(bigger ^ 1 << a in good for a in subset):
                (circuits if pivot is None else empty_min).append((b, *subset))

    extend((), 0, [])
    circuits.sort()
    broken: dict[tuple[int, ...], tuple[int, ...]] = {}
    for c in circuits:
        broken.setdefault(c[1:], c)
    # Indices are 1-based in reports; internal sets stay 0-based.
    return DependencyData(
        circuits=tuple(circuits),
        empty_min=tuple(sorted(empty_min)),
        broken_circuits=tuple(sorted(broken)),
        circuit_of_broken=broken,
    )


EMPTY, BROKEN = 1, 2  # the kinds of forbidden sets


class _Node:
    """A node of ForbiddenSets: the sets through it, by their next element;
    the kinds of the sets that end at each next element; and the kinds of
    every set below it."""

    __slots__ = ("children", "ends", "kinds")

    def __init__(self):
        self.children: dict[int, _Node] = {}
        self.ends: dict[int, int] = {}
        self.kinds = 0


class ForbiddenSets:
    """The minimal empty sets and the broken circuits in one prefix tree
    keyed by their sorted elements.  Every question is about the forbidden
    sets inside a sorted set S, and walks from the root only into children
    that are elements of S after the element the walk stands at (and, for
    one kind, only into subtrees holding that kind)."""

    def __init__(self, empty_min, broken_circuits):
        self.root = _Node()
        for kind, sets in ((EMPTY, empty_min), (BROKEN, broken_circuits)):
            for f in sets:
                node = self.root
                node.kinds |= kind
                for i in f[:-1]:
                    child = node.children.get(i)
                    if child is None:
                        child = node.children[i] = _Node()
                    node = child
                    node.kinds |= kind
                node.ends[f[-1]] = node.ends.get(f[-1], 0) | kind

    def completions(self, s: tuple[int, ...]) -> Collection[int]:
        """Every j such that some forbidden set is t + (j,) with t inside s."""
        if not self.root.children:
            return self.root.ends.keys()
        ends = []
        stack = [(self.root, 0)]
        while stack:
            node, start = stack.pop()
            ends.append(node.ends)
            if node.children:
                for k in range(start, len(s)):
                    child = node.children.get(s[k])
                    if child is not None:
                        stack.append((child, k + 1))
        return set().union(*ends)

    def has_empty(self, s: tuple[int, ...]) -> bool:
        """Whether a minimal empty set lies inside s."""
        if not self.root.kinds & EMPTY:
            return False
        stack = [(self.root, 0)]
        while stack:
            node, start = stack.pop()
            for k in range(start, len(s)):
                if node.ends.get(s[k], 0) & EMPTY:
                    return True
                child = node.children.get(s[k])
                if child is not None and child.kinds & EMPTY:
                    stack.append((child, k + 1))
        return False

    def largest_broken(self, s: tuple[int, ...]) -> tuple[int, ...] | None:
        """The lexicographically largest broken circuit inside s, or None."""
        if not self.root.kinds & BROKEN:
            return None
        return self._largest_broken(self.root, s, 0, ())

    def _largest_broken(self, node: _Node, s, start: int, path: tuple[int, ...]):
        # Larger next elements first; below one, a longer set beats its prefix.
        for k in range(len(s) - 1, start - 1, -1):
            x = s[k]
            child = node.children.get(x)
            if child is not None and child.kinds & BROKEN:
                found = self._largest_broken(child, s, k + 1, (*path, x))
                if found is not None:
                    return found
            if node.ends.get(x, 0) & BROKEN:
                return (*path, x)
        return None


@dataclass(frozen=True)
class NbcBasis:
    """Per-degree sorted lists of nbc index sets (0-based, strictly increasing)."""

    by_degree: tuple[tuple[tuple[int, ...], ...], ...]

    def degree(self, q: int) -> tuple[tuple[int, ...], ...]:
        return self.by_degree[q] if 0 <= q < len(self.by_degree) else ()

    def betti(self) -> list[int]:
        return [len(sets) for sets in self.by_degree]


def nbc_basis(arr: Arrangement, dep: DependencyData, top: int | None = None) -> NbcBasis:
    """The nbc sets in degrees 0..dim, or 0..top when top is given; dep
    must hold the circuits and minimal empty sets of at most that many
    hyperplanes plus one (compute_dependencies with the same top)."""
    forbidden = dep.forbidden
    by_degree = [((),)]
    for _ in range(arr.dim if top is None else min(top, arr.dim)):
        sets = []
        for s in by_degree[-1]:
            blocked = forbidden.completions(s)
            sets.extend(s + (j,) for j in range(s[-1] + 1 if s else 0, arr.n)
                        if j not in blocked)
        # Extending sorted sets by increasing j keeps the order sorted.
        by_degree.append(tuple(sets))
    return NbcBasis(tuple(by_degree))


# -- file format -----------------------------------------------------------------
#
# Line 1:    dim L
# Then one hyperplane per line as L+1 rationals:  offset a1 ... aL
# meaning offset + sum a_i u_i = 0.  Blank lines and '#' comments ignored.
# At most MAX_VARIABLES hyperplanes.


def parse_arrangement(text: str) -> Arrangement:
    lines = content_lines(text)
    if not lines:
        raise ParseError("empty arrangement file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "dim":
        raise ParseError(f"expected 'dim L' header, got {_shown(lines[0])}")
    # Each hyperplane is a variable of the Aomoto ring, and L of them must be
    # independent, so L <= n <= MAX_VARIABLES.
    dim = parse_int(head[1], 0, MAX_VARIABLES, "dimension")
    if len(lines) - 1 > MAX_VARIABLES:
        raise ParseError(f"{len(lines) - 1} hyperplanes exceed {MAX_VARIABLES}")
    hyperplanes = []
    try:
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != dim + 1:
                raise ParseError(f"expected {dim + 1} rationals on line {_shown(ln)}")
            vals = [parse_fraction(p) for p in parts]
            hyperplanes.append(Hyperplane(normal=tuple(vals[1:]), offset=vals[0]))
        return Arrangement(dim=dim, hyperplanes=tuple(hyperplanes))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_arrangement(arr: Arrangement) -> str:
    lines = [f"dim {arr.dim}"]
    for h in arr.hyperplanes:
        lines.append(" ".join(str(v) for v in (h.offset, *h.normal)))
    return "\n".join(lines) + "\n"


def load_arrangement(path) -> Arrangement:
    return parse_arrangement(read_text(path))
