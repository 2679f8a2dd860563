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
changes no rank), and one fraction-free elimination per subset, columns left
to right, gives both ranks from its pivot columns.  The ranks of the subsets
one size smaller are kept while the scan runs, so the minimality checks look
them up instead of eliminating again.

Broken circuits delete the least element of a circuit; nbc sets avoid both
broken circuits and empty_min members, and index the monomial basis of the
quotient algebra degree by degree.  Subsets of nbc sets are nbc, so degree
q + 1 comes from extending each nbc q-set by a larger index j, testing only
the forbidden sets whose largest element is j.  The hyperplane input order
1 < 2 < ... < n is the nbc order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .errors import ParseError
from .linalg import QQ, RingMatrix, bareiss, clear_row_denominators, rational_rank
from .rings import MAX_VARIABLES, _shown, content_lines, parse_fraction, parse_int


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


def compute_dependencies(arr: Arrangement) -> DependencyData:
    """Scan subsets of size <= dim + 1; larger sets cannot be minimal in
    either class, by the rank bound."""
    rows = [clear_row_denominators([*h.normal, -h.offset]) for h in arr.hyperplanes]
    # (rank of the normals, rank of the rows) per subset; a normal is nonzero.
    ranks = {(i,): (1, 1) for i in range(arr.n)}
    circuits: list[tuple[int, ...]] = []
    empty_min: list[tuple[int, ...]] = []
    for size in range(2, arr.dim + 2):
        for subset in combinations(range(arr.n), size):
            _, pivots = bareiss([rows[i][:] for i in subset])
            rank_normals = sum(1 for c in pivots if c < arr.dim)
            ranks[subset] = rank_normals, len(pivots)
            faces = (ranks[subset[:k] + subset[k + 1:]] for k in range(size))
            if rank_normals == len(pivots):
                if rank_normals < size and all(rn == size - 1 for rn, _ in faces):
                    circuits.append(subset)
            elif all(rn == ra for rn, ra in faces):
                empty_min.append(subset)
    broken = {}
    for c in circuits:
        b = c[1:]
        if b not in broken:
            broken[b] = c
    # Indices are 1-based in reports; internal sets stay 0-based.
    return DependencyData(
        circuits=tuple(sorted(circuits)),
        empty_min=tuple(sorted(empty_min)),
        broken_circuits=tuple(sorted(broken)),
        circuit_of_broken=broken,
    )


@dataclass(frozen=True)
class NbcBasis:
    """Per-degree sorted lists of nbc index sets (0-based, strictly increasing)."""

    by_degree: tuple[tuple[tuple[int, ...], ...], ...]

    def degree(self, q: int) -> tuple[tuple[int, ...], ...]:
        return self.by_degree[q] if 0 <= q < len(self.by_degree) else ()

    def betti(self) -> list[int]:
        return [len(sets) for sets in self.by_degree]


def nbc_basis(arr: Arrangement, dep: DependencyData) -> NbcBasis:
    # Forbidden sets by their largest element, without it.
    forbidden: list[list[frozenset[int]]] = [[] for _ in range(arr.n)]
    for f in (*dep.empty_min, *dep.broken_circuits):
        forbidden[f[-1]].append(frozenset(f[:-1]))
    by_degree = [((),)]
    for _ in range(arr.dim):
        sets = []
        for s in by_degree[-1]:
            sset = set(s)
            for j in range(s[-1] + 1 if s else 0, arr.n):
                if not any(f <= sset for f in forbidden[j]):
                    sets.append(s + (j,))
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
    with open(path, encoding="utf-8") as fh:
        return parse_arrangement(fh.read())
