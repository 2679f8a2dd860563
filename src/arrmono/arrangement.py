"""Affine hyperplane arrangements with rational coefficients.

A hyperplane is offset + normal . u = 0.  Matroid dependencies split into
two classes, which is what makes the affine (non-central) case work:

  * circuits: minimal index sets whose normals are dependent and whose
    hyperplanes still meet (these give boundary relations of the exterior
    algebra quotient);
  * empty_min: minimal index sets with empty intersection (monomials on
    these sets are annihilated outright).

Broken circuits delete the least element of a circuit; nbc sets avoid both
broken circuits and empty_min members, and index the monomial basis of the
quotient algebra degree by degree.  The hyperplane input order 1 < 2 < ... < n
is the nbc order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .errors import ParseError
from .linalg import QQ, RingMatrix, rational_rank
from .rings import parse_fraction


@dataclass(frozen=True)
class Hyperplane:
    normal: tuple[Fraction, ...]
    offset: Fraction

    def __post_init__(self):
        if all(c == 0 for c in self.normal):
            raise ValueError("hyperplane normal must be nonzero")

    def __str__(self) -> str:
        return f"{self.offset} + " + " + ".join(
            f"{c}*u{i}" for i, c in enumerate(self.normal, start=1) if c != 0) + " = 0"


@dataclass(frozen=True)
class Arrangement:
    dim: int
    hyperplanes: tuple[Hyperplane, ...]

    def __post_init__(self):
        for h in self.hyperplanes:
            if len(h.normal) != self.dim:
                raise ValueError("normal length must equal the ambient dimension")
        if self.n and _rank_of_normals(self, range(self.n)) != self.dim:
            raise ValueError(f"arrangement must contain {self.dim} independent hyperplanes")

    @property
    def n(self) -> int:
        return len(self.hyperplanes)


def _rank_of_normals(arr: Arrangement, idx: Iterable[int]) -> int:
    rows = [list(arr.hyperplanes[i].normal) for i in idx]
    if not rows:
        return 0
    return rational_rank(RingMatrix(QQ, rows))


def _rank_augmented(arr: Arrangement, idx: Iterable[int]) -> int:
    rows = [list(arr.hyperplanes[i].normal) + [-arr.hyperplanes[i].offset] for i in idx]
    if not rows:
        return 0
    return rational_rank(RingMatrix(QQ, rows))


def has_nonempty_intersection(arr: Arrangement, subset: Sequence[int]) -> bool:
    """The hyperplanes indexed by subset (0-based) share a point iff the
    linear system normal . u = -offset is consistent."""
    return _rank_of_normals(arr, subset) == _rank_augmented(arr, subset)


def is_independent(arr: Arrangement, subset: Sequence[int]) -> bool:
    return _rank_of_normals(arr, subset) == len(subset)


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
    circuits: list[tuple[int, ...]] = []
    empty_min: list[tuple[int, ...]] = []
    for size in range(2, arr.dim + 2):
        for subset in combinations(range(arr.n), size):
            nonempty = has_nonempty_intersection(arr, subset)
            if nonempty:
                if not is_independent(arr, subset):
                    if all(is_independent(arr, [i for i in subset if i != drop])
                           for drop in subset):
                        circuits.append(subset)
            else:
                if all(has_nonempty_intersection(arr, [i for i in subset if i != drop])
                       for drop in subset):
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

    def index(self, q: int, subset: tuple[int, ...]) -> int:
        return self.by_degree[q].index(subset)


def is_nbc(dep: DependencyData, subset: tuple[int, ...]) -> bool:
    sset = set(subset)
    if any(set(e) <= sset for e in dep.empty_min):
        return False
    return not any(set(b) <= sset for b in dep.broken_circuits)


def nbc_basis(arr: Arrangement, dep: DependencyData | None = None) -> NbcBasis:
    if dep is None:
        dep = compute_dependencies(arr)
    by_degree = []
    for q in range(arr.dim + 1):
        sets = [s for s in combinations(range(arr.n), q) if is_nbc(dep, s)]
        by_degree.append(tuple(sorted(sets)))
    return NbcBasis(tuple(by_degree))


# -- file format -----------------------------------------------------------------
#
# Line 1:    dim L
# Then one hyperplane per line as L+1 rationals:  offset a1 ... aL
# meaning offset + sum a_i u_i = 0.  Blank lines and '#' comments ignored.


def parse_arrangement(text: str) -> Arrangement:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty arrangement file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "dim":
        raise ParseError(f"expected 'dim L' header, got {lines[0]!r}")
    try:
        dim = int(head[1])
    except ValueError:
        raise ParseError(f"bad dimension {head[1]!r}") from None
    hyperplanes = []
    try:
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != dim + 1:
                raise ParseError(f"expected {dim + 1} rationals on line {ln!r}")
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
