"""The graded quotient algebra on the nbc basis and its universal cochain
complex over Q[y1..yn], with boundary = left wedge by sum_j y_j a_j.
aomoto_boundary returns that complex as a linalg.RingComplex, whose ranks
are the nbc counts and whose construction proves mu * mu = 0.  Each entry
is written by PolyRing.linear_form from int coefficients, so every entry
is an integral linear form by construction (aomoto.linear_forms).

Rewriting into the nbc basis: a monomial a_S is zero when S contains a
minimal empty-intersection set; otherwise the lexicographically largest
broken circuit T inside S is rewritten through its circuit C = {c} u T,

    a_T  =  sum_{i >= 1} (-1)^{i+1} a_{C \\ C[i]},

with Koszul signs from re-sorting wedges.  Each replacement set contains the
least circuit element c < max(T) and drops a larger one, so the multiset of
index sets strictly decreases lexicographically and the rewriting terminates.
Both questions, whether a minimal empty set lies inside S and which broken
circuit inside S is the largest, go to the one prefix tree of forbidden sets
(arrangement.ForbiddenSets), which walks only the branches whose elements
are in S; the largest is the first found when the walk takes larger
elements first and a longer set before its prefix.
"""

from __future__ import annotations

from typing import Sequence

from .arrangement import Arrangement, DependencyData, NbcBasis, compute_dependencies, nbc_basis
from .linalg import RingComplex, RingMatrix
from .rings import poly_ring


def wedge_sort(indices: Sequence[int]) -> tuple[tuple[int, ...], int] | None:
    """Sort wedge factors, returning (sorted tuple, sign); None if repeated."""
    arr = list(indices)
    sign = 1
    # Insertion sort; each adjacent swap flips the sign.
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(arr, arr[1:]):
        if a == b:
            return None
    return tuple(arr), sign


class NbcRewriter:
    """Memoized rewriting of arbitrary index sets into the nbc basis."""

    def __init__(self, dep: DependencyData):
        self.dep = dep
        self.cache: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}

    def rewrite(self, subset: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        """Expansion of a_subset (strictly increasing indices) over nbc sets,
        as a dict with integer coefficients."""
        if subset in self.cache:
            return self.cache[subset]
        forbidden = self.dep.forbidden
        if forbidden.has_empty(subset):
            self.cache[subset] = {}
            return {}
        broken = forbidden.largest_broken(subset)
        if broken is None:
            self.cache[subset] = {subset: 1}
            return {subset: 1}
        circuit = self.dep.circuit_of_broken[broken]
        rest = tuple(i for i in subset if i not in broken)
        outer = wedge_sort(broken + rest)[1]
        result: dict[tuple[int, ...], int] = {}
        for i in range(1, len(circuit)):
            # a_{T} = sum (-1)^{i+1} a_{C \ C[i]} inside the wedge with rest.
            replacement = tuple(c for k, c in enumerate(circuit) if k != i)
            term = wedge_sort(replacement + rest)
            if term is None:
                continue
            sorted_set, inner = term
            coeff = outer * inner * (-1) ** (i + 1)
            for k, v in self.rewrite(sorted_set).items():
                s = result.get(k, 0) + coeff * v
                if s:
                    result[k] = s
                else:
                    result.pop(k, None)
        self.cache[subset] = result
        return result


def aomoto_boundary(arr: Arrangement, dep: DependencyData | None = None,
                    basis: NbcBasis | None = None) -> RingComplex:
    """The Aomoto complex: the boundaries mu_q of left-multiplication by
    sum_j y_j a_j on the nbc basis, rows indexed by nbc q-sets and columns
    by nbc (q+1)-sets, every entry sum_j c_j y_j with int c_j from the nbc
    rewriting.  Its ranks are the nbc counts; constructing it checks
    mu * mu = 0."""
    if dep is None:
        dep = compute_dependencies(arr)
    if basis is None:
        basis = nbc_basis(arr, dep)
    ring = poly_ring(arr.n)
    rewriter = NbcRewriter(dep)
    boundaries = []
    for q in range(arr.dim):
        rows_sets = basis.degree(q)
        cols_sets = basis.degree(q + 1)
        col_index = {s: i for i, s in enumerate(cols_sets)}
        rows = []
        for s in rows_sets:
            coeffs: dict[int, list[int]] = {}  # column -> its c_j
            for j in range(arr.n):
                if j in s:
                    continue
                sorted_set, sign = wedge_sort((j,) + s)
                for target, coeff in rewriter.rewrite(sorted_set).items():
                    c = col_index.get(target)
                    if c is not None:
                        coeffs.setdefault(c, [0] * arr.n)[j] += sign * coeff
            rows.append({c: ring.linear_form(form) for c, form in coeffs.items()})
        boundaries.append(RingMatrix.from_rows(ring, rows, len(cols_sets)))
    return RingComplex(ring, basis.betti(), boundaries)

