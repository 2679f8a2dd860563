"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` and returns plain data or file
text, so the same seed always yields byte-identical inputs.  Certified loops
are built with the package's own certificate algebra and validated by free
reduction before they are used; arrangements are checked for accidental
coincidences with a small exact rank routine that shares no code with the
package.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"


# -- certified loops -------------------------------------------------------------


def format_endomorphism(endo) -> str:
    return "".join(f"{img}\n" for img in endo.images)


def format_certificate(cert) -> str:
    lines = []
    for l, terms in enumerate(cert.terms, start=1):
        lines.append(f"relator {l}")
        lines.extend(f"( {w} , {k} , {'+1' if e == 1 else '-1'} )" for w, k, e in terms)
    return "\n".join(lines) + "\n"


def compose_loop(am, pres, factors):
    """Certified composite of ``(endo, cert)`` factors, applied left to right."""
    endo, cert = am.Endomorphism.identity(pres.ngens), am.identity_certificate(pres)
    for nxt, nxt_cert in factors:
        endo, cert = am.compose_certificates(pres, nxt, nxt_cert, endo, cert)
    cert.validate(pres, endo)
    return endo, cert


def pencil_loop(am, pres, twist, twist_inv, rng: random.Random, pattern: str,
                gens: tuple[int, int]):
    """Loop on pencil4 from a pattern over T (twist), I (inverse twist) and
    C (inner automorphism by g_a^(+-1) g_b^(+-1) for gens = (a, b), with
    seeded signs), composed left to right."""
    a, b = gens
    factors = []
    for f in pattern:
        if f == "T":
            factors.append(twist)
        elif f == "I":
            factors.append(twist_inv)
        else:
            w = am.Word.from_letters(pres.ngens, [(a, rng.choice((1, -1))), (b, rng.choice((1, -1)))])
            factors.append((am.Endomorphism.inner(pres.ngens, w), am.inner_certificate(pres, w)))
    return compose_loop(am, pres, factors)


def zn_presentation_text(n: int) -> str:
    """Z^n: n generators, every commutator [g_i, g_j] with i < j."""
    rels = [f"[g{i}, g{j}]" for i, j in combinations(range(1, n + 1), 2)]
    return f"generators {n}\n" + "\n".join(rels) + "\n"


def boolean_arrangement_text(n: int) -> str:
    """The n coordinate hyperplanes u_i = 0 in C^n."""
    rows = (" ".join(["0"] + ["1" if k == i else "0" for k in range(n)]) for i in range(n))
    return f"dim {n}\n" + "\n".join(rows) + "\n"


def inner_support_word(am, rng: random.Random, ngens: int, support: int):
    """A word whose abelianization has exactly ``support`` nonzero entries,
    each +-1: one letter per chosen generator, in random order."""
    gens = rng.sample(range(1, ngens + 1), support)
    return am.Word.from_letters(ngens, [(g, rng.choice((1, -1))) for g in gens])


# -- arrangements with planted multiple points -------------------------------------


@dataclass(frozen=True)
class PlantedArrangement:
    """Hyperplanes as (offset, normal) integer rows, and the index groups of
    hyperplanes planted through a common codimension-2 flat."""

    dim: int
    rows: tuple[tuple[int, tuple[int, ...]], ...]
    groups: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    def text(self) -> str:
        body = "\n".join(" ".join(str(v) for v in (off, *normal)) for off, normal in self.rows)
        return f"dim {self.dim}\n{body}\n"

    def betti_low(self) -> tuple[int, int, int]:
        """b0, b1, b2 of the complement.  The only coincidences are the
        planted flats, so every other pair of hyperplanes meets in its own
        codimension-2 flat of multiplicity 2, and b2 sums m - 1 over all
        codimension-2 flats."""
        n = self.n
        planted = sum(len(g) - 1 for g in self.groups)
        pairs_in_groups = sum(len(g) * (len(g) - 1) // 2 for g in self.groups)
        return 1, n, planted + n * (n - 1) // 2 - pairs_in_groups


def _rank(rows: list[list[int]]) -> int:
    """Rank of a small integer matrix by division-free elimination."""
    work = [list(r) for r in rows]
    rank = 0
    for c in range(len(work[0]) if work else 0):
        piv = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        p = work[rank]
        for i in range(rank + 1, len(work)):
            f = work[i][c]
            if f:
                work[i] = [p[c] * a - f * b for a, b in zip(work[i], p)]
        rank += 1
    return rank


def is_generic_beyond_groups(arr: PlantedArrangement) -> bool:
    """Every subset of at most dim + 1 hyperplanes has the normal rank and
    augmented rank forced by the planted groups, and no more coincidence."""
    group_of = {i: gi for gi, g in enumerate(arr.groups) for i in g}
    for size in range(2, arr.dim + 2):
        for subset in combinations(range(arr.n), size):
            parts: dict[object, int] = {}
            for i in subset:
                key = group_of.get(i, ("single", i))
                parts[key] = parts.get(key, 0) + 1
            forced = sum(min(k, 2) if not isinstance(key, tuple) else 1
                         for key, k in parts.items())
            normals = [list(arr.rows[i][1]) for i in subset]
            augmented = [list(arr.rows[i][1]) + [arr.rows[i][0]] for i in subset]
            if _rank(normals) != min(arr.dim, forced):
                return False
            if _rank(augmented) != min(arr.dim + 1, forced):
                return False
    return True


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _nonzero_vector(rng: random.Random, dim: int, bound: int) -> tuple[int, ...]:
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(dim))
        if any(v):
            return v


def planted_arrangement(rng: random.Random, dim: int, n: int,
                        multiplicities: tuple[int, ...]) -> PlantedArrangement:
    """n hyperplanes in C^dim (dim 2 or 3): for each multiplicity m, m
    hyperplanes through a random point (dim 2) or line (dim 3); the rest in
    general position.  Draws again until no coincidence beyond the planted
    ones exists, so the combinatorics depend only on (dim, n, multiplicities)."""
    if dim not in (2, 3):
        raise ValueError("planted arrangements are built in dimension 2 or 3")
    while True:
        rows: list[tuple[int, tuple[int, ...]]] = []
        groups = []
        for m in multiplicities:
            p = tuple(rng.randint(-20, 20) for _ in range(dim))
            if dim == 3:
                d = _nonzero_vector(rng, 3, 5)
                b1 = _cross(d, _nonzero_vector(rng, 3, 5))
                b2 = _cross(d, b1)
            idx = []
            for _ in range(m):
                if dim == 2:
                    a = _nonzero_vector(rng, 2, 9)
                else:
                    s, t = rng.randint(-4, 4), rng.randint(-4, 4)
                    a = tuple(s * x + t * y for x, y in zip(b1, b2))
                idx.append(len(rows))
                rows.append((-sum(x * y for x, y in zip(a, p)), a))
            groups.append(tuple(idx))
        while len(rows) < n:
            rows.append((rng.randint(-99, 99), _nonzero_vector(rng, dim, 30)))
        arr = PlantedArrangement(dim, tuple(rows), tuple(groups))
        if all(any(r[1]) for r in rows) and is_generic_beyond_groups(arr):
            return arr


def generic_weight(rng: random.Random, n: int) -> list[int]:
    """Positive weights: every partial sum over a flat, and the weight at
    infinity, is nonzero, so the weight is non-resonant."""
    return [rng.randint(1, 9) for _ in range(n)]


def local_resonance_weight(rng: random.Random, n: int, group: tuple[int, ...]) -> list[int]:
    """Nonzero weights summing to 0 on the hyperplanes of one planted flat,
    0 elsewhere."""
    while True:
        vals = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in group[:-1]]
        last = -sum(vals)
        if last != 0:
            break
    weight = [0] * n
    for i, v in zip(group, vals + [last]):
        weight[i] = v
    return weight
