"""Shared fixtures: the pencil4 example set (the golden configuration every
displayed matrix is pinned against) and generators for randomized suites."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings as hyp_settings

hyp_settings.register_profile("ci", derandomize=True, deadline=None)
hyp_settings.load_profile("ci")

from arrmono import (
    Arrangement,
    Endomorphism,
    Hyperplane,
    RingMatrix,
    Word,
    aomoto_boundary,
    compose_certificates,
    compute_dependencies,
    formal_connection,
    inner_certificate,
    laurent_ring,
    load_arrangement,
    load_certificate,
    load_endomorphism,
    load_presentation,
    load_projection,
    nbc_basis,
    parse_certificate,
    parse_endomorphism,
    parse_poly,
    phi1,
    phi2_from_certificate,
    poly_ring,
    universal_complex,
)
from arrmono.connection import linear_coefficients
from arrmono.linalg import _forward
from arrmono.oscomplex import wedge_sort
from arrmono.rings import canonical

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def mat(ring, rows):
    """Matrix from rows of expression strings."""
    return RingMatrix(ring, [[parse_poly(e, ring) for e in row] for row in rows])


def rebuild_from_linear_coefficients(m):
    """sum_j y_j * M_j over the integer matrices M_j that
    linear_coefficients reads off m, each coefficient checked to be a
    nonzero int.  Equal to m exactly when every entry of m is an integral
    linear form; linear_coefficients raises ValueError on any other."""
    ring = m.ring
    rows = [[ring.zero()] * m.cols for _ in range(m.rows)]
    for j, part in enumerate(linear_coefficients(m), start=1):
        for i, row in enumerate(part):
            for k, c in row.items():
                assert type(c) is int and c
                rows[i][k] = rows[i][k] + ring.variable(j).scale(c)
    return RingMatrix.from_rows(ring, [dict(enumerate(row)) for row in rows], m.cols)


@pytest.fixture(scope="session")
def xring():
    return laurent_ring(4)


@pytest.fixture(scope="session")
def yring():
    return poly_ring(4)


@pytest.fixture(scope="session")
def pencil():
    """Everything about the pencil4 fixture, computed once."""
    arr = load_arrangement(FIXTURES / "pencil4.arr")
    dep = compute_dependencies(arr)
    basis = nbc_basis(arr, dep)
    aomoto = aomoto_boundary(arr, dep, basis)
    pres = load_presentation(FIXTURES / "pencil4.pres")
    endo = load_endomorphism(FIXTURES / "pencil4_twist12.endo", pres.ngens)
    cert = load_certificate(FIXTURES / "pencil4_twist12.cert", pres)
    cx = universal_complex(pres)
    xr = pres.ring()
    yr = poly_ring(pres.ngens)
    p1 = phi1(endo)
    phis = {
        0: RingMatrix.identity(xr, 1),
        1: p1,
        2: phi2_from_certificate(pres, endo, cert, cx, p1),
    }
    fc = formal_connection(phis)
    return {
        "arr": arr, "dep": dep, "basis": basis, "aomoto": aomoto,
        "pres": pres, "endo": endo, "cert": cert, "cx": cx,
        "xring": xr, "yring": yr, "phis": phis, "fc": fc,
        "proj_nonres": load_projection(FIXTURES / "pencil4_proj_nonres.txt"),
        "proj_res": load_projection(FIXTURES / "pencil4_proj_res.txt"),
    }


# -- displayed matrices, frozen --------------------------------------------------

DELTA0 = [["x1-1", "x2-1", "x3-1", "x4-1"]]
DELTA1 = [
    ["x3-x2*x3", "1-x3", "1-x4", "0", "0"],
    ["x1*x3-1", "x1-x1*x3", "0", "1-x4", "0"],
    ["1-x2", "x1*x2-1", "0", "0", "1-x4"],
    ["0", "0", "x1-1", "x2-1", "x3-1"],
]
MU0 = [["y1", "y2", "y3", "y4"]]
MU1 = [
    ["-y2", "-y3", "-y4", "0", "0"],
    ["y1+y3", "-y3", "0", "-y4", "0"],
    ["-y2", "y1+y2", "0", "0", "-y4"],
    ["0", "0", "y1", "y2", "y3"],
]
PHI1 = [
    ["1-x1+x1*x2", "1-x2", "0", "0"],
    ["x1-x1^2", "x1", "0", "0"],
    ["0", "0", "1", "0"],
    ["0", "0", "0", "1"],
]
PHI2 = [
    ["x1*x2", "0", "0", "0", "0"],
    ["x2-1", "1", "0", "0", "0"],
    ["0", "0", "1-x1+x1*x2", "1-x2", "0"],
    ["0", "0", "x1-x1^2", "x1", "0"],
    ["0", "0", "0", "0", "1"],
]
OMEGA1 = [
    ["y2", "-y2", "0", "0"],
    ["-y1", "y1", "0", "0"],
    ["0", "0", "0", "0"],
    ["0", "0", "0", "0"],
]
OMEGA2 = [
    ["y1+y2", "0", "0", "0", "0"],
    ["y2", "0", "0", "0", "0"],
    ["0", "0", "y2", "-y2", "0"],
    ["0", "0", "-y1", "y1", "0"],
    ["0", "0", "0", "0", "0"],
]
PHIBAR_NONRES = [["x1*x2", "0"], ["x2-1", "1"]]
OMEGABAR_NONRES = [["y1+y2", "0"], ["y2", "0"]]
PHIBAR_RES = [["x1*x2", "0", "0"], ["0", "x1*x2", "1-x3"], ["0", "0", "1"]]
OMEGABAR_RES = [["y1+y2", "0", "0"], ["0", "y1+y2", "-y3"], ["0", "0", "0"]]


# -- inverse twist: images and certificate, used to enrich random suites ----------

TWIST_INV_ENDO = """g2^-1 g1 g2
g2^-1 g1^-1 g2 g1 g2
g3
g4
"""

TWIST_INV_CERT = """relator 1
( g3 g2^-1 g1^-1 g3^-1 , 1 , +1 )
( g2^-1 g1^-1 , 2 , +1 )
( g2^-1 g1^-1 g2 , 2 , -1 )
relator 2
( 1 , 2 , +1 )
relator 3
( g2^-1 g1 , 4 , +1 )
( g2^-1 , 3 , +1 )
( g2^-1 , 4 , -1 )
relator 4
( g2^-1 g1^-1 g2 g1 , 4 , +1 )
( g2^-1 g1^-1 g2 , 3 , +1 )
( g2^-1 g1^-1 , 4 , +1 )
( g2^-1 g1^-1 , 3 , -1 )
( g2^-1 , 4 , -1 )
relator 5
( 1 , 5 , +1 )
"""


@pytest.fixture(scope="session")
def certified_generators(pencil):
    """Certified endomorphism pool: the twist, its inverse, and inners."""
    pres = pencil["pres"]
    endo_inv = parse_endomorphism(TWIST_INV_ENDO, 4)
    cert_inv = parse_certificate(TWIST_INV_CERT, pres)
    cert_inv.validate(pres, endo_inv)
    return [(pencil["endo"], pencil["cert"]), (endo_inv, cert_inv)]


def random_word(rng: random.Random, ngens: int, max_len: int = 3) -> Word:
    letters = []
    for _ in range(rng.randint(1, max_len)):
        letters.append((rng.randint(1, ngens), rng.choice((1, -1))))
    return Word.from_letters(ngens, letters)


def random_certified_endo(rng: random.Random, pres, generators):
    """Random composition of certified twists and inner automorphisms."""
    from arrmono import identity_certificate

    endo, cert = Endomorphism.identity(pres.ngens), identity_certificate(pres)
    for _ in range(rng.randint(1, 2)):
        kind = rng.random()
        if kind < 0.6:
            nxt, nxt_cert = generators[rng.randrange(len(generators))]
        else:
            g = random_word(rng, pres.ngens, max_len=3)
            nxt = Endomorphism.inner(pres.ngens, g)
            nxt_cert = inner_certificate(pres, g)
        endo, cert = compose_certificates(pres, nxt, nxt_cert, endo, cert)
    return endo, cert


def random_arrangement(rng: random.Random, dim: int = 2, max_n: int = 6) -> Arrangement:
    """Random small rational arrangement containing dim independent normals."""
    while True:
        n = rng.randint(3, max_n)
        hps = []
        for _ in range(n):
            normal = tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim))
            if all(c == 0 for c in normal):
                normal = (Fraction(1),) + tuple(Fraction(0) for _ in range(dim - 1))
            offset = Fraction(rng.randint(-2, 2))
            hps.append(Hyperplane(normal=normal, offset=offset))
        try:
            return Arrangement(dim=dim, hyperplanes=tuple(hps))
        except ValueError:
            continue


def _rank(rows) -> int:
    """Rank over Q by the sparse forward elimination (_forward), a kernel
    apart from the Bareiss elimination the package uses for ranks."""
    rows = [{j: canonical(v) for j, v in enumerate(r) if v} for r in rows]
    return len(_forward(rows, max((max(r) + 1 for r in rows if r), default=0)))


def has_nonempty_intersection(arr, subset) -> bool:
    """The hyperplanes indexed by subset (0-based) share a point iff the
    linear system normal . u = -offset is consistent."""
    hps = [arr.hyperplanes[i] for i in subset]
    return (_rank([h.normal for h in hps])
            == _rank([[*h.normal, -h.offset] for h in hps]))


def is_independent(arr, subset) -> bool:
    return _rank([arr.hyperplanes[i].normal for i in subset]) == len(subset)


def is_nbc(dep, subset) -> bool:
    sset = set(subset)
    if any(set(e) <= sset for e in dep.empty_min):
        return False
    return not any(set(b) <= sset for b in dep.broken_circuits)


def scanning_nbc_basis(arr, dep):
    """nbc sets degree by degree, each extension s + (j,) tested against
    every forbidden set whose largest element is j: the scan that the
    prefix tree of forbidden sets replaced, kept as an oracle."""
    forbidden = [[] for _ in range(arr.n)]
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
        by_degree.append(tuple(sets))
    return tuple(by_degree)


class ScanningRewriter:
    """The nbc rewriting with both questions answered by a scan of the
    whole family: any minimal empty set inside S, else the last broken
    circuit inside S in sorted order.  Kept as an oracle for
    oscomplex.NbcRewriter."""

    def __init__(self, dep):
        self.dep = dep
        self.cache = {}
        self.empty_min = [frozenset(e) for e in dep.empty_min]
        self.broken = [(frozenset(b), b) for b in sorted(dep.broken_circuits)]

    def rewrite(self, subset):
        if subset in self.cache:
            return self.cache[subset]
        sset = set(subset)
        if any(e <= sset for e in self.empty_min):
            self.cache[subset] = {}
            return {}
        inside = next(((bset, b) for bset, b in reversed(self.broken) if bset <= sset), None)
        if inside is None:
            self.cache[subset] = {subset: 1}
            return {subset: 1}
        bset, broken = inside
        circuit = self.dep.circuit_of_broken[broken]
        rest = tuple(i for i in subset if i not in bset)
        outer = wedge_sort(broken + rest)[1]
        result = {}
        for i in range(1, len(circuit)):
            term = wedge_sort(tuple(c for k, c in enumerate(circuit) if k != i) + rest)
            if term is None:
                continue
            sorted_set, inner = term
            coeff = outer * inner * (-1) ** (i + 1)
            for k, v in self.rewrite(sorted_set).items():
                total = result.get(k, 0) + coeff * v
                if total:
                    result[k] = total
                else:
                    result.pop(k, None)
        self.cache[subset] = result
        return result


def dependencies_oracle(arr):
    """(circuits, empty_min) by the rank definition: every subset of size
    2..dim+1 and each of its drop-one faces eliminated anew."""
    from itertools import combinations

    circuits, empty_min = [], []
    for size in range(2, arr.dim + 2):
        for subset in combinations(range(arr.n), size):
            faces = [subset[:k] + subset[k + 1:] for k in range(size)]
            if has_nonempty_intersection(arr, subset):
                if (not is_independent(arr, subset)
                        and all(is_independent(arr, f) for f in faces)):
                    circuits.append(subset)
            elif all(has_nonempty_intersection(arr, f) for f in faces):
                empty_min.append(subset)
    return tuple(sorted(circuits)), tuple(sorted(empty_min))


def betti_oracle(arr):
    """Independent count of the quotient-algebra dimensions: in each degree,
    the rank of the ideal component spanned by boundary expansions of all
    dependent sets with common points and by all empty-intersection sets,
    inside the full exterior degree.  Uses none of the nbc machinery."""
    from itertools import combinations

    n = arr.n
    out = []
    for q in range(arr.dim + 1):
        basis = list(combinations(range(n), q))
        rows = []

        def add_row(coeffs):
            rows.append([Fraction(coeffs.get(s, 0)) for s in basis])

        for size in range(1, q + 1):
            for s in combinations(range(n), size):
                if not has_nonempty_intersection(arr, s):
                    for t in combinations([i for i in range(n) if i not in s], q - size):
                        merged, sign = wedge_sort(s + t)
                        add_row({merged: sign})
        for size in range(2, q + 2):
            for s in combinations(range(n), size):
                if has_nonempty_intersection(arr, s) and not is_independent(arr, s):
                    for t in combinations([i for i in range(n) if i not in s], q - size + 1):
                        coeffs = {}
                        for k in range(size):
                            sub = tuple(v for m, v in enumerate(s) if m != k)
                            merged_sign = wedge_sort(sub + t)
                            if merged_sign is None:
                                continue
                            merged, sign = merged_sign
                            coeffs[merged] = coeffs.get(merged, 0) + (-1) ** k * sign
                        if any(coeffs.values()):
                            add_row(coeffs)
        out.append(len(basis) - _rank(rows))
    return out
