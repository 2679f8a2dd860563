"""Fox calculus, presentations, endomorphisms, and certificates."""

import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrmono import (
    AbelianizationNotPreserved,
    CertificateInvalid,
    ChainIdentityFailed,
    Endomorphism,
    FundamentalIdentityFailed,
    ParseError,
    RelatorCertificate,
    RingMatrix,
    Word,
    evaluate_matrix,
    fox_derivative,
    fox_derivatives,
    identity_certificate,
    inner_certificate,
    laurent_ring,
    parse_certificate,
    parse_endomorphism,
    parse_poly,
    parse_presentation,
    parse_word,
    phi1,
    phi2_from_certificate,
    phi2_solve_fallback,
    universal_complex,
    verify_chain_map,
)
from arrmono.fox import _boundaries, format_certificate
from arrmono.rings import Poly, PolyRing
from conftest import DELTA0, DELTA1, PHI1, PHI2, mat, random_certified_endo

L = laurent_ring(4)


# -- words and parsing ---------------------------------------------------------


def test_parse_word_commutator():
    w = parse_word("[g3 g1, g2]", 4)
    assert str(w) == "g3 g1 g2 g1^-1 g3^-1 g2^-1"


def test_word_reduction_and_inverse():
    w = parse_word("g1 g2 g2^-1 g1^-1 g3", 4)
    assert w == Word.gen(4, 3)
    assert (w * w.inverse()).is_identity()


def _power_by_products(word, k):
    """w^k for k >= 0 as k products, each freely reducing the whole word."""
    out = Word.identity(word.ngens)
    for _ in range(k):
        out = out * word
    return out


@pytest.mark.parametrize("factor", ["g1", "g3", "[g1,g2]", "[g1 g3, g2^-1]", "[[g1,g2],g3]"])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 5, -1, -3])
def test_word_powers_match_repeated_products(factor, k):
    base = parse_word(factor, 3)
    want = _power_by_products(base if k >= 0 else base.inverse(), abs(k))
    assert parse_word(f"{factor}^{k}", 3) == want
    assert parse_word(f"{factor}^{k} g2 {factor}^{-k} g2^-1", 3) == \
        want * Word.gen(3, 2) * want.inverse() * Word.gen(3, 2).inverse()


def test_word_powers_parse_in_linear_time():
    start = time.perf_counter()
    w = parse_word("g1^20000 g2 g1^-20000 g2^-1", 2)
    assert time.perf_counter() - start < 1.0
    assert len(w) == 40002


def test_word_powers():
    assert parse_word("g1^3", 2) == Word.from_letters(2, [(1, 1)] * 3)
    assert parse_word("[g1, g2]^-1", 2) == parse_word("g2 g1 g2^-1 g1^-1", 2)


def test_word_letter_limit_counts_the_expansion_before_reduction():
    from arrmono.fox import MAX_LETTERS as m
    # A written 1 counts as a letter and [a, b] as a b a^-1 b^-1, so both
    # words reduce to the identity but stand for m letters.
    assert parse_word(f"1^{m}", 1).is_identity()
    assert parse_word(f"[1^{m // 4}, 1^{m // 4}]", 1).is_identity()
    with pytest.raises(ParseError, match="expands to more than"):
        parse_word(f"1^{m} 1", 1)
    with pytest.raises(ParseError, match="expands to more than"):
        parse_word(f"[1^{m // 4}, 1^{m // 4}] g1", 1)
    for exponent in (m + 1, -m - 1, 10 ** 9, "7" * 5000):
        with pytest.raises(ParseError, match="exponent"):
            parse_word(f"g1^{exponent}", 1)


def test_letter_budget_spans_every_word_of_a_file():
    from arrmono.fox import MAX_LETTERS as m
    # One word at the limit is admitted, and so are words that share it.
    pres = parse_presentation(f"generators 2\ng1^{m - 1} g2\n")
    assert len(pres.relators[0]) == m
    pres = parse_presentation(f"generators 2\ng1^{m // 2}\ng2^{m // 2}\n")
    assert [len(r) for r in pres.relators] == [m // 2, m // 2]
    # One letter more, spread over the words of one file, is refused.
    with pytest.raises(ParseError, match="expands to more than"):
        parse_presentation(f"generators 2\ng1^{m // 2}\ng2^{m // 2} g1\n")
    with pytest.raises(ParseError, match="expands to more than"):
        parse_endomorphism(f"g1^{m // 2} g2\ng2^{m // 2}\n", 2)
    pres = parse_presentation("generators 2\n[g1, g2]\n")
    with pytest.raises(ParseError, match="expands to more than"):
        parse_certificate(f"relator 1\n( g1^{m // 2} , 1 , +1 )\n( g2^{m // 2} g1 , 1 , -1 )\n",
                          pres)


def test_certificate_terms_keep_their_relator_in_any_header_order():
    pres = parse_presentation("generators 2\ng1 g2\ng2 g1\n")
    cert = parse_certificate("relator 2\n( g1 , 2 , +1 )\nrelator 1\n( g2^-1 , 1 , -1 )\n", pres)
    assert cert.terms == (((parse_word("g2^-1", 2), 1, -1),), ((parse_word("g1", 2), 2, 1),))


def _product_by_factors(ngens, factors):
    """The product loop that parse_word, Endomorphism.apply and certificate
    validation ran before: re-reduce the whole prefix at every factor."""
    acc = Word.identity(ngens)
    for f in factors:
        acc = Word.from_letters(ngens, acc.letters + f.letters)
    return acc


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["g1", "g2^-1", "g3^2", "1", "[g1,g2]", "[g2 g3, g1^-1]^-2",
                                 "g1^-1", "g2"]), max_size=12))
def test_parse_word_matches_the_product_loop(tokens):
    want = _product_by_factors(3, [parse_word(t, 3) for t in tokens])
    assert parse_word(" ".join(tokens), 3) == want


def test_long_words_parse_and_apply_in_linear_time():
    start = time.perf_counter()
    w = parse_word("g1 g2 " * 8000, 2)
    image = Endomorphism(2, (parse_word("g2 g1 g2^-1", 2), Word.gen(2, 2))).apply(w)
    assert time.perf_counter() - start < 1.0
    assert len(w) == 16000
    assert image == parse_word("g2 g1 " * 8000, 2)


# -- Fox derivatives ------------------------------------------------------------


@pytest.mark.parametrize("word,gen,expected", [
    ("[g3 g1, g2]", 1, "x3 - x2*x3"),
    ("[g1, g4]", 4, "x1 - 1"),
    ("g1^-1", 1, "-x1^-1"),
])
def test_fox_derivative_examples(word, gen, expected):
    w = parse_word(word, 4)
    assert fox_derivative(w, gen) == parse_poly(expected, L)


def test_fox_derivative_is_linear_in_the_word_length():
    """d/dg1 of g1^k g2 g1^-k g2^-1 is (1 - x2) * sum_{i<k} x1^i."""
    k = 20_000
    w = parse_word(f"g1^{k} g2 g1^-{k} g2^-1", 2)
    start = time.perf_counter()
    d = fox_derivative(w, 1)
    assert time.perf_counter() - start < 1.0
    want = {(i, 0): 1 for i in range(k)}
    want.update({(i, 1): -1 for i in range(k)})
    assert d.ring == laurent_ring(2) and dict(d.sorted_terms()) == want


words = st.lists(st.tuples(st.integers(1, 4), st.sampled_from((1, -1))),
                 max_size=8).map(lambda ls: Word.from_letters(4, ls))


@settings(max_examples=40, deadline=None)
@given(words)
def test_fox_fundamental_identity(w):
    total = L.zero()
    for i in range(1, 5):
        total = total + (L.variable(i) - 1) * fox_derivative(w, i)
    assert total == L.monomial(w.abelianization()) - 1


@settings(max_examples=40, deadline=None)
@given(words, words)
def test_fox_product_rule(u, v):
    for j in range(1, 5):
        lhs = fox_derivative(u * v, j)
        rhs = fox_derivative(u, j) + L.monomial(u.abelianization()) * fox_derivative(v, j)
        assert lhs == rhs


wide_words = st.integers(1, 12).flatmap(lambda n: st.lists(
    st.tuples(st.integers(1, n), st.sampled_from((1, -1))), max_size=24).map(
        lambda ls: Word.from_letters(n, ls)))


def per_generator_scan(w, j):
    """dw/dg_j by the letter loop of one generator, kept as an oracle: g_j
    adds the monomial of the prefix before it, g_j^-1 minus that of the
    prefix through it."""
    ring = laurent_ring(w.ngens)
    prefix = [0] * w.ngens
    total = ring.zero()
    for g, e in w.letters:
        if e == -1:
            prefix[g - 1] -= 1
        if g == j:
            total = total + ring.monomial(prefix, e)
        if e == 1:
            prefix[g - 1] += 1
    return total


@settings(max_examples=80, deadline=None)
@given(wide_words)
def test_one_scan_gives_every_derivative(w):
    """fox_derivatives reads all n derivatives off one pass over the
    letters; each equals the per-generator scan, zero ones left out, and
    fox_derivative is its entry or zero."""
    got = fox_derivatives(w)
    for j in range(1, w.ngens + 1):
        want = per_generator_scan(w, j)
        assert fox_derivative(w, j) == want
        assert got.get(j, laurent_ring(w.ngens).zero()) == want
        assert (j in got) == (not want.is_zero())


def packed_prefix_scan(w):
    """Every nonzero dw/dg_j by packing the prefix's whole exponent vector
    into its key at each letter (PolyRing.key), the loop that the carried
    key replaced, kept as an oracle."""
    ring = laurent_ring(w.ngens)
    prefix = [0] * w.ngens
    terms = {}
    for g, e in w.letters:
        if e == -1:
            prefix[g - 1] -= 1
        t = terms.setdefault(g, {})
        key = ring.key(prefix)
        t[key] = t.get(key, 0) + e
        if not t[key]:
            del t[key]
        if e == 1:
            prefix[g - 1] += 1
    return {g: Poly(ring, t) for g, t in terms.items() if t}


very_wide_words = st.sampled_from((64, 1024)).flatmap(lambda n: st.lists(
    st.tuples(st.integers(1, n), st.sampled_from((1, -1))), max_size=40).map(
        lambda ls: Word.from_letters(n, ls)))


@settings(max_examples=80, deadline=None)
@given(st.one_of(wide_words, very_wide_words))
def test_the_carried_prefix_key_matches_the_packed_one(w):
    assert fox_derivatives(w) == packed_prefix_scan(w)


def test_fox_derivatives_pack_no_key_per_letter(monkeypatch):
    """The prefix's key is carried by key steps, so the PolyRing.key calls
    of fox_derivatives do not grow with the word's length: it counts work,
    not time."""
    calls = []
    key = PolyRing.key
    monkeypatch.setattr(PolyRing, "key", lambda self, exps: calls.append(1) or key(self, exps))
    counts = []
    for length in (1_000, 10_000):
        rng = random.Random(length)
        w = Word.from_letters(64, [(rng.randrange(1, 65), rng.choice((1, -1)))
                                   for _ in range(length)])
        calls.clear()
        assert fox_derivatives(w)
        counts.append(len(calls))
    assert counts[0] == counts[1]


@settings(max_examples=40, deadline=None)
@given(st.lists(words, min_size=4, max_size=4), words)
def test_apply_matches_the_product_loop(images, w):
    want = _product_by_factors(4, [images[g - 1] if e == 1 else images[g - 1].inverse()
                                   for g, e in w.letters])
    assert Endomorphism(4, tuple(images)).apply(w) == want


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(words, st.integers(1, 5), st.sampled_from((1, -1))), max_size=4))
def test_certificate_product_matches_the_product_loop(pencil, terms):
    """Relator 1 gets the random terms, the others their identity terms;
    validation against the identity passes exactly when the product loop
    gives relator 1, and otherwise names the product."""
    pres = pencil["pres"]
    rels = pres.relators
    cert = RelatorCertificate((tuple(terms),) + identity_certificate(pres).terms[1:])
    want = _product_by_factors(4, [
        _product_by_factors(4, [w, rels[k - 1] if e == 1 else rels[k - 1].inverse(),
                                w.inverse()]) for w, k, e in terms])
    if want == rels[0]:
        cert.validate(pres, Endomorphism.identity(4))
    else:
        with pytest.raises(CertificateInvalid, match=re.escape(f"reduces to '{want}'")):
            cert.validate(pres, Endomorphism.identity(4))


# -- universal complex -----------------------------------------------------------


def test_universal_complex_matches_display(pencil):
    cx = pencil["cx"]
    assert cx.boundaries[0] == mat(L, DELTA0)
    assert cx.boundaries[1] == mat(L, DELTA1)
    assert (cx.boundaries[0] * cx.boundaries[1]).is_zero()
    assert cx.ranks == [1, 4, 5]


def test_universal_complex_rejects_bad_relator():
    pres = parse_presentation("generators 2\ng1 g2\n")
    with pytest.raises(FundamentalIdentityFailed):
        universal_complex(pres)


def test_degenerate_presentation_boundaries():
    pres = parse_presentation("generators 1\ng1\n")
    L1 = pres.ring()
    d0, d1 = _boundaries(pres)
    assert d0 == RingMatrix(L1, [[parse_poly("x1-1", L1)]])
    assert d1 == RingMatrix(L1, [[parse_poly("1", L1)]])
    with pytest.raises(FundamentalIdentityFailed):
        universal_complex(pres)


# -- phi1 -------------------------------------------------------------------------


def test_phi1_matches_display(pencil):
    assert pencil["phis"][1] == mat(L, PHI1)


def test_phi1_identity_endomorphism():
    assert phi1(Endomorphism.identity(4)).is_identity()


def test_phi1_satisfies_degree_zero_chain(pencil):
    d0 = pencil["cx"].boundaries[0]
    assert d0 * pencil["phis"][1] == d0


def test_phi1_rejects_bad_abelianization():
    bad = parse_endomorphism("g2\ng1\ng3\ng4\n", 4)
    with pytest.raises(AbelianizationNotPreserved):
        phi1(bad)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 100_000))
def test_phi1_composition_is_multiplicative(pencil, certified_generators, seed):
    rng = random.Random(seed)
    pres = pencil["pres"]
    f, _ = random_certified_endo(rng, pres, certified_generators)
    g, _ = random_certified_endo(rng, pres, certified_generators)
    assert phi1(f.after(g)) == phi1(f) * phi1(g)


# -- phi2 -------------------------------------------------------------------------


def test_phi2_matches_display(pencil):
    assert pencil["phis"][2] == mat(L, PHI2)


def test_phi2_is_identity_at_one(pencil):
    assert evaluate_matrix(pencil["phis"][2], [1, 1, 1, 1]).is_identity()


def test_phi2_identity_certificate(pencil):
    pres, ident = pencil["pres"], Endomorphism.identity(4)
    p2 = phi2_from_certificate(pres, ident, identity_certificate(pres), pencil["cx"], phi1(ident))
    assert p2.is_identity()


def test_certificate_invalid_detected(pencil):
    pres, endo = pencil["pres"], pencil["endo"]
    broken = format_certificate(pencil["cert"]).replace("( 1 , 2 , -1 )", "( 1 , 2 , +1 )")
    cert = parse_certificate(broken, pres)
    with pytest.raises(CertificateInvalid):
        cert.validate(pres, endo)


def test_certificate_wrong_endo_detected(pencil):
    pres = pencil["pres"]
    other = Endomorphism.inner(4, Word.gen(4, 1))
    with pytest.raises(CertificateInvalid):
        pencil["cert"].validate(pres, other)


def test_corrupted_phi2_chain_identity_failure(pencil):
    cx, phis = pencil["cx"], pencil["phis"]
    rows = phis[2].entries
    rows[0][0] = rows[0][0] + L.one()
    corrupt = RingMatrix(L, rows)
    with pytest.raises(ChainIdentityFailed) as err:
        verify_chain_map(cx.boundaries, {1: phis[1], 2: corrupt})
    assert err.value.entry is not None


def test_phi2_reuses_the_callers_complex_and_phi1(pencil, monkeypatch):
    """phi2_from_certificate builds neither the complex nor Phi1 again, and
    its chain check runs on the matrices it was given."""
    import arrmono.fox as fox

    def unexpected(*args):
        raise AssertionError("built a second time")

    monkeypatch.setattr(fox, "_boundaries", unexpected)
    monkeypatch.setattr(fox, "phi1", unexpected)
    pres, endo, cert, cx, phis = (pencil[k] for k in ("pres", "endo", "cert", "cx", "phis"))
    assert phi2_from_certificate(pres, endo, cert, cx, phis[1]) == phis[2]
    rows = phis[1].entries
    rows[0][0] = rows[0][0] + L.one()
    corrupt = RingMatrix(L, rows)
    with pytest.raises(ChainIdentityFailed):
        phi2_from_certificate(pres, endo, cert, cx, corrupt)


def entry_by_entry_phi2(pres, cert):
    """Phi2 by adding each certificate term's monomial to its entry with
    Poly.__add__, which copies the entry each time: the loop that the term
    dicts replaced, kept as an oracle."""
    ring = pres.ring()
    rows = [{} for _ in range(pres.nrels)]
    zero = ring.zero()
    for l, terms in enumerate(cert.terms):
        for w, k, e in terms:
            rows[k - 1][l] = rows[k - 1].get(l, zero) + ring.monomial(w.abelianization(), e)
    return RingMatrix.from_rows(ring, rows, pres.nrels)


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_phi2_matches_the_entry_by_entry_loop(pencil, rng):
    """Cancelling pairs (w, k, +-1), (w, k, -+1) inserted anywhere in the
    pencil4 certificate leave its product, and Phi2, as they are, while
    its entries pass through the pairs' monomials."""
    pres, endo, cx, phis = (pencil[k] for k in ("pres", "endo", "cx", "phis"))
    padded = []
    for terms in pencil["cert"].terms:
        terms = list(terms)
        for _ in range(rng.randrange(12)):
            w = Word.from_letters(4, [(rng.randrange(1, 5), rng.choice((1, -1)))
                                      for _ in range(rng.randrange(4))])
            k, e, at = rng.randrange(1, pres.nrels + 1), rng.choice((1, -1)), rng.randrange(
                len(terms) + 1)
            terms[at:at] = [(w, k, e), (w, k, -e)]
        padded.append(tuple(terms))
    cert = RelatorCertificate(tuple(padded))
    got = phi2_from_certificate(pres, endo, cert, cx, phis[1])
    assert got == entry_by_entry_phi2(pres, cert) == phis[2]


def test_phi2_builds_each_entry_once(monkeypatch):
    """On one relator [g1, g2] of 16 generators, the identity endomorphism
    and T two-letter conjugators, then the same in reverse with sign -1,
    then (1, 1, +1), the Poly objects that phi2_from_certificate builds do
    not grow with T: each entry collects its terms in one term dict and
    becomes a Poly once.  It counts work, not time."""
    from arrmono.fox import Presentation
    n = 16
    pres = Presentation(n, (Word.gen(n, 1).commutator(Word.gen(n, 2)),))
    endo = Endomorphism.identity(n)
    cx, p1 = universal_complex(pres), phi1(endo)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    built = []
    init = Poly.__init__
    monkeypatch.setattr(Poly, "__init__",
                        lambda self, ring, terms: built.append(1) or init(self, ring, terms))
    counts = []
    for t in (50, 200):
        conjugators = [Word.from_letters(n, [(i, 1), (j, 1)]) for i, j in pairs[:t]]
        cert = RelatorCertificate(((*((w, 1, 1) for w in conjugators),
                                    *((w, 1, -1) for w in reversed(conjugators)),
                                    (Word.identity(n), 1, 1)),))
        built.clear()
        assert phi2_from_certificate(pres, endo, cert, cx, p1).is_identity()
        counts.append(len(built))
    assert counts[0] == counts[1]


def test_phi2_fallback_solver(pencil):
    cx, phis = pencil["cx"], pencil["phis"]
    res = phi2_solve_fallback(cx.boundaries[1], phis[1])
    assert res.kernel_dimension == 2
    d1 = cx.boundaries[1]
    for vec in res.kernel:
        assert (d1 * RingMatrix(L, [[v] for v in vec])).is_zero()
    # The displayed matrix solves the same system, so the difference of
    # den * Phi2 and the particular numerator lies columnwise in the kernel.
    from arrmono import generic_rank
    diff = res.numerator - phis[2].map_entries(lambda e: e * res.denominator)
    kernel_cols = RingMatrix(L, [[res.kernel[0][i], res.kernel[1][i]] for i in range(5)])
    for j in range(5):
        aug = RingMatrix(L, [[kernel_cols.entries[i][0], kernel_cols.entries[i][1],
                              diff.entries[i][j]] for i in range(5)])
        assert generic_rank(aug) == 2


def test_fallback_on_relator_free_presentation():
    pres = parse_presentation("generators 2\n[g1, g2]\n")
    cx = universal_complex(pres)
    p1 = phi1(Endomorphism.identity(2))
    res = phi2_solve_fallback(cx.boundaries[1], p1)
    assert res.numerator.shape() == (1, 1)


# -- certified random endomorphisms -------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 100_000))
def test_random_certified_endos_satisfy_chain_identities(pencil, certified_generators, seed):
    rng = random.Random(seed)
    pres, cx = pencil["pres"], pencil["cx"]
    endo, cert = random_certified_endo(rng, pres, certified_generators)
    p1 = phi1(endo)
    p2 = phi2_from_certificate(pres, endo, cert, cx, p1)  # raises on chain failure
    assert evaluate_matrix(p1, [1, 1, 1, 1]).is_identity()
    assert evaluate_matrix(p2, [1, 1, 1, 1]).is_identity()
    assert cx.boundaries[0] * p1 == cx.boundaries[0]


def test_inner_certificate_validates(pencil):
    pres = pencil["pres"]
    g = parse_word("g2 g4^-1", 4)
    endo = Endomorphism.inner(4, g)
    cert = inner_certificate(pres, g)
    cert.validate(pres, endo)
    p2 = phi2_from_certificate(pres, endo, cert, pencil["cx"], phi1(endo))
    assert evaluate_matrix(p2, [1, 1, 1, 1]).is_identity()


def test_certificate_format_round_trip(pencil):
    pres = pencil["pres"]
    text = format_certificate(pencil["cert"])
    assert parse_certificate(text, pres).terms == pencil["cert"].terms


_LETTERS = st.tuples(st.integers(1, 4), st.sampled_from((1, -1)))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(_LETTERS, max_size=3), min_size=1, max_size=3))
def test_endomorphism_lines_round_trip_on_composed_inner_automorphisms(conjugators):
    """Each conjugating word may be empty or reduce to the identity."""
    endo = Endomorphism.identity(4)
    for letters in conjugators:
        endo = Endomorphism.inner(4, Word.from_letters(4, letters)).after(endo)
    text = "".join(f"{w}\n" for w in endo.images)
    assert parse_endomorphism(text, 4) == endo


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_certificate_round_trip_on_composed_certificates(pencil, certified_generators, rng):
    pres = pencil["pres"]
    _, cert = random_certified_endo(rng, pres, certified_generators)
    assert parse_certificate(format_certificate(cert), pres) == cert


def test_validate_inverts_each_generator_image_once(monkeypatch):
    """Word.inverse calls during RelatorCertificate.validate of an inner
    automorphism on R copies of [g1, g2] grow linearly in R, with a slope
    that does not depend on the generator count: the inverse generator
    images are built once per endomorphism, not once per relator.  It
    counts work, not time."""
    from arrmono.fox import Presentation
    calls = []
    inverse = Word.inverse

    def validated(ngens, nrels):
        commutator = Word.gen(ngens, 1).commutator(Word.gen(ngens, 2))
        pres = Presentation(ngens, (commutator,) * nrels)
        by = Word.from_letters(ngens, [(ngens, 1), (1, -1)])
        endo = Endomorphism.inner(ngens, by)
        cert = inner_certificate(pres, by)
        calls.clear()
        cert.validate(pres, endo)
        return len(calls)

    monkeypatch.setattr(Word, "inverse", lambda self: calls.append(1) or inverse(self))
    slopes = set()
    for ngens in (4, 64):
        counts = [validated(ngens, nrels) for nrels in (50, 100, 200)]
        assert counts[2] - counts[1] == 2 * (counts[1] - counts[0])
        slopes.add((counts[1] - counts[0]) // 50)
    assert len(slopes) == 1
