#!/usr/bin/env python3
"""Re-derive the shipped relator certificate for the strand-1-2 full twist
from commutator identities, validate it by free reduction, and optionally
rewrite the fixture file.

The derivation uses two facts, both verified here by free reduction:

  * for a relator [w, d] with d fixed by the endomorphism, expanding the
    image letter by letter gives
        [u1...um, d] = prod_{i=m..1} p [u_i, d] p^{-1}
    with p the prefix before u_i (through u_i for inverse letters);

  * writing B = g1 g2, the twist fixes B and the relator [B, g3] gives
    g3 B g3^{-1} = r2^{-1} B, which moves the image of relator 1 into the
    product (g3 B g3^{-1}) r1 (...)^{-1} * r2^{-1} * (B g2 B^{-1}) r2 (...)^{-1}.

Usage:  python scripts/make_certificate.py [--write]
"""

import argparse
from pathlib import Path

from arrmono import (
    RelatorCertificate,
    Word,
    load_endomorphism,
    load_presentation,
    phi1,
    phi2_from_certificate,
    universal_complex,
)
from arrmono.fox import format_certificate

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def commutator_expansion(image: Word, fixed_gen: int, relator_of: dict[int, int]):
    """Certificate terms for the image [image, g_fixed] of a commutator
    relator, one term per letter of the image, in product order."""
    ngens = image.ngens
    terms = []
    prefix_words = [Word.identity(ngens)]
    for g, e in image.letters:
        prefix_words.append(prefix_words[-1] * Word.from_letters(ngens, [(g, e)]))
    for i in range(len(image.letters) - 1, -1, -1):
        g, e = image.letters[i]
        if g == fixed_gen:
            continue  # [d, d] contributes nothing
        if e == 1:
            terms.append((prefix_words[i], relator_of[g], 1))
        else:
            terms.append((prefix_words[i + 1], relator_of[g], -1))
    return tuple(terms)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--write", action="store_true",
                        help="rewrite fixtures/pencil4_twist12.cert")
    args = parser.parse_args()

    pres = load_presentation(FIXTURES / "pencil4.pres")
    endo = load_endomorphism(FIXTURES / "pencil4_twist12.endo", pres.ngens)
    n = pres.ngens
    one = Word.identity(n)
    g = lambda j: Word.gen(n, j)
    b = g(1) * g(2)  # the twisting word; the twist fixes it

    # relator 1: [g3 g1, g2].  With w1 = g3 B g3^{-1} and Y = B g2 B^{-1}:
    #   image = w1 r1 w1^{-1} * r2^{-1} * Y r2 Y^{-1}
    w1 = g(3) * b * g(3).inverse()
    y = b * g(2) * b.inverse()
    rel1 = ((w1, 1, 1), (one, 2, -1), (y, 2, 1))

    # relator 2: the twist fixes both B = g1 g2 and g3, hence fixes [B, g3].
    rel2 = ((one, 2, 1),)

    # relators 3..5: commutators with the fixed last generator.
    relator_of = {1: 3, 2: 4, 3: 5}
    rel3 = commutator_expansion(endo.apply(g(1)), 4, relator_of)
    rel4 = commutator_expansion(endo.apply(g(2)), 4, relator_of)
    rel5 = commutator_expansion(endo.apply(g(3)), 4, relator_of)

    cert = RelatorCertificate((rel1, rel2, rel3, rel4, rel5))
    cert.validate(pres, endo)  # free-reduction proof of every identity
    print("derived certificate validates; induced degree-2 matrix:")
    p2 = phi2_from_certificate(pres, endo, cert, universal_complex(pres), phi1(endo))
    for i in range(p2.rows):
        print("   [ " + "  ".join(str(e) for e in p2.row(i)) + " ]")
    text = format_certificate(cert)
    print()
    print(text)
    if args.write:
        target = FIXTURES / "pencil4_twist12.cert"
        header = ("# Relator certificate for the twist endomorphism: each image of a relator\n"
                  "# written as an exact product of conjugated relators (validated by free\n"
                  "# reduction at load time).\n")
        target.write_text(header + text, encoding="utf-8")
        print(f"wrote {target}")


if __name__ == "__main__":
    main()
