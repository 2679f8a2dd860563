"""Exception types shared across the package.

Every error that a caller is expected to catch has its own class; generic
misuse (wrong argument types, malformed ring mixes) raises ValueError.
"""


class ArrmonoError(Exception):
    """Base class for all package-specific errors."""


class ParseError(ArrmonoError):
    """Input text (file or flag) could not be parsed."""


class ExponentOverflow(ParseError):
    """An exponent would leave the packed field of its variable (rings)."""


class ShapeMismatch(ArrmonoError):
    """Matrix shapes or rings are not conformable."""


class ZeroAtPole(ArrmonoError):
    """A negative exponent was evaluated at a zero coordinate."""


class NoSolution(ArrmonoError):
    """A linear system A*X = B is inconsistent."""


class NotInRing(ArrmonoError):
    """A fraction-field solution could not be cleared to ring entries."""


class NonzeroConstantTerm(ArrmonoError):
    """Matrix exponential input must have entries with zero constant term."""


class NotAComplex(ArrmonoError):
    """Boundary maps do not compose to zero."""


class FundamentalIdentityFailed(ArrmonoError):
    """Sum of (x_i - 1) * Fox derivatives did not vanish; malformed relator."""


class AbelianizationNotPreserved(ArrmonoError):
    """An endomorphism does not fix the abelianization generator-wise."""


class CertificateInvalid(ArrmonoError):
    """A relator certificate product does not reduce to the endomorphism image."""


class ChainIdentityFailed(ArrmonoError):
    """A chain-map identity failed; carries the first offending entry."""

    def __init__(self, message: str, entry: tuple[int, int] | None = None):
        super().__init__(message)
        self.entry = entry


class NotIdentityAtOne(ArrmonoError):
    """A representation matrix does not specialize to the identity at x = 1."""


class FactorizationFailed(ArrmonoError):
    """Characteristic polynomial did not split into the certified factors."""


class VerificationFailed(ArrmonoError):
    """An identity in the verification suite failed; carries its name."""

    def __init__(self, name: str, detail: str = ""):
        super().__init__(f"{name}: {detail}" if detail else name)
        self.name = name
        self.detail = detail
