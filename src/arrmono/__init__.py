"""Exact monodromy and Gauss-Manin connection matrices for hyperplane
arrangement complexes: nbc bases, the universal cochain complex from a group
presentation via Fox calculus, the polynomial-coefficient analogue from the
arrangement combinatorics, certified action matrices of moduli loops, their
formal connections, and certified eigenvalue factorizations.
"""

__version__ = "0.1.0"

from .arrangement import (
    Arrangement,
    DependencyData,
    Hyperplane,
    NbcBasis,
    compute_dependencies,
    load_arrangement,
    nbc_basis,
    parse_arrangement,
)
from .connection import (
    EigenFactor,
    EigenReport,
    LocusSpec,
    ProjectionData,
    classify_weights,
    cohomology_action,
    eigen_linear_forms,
    eigen_monomials,
    formal_connection,
    induced_map,
    load_projection,
    parse_projection,
    spectra_correspond,
    verify_exp_relation,
    verify_projection,
)
from .errors import (
    AbelianizationNotPreserved,
    ArrmonoError,
    CertificateInvalid,
    ChainIdentityFailed,
    FactorizationFailed,
    FundamentalIdentityFailed,
    NoSolution,
    NonzeroConstantTerm,
    NotAComplex,
    NotIdentityAtOne,
    NotInRing,
    ParseError,
    ShapeMismatch,
    VerificationFailed,
    ZeroAtPole,
)
from .fox import (
    Endomorphism,
    Presentation,
    RelatorCertificate,
    Word,
    compose_certificates,
    fox_derivative,
    identity_certificate,
    inner_certificate,
    load_certificate,
    load_endomorphism,
    load_presentation,
    parse_certificate,
    parse_endomorphism,
    parse_presentation,
    parse_word,
    phi1,
    phi2_from_certificate,
    phi2_solve_fallback,
    universal_complex,
)
from .linalg import (
    QQ,
    CharPoly,
    RingComplex,
    RingMatrix,
    SolveResult,
    char_poly,
    evaluate_matrix,
    generic_rank,
    linearize_matrix,
    mat_exp_truncated,
    rational_rank,
    series_matrix,
    solve_right,
    symbolic_det,
    verify_chain_map,
)
from .oscomplex import aomoto_boundary
from .rings import (
    Poly,
    PolyRing,
    exp_jet,
    laurent_ring,
    parse_point,
    parse_poly,
    poly_ring,
)
