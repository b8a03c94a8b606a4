"""Exact rational SOS certificates of polynomial non-negativity at the real
roots of another polynomial."""

from .certificate import Certificate, ParseError, Verdict, deserialize, serialize, verify
from .exactify import (
    GramLift,
    NotPD,
    PrecisionExhausted,
    SharedFactor,
    SOSDecomposition,
    certify_strict_squarefree,
    check_positive_definite,
    delta_bound,
    gram_of_poly,
    gram_to_sos,
    project,
    round_to_digits,
)
from .factorq import IrreducibleFactorization, factor_over_Q
from .lifting import (
    HypothesisViolated,
    NotNonnegative,
    StrictReduction,
    certify_nonnegative,
    crt_combine_sos,
    hensel_lift_sos,
    reduce_nonneg_to_strict,
)
from .numeric import build_interior_gram, find_roots, lagrange_basis
from .ratpoly import (
    NEG_INF,
    Poly,
    Rational,
    extended_gcd,
    gcd,
    norm2_squared,
    squarefree_decompose,
    sturm_real_root_count,
    weighted_square_sum,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "GramLift",
    "HypothesisViolated",
    "IrreducibleFactorization",
    "NEG_INF",
    "NotNonnegative",
    "NotPD",
    "ParseError",
    "Poly",
    "PrecisionExhausted",
    "Rational",
    "SOSDecomposition",
    "SharedFactor",
    "StrictReduction",
    "Verdict",
    "build_interior_gram",
    "certify_nonnegative",
    "certify_strict_squarefree",
    "check_positive_definite",
    "crt_combine_sos",
    "delta_bound",
    "deserialize",
    "extended_gcd",
    "factor_over_Q",
    "find_roots",
    "gcd",
    "gram_of_poly",
    "gram_to_sos",
    "hensel_lift_sos",
    "lagrange_basis",
    "norm2_squared",
    "project",
    "reduce_nonneg_to_strict",
    "round_to_digits",
    "serialize",
    "squarefree_decompose",
    "sturm_real_root_count",
    "verify",
    "weighted_square_sum",
    "__version__",
]
