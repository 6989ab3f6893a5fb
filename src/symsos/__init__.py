"""Sum-of-squares decompositions for group-invariant polynomials.

The toolkit computes SOS lower bounds by block-diagonalizing the underlying
semidefinite program along the isotypic decomposition of the monomial space,
or by working directly in the invariant ring through equivariant module
bases.  Numeric optima are rounded to exact rational certificates that replay
the polynomial identity f - lambda = sum_i <S_i, Pi_i> literally.
"""

from .certificates import (Certificate, GeneratorBundle, NoCertificateError,
                           RoundingError, algorithm_one, algorithm_two,
                           round_certificate, sos_lower_bound,
                           verify_certificate)
from .groups import GroupAction, IrrepCatalog, catalog, close_group
from .invariants import InvariantPresentation, presentation, \
    rewrite_in_invariants, expand_invariants
from .molien import dimension_table, hilbert_consistency, molien_series
from .poly import (MINUS_INFINITY, MonomialVector, Polynomial, evaluate,
                   monomial_vector, parse_polynomial, render_polynomial)

__all__ = [
    "Certificate", "GeneratorBundle", "GroupAction", "InvariantPresentation",
    "IrrepCatalog", "MINUS_INFINITY", "MonomialVector", "NoCertificateError",
    "Polynomial", "RoundingError", "algorithm_one", "algorithm_two",
    "catalog", "close_group", "dimension_table", "evaluate",
    "expand_invariants", "hilbert_consistency", "molien_series",
    "monomial_vector", "parse_polynomial", "presentation",
    "render_polynomial", "rewrite_in_invariants", "round_certificate",
    "sos_lower_bound", "verify_certificate",
]

__version__ = "0.1.0"
