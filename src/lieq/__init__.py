"""Exact-arithmetic workbench for small real Lie algebras.

Everything (brackets, series, derivations, canonical labels) is computed over
the rationals or explicit quadratic extensions; canonical-form witnesses are
rational matrices whose residuals are computed exactly and certified.
"""

import types as _types

from .linalg import (
    MatrixQ,
    PolyQ,
    QuadExt,
    FactorTerm,
    char_poly,
    factor_over_rationals,
    matrix_exp_nilpotent,
    nullspace,
    solve_linear,
    solve_or_invert,
    sqrt_exact,
    symmetric_signature,
)
from .liealg import (
    JacobiViolation,
    LieAlgebra,
    SeriesProfile,
    Subspace,
)
from .derivations import (
    DerivationBasis,
    EquivalenceResult,
    TableMismatch,
    check_bracket_table,
    derivation_basis,
    exp_derivation,
    is_automorphism,
    is_derivation,
    representation_equivalence,
)
from .canonical import (
    CanonicalLabel,
    MembershipError,
    RjcfShape,
    UnsupportedFactorError,
    Witness,
    WitnessPrecisionError,
    J_SP4,
    J_HJ2_1,
    J_HJ2_2,
    RESIDUAL_TOLERANCE,
    eigen_pairing_check,
    group_membership,
    hJ2_canonical_form,
    hJ2_canonical_matrix,
    hJ2_similar,
    lie_membership,
    rjcf_catalog,
    rjcf_shape,
    sp4_canonical_form,
    sp4_canonical_matrix,
    symplectically_similar,
)
from .corpus import (
    Bracket,
    ClaimRecord,
    Constraint,
    ConstraintViolation,
    CorpusEntry,
    CorpusError,
    Fingerprint,
    ParseError,
    PolyExpr,
    VerificationReport,
    fingerprint,
    instantiate,
    load_matrices,
    packaged_corpus,
    packaged_matrices,
    packaged_text,
    parse_corpus,
    reference_nilradical_tables,
    sample_parameters,
    serialize_corpus,
    verify_entries,
    verify_entry,
)

__version__ = "0.1.0"

# the import block above is the one export list: every public name it binds
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
]
