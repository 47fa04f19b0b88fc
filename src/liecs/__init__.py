"""Exact-arithmetic toolkit for complex structures on rational Lie algebras.

Core objects: :class:`~liecs.algebra.LieAlgebra` (rational structure
constants), :class:`~liecs.linalg.Subspace` (rational row spaces
in integer canonical form), :class:`~liecs.complex_structure.ComplexStructure` (J with
J² = -I).  On top of these sit the classical and J-invariant central
series, the nilpotent step of a complex structure, stratifications, a
step-2 classification, and a theorem suite that re-checks the known
implications on concrete inputs.
"""

__version__ = "0.1.0"

from .algebra import (
    JacobiViolation,
    LieAlgebra,
    SubspaceChain,
    ValidationReport,
    ascending_central_series,
    bracket_subspaces,
    center,
    change_of_basis,
    descending_central_series,
    nilpotency_step,
    validate,
)
from .catalog import CatalogEntry, builtin, catalog_names, standard_block_j
from .complex_structure import (
    ComplexStructure,
    IntegrabilityReport,
    SpecialFlags,
    classify_special,
    is_integrable,
    j_invariant_inner_product,
    largest_j_invariant_subspace,
    nijenhuis,
    validate_almost_complex,
)
from .errors import AlgebraFileError, HypothesisNotMet, InconsistencyError, LiecsError
from .j_series import (
    SeriesReport,
    center_dim_bounds,
    containment_audit,
    j_ascending_series,
    j_descending_series,
    nilpotent_step,
    p_series,
)
from .linalg import (
    Matrix,
    Subspace,
    contains,
    format_rational,
    image_subspace,
    orthogonal_complement,
    parse_rational,
    rref,
    subspace_intersection,
    subspace_sum,
)
from .report import FullReport, build_report
from .search import find_complex_structure
from .serialization import (
    ParsedInput,
    parse_algebra_file,
    serialize_algebra,
    serialize_report,
)
from .stratification import (
    Step2Classification,
    Stratification,
    StratificationVerdict,
    blocks_stratification_by_dims,
    build_step2_j_stratification,
    classify_step2,
    is_strata_preserving,
    stratification_obstructions,
    theorem_suite,
    verify_stratification,
)
from .verdicts import FAIL, HYPOTHESIS_NOT_MET, PASS, Verdict

__all__ = [
    "AlgebraFileError",
    "CatalogEntry",
    "ComplexStructure",
    "FAIL",
    "FullReport",
    "HYPOTHESIS_NOT_MET",
    "HypothesisNotMet",
    "InconsistencyError",
    "IntegrabilityReport",
    "JacobiViolation",
    "LieAlgebra",
    "LiecsError",
    "Matrix",
    "PASS",
    "ParsedInput",
    "SeriesReport",
    "SpecialFlags",
    "Step2Classification",
    "Stratification",
    "StratificationVerdict",
    "Subspace",
    "SubspaceChain",
    "ValidationReport",
    "Verdict",
    "ascending_central_series",
    "blocks_stratification_by_dims",
    "bracket_subspaces",
    "build_report",
    "build_step2_j_stratification",
    "builtin",
    "catalog_names",
    "center",
    "center_dim_bounds",
    "change_of_basis",
    "classify_special",
    "classify_step2",
    "containment_audit",
    "contains",
    "descending_central_series",
    "find_complex_structure",
    "format_rational",
    "image_subspace",
    "is_integrable",
    "is_strata_preserving",
    "j_ascending_series",
    "j_descending_series",
    "j_invariant_inner_product",
    "largest_j_invariant_subspace",
    "nijenhuis",
    "nilpotency_step",
    "nilpotent_step",
    "orthogonal_complement",
    "p_series",
    "parse_algebra_file",
    "parse_rational",
    "rref",
    "serialize_algebra",
    "serialize_report",
    "standard_block_j",
    "stratification_obstructions",
    "subspace_intersection",
    "subspace_sum",
    "theorem_suite",
    "validate",
    "validate_almost_complex",
    "verify_stratification",
]
