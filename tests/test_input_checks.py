"""The public functions reject malformed input with a message that names the fault.

Each case is one check at a public boundary: a call, the exception it
raises and a fragment of its message.  ``verify_stratification`` answers
with a failing verdict instead of raising, so its cases name the detail.
"""

import pytest

from liecs import (
    LieAlgebra,
    Matrix,
    Stratification,
    Subspace,
    builtin,
    change_of_basis,
    validate_almost_complex,
    verify_stratification,
)
from liecs.complex_structure import j_invariant_inner_product, largest_j_invariant_subspace
from liecs.linalg import as_rational, basis_vector, orthogonal_complement

KT4 = builtin("kt4")
I2, I3 = Matrix.identity(2), Matrix.identity(3)
NON_SQUARE = Matrix(1, 2, [1, 2])


CASES = [
    (lambda: LieAlgebra(0, []), ValueError, "dimension must be at least 1"),
    (lambda: LieAlgebra(2, [(0, 1, [1])]), ValueError, "(0, 1) has 1 coefficients"),
    (
        lambda: LieAlgebra(2, [(0, 1, [0, 1]), (0, 1, [0, 1])]),
        ValueError,
        "duplicate bracket pair (0, 1)",
    ),
    (
        lambda: LieAlgebra.from_brackets(2, {(1, 2): {3: 1}}),
        ValueError,
        "output index 3 out of range in bracket (1, 2)",
    ),
    (
        lambda: change_of_basis(KT4.algebra, I3),
        ValueError,
        "change-of-basis matrix size does not match",
    ),
    (lambda: validate_almost_complex(KT4.algebra, I2), ValueError, "J must be 4x4, got 2x2"),
    (
        lambda: j_invariant_inner_product(KT4.primary_structure, I2),
        ValueError,
        "phi size does not match",
    ),
    (
        lambda: largest_j_invariant_subspace(KT4.primary_structure, Subspace.full(2)),
        ValueError,
        "subspace ambient dimension does not match",
    ),
    (lambda: as_rational(1.5), TypeError, "cannot interpret 1.5 as a rational"),
    (lambda: basis_vector(2, 2), ValueError, "basis index 2 out of range for dimension 2"),
    (lambda: Matrix(-1, 0, []), ValueError, "negative matrix dimensions"),
    (lambda: Matrix(2, 2, [1]), ValueError, "expected 4 entries, got 1"),
    (lambda: Matrix.from_rows([[1, 2], [3]]), ValueError, "ragged rows"),
    (lambda: Matrix.from_rows([[1, 2]], cols=3), ValueError, "width 2, expected 3"),
    (lambda: I2 @ I3, ValueError, "shape mismatch: 2 columns vs 3 rows"),
    (lambda: I2.matvec([1]), ValueError, "vector of length 1, expected 2"),
    (lambda: NON_SQUARE.det(), ValueError, "determinant of a non-square matrix"),
    (lambda: NON_SQUARE.inverse(), ValueError, "inverse of a non-square matrix"),
    (lambda: I2 + I3, ValueError, "shape mismatch: 2x2 vs 3x3"),
    (
        lambda: orthogonal_complement(Subspace.full(2), I3),
        ValueError,
        "gram matrix size does not match",
    ),
]


@pytest.mark.parametrize("call, exception, fragment", CASES, ids=[case[2] for case in CASES])
def test_a_public_check_rejects_malformed_input(call, exception, fragment):
    with pytest.raises(exception) as caught:
        call()
    assert fragment in str(caught.value)


@pytest.mark.parametrize(
    "layers, fragment",
    [
        ((), "no layers given"),
        ((Subspace.full(3),), "layer ambient dimension mismatch"),
        ((Subspace.full(4), Subspace.zero(4)), "top layer is the zero subspace"),
    ],
)
def test_verify_stratification_names_a_malformed_input(layers, fragment):
    verdict = verify_stratification(KT4.algebra, Stratification(layers))
    assert not verdict.ok
    assert fragment in [v.detail for v in verdict.violations]
