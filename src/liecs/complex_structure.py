"""Almost-complex structures and their integrability.

A complex structure candidate is a rational matrix J with J² = -I bound to
a specific algebra.  Integrability is the vanishing of the Nijenhuis
expression

    N(x, y) = [Jx, Jy] - [x, y] - J([Jx, y] + [x, Jy]),

which is bilinear and antisymmetric, so checking all basis pairs i < j
decides it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

from .algebra import LieAlgebra
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    cleared,
    int_matvec,
    is_positive_definite,
    subspace_intersection,
)

if TYPE_CHECKING:
    from .j_series import SeriesReport
    from .stratification import Stratification


@dataclass(frozen=True)
class ComplexStructure:
    """An almost-complex structure bound to its algebra."""

    algebra: LieAlgebra
    matrix: Matrix

    def apply(self, v: Sequence[Fraction]) -> Vector:
        return self.matrix.matvec(v)

    @cached_property
    def integer_matrix(self) -> tuple[list[int], int]:
        """(J_int, q): J_int = q·J flattened row-major, q the lcm of J's denominators."""
        return cleared(self.matrix.entries)

    def image(self, w: Subspace) -> Subspace:
        """The subspace J(w), mapped by the integer multiple J_int of J."""
        if w.ambient_dim != self.matrix.cols:
            raise ValueError("map width does not match ambient dimension")
        j_int = self.integer_matrix[0]
        return Subspace.from_int_rows(w.ambient_dim, [int_matvec(j_int, r) for r in w.rows])

    @cached_property
    def integrability(self) -> IntegrabilityReport:
        return is_integrable(self)

    @cached_property
    def series(self) -> SeriesReport:
        from .j_series import nilpotent_step

        return nilpotent_step(self.algebra, self)

    @cached_property
    def step2_stratification(self) -> Stratification:
        """The step-2 J-invariant stratification for the identity form.

        Raises HypothesisNotMet when the algebra is not of step 2 or [n, n]
        is not J-invariant; see ``build_step2_j_stratification``.
        """
        from .stratification import build_step2_j_stratification

        return build_step2_j_stratification(
            self.algebra, self, Matrix.identity(self.algebra.dim)
        )


def validate_almost_complex(alg: LieAlgebra, j: Matrix) -> ComplexStructure:
    """Bind J to the algebra after checking J² = -I exactly.

    Raises ValueError on odd dimension (no almost-complex structure exists)
    or when J² + I has a nonzero entry, naming the first offending entry.
    """
    if alg.dim % 2 != 0:
        raise ValueError(f"odd dimension {alg.dim}: no almost-complex structure exists")
    if j.rows != alg.dim or j.cols != alg.dim:
        raise ValueError(f"J must be {alg.dim}x{alg.dim}, got {j.rows}x{j.cols}")
    square_plus_identity = (j @ j) + Matrix.identity(alg.dim)
    for i in range(alg.dim):
        for k in range(alg.dim):
            value = square_plus_identity.at(i, k)
            if value != 0:
                raise ValueError(
                    f"J^2 != -I: entry ({i + 1}, {k + 1}) of J^2 + I equals {value}"
                )
    return ComplexStructure(alg, j)


def _nijenhuis_int(cs: ComplexStructure, x: Sequence[int], y: Sequence[int]) -> list[int]:
    """D·q²·N(x, y) for integer x, y, with B = D·[ , ] and J_int = q·J:

        B(J_int x, J_int y) - q²·B(x, y) - J_int (B(J_int x, y) + B(x, J_int y)).
    """
    b = cs.algebra.bracket_int
    j_int, q = cs.integer_matrix
    jx, jy = int_matvec(j_int, x), int_matvec(j_int, y)
    mixed = int_matvec(j_int, [u + v for u, v in zip(b(jx, y), b(x, jy))])
    return [u - q * q * v - w for u, v, w in zip(b(jx, jy), b(x, y), mixed)]


def nijenhuis(cs: ComplexStructure, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
    """Exact value of N(x, y): the integer value of the cleared vectors, divided back."""
    (x_int, s), (y_int, t) = cleared(x), cleared(y)
    den = cs.algebra.tensor[0] * cs.integer_matrix[1] ** 2 * s * t
    return tuple(Fraction(v, den) for v in _nijenhuis_int(cs, x_int, y_int))


@dataclass(frozen=True)
class IntegrabilityReport:
    """Outcome of the integrability check.

    ``witnesses`` holds (i, j, N(e_i, e_j)) for each basis pair (1-based)
    with nonzero Nijenhuis value; the structure is integrable iff it is
    empty.
    """

    integrable: bool
    witnesses: tuple[tuple[int, int, Vector], ...]


def is_integrable(cs: ComplexStructure) -> IntegrabilityReport:
    """Evaluate N on all basis pairs i < j, as D·q²·N over the integers."""
    n = cs.algebra.dim
    den = cs.algebra.tensor[0] * cs.integer_matrix[1] ** 2
    units = [[int(i == k) for i in range(n)] for k in range(n)]
    witnesses = []
    for i in range(n):
        for j in range(i + 1, n):
            value = _nijenhuis_int(cs, units[i], units[j])
            if any(value):
                witnesses.append((i + 1, j + 1, tuple(Fraction(v, den) for v in value)))
    return IntegrabilityReport(integrable=not witnesses, witnesses=tuple(witnesses))


@dataclass(frozen=True)
class SpecialFlags:
    """Membership in the two classical special classes.

    abelian:      [Jx, Jy] = [x, y] for all x, y
    bi_invariant: J[x, y] = [Jx, y] for all x, y
    """

    abelian: bool
    bi_invariant: bool


def classify_special(cs: ComplexStructure) -> SpecialFlags:
    """Both flags on basis pairs i < j, compared as integer multiples by D·q².

    With B = D·[ , ] and J_int = q·J, abelian reads B(J_int e_i, J_int e_j)
    = q²·B(e_i, e_j) and bi-invariant reads J_int B(e_i, e_j) = B(J_int e_i, e_j).
    """
    n = cs.algebra.dim
    b = cs.algebra.bracket_int
    j_int, q = cs.integer_matrix
    units = [[int(i == k) for i in range(n)] for k in range(n)]
    images = [int_matvec(j_int, e) for e in units]
    abelian = True
    bi_invariant = True
    for i in range(n):
        for j in range(i + 1, n):
            plain = b(units[i], units[j])
            if abelian and b(images[i], images[j]) != [q * q * v for v in plain]:
                abelian = False
            if bi_invariant and int_matvec(j_int, plain) != b(images[i], units[j]):
                bi_invariant = False
            if not abelian and not bi_invariant:
                return SpecialFlags(False, False)
    return SpecialFlags(abelian, bi_invariant)


def j_invariant_inner_product(cs: ComplexStructure, phi: Matrix) -> Matrix:
    """Average an SPD form with its J-pullback: psi = phi + Jᵀ phi J.

    The result is SPD and exactly J-invariant (Jᵀ psi J = psi, a
    consequence of J² = -I).
    """
    n = cs.algebra.dim
    if phi.rows != n or phi.cols != n:
        raise ValueError("phi size does not match the algebra dimension")
    if not phi.is_symmetric() or not is_positive_definite(phi):
        raise ValueError("phi must be symmetric positive definite")
    jt = cs.matrix.transpose()
    return phi + (jt @ phi @ cs.matrix)


def largest_j_invariant_subspace(cs: ComplexStructure, w: Subspace) -> Subspace:
    """The largest J-invariant subspace of w, namely w ∩ J(w).

    J restricts to an automorphism of the result, which is therefore
    even-dimensional.
    """
    if w.ambient_dim != cs.algebra.dim:
        raise ValueError("subspace ambient dimension does not match the algebra")
    return subspace_intersection(w, cs.image(w))
