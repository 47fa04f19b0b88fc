"""Almost-complex structures and their integrability.

A complex structure candidate is a rational matrix J with J² = -I bound to
a specific algebra.  Integrability is the vanishing of the Nijenhuis
expression

    N(x, y) = [Jx, Jy] - [x, y] - J([Jx, y] + [x, Jy]),

which is bilinear and antisymmetric, so checking all basis pairs i < j
decides it exactly.

Both all-pairs kernels, ``is_integrable`` and ``classify_special``, read one
``PairTable`` per structure (``ComplexStructure.pair_table``): the packed
integer values B(e_i, e_j), B(J e_i, e_j) and their J-images for every
ordered pair, with B = D·[ , ] and J_int = q·J the integer entries of J
over its denominator (``J.ints`` over ``J.den``), built once in O(n⁴).
N(e_i, e_j) is then n big-int multiply-adds away, and both flags are
comparisons of packed ints.  The slot width comes from the bound
(c² + 2·r·c + q²)·M, c and r the largest column and row sums of |J_int|
and M the largest integer structure constant; see ``PairTable``.
``nijenhuis`` on arbitrary vectors takes its four brackets from one call
of the packed bracket kernel ``LieAlgebra.bracket_rows``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

from .algebra import LieAlgebra, memoized
from .linalg import (
    Matrix,
    Subspace,
    Value,
    Vector,
    image_subspace,
    int_matvec,
    is_positive_definite,
    pack,
    slot_width,
    subspace_intersection,
    unpack,
)

if TYPE_CHECKING:
    from .j_series import SeriesReport
    from .stratification import Stratification


class ComplexStructure(Value):
    """An almost-complex structure bound to its algebra."""

    algebra: LieAlgebra
    matrix: Matrix

    @memoized
    def image(self, w: Subspace) -> Subspace:
        """The subspace J(w), computed once per w (``linalg.image_subspace``)."""
        return image_subspace(w, self.matrix)

    @cached_property
    def pair_table(self) -> PairTable:
        """The packed bracket values of every ordered basis pair; see ``PairTable``."""
        return PairTable.build(self)

    @cached_property
    def twin(self) -> ComplexStructure:
        """J moved once onto ``algebra.twin`` (``AdaptedInput``); self when that is the algebra."""
        adapted = self.algebra.twin
        if adapted.basis is None:
            return self
        return ComplexStructure(adapted.algebra, adapted.inverse @ self.matrix @ adapted.basis)

    @cached_property
    def integrability(self) -> IntegrabilityReport:
        """Decided on the twin; a failing one is checked again here for its witnesses."""
        if self.twin is self:
            return is_integrable(self)
        found = self.twin.integrability
        return found if found.integrable else is_integrable(self)

    @cached_property
    def series(self) -> SeriesReport:
        """Computed on the twin; every term mapped back to this basis."""
        from .j_series import SeriesReport, nilpotent_step

        if self.twin is self:
            return nilpotent_step(self)
        found, adapted = self.twin.series, self.algebra.twin
        chains = (found.d_asc, found.d_desc, found.p_desc)
        return SeriesReport(self, *map(adapted.chain_to_input, chains), found.j0)

    @cached_property
    def step2_stratification(self) -> Stratification:
        """The step-2 J-invariant stratification for the identity form.

        Raises HypothesisNotMet when the algebra is not of step 2 or [n, n]
        is not J-invariant; see ``build_step2_j_stratification``.
        """
        from .stratification import build_step2_j_stratification

        return build_step2_j_stratification(self, Matrix.identity(self.algebra.dim))


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
    first = next((k for k, a in enumerate(square_plus_identity.ints) if a), None)
    if first is not None:
        i, k = divmod(first, alg.dim)
        raise ValueError(
            f"J^2 != -I: entry ({i + 1}, {k + 1}) of J^2 + I equals "
            f"{square_plus_identity.at(i, k)}"
        )
    return ComplexStructure(alg, j)


class PairTable(Value):
    """Packed integer bracket values on ordered basis pairs, one slot width.

    With B = D·[ , ] and J_int = q·J (``J.ints``, q = ``J.den``), for all
    i, j (``linalg.pack``):

        plain[i][j]   = B(e_i, e_j)         j_plain[i][j] = J_int B(e_i, e_j)
        left[i][j]    = B(J_int e_i, e_j)   j_left[i][j]  = J_int B(J_int e_i, e_j)

    ``columns[j]`` lists the nonzero (b, J_int[b, j]).  The other terms of
    the Nijenhuis expression are reads and n-term sums of the table:
    B(e_i, J_int e_j) = -left[j][i] and B(J_int e_i, J_int e_j) =
    Σ_b J_int[b, j]·left[i][b] (``both``).

    The slot width bounds every vector that is unpacked or compared.  With
    M the largest integer constant of the tensor, c and r the largest
    column and row sums of |J_int|: a slot of ``left`` is at most c·M, of
    ``both`` c²·M, of ``j_left`` r·c·M and of ``j_plain`` r·M, so
    D·q²·N(e_i, e_j) is within (c² + 2·r·c + q²)·M, and so are the
    differences compared by ``classify_special``: (c² + q²)·M for the
    abelian one on pairs i < j, (r + c)·M for the bi-invariant one on
    every ordered pair, i = j included (r + c ≤ c² + 2·r·c when c ≥ 1,
    and c = 0 means J_int = 0, so r = 0).
    """

    width: int
    plain: tuple[tuple[int, ...], ...]
    j_plain: tuple[tuple[int, ...], ...]
    left: tuple[tuple[int, ...], ...]
    j_left: tuple[tuple[int, ...], ...]
    columns: tuple[tuple[tuple[int, int], ...], ...]

    @staticmethod
    def build(cs: ComplexStructure) -> PairTable:
        """The table in O(n⁴): n³ big-int multiply-adds of n-slot ints."""
        n = cs.algebra.dim
        rows = cs.algebra.tensor[1]
        j_int, q = cs.matrix.ints, cs.matrix.den
        columns = tuple(
            tuple((b, j_int[b * n + j]) for b in range(n) if j_int[b * n + j]) for j in range(n)
        )
        col_sum = max((sum(abs(v) for _, v in col) for col in columns), default=0)
        row_sum = max((sum(map(abs, j_int[k : k + n])) for k in range(0, n * n, n)), default=0)
        bound = (col_sum**2 + 2 * row_sum * col_sum + q * q) * cs.algebra.max_entry
        width = slot_width(bound)
        images = [pack(col, width) for col in columns]  # J_int e_k, packed
        plain = cs.algebra.packed_rows(width)
        j_plain = tuple(
            tuple(sum(v * images[k] for k, v in row) for row in by_b) for by_b in rows
        )

        def apply_left(table):
            return tuple(
                tuple(sum(v * table[a][j] for a, v in columns[i]) for j in range(n))
                for i in range(n)
            )

        return PairTable(width, plain, j_plain, apply_left(plain), apply_left(j_plain), columns)

    def both(self, i: int, j: int) -> int:
        """B(J_int e_i, J_int e_j), packed."""
        row = self.left[i]
        return sum(v * row[b] for b, v in self.columns[j])


def nijenhuis(cs: ComplexStructure, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
    """Exact value of N(x, y) for any vectors x, y.

    Computed as D·q²·s²·N on the integer vectors s·x and s·y (the rows of
    ``Matrix.from_rows([x, y])``, s its ``den``), with B = D·[ , ] and
    J_int = q·J,

        B(J_int x, J_int y) - q²·B(x, y) - J_int (B(J_int x, y) + B(x, J_int y)),

    and divided back.
    """
    n = cs.algebra.dim
    if len(x) != n or len(y) != n:
        raise ValueError("nijenhuis arguments must have length equal to dim")
    j_int, q = cs.matrix.ints, cs.matrix.den
    xy = Matrix.from_rows([x, y])
    x_int, y_int = xy.int_rows()
    jx, jy = int_matvec(j_int, x_int), int_matvec(j_int, y_int)
    b_xy, b_x_jy, b_jx_y, b_jx_jy = cs.algebra.bracket_rows([x_int, jx], [y_int, jy])
    mixed = int_matvec(j_int, [u + v for u, v in zip(b_jx_y, b_x_jy)])
    den = cs.algebra.tensor[0] * q * q * xy.den**2
    return tuple(
        Fraction(u - q * q * v - w, den) for u, v, w in zip(b_jx_jy, b_xy, mixed)
    )


class IntegrabilityReport(Value):
    """Outcome of the integrability check.

    ``witnesses`` holds (i, j, N(e_i, e_j)) for each basis pair (1-based)
    with nonzero Nijenhuis value; the structure is integrable iff it is
    empty.
    """

    integrable: bool
    witnesses: tuple[tuple[int, int, Vector], ...]


def is_integrable(cs: ComplexStructure) -> IntegrabilityReport:
    """Evaluate N on all basis pairs i < j from the pair table.

    D·q²·N(e_i, e_j) = both(i, j) - q²·plain[i][j] - j_left[i][j] + j_left[j][i],
    packed; a pair is a witness iff that int is nonzero, and only the
    witnesses are unpacked.
    """
    n = cs.algebra.dim
    q = cs.matrix.den
    den = cs.algebra.tensor[0] * q * q
    table = cs.pair_table
    witnesses = []
    for i in range(n):
        for j in range(i + 1, n):
            value = (
                table.both(i, j)
                - q * q * table.plain[i][j]
                - table.j_left[i][j]
                + table.j_left[j][i]
            )
            if value:
                slots = unpack(value, table.width, n)
                witnesses.append((i + 1, j + 1, tuple(Fraction(v, den) for v in slots)))
    return IntegrabilityReport(integrable=not witnesses, witnesses=tuple(witnesses))


class SpecialFlags(Value):
    """Membership in the two classical special classes.

    abelian:      [Jx, Jy] = [x, y] for all x, y
    bi_invariant: J[x, y] = [Jx, y] for all x, y
    """

    abelian: bool
    bi_invariant: bool


def classify_special(cs: ComplexStructure) -> SpecialFlags:
    """Both flags from their definitions, as identities of the pair table.

    Abelian, both(i, j) = q²·plain[i][j], is antisymmetric in (i, j), so
    the pairs i < j decide it.  Bi-invariant, j_plain = left, is not, so
    the two tables are compared whole: every ordered pair, i = j included.
    """
    n = cs.algebra.dim
    q = cs.matrix.den
    table = cs.pair_table
    abelian = all(
        table.both(i, j) == q * q * table.plain[i][j] for i in range(n) for j in range(i + 1, n)
    )
    return SpecialFlags(abelian, table.j_plain == table.left)


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
