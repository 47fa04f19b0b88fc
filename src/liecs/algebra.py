"""Lie algebras given by rational structure constants.

An algebra is stored sparsely: the bracket [e_i, e_j] is kept only for
i < j, so antisymmetry holds by construction and [e_i, e_i] = 0 is not a
representable input.  The Jacobi identity is *not* assumed; it is checked
by :func:`validate`, and every downstream computation expects a validated
algebra.

Every bracket computation reads one representation, ``LieAlgebra.tensor``:
the least common denominator D of the structure constants and, for every
ordered pair (i, j), the sparse integer row of D·[e_i, e_j].  Jacobi
sums, Nijenhuis values, brackets of subspaces and the ad maps are integer
contractions of it; Python ints are unbounded, so nothing overflows.  A
value leaves as a ``Fraction`` only at the API boundary, divided by the
power of D (and of the other cleared denominators) it carries.

The all-triples and all-pairs kernels (Jacobi here, Nijenhuis and the
special flags in ``complex_structure``) read the tensor packed: each row
D·[e_a, e_b] becomes one int Σ c·2^(w·k) (``linalg.pack``), so a
contraction over the output index is one big-int multiply-add per term
and "the vector is zero" is "the int is 0".  The slot width w is the bit
length of a proven bound on every vector that is compared or unpacked,
plus a sign bit; for the Jacobi sum the bound is 3·n·M², M the largest
integer constant.  Intermediate sums need no bound: packing is linear and
exact on any ints.

Facts derived from an immutable object (its validation, its central
series, and on a complex structure its integrability and series) are
cached on that object and computed at most once.  The cache is per
object: an equal but distinct object computes them again.  In the same
way ``bracket_subspaces`` keeps each [a, b] in ``LieAlgebra.bracket_memo``,
keyed by the unordered pair {a, b}: the five series, the audit and the
stratification checks ask for [g, g] and the other brackets repeatedly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Mapping, Sequence

from .errors import InconsistencyError
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    as_rational,
    cleared,
    int_kernel,
    int_row_times_matrix,
    is_zero_vector,
    pack,
    slot_width,
    unpack,
)


@dataclass(frozen=True)
class LieAlgebra:
    """Finite-dimensional Lie algebra over Q in a fixed basis.

    ``structure`` lists (i, j, coefficients) triples with i < j (0-based):
    [e_i, e_j] = sum_k coefficients[k] e_k.  Pairs with zero bracket are
    omitted.
    """

    dim: int
    structure: tuple[tuple[int, int, Vector], ...]

    def __post_init__(self) -> None:
        seen = set()
        for i, j, coeffs in self.structure:
            if not (0 <= i < j < self.dim):
                raise ValueError(f"bracket pair ({i}, {j}) requires 0 <= i < j < dim")
            if len(coeffs) != self.dim:
                raise ValueError(f"bracket ({i}, {j}) has {len(coeffs)} coefficients")
            if (i, j) in seen:
                raise ValueError(f"duplicate bracket pair ({i}, {j})")
            seen.add((i, j))

    @staticmethod
    def from_brackets(
        dim: int,
        brackets: Mapping[tuple[int, int], Mapping[int, object]],
        *,
        one_based: bool = True,
    ) -> LieAlgebra:
        """Build from a human-friendly table {(i, j): {k: coefficient}}.

        Indices are 1-based by default to match the interchange format.
        """
        shift = 1 if one_based else 0
        entries = []
        for (i, j), out in sorted(brackets.items()):
            i0, j0 = i - shift, j - shift
            coeffs = [Fraction(0)] * dim
            for k, c in out.items():
                k0 = k - shift
                if not 0 <= k0 < dim:
                    raise ValueError(f"output index {k} out of range in bracket ({i}, {j})")
                coeffs[k0] = as_rational(c)
            if any(c != 0 for c in coeffs):
                entries.append((i0, j0, tuple(coeffs)))
        return LieAlgebra(dim, tuple(entries))

    @cached_property
    def tensor(self) -> tuple[int, tuple[tuple[tuple[tuple[int, int], ...], ...], ...]]:
        """The bracket as (D, rows): rows[i][j] is the sparse row of D·[e_i, e_j].

        D is the least common denominator of the structure constants and a
        row lists the (k, c) with c ≠ 0, so [e_i, e_j] = Σ (c / D) e_k.
        Every ordered pair has a row: rows[j][i] is the negation of
        rows[i][j] and rows[i][i] is empty.
        """
        d = lcm(*(c.denominator for _, _, coeffs in self.structure for c in coeffs))
        rows = [[()] * self.dim for _ in range(self.dim)]
        for i, j, coeffs in self.structure:
            row = tuple((k, c.numerator * (d // c.denominator)) for k, c in enumerate(coeffs) if c)
            rows[i][j] = row
            rows[j][i] = tuple((k, -c) for k, c in row)
        return d, tuple(tuple(r) for r in rows)

    @cached_property
    def max_entry(self) -> int:
        """The largest |c| over the integer rows of the tensor (0 when abelian)."""
        return max((abs(c) for r in self.tensor[1] for row in r for _, c in row), default=0)

    def packed_rows(self, width: int) -> tuple[tuple[int, ...], ...]:
        """packed[a][b] = D·[e_a, e_b] packed with slot ``width`` (``linalg.pack``)."""
        return tuple(tuple(pack(row, width) for row in r) for r in self.tensor[1])

    def bracket_int(self, x: Sequence[int], y: Sequence[int]) -> list[int]:
        """D·[x, y] for integer vectors x and y."""
        rows = self.tensor[1]
        out = [0] * self.dim
        y_support = [(j, b) for j, b in enumerate(y) if b]
        for i, a in enumerate(x):
            if a:
                row = rows[i]
                for j, b in y_support:
                    w = a * b
                    for k, c in row[j]:
                        out[k] += w * c
        return out

    def bracket_basis(self, i: int, j: int) -> Vector:
        """[e_i, e_j] for any pair of basis indices (0-based)."""
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise ValueError(f"basis pair ({i}, {j}) out of range for dimension {self.dim}")
        d, rows = self.tensor
        out = [Fraction(0)] * self.dim
        for k, c in rows[i][j]:
            out[k] = Fraction(c, d)
        return tuple(out)

    def bracket(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
        """Bilinear extension of the structure constants."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("bracket arguments must have length equal to dim")
        (x_int, s), (y_int, t) = cleared(x), cleared(y)
        den = self.tensor[0] * s * t
        return tuple(Fraction(v, den) for v in self.bracket_int(x_int, y_int))

    def right_ad(self, i: int) -> list[int]:
        """The map x -> D·[x, e_i] as an integer matrix, flattened row-major."""
        n = self.dim
        rows = self.tensor[1]
        flat = [0] * (n * n)
        for m in range(n):
            for k, c in rows[m][i]:
                flat[k * n + m] = c
        return flat

    def is_abelian(self) -> bool:
        return not self.structure

    @cached_property
    def bracket_memo(self) -> dict:
        """Brackets of subspaces by unordered pair (a memo, see ``bracket_subspaces``)."""
        return {}

    @cached_property
    def stratification_verdicts(self) -> dict:
        """Verdicts of ``verify_stratification`` by stratification (a memo)."""
        return {}

    @cached_property
    def validation(self) -> ValidationReport:
        return validate(self)

    @cached_property
    def descending_series(self) -> SubspaceChain:
        return descending_central_series(self)

    @cached_property
    def ascending_series(self) -> SubspaceChain:
        return ascending_central_series(self)


@dataclass(frozen=True)
class JacobiViolation:
    """A basis triple (1-based) whose Jacobi cyclic sum is nonzero."""

    triple: tuple[int, int, int]
    residual: Vector


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[JacobiViolation, ...]

    @property
    def first_violation(self) -> JacobiViolation | None:
        return self.violations[0] if self.violations else None


def validate(alg: LieAlgebra) -> ValidationReport:
    """Check the Jacobi identity on every basis triple i < j < k.

    Antisymmetry needs no check: the storage format only admits
    antisymmetric brackets.  The cyclic sum is contracted from the integer
    tensor, so it is D² times the residual: each of its three terms is
    D²·[[e_a, e_b], e_c] = Σ u·D·[e_m, e_c] over the (m, u) of D·[e_a, e_b],
    one big-int multiply-add per m on the packed rows D·[e_m, e_c].  A term
    has at most n nonzero products of two integer constants, so every slot
    of the sum is bounded by 3·n·max|C|², the packed sum is 0 iff the
    triple satisfies Jacobi, and only violating triples are unpacked.
    Violations are reported, not raised, so that callers can surface them
    in their own error channel.
    """
    d, rows = alg.tensor
    n = alg.dim
    width = slot_width(3 * n * alg.max_entry**2)
    by_column = list(zip(*alg.packed_rows(width)))  # by_column[c][m]: D·[e_m, e_c]
    violations = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = 0
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    column = by_column[c]
                    for m, u in rows[a][b]:
                        total += u * column[m]
                if total:
                    residual = tuple(Fraction(v, d * d) for v in unpack(total, width, n))
                    violations.append(JacobiViolation((i + 1, j + 1, k + 1), residual))
    return ValidationReport(ok=not violations, violations=tuple(violations))


def bracket_subspaces(alg: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    """Span of [u, v] over basis vectors u of a and v of b.

    Bilinearity of the bracket makes basis pairs sufficient, so the result
    is the subspace [a, b].  The generating rows are D·[u, v] for the
    integer canonical rows u, v; positive rescaling cannot change the span.
    [a, b] = [b, a] as subspaces, so the result is memoized on the algebra
    under the unordered pair.
    """
    if a.ambient_dim != alg.dim or b.ambient_dim != alg.dim:
        raise ValueError("subspace ambient dimension does not match the algebra")
    key = frozenset((a, b))
    found = alg.bracket_memo.get(key)
    if found is None:
        rows = [alg.bracket_int(u, v) for u in a.rows for v in b.rows]
        found = alg.bracket_memo[key] = Subspace.from_int_rows(alg.dim, rows)
    return found


@dataclass(frozen=True)
class SubspaceChain:
    """A stabilized monotone chain of subspaces (stable term stored once).

    ``stabilized_at`` is the first index j with term(j) = term(j+1); it is
    always the index of the last stored term.
    """

    terms: tuple[Subspace, ...]
    stabilized_at: int

    def term(self, j: int) -> Subspace:
        """Term at index j, extending constantly past stabilization."""
        return self.terms[min(j, self.stabilized_at)]

    def dims(self) -> tuple[int, ...]:
        return tuple(t.dim for t in self.terms)

    def first_zero(self) -> int | None:
        """Least j with term(j) = 0, or None when the chain stops above 0."""
        return self.stabilized_at if self.terms[-1].is_zero() else None

    def first_full(self) -> int | None:
        """Least j with term(j) the whole space, or None when it stops below."""
        return self.stabilized_at if self.terms[-1].is_full() else None


def chain_until_stable(first: Subspace, step, cap: int) -> SubspaceChain:
    """Apply ``step`` from ``first`` until two consecutive terms agree.

    Monotone chains in dimension n stabilize within n steps; running past
    ``cap`` iterations therefore signals a broken step function.
    """
    terms = [first]
    for _ in range(cap):
        nxt = step(terms[-1])
        if nxt == terms[-1]:
            return SubspaceChain(tuple(terms), len(terms) - 1)
        terms.append(nxt)
    raise InconsistencyError("chain failed to stabilize within the dimension bound")


def ascending_chain(dim: int, maps: Sequence[Sequence[int]]) -> SubspaceChain:
    """a^0 = 0, a^j = {x : M x ∈ a^{j-1} for every map M in ``maps``}.

    Each map is a dim × dim integer matrix, flattened row-major.  Each step
    solves the stacked linear conditions C·M x = 0, where the integer rows
    of C span the annihilator of the previous term.
    """

    def step(prev: Subspace) -> Subspace:
        conds = int_kernel(prev.rows, dim)
        if not conds:
            return Subspace.full(dim)
        rows = [int_row_times_matrix(c, flat, dim) for flat in maps for c in conds]
        return Subspace.from_int_rows(dim, int_kernel(rows, dim))

    return chain_until_stable(Subspace.zero(dim), step, dim + 1)


def descending_central_series(alg: LieAlgebra) -> SubspaceChain:
    """c_0 = g, c_j = [g, c_{j-1}], computed until stabilization."""
    full = Subspace.full(alg.dim)
    return chain_until_stable(full, lambda prev: bracket_subspaces(alg, full, prev), alg.dim + 1)


def ascending_central_series(alg: LieAlgebra) -> SubspaceChain:
    """c^0 = 0, c^j = {x : [x, g] ⊆ c^{j-1}}: the ascending chain of the ad maps."""
    return ascending_chain(alg.dim, [alg.right_ad(i) for i in range(alg.dim)])


def center(alg: LieAlgebra) -> Subspace:
    """The center {x : [x, g] = 0}; equals the first ascending term."""
    return alg.ascending_series.term(1)


def nilpotency_step(alg: LieAlgebra) -> int | None:
    """Least k with c_k = 0, or None when the descending series stops above 0."""
    return alg.descending_series.first_zero()


def change_of_basis(alg: LieAlgebra, p: Matrix) -> LieAlgebra:
    """The same bracket written in the coordinates y = p @ x.

    The transported bracket is p ∘ [ , ] ∘ (p⁻¹ × p⁻¹): with p = 2·I every
    structure constant halves, and round-tripping with p⁻¹ is the identity.
    Raises on a singular p.
    """
    if p.rows != alg.dim or p.cols != alg.dim:
        raise ValueError("change-of-basis matrix size does not match the algebra")
    p_inv = p.inverse()
    brackets = {}
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            value = p.matvec(alg.bracket(p_inv.column(i), p_inv.column(j)))
            if not is_zero_vector(value):
                brackets[(i, j)] = {k: value[k] for k in range(alg.dim) if value[k] != 0}
    return LieAlgebra.from_brackets(alg.dim, brackets, one_based=False)
