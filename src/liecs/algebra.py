"""Lie algebras given by rational structure constants.

An algebra stores one form of its bracket, ``LieAlgebra.tensor``: the
least common denominator D of the structure constants and, for every
ordered pair (i, j), the sparse integer row of D·[e_i, e_j].  It is
stored, not cached.  The constructor takes triples (i, j, [e_i, e_j])
with i < j, so antisymmetry holds by construction, and clears them
through ``linalg.Matrix``, the one place where rationals become integers,
algebras included.  The form is canonical: two algebras are equal iff
their brackets are, and ``LieAlgebra.structure`` is its ``Fraction``
view.  Jacobi is *not* assumed; :func:`validate` checks it.  Every
computation below is an integer contraction of the tensor (Python ints
are unbounded), and a value leaves as a ``Fraction`` only at the API
boundary, divided by the power of D it carries and by the ``Matrix.den``
of the operands it was computed from.

Every kernel reads the tensor packed: each row D·[e_a, e_b] becomes one
int Σ c·2^(w·k) (``linalg.pack``, memoized per width by
``LieAlgebra.packed_rows``), so a contraction over the output index is
one big-int multiply-add per term and "the vector is zero" is "the int
is 0".  The slot width w is the bit length of a proven bound on every
vector that is compared or unpacked, plus a sign bit, with M the largest
integer constant:

* Jacobi (``validate``): 3·n·M².
* The packed bracket kernel ``LieAlgebra.bracket_rows``, D·[u, v] for
  the row sets us × vs: max‖u‖₁·max‖v‖₁·M.  Each u costs one packed row
  L_u[j] = D·[u, e_j], each v then nnz(v) multiply-adds and one
  ``unpack``.  It serves ``bracket``, ``bracket_subspaces``,
  ``change_of_basis`` and ``complex_structure.nijenhuis``.
* The centralizer step ``centralizer``, Z(prev) = {x : [x, g] ⊆ prev}:
  M·max‖c‖₁ over the annihilator rows c of prev, which are packed across
  their index so that one multiply-add per term of D·[e_m, e_i] gives
  entry m of the condition c·ad_i for every c at once.  It is the step of
  the ascending central series here and of the J-series d^j in
  ``j_series``.

Intermediate sums need no bound: packing is linear and exact on any ints.

Facts derived from an immutable object (its validation, its central
series, and on a complex structure its integrability and series) are
cached on that object and computed at most once.  Such objects are
``linalg.Value`` records, frozen against assignment, and the caches
write to their ``__dict__`` directly.  The cache is per object: an
equal but distinct object computes them again.  Facts that
take arguments are cached the same way by one decorator, ``memoized``:
the packed tensor per slot width, each [a, b] (the five series, the audit
and the stratification checks ask for [g, g] repeatedly), each
centralizer step Z(prev) (both ascending series start with Z(0), the
center), and in other modules each J-image and stratification verdict.
Public computations such as ``validate`` stay uncached.

The report decides its facts in a second basis, chosen here once per
algebra: ``LieAlgebra.twin`` (``adapted_input``) takes the canonical
rows of each term of the lower central series, computed in the input
basis, and moves the bracket into the basis they form (an
``AdaptedInput``).  There every c_j is a coordinate subspace and the
tensor is block-triangular: the scrambled ch6⊕ch6⊕ch6 has 2,754 nonzero
constants and its twin 396.  An input whose series terms are coordinate
subspaces already is its own twin.  Decided on the twin: the cached
``validation`` and ``ascending_series``, the parse gate's stratification
verdict, and every fact of a complex structure that
``report.build_report`` reads (its series, integrability, special flags,
step-2 stratification, classification and theorem suite; J and the
strata are moved once).  The series terms go back to the input basis
through ``AdaptedInput.chain_to_input``, in ``ascending_series`` here and
in ``ComplexStructure.series``; ``report`` maps only k.  A failure
witness depends on the basis, so a failing Jacobi or Nijenhuis check is
run again in the input basis, with the public ``validate`` and
``is_integrable``, for its triples, pairs and residuals.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, wraps
from typing import Iterator, Mapping, Sequence

from .errors import InconsistencyError
from .linalg import (
    Matrix,
    Subspace,
    Value,
    Vector,
    image_subspace,
    int_kernel,
    int_matvec,
    pack,
    slot_width,
    unpack,
)


_MISSING = object()


def memoized(fn):
    """Cache ``fn(obj, *args)`` on ``obj``, once per hashable ``args``.

    The values live in ``obj.__dict__`` under a slot named after ``fn``'s
    module and qualified name, so each function has its own memo on each
    object, and an equal but distinct object computes again, as with
    ``cached_property``.  A call that raises stores nothing.
    """
    slot = f"{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def cached(obj, *args):
        memo = obj.__dict__.setdefault(slot, {})
        found = memo.get(args, _MISSING)
        if found is _MISSING:
            found = memo[args] = fn(obj, *args)
        return found

    return cached


def _max_norm(rows: Sequence[Sequence[int]]) -> int:
    """The largest ‖r‖₁ over integer rows (0 when there are none)."""
    return max((sum(map(abs, r)) for r in rows), default=0)


class LieAlgebra(Value):
    """Finite-dimensional Lie algebra over Q in a fixed basis.

    Built from (i, j, coefficients) triples, i < j (0-based), in any order:
    [e_i, e_j] = Σ_k coefficients[k] e_k, a zero bracket given or omitted.
    ``tensor`` is (D, rows): rows[i][j] lists the (k, c) with c ≠ 0 in
    D·[e_i, e_j]; rows[j][i] is its negation and rows[i][i] is empty.
    """

    dim: int
    tensor: tuple[int, tuple[tuple[tuple[tuple[int, int], ...], ...], ...]]

    def __init__(self, dim: int, structure: Sequence[tuple[int, int, Sequence]]) -> None:
        seen = set()
        for i, j, coeffs in structure:
            if not (0 <= i < j < dim):
                raise ValueError(f"bracket pair ({i}, {j}) requires 0 <= i < j < dim")
            if len(coeffs) != dim:
                raise ValueError(f"bracket ({i}, {j}) has {len(coeffs)} coefficients")
            if (i, j) in seen:
                raise ValueError(f"duplicate bracket pair ({i}, {j})")
            seen.add((i, j))
        constants = Matrix(len(structure), dim, [c for _, _, coeffs in structure for c in coeffs])
        self._store(dim, [(i, j) for i, j, _ in structure], constants)

    def _store(self, dim: int, pairs: Sequence[tuple[int, int]], constants: Matrix) -> None:
        """Store ``constants`` as the tensor; ``Matrix`` has cleared them over D = den."""
        rows = [[()] * dim for _ in range(dim)]
        for (i, j), row in zip(pairs, constants.int_rows()):
            if any(row):
                rows[i][j] = tuple((k, c) for k, c in enumerate(row) if c)
                rows[j][i] = tuple((k, -c) for k, c in rows[i][j])
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "tensor", (constants.den, tuple(map(tuple, rows))))

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
        for (i, j), out in brackets.items():
            coeffs = [0] * dim
            for k, c in out.items():
                if not 0 <= k - shift < dim:
                    raise ValueError(f"output index {k} out of range in bracket ({i}, {j})")
                coeffs[k - shift] = c
            entries.append((i - shift, j - shift, coeffs))
        return LieAlgebra(dim, entries)

    def nonzero_rows(self) -> Iterator[tuple[int, int, tuple[tuple[int, int], ...]]]:
        """(i, j, rows[i][j]) for each i < j with [e_i, e_j] ≠ 0, in (i, j) order."""
        rows = self.tensor[1]
        return ((i, j, r[j]) for i, r in enumerate(rows) for j in range(i + 1, self.dim) if r[j])

    @cached_property
    def structure(self) -> tuple[tuple[int, int, Vector], ...]:
        """The ``Fraction`` view of ``tensor``: one (i, j, coefficients) per ``nonzero_rows``."""
        d, out = self.tensor[0], []
        for i, j, row in self.nonzero_rows():
            coeffs = dict(row)
            out.append((i, j, tuple(Fraction(coeffs.get(k, 0), d) for k in range(self.dim))))
        return tuple(out)

    @cached_property
    def max_entry(self) -> int:
        """The largest |c| over the integer rows of the tensor (0 when abelian)."""
        return max((abs(c) for r in self.tensor[1] for row in r for _, c in row), default=0)

    @memoized
    def packed_rows(self, width: int) -> tuple[tuple[int, ...], ...]:
        """packed[a][b] = D·[e_a, e_b] packed with slot ``width`` (``linalg.pack``)."""
        return tuple(tuple(pack(row, width) for row in r) for r in self.tensor[1])

    def bracket_rows(
        self, us: Sequence[Sequence[int]], vs: Sequence[Sequence[int]] | None = None
    ) -> list[list[int]]:
        """D·[u, v] for u in ``us`` and v in ``vs``, u-major.

        With ``vs`` omitted, the pairs (us[k], us[l]) with k < l, in that
        order.  Every slot of D·[u, v] is within ‖u‖₁·‖v‖₁·M, M the
        largest integer structure constant, which sets the slot width.
        Each u costs one packed row L_u[j] = Σ_i u_i·P[i][j] = D·[u, e_j]
        over the memoized packed tensor P; each v then costs nnz(v)
        big-int multiply-adds and one ``unpack``.
        """
        n = self.dim
        right = us if vs is None else vs
        if not us or not right:
            return []
        width = slot_width(_max_norm(us) * _max_norm(right) * self.max_entry)
        packed = self.packed_rows(width)
        out = []
        for k, u in enumerate(us):
            left = [0] * n
            for i, c in enumerate(u):
                if c:
                    left = [a + c * b for a, b in zip(left, packed[i])]
            for v in right if vs is not None else us[k + 1 :]:
                out.append(unpack(sum(b * left[j] for j, b in enumerate(v) if b), width, n))
        return out

    def bracket(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
        """Bilinear extension of the structure constants."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("bracket arguments must have length equal to dim")
        xy = Matrix.from_rows([x, y])
        den = self.tensor[0] * xy.den**2
        x_int, y_int = xy.int_rows()
        (value,) = self.bracket_rows([x_int], [y_int])
        return tuple(Fraction(v, den) for v in value)

    def is_abelian(self) -> bool:
        return self.max_entry == 0

    @cached_property
    def twin(self) -> AdaptedInput:
        """This algebra in a basis adapted to its lower central series; see ``AdaptedInput``."""
        return adapted_input(self)

    @cached_property
    def validation(self) -> ValidationReport:
        """Decided on the twin; a failing one is validated again here for its witnesses."""
        twin = self.twin.algebra
        if twin is self:
            return validate(self)
        found = twin.validation
        return found if found.ok else validate(self)

    @cached_property
    def descending_series(self) -> SubspaceChain:
        return descending_central_series(self)

    @cached_property
    def ascending_series(self) -> SubspaceChain:
        """Computed on the twin and mapped back (``AdaptedInput.chain_to_input``)."""
        twin = self.twin
        if twin.algebra is self:
            return ascending_central_series(self)
        return twin.chain_to_input(twin.algebra.ascending_series)


class AdaptedInput(Value):
    """An algebra moved into a basis adapted to its lower central series: its twin.

    ``basis`` has the adapted basis vectors as its columns, in input
    coordinates, so it maps twin coordinates to input ones; ``inverse``
    maps input coordinates to twin ones, and ``algebra`` is the bracket in
    twin coordinates (``change_of_basis(input, inverse)``).  Both matrices
    are None when the input basis is adapted already, and ``algebra`` is
    then the input itself.  In twin coordinates each term c_j of the lower
    central series is spanned by the last dim c_j basis vectors, so the
    structure tensor is block-triangular and sparse whatever the input.
    """

    algebra: LieAlgebra
    basis: Matrix | None = None
    inverse: Matrix | None = None

    @memoized
    def to_twin(self, w: Subspace) -> Subspace:
        """A subspace of the input, in twin coordinates."""
        return w if self.inverse is None else image_subspace(w, self.inverse)

    @memoized
    def to_input(self, w: Subspace) -> Subspace:
        """A subspace given in twin coordinates, in input coordinates."""
        return w if self.basis is None else image_subspace(w, self.basis)

    def chain_to_input(self, chain: SubspaceChain) -> SubspaceChain:
        return SubspaceChain(tuple(map(self.to_input, chain.terms)))


def _is_coordinate(w: Subspace) -> bool:
    """True iff w is spanned by standard basis vectors."""
    return all(sum(map(bool, row)) == 1 for row in w.rows)


def adapted_input(alg: LieAlgebra) -> AdaptedInput:
    """The twin of ``alg``: its bracket in a basis adapted to c_0 ⊃ c_1 ⊃ ...

    The basis takes, from each term c_j of the lower central series (the
    stable one last), the canonical rows whose pivots are not pivots of
    c_{j+1}: they lie in c_j, have distinct pivots, and with c_{j+1} span
    c_j.  The series exists for any antisymmetric bracket, so the twin is
    built before Jacobi is known.  When every term is a coordinate subspace
    already, the twin is the algebra itself.  The moved algebra's own
    descending series is the coordinate flag, stored on it rather than
    computed again, and its twin is itself.
    """
    series = alg.descending_series
    if all(map(_is_coordinate, series.terms)):
        return AdaptedInput(alg)
    n = alg.dim
    rows = []
    for term, below in zip(series.terms, (*series.terms[1:], Subspace.zero(n))):
        taken = set(below.pivots)
        rows.extend(row for row, c in zip(term.rows, term.pivots) if c not in taken)
    basis = Matrix.from_rows(rows).transpose()
    inverse = basis.inverse()
    moved = _moved(alg, inverse, basis)
    full = Subspace.full(n)
    flag = tuple(Subspace(n, full.rows[n - t.dim :]) for t in series.terms)
    vars(moved).update(descending_series=SubspaceChain(flag), twin=AdaptedInput(moved))
    return AdaptedInput(moved, basis, inverse)


class JacobiViolation(Value):
    """A basis triple (1-based) whose Jacobi cyclic sum is nonzero."""

    triple: tuple[int, int, int]
    residual: Vector


class ValidationReport(Value):
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
    [a, b] = [b, a] as subspaces, so the pair is ordered by (dim, rows)
    before it reaches the memo (``memoized``): both orders share one entry,
    and the side with fewer rows plays u in ``LieAlgebra.bracket_rows``.
    """
    if a.ambient_dim != alg.dim or b.ambient_dim != alg.dim:
        raise ValueError("subspace ambient dimension does not match the algebra")
    if (a.dim, a.rows) > (b.dim, b.rows):
        a, b = b, a
    return _bracket_subspaces(alg, a, b)


@memoized
def _bracket_subspaces(alg: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    """[a, b] for an ordered pair; [a, a] takes only the pairs u before v."""
    rows = alg.bracket_rows(a.rows) if a == b else alg.bracket_rows(a.rows, b.rows)
    return Subspace(alg.dim, rows)


class SubspaceChain(Value):
    """A stabilized monotone chain of subspaces (stable term stored once)."""

    terms: tuple[Subspace, ...]

    @property
    def stabilized_at(self) -> int:
        """The first index j with term(j) = term(j+1): the last stored term."""
        return len(self.terms) - 1

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


def chain_until_stable(first: Subspace, step) -> SubspaceChain:
    """Apply ``step`` from ``first`` until two consecutive terms agree.

    Monotone chains in dimension n stabilize within n steps; running past
    n + 1 iterations therefore signals a broken step function.
    """
    terms = [first]
    for _ in range(first.ambient_dim + 1):
        nxt = step(terms[-1])
        if nxt == terms[-1]:
            return SubspaceChain(tuple(terms))
        terms.append(nxt)
    raise InconsistencyError("chain failed to stabilize within the dimension bound")


@memoized
def centralizer(alg: LieAlgebra, prev: Subspace) -> Subspace:
    """Z(prev) = {x : [x, g] ⊆ prev}, the step of both ascending chains.

    x lies in Z(prev) iff c·D·[x, e_i] = 0 for every basis index i and
    every integer row c of a basis C of the annihilator of prev.  Entry m
    of the condition row c·ad_i is Σ_k c_k·D·[e_m, e_i]_k; packing the rows
    of C across their row index, pc[k] = Σ_r c_r[k]·2^(w·r), makes
    Σ_{(k,v) ∈ D·[e_m, e_i]} v·pc[k] the packed entry m of every condition
    at once.  Each slot is within M·max‖c‖₁, M the largest integer
    structure constant, which sets w.  Both chains start at Z(0), the
    center, so the step is memoized on the algebra (``memoized``).
    """
    n, rows = alg.dim, alg.tensor[1]
    conds = int_kernel(prev.rows, n)
    if not conds:
        return Subspace.full(n)
    width = slot_width(alg.max_entry * _max_norm(conds))
    pc = [pack(((r, c[k]) for r, c in enumerate(conds) if c[k]), width) for k in range(n)]
    zero = [0] * len(conds)
    conditions = []
    for i in range(n):
        columns = [
            unpack(sum(v * pc[k] for k, v in rows[m][i]), width, len(conds))
            if rows[m][i]
            else zero
            for m in range(n)
        ]
        conditions.extend(row for row in zip(*columns) if any(row))
    return Subspace(n, int_kernel(conditions, n))


def descending_central_series(alg: LieAlgebra) -> SubspaceChain:
    """c_0 = g, c_j = [g, c_{j-1}], computed until stabilization."""
    full = Subspace.full(alg.dim)
    return chain_until_stable(full, lambda prev: bracket_subspaces(alg, full, prev))


def ascending_central_series(alg: LieAlgebra) -> SubspaceChain:
    """c^0 = 0, c^j = Z(c^{j-1}) = {x : [x, g] ⊆ c^{j-1}} (``centralizer``)."""
    return chain_until_stable(Subspace.zero(alg.dim), lambda prev: centralizer(alg, prev))


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
    n = alg.dim
    if p.rows != n or p.cols != n:
        raise ValueError("change-of-basis matrix size does not match the algebra")
    return _moved(alg, p, p.inverse())


def _moved(alg: LieAlgebra, p: Matrix, p_inv: Matrix) -> LieAlgebra:
    """``change_of_basis(alg, p)`` for a caller that holds p⁻¹ already.

    On integers, with Q = s·p⁻¹ and P = t·p, the new [e_i, e_j] is
    P·D·[Q e_i, Q e_j] over t·D·s²; the rows go to the store as they are.
    """
    n = alg.dim
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rows = alg.bracket_rows(p_inv.transpose().int_rows())
    ints = [v for row in rows for v in int_matvec(p.ints, row)]
    den = p.den * alg.tensor[0] * p_inv.den**2
    moved = LieAlgebra.__new__(LieAlgebra)
    moved._store(n, pairs, Matrix._over(len(pairs), n, ints, den))
    return moved
