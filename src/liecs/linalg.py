"""Exact linear algebra over the rationals.

Rationals enter and leave as :class:`fractions.Fraction`, but every
subspace computation runs on Python ints (unbounded, so nothing
overflows).  A :class:`Subspace` stores its integer canonical form: the
reduced row echelon form of its row space, zero rows removed, each row
scaled to its primitive integer multiple with a positive pivot.  The form
is unique, so two subspaces are equal iff their stored rows are
entry-wise equal, which turns every set-theoretic question below into a
syntactic check.  One fraction-free elimination, ``_eliminate``, builds
it; sums, intersections, kernels, images, complements, ``rref`` and
``Matrix.inverse`` all go through it.  The ``Fraction`` form of a basis
(each row divided by its pivot) is built only when it is asked for.

No floating point enters this module.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Rational = Fraction

Vector = tuple[Fraction, ...]

_MINUS_SIGNS = "−–"  # unicode minus / en-dash, normalized on input


def parse_rational(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` into a reduced rational.

    A leading minus sign may be ASCII ``-`` or unicode minus.  A zero
    denominator is rejected.
    """
    s = text.strip()
    for sign in _MINUS_SIGNS:
        s = s.replace(sign, "-")
    if "/" in s:
        num_text, _, den_text = s.partition("/")
        num = int(num_text)
        den = int(den_text)
        if den == 0:
            raise ValueError(f"zero denominator in rational {text!r}")
        return Fraction(num, den)
    return Fraction(int(s))


def format_rational(q: Fraction) -> str:
    """Canonical string form: ``"p"`` when the denominator is 1, else ``"p/q"``."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def as_rational(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def vector(values: Iterable) -> Vector:
    return tuple(as_rational(v) for v in values)


def basis_vector(n: int, k: int) -> Vector:
    """Standard basis vector e_k (0-based) in dimension n."""
    if not 0 <= k < n:
        raise ValueError(f"basis index {k} out of range for dimension {n}")
    return tuple(Fraction(1 if i == k else 0) for i in range(n))


def is_zero_vector(x: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in x)


@dataclass(frozen=True)
class Matrix:
    """Immutable dense rational matrix, row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @staticmethod
    def from_rows(rows: Sequence[Sequence], cols: int | None = None) -> Matrix:
        row_tuples = [vector(r) for r in rows]
        if row_tuples:
            width = len(row_tuples[0])
            if any(len(r) != width for r in row_tuples):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError(f"rows have width {width}, expected {cols}")
        else:
            width = 0 if cols is None else cols
        flat = tuple(x for r in row_tuples for x in r)
        return Matrix(len(row_tuples), width, flat)

    @staticmethod
    def identity(n: int) -> Matrix:
        return Matrix(
            n, n, tuple(Fraction(1 if i == j else 0) for i in range(n) for j in range(n))
        )

    @staticmethod
    def zero(rows: int, cols: int) -> Matrix:
        return Matrix(rows, cols, (Fraction(0),) * (rows * cols))

    @staticmethod
    def diagonal(values: Iterable) -> Matrix:
        vals = vector(values)
        n = len(vals)
        return Matrix(
            n, n, tuple(vals[i] if i == j else Fraction(0) for i in range(n) for j in range(n))
        )

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> Vector:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_list(self) -> list[Vector]:
        return [self.row(i) for i in range(self.rows)]

    def transpose(self) -> Matrix:
        return Matrix(
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def __add__(self, other: Matrix) -> Matrix:
        self._require_same_shape(other)
        return Matrix(
            self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries))
        )

    def __sub__(self, other: Matrix) -> Matrix:
        self._require_same_shape(other)
        return Matrix(
            self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries))
        )

    def __neg__(self) -> Matrix:
        return Matrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c) -> Matrix:
        q = as_rational(c)
        return Matrix(self.rows, self.cols, tuple(q * a for a in self.entries))

    def __matmul__(self, other: Matrix) -> Matrix:
        """The product, multiplied over the integers s·self and t·other.

        Each nonzero entry is divided back once, as one ``Fraction(v, s·t)``.
        """
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.cols} columns vs {other.rows} rows")
        (left, s), (right, t) = cleared(self.entries), cleared(other.entries)
        inner, n_out, den = self.cols, other.cols, s * t
        columns = [right[j::n_out] for j in range(n_out)]
        zero = Fraction(0)
        out = []
        for i in range(self.rows):
            row = left[i * inner : (i + 1) * inner]
            for column in columns:
                v = sum(map(mul, row, column))
                out.append(Fraction(v, den) if v else zero)
        return Matrix(self.rows, n_out, tuple(out))

    def matvec(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.cols:
            raise ValueError(f"vector of length {len(v)}, expected {self.cols}")
        zero = Fraction(0)
        out: list[Fraction] = [zero] * self.rows
        for i in range(self.rows):
            row = self.row(i)
            acc = zero
            for k, b in enumerate(v):
                if b:
                    a = row[k]
                    if a:
                        acc += a * b
            out[i] = acc
        return tuple(out)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.at(i, j) == self.at(j, i) for i in range(self.rows) for j in range(i)
        )

    def det(self) -> Fraction:
        """Determinant via fraction-free-ish Gaussian elimination (exact)."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        work = [list(self.row(i)) for i in range(n)]
        det = Fraction(1)
        for col in range(n):
            pivot_row = next((r for r in range(col, n) if work[r][col] != 0), None)
            if pivot_row is None:
                return Fraction(0)
            if pivot_row != col:
                work[col], work[pivot_row] = work[pivot_row], work[col]
                det = -det
            pivot = work[col][col]
            det *= pivot
            for r in range(col + 1, n):
                factor = work[r][col] / pivot
                if factor != 0:
                    work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
        return det

    def inverse(self) -> Matrix:
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        work = [
            clear_denominators(self.row(i) + tuple(Fraction(int(i == j)) for j in range(n)))
            for i in range(n)
        ]
        reduced, pivots = _eliminate(work, n)
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix.from_rows(
            [[Fraction(a, row[i]) for a in row[n:]] for i, row in enumerate(reduced)]
        )

    def _require_same_shape(self, other: Matrix) -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )


def _eliminate(rows: Sequence[Sequence[int]], width: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination over the first ``width`` columns.

    Returns the rows and their pivot columns.  The first ``len(pivots)``
    rows are the pivot rows in pivot order: each is primitive, its pivot is
    positive and is the only nonzero entry of its column.  The remaining
    rows are zero on the first ``width`` columns.  Columns past ``width``
    ride along, which is how the inverse and the intersection are computed.

    Rows are taken one at a time and reduced by the pivot rows so far
    (``_reduce``).  A remainder that is nonzero on the first ``width``
    columns becomes a new pivot row, and its pivot column is cleared from
    the others by (p/g)·other − (other_c/g)·new, g = gcd(p, other_c).
    Every stored row is divided by the gcd of its entries; scaling a row
    by a nonzero integer never changes the row space.
    """
    basis: list[list[int]] = []
    pivots: list[int] = []
    rest: list[list[int]] = []
    for row in rows:
        if len(pivots) == width == len(row):
            break
        v = _reduce(row, basis, pivots)
        g = gcd(*v)
        if not g:
            continue
        if g > 1:
            v = [a // g for a in v]
        col = next((j for j in range(width) if v[j]), None)
        if col is None:
            rest.append(v)
            continue
        if v[col] < 0:
            v = [-a for a in v]
        p = v[col]
        for index, b in enumerate(basis):
            f = b[col]
            if f:
                g = gcd(p, f)
                s, t = p // g, f // g
                b = [x * s - y * t for x, y in zip(b, v)]
                g = gcd(*b)
                basis[index] = b if g == 1 else [a // g for a in b]
        at = bisect_left(pivots, col)
        pivots.insert(at, col)
        basis.insert(at, v)
    return basis + rest, pivots


def _reduce(row: Sequence[int], basis: Sequence[Sequence[int]], pivots: Sequence[int]) -> list[int]:
    """A positive multiple of ``row`` minus its expansion over reduced pivot rows.

    Each pivot column c (pivot p) is nonzero only in its own row, so with
    L the lcm of the pivots that ``row`` meets, L·row − Σ (row_c·L/p)·pivot_row
    is zero on every pivot column, and zero altogether iff ``row`` lies in
    their span.
    """
    hits = [(b, c) for b, c in zip(basis, pivots) if row[c]]
    if not hits:
        return list(row)
    scale = lcm(*(b[c] for b, c in hits))
    v = [scale * a for a in row]
    for b, c in hits:
        k = row[c] * (scale // b[c])
        v = [x - k * y for x, y in zip(v, b)]
    return v


def int_kernel(rows: Sequence[Sequence[int]], cols: int) -> list[list[int]]:
    """Integer vectors spanning ``{x : r·x = 0 for every row r}``, one per free column."""
    reduced, pivots = _eliminate(rows, cols)
    pivot_rows = reduced[: len(pivots)]
    scale = lcm(*(row[c] for row, c in zip(pivot_rows, pivots)))
    taken = set(pivots)
    basis = []
    for f in range(cols):
        if f not in taken:
            v = [0] * cols
            v[f] = scale
            for row, c in zip(pivot_rows, pivots):
                v[c] = -row[f] * (scale // row[c])
            basis.append(v)
    return basis


def rref(m: Matrix) -> Matrix:
    """Reduced row echelon form with zero rows removed.

    The result is the canonical representative of the row space of ``m``.
    """
    return Subspace.from_rows(m.cols, m.row_list()).basis


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^n in canonical integer form.

    ``rows`` is the reduced row echelon form of the subspace with each row
    replaced by its primitive integer multiple with positive pivot.  The
    form is unique, so two subspaces are equal iff their ``rows`` are, and
    ``pivots`` lists the pivot column of each row.

    The zero subspace has no rows, never a missing object: series
    computations routinely terminate there.
    """

    ambient_dim: int
    rows: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rows = tuple(map(tuple, self.rows))
        pivots: list[int] = []
        for row in rows:
            if len(row) != self.ambient_dim:
                raise ValueError(
                    f"row width {len(row)} does not match ambient dim {self.ambient_dim}"
                )
            pivot = next((j for j, a in enumerate(row) if a), None)
            if pivot is None or (pivots and pivot <= pivots[-1]):
                raise ValueError("subspace rows are not nonzero with increasing pivots")
            if row[pivot] < 0:
                raise ValueError(f"pivot in column {pivot} is negative")
            if gcd(*row) != 1:
                raise ValueError(f"row with pivot column {pivot} is not primitive")
            pivots.append(pivot)
        for i, c in enumerate(pivots):
            if any(row[c] for k, row in enumerate(rows) if k != i):
                raise ValueError(f"pivot column {c} has another nonzero entry")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "pivots", tuple(pivots))

    @staticmethod
    def from_rows(ambient_dim: int, rows: Sequence[Sequence]) -> Subspace:
        """Canonical form of the span of rational rows (anything ``vector`` accepts)."""
        int_rows = []
        for r in rows:
            v = vector(r)
            if len(v) != ambient_dim:
                raise ValueError(f"rows have width {len(v)}, expected {ambient_dim}")
            int_rows.append(clear_denominators(v))
        return Subspace.from_int_rows(ambient_dim, int_rows)

    @staticmethod
    def from_int_rows(ambient_dim: int, rows: Sequence[Sequence[int]]) -> Subspace:
        """Canonical form of the span of integer rows."""
        if any(len(r) != ambient_dim for r in rows):
            raise ValueError(f"rows must have width {ambient_dim}")
        reduced, pivots = _eliminate(rows, ambient_dim)
        return Subspace(ambient_dim, tuple(map(tuple, reduced[: len(pivots)])))

    @staticmethod
    def zero(ambient_dim: int) -> Subspace:
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> Subspace:
        return Subspace(
            ambient_dim,
            tuple(tuple(int(i == j) for j in range(ambient_dim)) for i in range(ambient_dim)),
        )

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    @cached_property
    def basis(self) -> Matrix:
        """The reduced row echelon form as a rational matrix: each row over its pivot."""
        return Matrix(
            self.dim,
            self.ambient_dim,
            tuple(Fraction(a, row[c]) for row, c in zip(self.rows, self.pivots) for a in row),
        )

    def basis_rows(self) -> list[Vector]:
        return self.basis.row_list()

    def contains_vector(self, v: Sequence[Fraction]) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        return not any(_reduce(clear_denominators(vector(v)), self.rows, self.pivots))


def _require_same_ambient(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError(
            f"ambient dimension mismatch: {a.ambient_dim} vs {b.ambient_dim}"
        )


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    """Canonical form of a + b (span of the stacked rows)."""
    _require_same_ambient(a, b)
    if b.is_zero() or a.is_full():
        return a
    if a.is_zero() or b.is_full():
        return b
    return Subspace.from_int_rows(a.ambient_dim, a.rows + b.rows)


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Canonical form of a ∩ b (Zassenhaus).

    The row space of [[A, A], [B, 0]] contains (x, y) with x = 0 exactly
    when y = uA = -vB lies in both spaces.  Eliminating on the left half
    leaves those vectors as the rows whose left half is zero.
    """
    _require_same_ambient(a, b)
    if a.is_zero() or b.is_full():
        return a
    if b.is_zero() or a.is_full():
        return b
    n = a.ambient_dim
    stacked = [row + row for row in a.rows] + [row + (0,) * n for row in b.rows]
    reduced, pivots = _eliminate(stacked, n)
    return Subspace.from_int_rows(n, [row[n:] for row in reduced[len(pivots) :]])


def contains(a: Subspace, b: Subspace) -> bool:
    """True iff b ⊆ a."""
    _require_same_ambient(a, b)
    return b.dim <= a.dim and all(not any(_reduce(v, a.rows, a.pivots)) for v in b.rows)


def solve_membership_kernel(conditions: Matrix) -> Subspace:
    """The solution space ``{x : conditions @ x = 0}`` as a canonical subspace."""
    rows = [clear_denominators(r) for r in conditions.row_list()]
    return Subspace.from_int_rows(conditions.cols, int_kernel(rows, conditions.cols))


def membership_conditions(w: Subspace) -> Matrix:
    """A condition matrix C with ``w = {x : C @ x = 0}``.

    Rows of C span the annihilator of w under the standard dot product;
    over Q the double annihilator gives back w exactly.
    """
    return Subspace.from_int_rows(w.ambient_dim, int_kernel(w.rows, w.ambient_dim)).basis


def is_positive_definite(gram: Matrix) -> bool:
    """Symmetric, and every pivot of elimination without row swaps is positive.

    Fraction-free (Bareiss) elimination of the cleared matrix: the k-th
    pivot is then the k-th leading principal minor, so this is Sylvester's
    criterion in one O(n³) pass.  Clearing scales by a positive number,
    which keeps every sign.
    """
    if not gram.is_symmetric():
        return False
    n = gram.rows
    flat = clear_denominators(gram.entries)
    work = [flat[i * n : (i + 1) * n] for i in range(n)]
    previous = 1
    for k in range(n):
        pivot_row = work[k]
        p = pivot_row[k]
        if p <= 0:
            return False
        for row in work[k + 1 :]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * p - f * pivot_row[j]) // previous
        previous = p
    return True


def orthogonal_complement(a: Subspace, gram: Matrix) -> Subspace:
    """Complement of ``a`` with respect to an SPD bilinear form.

    Returns {x : <u, x>_gram = 0 for all u in a}; positive definiteness
    guarantees a ⊕ a^⊥ is the full space.  The gram matrix is cleared by
    one positive factor, which leaves the kernel unchanged.
    """
    n = a.ambient_dim
    if gram.rows != n or gram.cols != n:
        raise ValueError("gram matrix size does not match ambient dimension")
    if not gram.is_symmetric():
        raise ValueError("gram matrix is not symmetric")
    if not is_positive_definite(gram):
        raise ValueError("gram matrix is not positive definite")
    if a.is_zero():
        return Subspace.full(n)
    flat = clear_denominators(gram.entries)
    conditions = [int_row_times_matrix(row, flat, n) for row in a.rows]
    return Subspace.from_int_rows(n, int_kernel(conditions, n))


def cleared(vec: Sequence[Fraction]) -> tuple[list[int], int]:
    """The integer vector s·vec and the positive lcm s of its denominators."""
    scale = lcm(*(a.denominator for a in vec))
    return [a.numerator * (scale // a.denominator) for a in vec], scale


def clear_denominators(vec: Sequence[Fraction]) -> list[int]:
    """Scale a rational vector by the positive lcm of denominators.

    The result spans the same line, which is all the row-space machinery
    needs; integer arithmetic is considerably cheaper than Fraction.
    """
    return cleared(vec)[0]


def int_row_times_matrix(row: Sequence[int], flat: Sequence[int], cols: int) -> list[int]:
    """Product ``row @ M`` for an integer row and a flattened integer matrix."""
    out = [0] * cols
    for k, a in enumerate(row):
        if a:
            base = k * cols
            for j in range(cols):
                b = flat[base + j]
                if b:
                    out[j] += a * b
    return out


def int_matvec(flat: Sequence[int], v: Sequence[int]) -> list[int]:
    """Product ``M @ v`` for a flattened integer matrix with ``len(v)`` columns."""
    n = len(v)
    return [sum(map(mul, flat[r : r + n], v)) for r in range(0, len(flat), n)]


def slot_width(bound: int) -> int:
    """Slot width for packing vectors whose entries satisfy |v_k| <= ``bound``.

    The bits of the bound plus a sign bit, so |v_k| < 2^(width-1).
    """
    return bound.bit_length() + 1


def pack(terms: Iterable[tuple[int, int]], width: int) -> int:
    """Σ v·2^(width·k) over the (k, v) in ``terms``: a vector as one int.

    Packing (Kronecker substitution) is linear and exact for any ints, so
    sums and integer multiples of packed vectors pack the sums and
    multiples of the vectors, with no bound on the intermediate values.
    On vectors with every |v_k| < 2^(width-1) it is injective: such a
    vector packs to 0 iff it is zero, and ``unpack`` recovers it.
    """
    return sum(v << (width * k) for k, v in terms)


def unpack(packed: int, width: int, n: int) -> list[int]:
    """The n slots of ``packed``, each in [-2^(width-1), 2^(width-1)).

    Each slot is read as a signed residue mod 2^width and subtracted before
    the shift: a negative slot borrows from the slot above it.
    """
    half, mask = 1 << (width - 1), (1 << width) - 1
    out = []
    for _ in range(n):
        slot = packed & mask
        if slot >= half:
            slot -= mask + 1
        out.append(slot)
        packed = (packed - slot) >> width
    return out


def image_subspace(w: Subspace, m: Matrix) -> Subspace:
    """Canonical form of ``m(w)``, the image of w under the linear map m.

    The map is cleared by one positive factor, which rescales every image
    row and leaves the span unchanged.
    """
    if m.cols != w.ambient_dim:
        raise ValueError("map width does not match ambient dimension")
    flat = clear_denominators(m.entries)
    return Subspace.from_int_rows(m.rows, [int_matvec(flat, r) for r in w.rows])
