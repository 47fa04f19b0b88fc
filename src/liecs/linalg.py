"""Exact linear algebra over the rationals.

Rationals enter and leave as :class:`fractions.Fraction`, but every
matrix and subspace computation runs on Python ints (unbounded, so
nothing overflows).  A :class:`Matrix` M is stored as the integers den·M
over one positive den in lowest terms, cleared once by its constructor.
A :class:`Subspace` stores its integer canonical form: the reduced row
echelon form of its row space, zero rows removed, each row
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

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Sequence

Rational = Fraction

Vector = tuple[Fraction, ...]

_MINUS_SIGNS = "−–"  # unicode minus / en-dash, normalized on input
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` into a reduced rational.

    p and q are ASCII digits, p with an optional sign and q > 0.  Outer
    whitespace is ignored, and a minus sign may be ASCII ``-`` or unicode
    minus.  Anything else, such as ``"1/-2"``, ``"1_000"`` or ``"3 / 4"``,
    is rejected.
    """
    s = text.strip()
    for sign in _MINUS_SIGNS:
        s = s.replace(sign, "-")
    match = _RATIONAL.fullmatch(s)
    if match is None:
        raise ValueError(f"not a rational 'p' or 'p/q': {text!r}")
    den = int(match[2] or 1)
    if den == 0:
        raise ValueError(f"zero denominator in rational {text!r}")
    return Fraction(int(match[1]), den)


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


@dataclass(frozen=True, init=False)
class Matrix:
    """Immutable dense rational matrix M, row-major, stored over the integers.

    ``ints`` is den·M flattened, over the one positive ``den`` with
    gcd(den, *ints) = 1.  The form is unique, so two matrices are equal (and
    hash equal) iff they have the same shape and value.  The constructor
    takes rationals (``Fraction``, int or ``"p/q"``) and is the one place
    where they become integers; ``entries``, ``at`` and ``row`` are
    ``Fraction`` views, and every operation below reads ``ints``.
    """

    rows: int
    cols: int
    ints: tuple[int, ...]
    den: int

    def __init__(self, rows: int, cols: int, entries: Iterable) -> None:
        values = [a if isinstance(a, int) else as_rational(a) for a in entries]
        den = lcm(*(a.denominator for a in values))
        self._store(rows, cols, [a.numerator * (den // a.denominator) for a in values], den)

    @classmethod
    def _over(cls, rows: int, cols: int, ints: Sequence[int], den: int) -> Matrix:
        """The matrix ints/den, for integer ``ints`` and den > 0."""
        m = cls.__new__(cls)
        m._store(rows, cols, ints, den)
        return m

    def _store(self, rows: int, cols: int, ints: Sequence[int], den: int) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(ints) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(ints)}")
        g = gcd(den, *ints)
        if g > 1:
            ints, den = [a // g for a in ints], den // g
        for name, value in (("rows", rows), ("cols", cols), ("ints", tuple(ints)), ("den", den)):
            object.__setattr__(self, name, value)

    @staticmethod
    def from_rows(rows: Sequence[Sequence], cols: int | None = None) -> Matrix:
        row_tuples = [tuple(r) for r in rows]
        if row_tuples:
            width = len(row_tuples[0])
            if any(len(r) != width for r in row_tuples):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError(f"rows have width {width}, expected {cols}")
        else:
            width = 0 if cols is None else cols
        return Matrix(len(row_tuples), width, [x for r in row_tuples for x in r])

    @staticmethod
    def identity(n: int) -> Matrix:
        return Matrix(n, n, [int(i == j) for i in range(n) for j in range(n)])

    @staticmethod
    def zero(rows: int, cols: int) -> Matrix:
        return Matrix(rows, cols, [0] * (rows * cols))

    @staticmethod
    def diagonal(values: Iterable) -> Matrix:
        vals = list(values)
        n = len(vals)
        return Matrix(n, n, [vals[i] if i == j else 0 for i in range(n) for j in range(n)])

    @cached_property
    def entries(self) -> tuple[Fraction, ...]:
        """The entries as ``Fraction``s, built on first request."""
        return tuple(Fraction(a, self.den) for a in self.ints)

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_list(self) -> list[Vector]:
        return [self.row(i) for i in range(self.rows)]

    def int_rows(self) -> list[list[int]]:
        """The rows of den·M as integer lists."""
        c = self.cols
        return [list(self.ints[i * c : (i + 1) * c]) for i in range(self.rows)]

    def transpose(self) -> Matrix:
        c = self.cols
        return Matrix._over(c, self.rows, [a for j in range(c) for a in self.ints[j::c]], self.den)

    def __add__(self, other: Matrix) -> Matrix:
        self._require_same_shape(other)
        den = lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        ints = [a * s + b * t for a, b in zip(self.ints, other.ints)]
        return Matrix._over(self.rows, self.cols, ints, den)

    def __sub__(self, other: Matrix) -> Matrix:
        return self + (-other)

    def __neg__(self) -> Matrix:
        return Matrix._over(self.rows, self.cols, [-a for a in self.ints], self.den)

    def scale(self, c) -> Matrix:
        k = Matrix(1, 1, [c])
        ints = [k.ints[0] * a for a in self.ints]
        return Matrix._over(self.rows, self.cols, ints, self.den * k.den)

    def __matmul__(self, other: Matrix) -> Matrix:
        """The product (s·self)(t·other) over the integers, kept over s·t."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.cols} columns vs {other.rows} rows")
        inner, n_out = self.cols, other.cols
        columns = [other.ints[j::n_out] for j in range(n_out)]
        ints = [
            sum(map(mul, self.ints[i * inner : (i + 1) * inner], column))
            for i in range(self.rows)
            for column in columns
        ]
        return Matrix._over(self.rows, n_out, ints, self.den * other.den)

    def matvec(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.cols:
            raise ValueError(f"vector of length {len(v)}, expected {self.cols}")
        return (self @ Matrix(self.cols, 1, v)).entries

    def is_symmetric(self) -> bool:
        n, ints = self.rows, self.ints
        return self.rows == self.cols and all(
            ints[i * n + j] == ints[j * n + i] for i in range(n) for j in range(i)
        )

    def det(self) -> Fraction:
        """det(M) = det(den·M) / den^n, with det(den·M) = ± the last Bareiss pivot."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        sign, last = 1, 1
        for last, swapped in _bareiss(self.int_rows()):
            if swapped:
                sign = -sign
        return Fraction(sign * last, self.den**self.rows)

    def inverse(self) -> Matrix:
        """Gauss-Jordan on [den·M | I]: pivot row i is c_i·[e_i | row i of (den·M)⁻¹]."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        work = [row + [int(i == j) for j in range(n)] for i, row in enumerate(self.int_rows())]
        reduced, pivots = _eliminate(work, n)
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        den = lcm(*(row[i] for i, row in enumerate(reduced)))
        ints = [a * self.den * (den // row[i]) for i, row in enumerate(reduced) for a in row[n:]]
        return Matrix._over(n, n, ints, den)

    def _require_same_shape(self, other: Matrix) -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )


def _bareiss(work: list[list[int]]) -> Iterator[tuple[int, bool]]:
    """Fraction-free (Bareiss) elimination of a square integer matrix, in place.

    Yields (pivot, swapped) per column; a zero leading entry is swapped with
    the first nonzero one below it, and a column with none yields (0, False)
    and ends.  Divisions are exact.  The last pivot is ± the determinant;
    before any swap the k-th pivot is the k-th leading principal minor.
    """
    n = len(work)
    previous = 1
    for k in range(n):
        below = next((r for r in range(k, n) if work[r][k]), None)
        if below is None:
            yield 0, False
            return
        if below != k:
            work[k], work[below] = work[below], work[k]
        top = work[k]
        p = top[k]
        yield p, below != k
        for row in work[k + 1 :]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * p - f * top[j]) // previous
        previous = p


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
    return Subspace.from_int_rows(m.cols, m.int_rows()).basis


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
        """Canonical form of the span of rational rows (anything ``Matrix`` accepts)."""
        return Subspace.from_int_rows(ambient_dim, Matrix.from_rows(rows, ambient_dim).int_rows())

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
        rows = list(zip(self.rows, self.pivots))
        den = lcm(*(row[c] for row, c in rows))
        ints = [a * (den // row[c]) for row, c in rows for a in row]
        return Matrix._over(self.dim, self.ambient_dim, ints, den)

    def basis_rows(self) -> list[Vector]:
        return self.basis.row_list()


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


def is_positive_definite(gram: Matrix) -> bool:
    """Symmetric, and every pivot of elimination without row swaps is positive.

    Bareiss elimination of den·gram: while no row is swapped, the k-th
    pivot is the k-th leading principal minor, so this is Sylvester's
    criterion in one O(n³) pass.  The factor den is positive, which keeps
    every sign.
    """
    return gram.is_symmetric() and all(
        p > 0 and not swapped for p, swapped in _bareiss(gram.int_rows())
    )


def orthogonal_complement(a: Subspace, gram: Matrix) -> Subspace:
    """Complement of ``a`` with respect to an SPD bilinear form.

    Returns {x : <u, x>_gram = 0 for all u in a}; positive definiteness
    guarantees a ⊕ a^⊥ is the full space.  The conditions read den·gram,
    a positive multiple, which leaves the kernel unchanged; it is
    symmetric, so the condition u·G equals G·u.
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
    conditions = [int_matvec(gram.ints, row) for row in a.rows]
    return Subspace.from_int_rows(n, int_kernel(conditions, n))


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

    The rows are mapped by den·m, a positive multiple, which rescales every
    image row and leaves the span unchanged.
    """
    if m.cols != w.ambient_dim:
        raise ValueError("map width does not match ambient dimension")
    return Subspace.from_int_rows(m.rows, [int_matvec(m.ints, r) for r in w.rows])
