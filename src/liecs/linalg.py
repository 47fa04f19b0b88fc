"""Exact linear algebra over the rationals.

Everything here is built on :class:`fractions.Fraction`, so results are exact
and subspace equality is decidable.  A :class:`Subspace` always stores the
reduced row echelon form of its row space with zero rows removed; two
subspaces are equal iff their stored bases are entry-wise equal, which turns
every set-theoretic question below into a syntactic check.

No floating point enters this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
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


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def basis_vector(n: int, k: int) -> Vector:
    """Standard basis vector e_k (0-based) in dimension n."""
    if not 0 <= k < n:
        raise ValueError(f"basis index {k} out of range for dimension {n}")
    return tuple(Fraction(1 if i == k else 0) for i in range(n))


def add_vectors(x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
    return tuple(a + b for a, b in zip(x, y, strict=True))


def sub_vectors(x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
    return tuple(a - b for a, b in zip(x, y, strict=True))


def scale_vector(c: Fraction, x: Sequence[Fraction]) -> Vector:
    return tuple(c * a for a in x)


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
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.cols} columns vs {other.rows} rows")
        n_out = other.cols
        zero = Fraction(0)
        out: list[Fraction] = [zero] * (self.rows * n_out)
        for i in range(self.rows):
            left = self.row(i)
            base = i * n_out
            for k, a in enumerate(left):
                if a:
                    right = other.row(k)
                    for j, b in enumerate(right):
                        if b:
                            out[base + j] += a * b
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
        work = [list(self.row(i)) + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        echelon, pivots = _row_reduce(work, n)
        if len(pivots) < n or pivots != list(range(n)):
            raise ValueError("matrix is singular")
        inv_rows = [row[n:] for row in echelon[:n]]
        return Matrix.from_rows(inv_rows)

    def _require_same_shape(self, other: Matrix) -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )


def _row_reduce(
    work: Sequence[Sequence[Fraction | int]], width: int
) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan over the first ``width`` columns.

    Returns the reduced rows (zero rows last, pivot rows normalized to
    leading 1) and the list of pivot columns.  Columns past ``width`` ride
    along, which is how the inverse is computed.

    Internally rows are cleared to integers and eliminated by exact
    cross-multiplication with per-row gcd reduction; integer arithmetic is
    several times cheaper than Fraction arithmetic and the row space is
    unchanged by row scaling.
    """
    n_rows = len(work)
    total = len(work[0]) if work else 0
    rows: list[list[int]] = []
    for frow in work:
        lcm = 1
        for a in frow:
            d = a.denominator
            if d != 1:
                lcm = lcm * d // gcd(lcm, d)
        rows.append([a.numerator * (lcm // a.denominator) for a in frow])

    pivots: list[int] = []
    pivot_row = 0
    for col in range(width):
        src = next((r for r in range(pivot_row, n_rows) if rows[r][col]), None)
        if src is None:
            continue
        rows[pivot_row], rows[src] = rows[src], rows[pivot_row]
        prow = rows[pivot_row]
        pivot = prow[col]
        for r in range(n_rows):
            if r == pivot_row:
                continue
            row = rows[r]
            factor = row[col]
            if factor:
                # cross-multiplication rescales the whole row, so every
                # column participates, not just those at or past the pivot
                for c in range(total):
                    row[c] = row[c] * pivot - prow[c] * factor
                common = 0
                for v in row:
                    common = gcd(common, v)
                    if common == 1:
                        break
                if common > 1:
                    for c in range(total):
                        row[c] //= common
        pivots.append(col)
        pivot_row += 1
        if pivot_row == n_rows:
            break

    out: list[list[Fraction]] = []
    for i, row in enumerate(rows):
        if i < len(pivots):
            pivot = row[pivots[i]]
            out.append([Fraction(v, pivot) for v in row])
        else:
            out.append([Fraction(v) for v in row])
    return out, pivots


def rref(m: Matrix) -> Matrix:
    """Reduced row echelon form with zero rows removed.

    The result is the canonical representative of the row space of ``m``.
    """
    work = [list(m.row(i)) for i in range(m.rows)]
    reduced, pivots = _row_reduce(work, m.cols)
    return Matrix.from_rows(reduced[: len(pivots)], cols=m.cols)


def kernel_basis(m: Matrix) -> Matrix:
    """Canonical basis of ``{x : m @ x = 0}`` as rows of a matrix."""
    return kernel_of_rows([m.row(i) for i in range(m.rows)], m.cols)


def kernel_of_rows(rows: Sequence[Sequence[Fraction | int]], cols: int) -> Matrix:
    """:func:`kernel_basis` of the matrix with these rows, rational or integer.

    The rows go to the row reduction as they are; it works over integers.
    """
    reduced, pivots = _row_reduce(rows, cols)
    pivot_set = set(pivots)
    free = [j for j in range(cols) if j not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(v)
    return rref(Matrix.from_rows(basis, cols=cols))


def _is_rref(m: Matrix) -> bool:
    """Structural check that ``m`` is a reduced row echelon form, no zero rows."""
    prev_pivot = -1
    for i in range(m.rows):
        row = m.row(i)
        pivot = next((j for j, a in enumerate(row) if a != 0), None)
        if pivot is None or pivot <= prev_pivot or row[pivot] != 1:
            return False
        if any(m.at(r, pivot) != 0 for r in range(m.rows) if r != i):
            return False
        prev_pivot = pivot
    return True


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^n in canonical (RREF) form.

    The zero subspace is a basis matrix with zero rows, never a missing
    object: series computations routinely terminate there.
    """

    ambient_dim: int
    basis: Matrix

    def __post_init__(self) -> None:
        if self.basis.cols != self.ambient_dim:
            raise ValueError(
                f"basis width {self.basis.cols} does not match ambient dim {self.ambient_dim}"
            )
        if not _is_rref(self.basis):
            raise ValueError("subspace basis is not in reduced row echelon form")

    @staticmethod
    def from_rows(ambient_dim: int, rows: Sequence[Sequence]) -> Subspace:
        m = Matrix.from_rows(rows, cols=ambient_dim)
        return Subspace(ambient_dim, rref(m))

    @staticmethod
    def zero(ambient_dim: int) -> Subspace:
        return Subspace(ambient_dim, Matrix.zero(0, ambient_dim))

    @staticmethod
    def full(ambient_dim: int) -> Subspace:
        return Subspace(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def basis_rows(self) -> list[Vector]:
        return self.basis.row_list()

    def contains_vector(self, v: Sequence[Fraction]) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        return is_zero_vector(_reduce_against(self.basis, v))


def _reduce_against(reduced: Matrix, v: Sequence[Fraction]) -> Vector:
    """Residual of ``v`` after elimination by the RREF rows of ``reduced``."""
    out = list(v)
    for i in range(reduced.rows):
        row = reduced.row(i)
        pivot_col = next(j for j, a in enumerate(row) if a != 0)
        coeff = out[pivot_col]
        if coeff != 0:
            for j in range(len(out)):
                out[j] -= coeff * row[j]
    return tuple(out)


def _require_same_ambient(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError(
            f"ambient dimension mismatch: {a.ambient_dim} vs {b.ambient_dim}"
        )


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    """Canonical form of a + b (span of the stacked bases)."""
    _require_same_ambient(a, b)
    return Subspace.from_rows(a.ambient_dim, a.basis_rows() + b.basis_rows())


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Canonical form of a ∩ b.

    A vector lies in both spaces iff it is u·A = v·B for coefficient rows
    u, v, i.e. (u, -v) is in the kernel of the matrix whose columns are the
    basis vectors of a followed by those of b.
    """
    _require_same_ambient(a, b)
    if a.is_zero() or b.is_zero():
        return Subspace.zero(a.ambient_dim)
    stacked = Matrix.from_rows(
        a.basis_rows() + b.basis_rows(), cols=a.ambient_dim
    ).transpose()
    coeffs = kernel_basis(stacked)
    rows = []
    for i in range(coeffs.rows):
        u = coeffs.row(i)[: a.dim]
        x = zero_vector(a.ambient_dim)
        for c, basis_row in zip(u, a.basis_rows()):
            if c != 0:
                x = add_vectors(x, scale_vector(c, basis_row))
        rows.append(x)
    return Subspace.from_rows(a.ambient_dim, rows)


def contains(a: Subspace, b: Subspace) -> bool:
    """True iff b ⊆ a."""
    _require_same_ambient(a, b)
    return all(is_zero_vector(_reduce_against(a.basis, r)) for r in b.basis_rows())


def solve_membership_kernel(conditions: Matrix) -> Subspace:
    """The solution space ``{x : conditions @ x = 0}`` as a canonical subspace."""
    return Subspace(conditions.cols, kernel_basis(conditions))


def membership_conditions(w: Subspace) -> Matrix:
    """A condition matrix C with ``w = {x : C @ x = 0}``.

    Rows of C span the annihilator of w under the standard dot product;
    over Q the double annihilator gives back w exactly.
    """
    if w.is_full():
        return Matrix.zero(0, w.ambient_dim)
    return kernel_basis(w.basis)


def is_positive_definite(gram: Matrix) -> bool:
    """Sylvester's criterion: symmetric with positive leading principal minors."""
    if not gram.is_symmetric():
        return False
    n = gram.rows
    for k in range(1, n + 1):
        sub = Matrix.from_rows(
            [[gram.at(i, j) for j in range(k)] for i in range(k)], cols=k
        )
        if sub.det() <= 0:
            return False
    return True


def orthogonal_complement(a: Subspace, gram: Matrix) -> Subspace:
    """Complement of ``a`` with respect to an SPD bilinear form.

    Returns {x : <u, x>_gram = 0 for all u in a}; positive definiteness
    guarantees a ⊕ a^⊥ is the full space.
    """
    if gram.rows != a.ambient_dim or gram.cols != a.ambient_dim:
        raise ValueError("gram matrix size does not match ambient dimension")
    if not gram.is_symmetric():
        raise ValueError("gram matrix is not symmetric")
    if not is_positive_definite(gram):
        raise ValueError("gram matrix is not positive definite")
    if a.is_zero():
        return Subspace.full(a.ambient_dim)
    conditions = a.basis @ gram
    return solve_membership_kernel(conditions)


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
    """Product ``M @ v`` for a flattened square integer matrix and an integer vector."""
    n = len(v)
    return [sum(a * b for a, b in zip(flat[r * n : (r + 1) * n], v) if b) for r in range(n)]


def image_subspace(w: Subspace, m: Matrix) -> Subspace:
    """Canonical form of ``m(w)``, the image of w under the linear map m.

    Computed over cleared integers: scaling the map by one global positive
    factor and each basis row individually rescales every image row,
    leaving the row space (hence the canonical form) unchanged.
    """
    if m.cols != w.ambient_dim:
        raise ValueError("map width does not match ambient dimension")
    m_int = clear_denominators(m.entries)
    rows = []
    for r in w.basis_rows():
        r_int = clear_denominators(r)
        row = [
            sum(m_int[i * m.cols + k] * r_int[k] for k in range(m.cols) if r_int[k])
            for i in range(m.rows)
        ]
        rows.append(row)
    return Subspace.from_rows(m.rows, rows)
