import random
from fractions import Fraction

import pytest

from liecs import (
    LieAlgebra,
    Matrix,
    Stratification,
    builtin,
    catalog_names,
    change_of_basis,
    image_subspace,
    validate_almost_complex,
)


def random_invertible(rng: random.Random, n: int, lo: int = -2, hi: int = 2) -> Matrix:
    """Seeded random invertible integer matrix."""
    while True:
        rows = [[Fraction(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)]
        m = Matrix.from_rows(rows)
        if m.det() != 0:
            return m


def random_spd(rng: random.Random, n: int) -> Matrix:
    """Seeded random rational SPD matrix (AᵀA for invertible A)."""
    a = random_invertible(rng, n)
    return a.transpose() @ a


def fraction_rref(rows, n: int) -> list[tuple[Fraction, ...]]:
    """Reduced row echelon form of rational rows, zero rows removed.

    Plain Gauss-Jordan over ``Fraction``, sharing no code with the library:
    the oracle for its integer canonical form.
    """
    work = [[Fraction(a) for a in r] for r in rows]
    out = []
    for col in range(n):
        src = next((r for r in work if r[col] != 0), None)
        if src is None:
            continue
        work.remove(src)
        pivot_row = [a / src[col] for a in src]
        for r in out + work:
            factor = r[col]
            if factor != 0:
                r[:] = [a - factor * b for a, b in zip(r, pivot_row)]
        out.append(pivot_row)
    return [tuple(r) for r in out]


def fraction_change_of_basis(alg: LieAlgebra, p: Matrix) -> LieAlgebra:
    """The bracket in the coordinates y = p @ x, on ``Fraction``s throughout.

    p ∘ [ , ] ∘ (p⁻¹ × p⁻¹) on the basis pairs, with p⁻¹ from
    ``fraction_rref`` of [p | I] and the bracket expanded from the structure
    constants: the oracle for the library's integer ``change_of_basis``.
    """
    n = alg.dim
    p_rows = [list(p.row(r)) for r in range(n)]
    augmented = [row + [Fraction(int(r == c)) for c in range(n)] for r, row in enumerate(p_rows)]
    inverse = [row[n:] for row in fraction_rref(augmented, 2 * n)]
    columns = [[inverse[r][c] for r in range(n)] for c in range(n)]

    def bracket(x, y):
        out = [Fraction(0)] * n
        for i, j, coeffs in alg.structure:
            w = x[i] * y[j] - x[j] * y[i]
            for k, c in enumerate(coeffs):
                out[k] += w * c
        return out

    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            b = bracket(columns[i], columns[j])
            value = [sum((row[k] * b[k] for k in range(n)), Fraction(0)) for row in p_rows]
            if any(value):
                brackets[(i, j)] = {k: v for k, v in enumerate(value) if v}
    return LieAlgebra.from_brackets(n, brackets, one_based=False)


def conjugate_entry(entry, p: Matrix):
    """Transport (algebra, J, stratification) through the coordinate map p."""
    alg = change_of_basis(entry.algebra, p)
    cs = None
    if entry.primary_structure is not None:
        cs = validate_almost_complex(
            alg, p @ entry.primary_structure.matrix @ p.inverse()
        )
    strat = None
    if entry.primary_stratification is not None:
        strat = Stratification(
            tuple(
                image_subspace(layer, p)
                for layer in entry.primary_stratification.layers
            )
        )
    return alg, cs, strat


@pytest.fixture(scope="session")
def catalog():
    return {name: builtin(name) for name in catalog_names()}


@pytest.fixture
def rng():
    return random.Random(20240817)
