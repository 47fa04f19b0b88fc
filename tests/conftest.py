import random
from fractions import Fraction

import pytest

from liecs import (
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
