import random
from dataclasses import replace
from fractions import Fraction

import pytest

from liecs import (
    CatalogEntry,
    LieAlgebra,
    Matrix,
    Stratification,
    Subspace,
    builtin,
    catalog_names,
    change_of_basis,
    image_subspace,
    validate,
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


def fraction_kernel(rows, n: int) -> list[list[Fraction]]:
    """A basis of {x : r·x = 0 for every row r}, read off ``fraction_rref``."""
    reduced = fraction_rref(rows, n)
    pivots = [next(c for c, a in enumerate(r) if a) for r in reduced]
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [Fraction(int(c == free)) for c in range(n)]
        for r, c in zip(reduced, pivots):
            v[c] = -r[free]
        basis.append(v)
    return basis


def fraction_ascending_chain(alg: LieAlgebra, j: Matrix | None = None) -> list[list[tuple]]:
    """a^0 = 0, a^k = {x : M x ∈ a^{k-1} for every map M}, on ``Fraction``s.

    The maps are ad_i : x ↦ [x, e_i] for every basis index i and, when a
    matrix j is given, also ad_i∘J: the stacked-maps definition of c^k
    (no j) and of d^k.  The bracket is expanded from the structure
    constants; the terms come back as ``fraction_rref`` rows, up to the
    first one that repeats.  The oracle for the library's centralizer step.
    """
    n = alg.dim
    ad = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]  # ad[i][k][m] = [e_m, e_i]_k
    for a, b, coeffs in alg.structure:
        for k, c in enumerate(coeffs):
            ad[b][k][a] += c
            ad[a][k][b] -= c
    maps = list(ad)
    if j is not None:
        maps += [
            [[sum((m[k][r] * j.at(r, c) for r in range(n)), Fraction(0)) for c in range(n)]
             for k in range(n)]
            for m in ad
        ]
    terms = [[]]
    while True:
        annihilator = fraction_kernel(terms[-1], n)
        conditions = [
            [sum((c[k] * m[k][col] for k in range(n)), Fraction(0)) for col in range(n)]
            for m in maps
            for c in annihilator
        ]
        nxt = fraction_rref(fraction_kernel(conditions, n), n)
        if nxt == terms[-1]:
            return terms
        terms.append(nxt)


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


def direct_sum(entry, copies: int) -> CatalogEntry:
    """``copies`` copies of a catalog entry, with the block J and the block strata.

    Copy c occupies the basis indices c·n .. c·n + n - 1, n = dim of the
    entry; the result is named ``{name}x{copies}``.
    """
    n = entry.algebra.dim
    total = n * copies
    brackets = {
        (i + c * n, j + c * n): {k + c * n: v for k, v in enumerate(coeffs) if v}
        for c in range(copies)
        for i, j, coeffs in entry.algebra.structure
    }
    alg = LieAlgebra.from_brackets(total, brackets, one_based=False)
    block_j = [[0] * total for _ in range(total)]
    for c in range(copies):
        for r in range(n):
            block_j[c * n + r][c * n : (c + 1) * n] = entry.primary_structure.matrix.row(r)
    layers = tuple(
        Subspace.from_rows(
            total,
            [
                [0] * (c * n) + list(row) + [0] * ((copies - c - 1) * n)
                for c in range(copies)
                for row in layer.basis_rows()
            ],
        )
        for layer in entry.primary_stratification.layers
    )
    return CatalogEntry(
        f"{entry.name}x{copies}",
        alg,
        (("block", validate_almost_complex(alg, Matrix.from_rows(block_j))),),
        (("block", Stratification(layers)),),
    )


def jacobi_violating(rng: random.Random) -> LieAlgebra:
    """A scrambled kt4 with one structure constant raised by 1 until Jacobi fails."""
    kt4 = builtin("kt4")
    alg, _, _ = conjugate_entry(kt4, random_invertible(rng, kt4.algebra.dim))
    while True:
        i, j, coeffs = rng.choice(alg.structure)
        perturbed = list(coeffs)
        perturbed[rng.randrange(alg.dim)] += 1
        structure = tuple(
            (a, b, tuple(perturbed) if (a, b) == (i, j) else c) for a, b, c in alg.structure
        )
        candidate = LieAlgebra(alg.dim, structure)
        if not validate(candidate).ok:
            return candidate


def tilted_strata(entry: CatalogEntry) -> CatalogEntry:
    """The entry with its first layer's first row moved by the second layer's first row.

    The layers stay a direct sum, but [n_1, n_1] is no longer the given
    second layer, so the stratification is invalid.
    """
    layers = entry.primary_stratification.layers
    rows = [list(r) for r in layers[0].basis_rows()]
    rows[0] = [a + b for a, b in zip(rows[0], layers[1].basis_rows()[0])]
    tilted = Subspace.from_rows(entry.algebra.dim, rows)
    return replace(entry, stratifications=(("tilted", Stratification((tilted, *layers[1:]))),))


@pytest.fixture(scope="session")
def catalog():
    return {name: builtin(name) for name in catalog_names()}


@pytest.fixture
def rng():
    return random.Random(20240817)
