import random
from fractions import Fraction

import pytest

from liecs import LieAlgebra, Matrix, builtin, catalog_names

# The pytest-free builders, re-exported so that test modules import every helper from here.
from builders import (
    conjugate_entry,
    direct_sum,
    jacobi_violating,
    random_invertible,
    step2_kproper,
    step2_twisted_dim10,
    tilted_strata,
)


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


@pytest.fixture(scope="session")
def catalog():
    return {name: builtin(name) for name in catalog_names()}


@pytest.fixture
def rng():
    return random.Random(20240817)
