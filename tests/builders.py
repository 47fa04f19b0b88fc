"""Seeded test inputs, built with the public API alone.

Scrambles, direct sums and faulty variants of catalog entries, and one
step-2 algebra outside the catalog.  The module needs neither pytest nor
numpy, so ``test_golden.py`` can rebuild the golden files with the exact
core alone; ``conftest.py`` re-exports every builder for the test modules.
"""

import random
from fractions import Fraction

from liecs import (
    CatalogEntry,
    LieAlgebra,
    Matrix,
    Stratification,
    Subspace,
    builtin,
    change_of_basis,
    image_subspace,
    standard_block_j,
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


def step2_kproper() -> CatalogEntry:
    """A dim-8 step-2 algebra whose standard J has k = n_2 ∩ J n_2 proper and j0 = 2.

    [e1, e2] = e5, [e1, e3] = e8, [e2, e4] = e8, [e3, e4] = e7: n_2 is
    ⟨e5, e7, e8⟩ and k is ⟨e7, e8⟩, but J n_2 = ⟨e6, e7, e8⟩ is central,
    so j0 = 2 (fr6, the catalog's one proper k, has j0 = 3).
    """
    brackets = {(1, 2): {5: 1}, (1, 3): {8: 1}, (2, 4): {8: 1}, (3, 4): {7: 1}}
    alg = LieAlgebra.from_brackets(8, brackets)
    return CatalogEntry(
        "step2-kproper", alg, (("standard", validate_almost_complex(alg, standard_block_j(8))),), ()
    )


def step2_twisted_dim10() -> CatalogEntry:
    """A dim-10 step-2 algebra with strata, where the standard J has j0 = 2 and dim k = 2.

    [e1, e2] = e5, [e1, e3] = [e2, e4] = e9, [e1, e4] = e8, [e2, e3] = -e8
    and [e3, e4] = e7, with n_1 = ⟨e1..e4, e6, e10⟩ and n_2 = ⟨e5, e7, e8, e9⟩
    (l = 2).  J n_2 = ⟨e6, e7, e8, e10⟩ is central, k = ⟨e7, e8⟩ and
    dim z ∩ Jz = 6 = 4l - dim k: the input on which the old hypothesis
    dim z ∩ Jz <= 4l - 2 of ``large_twisted_top_layer_step_three`` held
    while j0 = 2.
    """
    brackets = {
        (1, 2): {5: 1},
        (1, 3): {9: 1},
        (2, 4): {9: 1},
        (1, 4): {8: 1},
        (2, 3): {8: -1},
        (3, 4): {7: 1},
    }
    alg = LieAlgebra.from_brackets(10, brackets)
    layers = [[1, 2, 3, 4, 6, 10], [5, 7, 8, 9]]
    strata = Stratification(
        tuple(
            Subspace.from_rows(10, [[int(c == k) for c in range(1, 11)] for k in layer])
            for layer in layers
        )
    )
    return CatalogEntry(
        "step2-twisted10",
        alg,
        (("standard", validate_almost_complex(alg, standard_block_j(10))),),
        (("canonical", strata),),
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
    return entry.replace(stratifications=(("tilted", Stratification((tilted, *layers[1:]))),))
