"""Built-in example algebras with known complex structures and gradings.

Every entry is one row of ``_TABLE``, read by ``builtin``.  The
``expected`` facts stored on each entry are documentation and test
oracles: the test suite re-derives every one of them through the library
and fails on any mismatch, so the catalog can never drift from the code.

fr6 carries the standard block structure, which is integrable there and
realizes the "proper nonzero n_2 ∩ J n_2" case: the only catalog entry
whose complex structure is nilpotent of step 3.  rf8 is the real form of
the complex Lie algebra with [z1, z2] = z3, [z1, z3] = z4; multiplication
by i is its bi-invariant structure, making it the step-3 stratified entry
whose layers are all J-invariant.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

from .algebra import LieAlgebra
from .complex_structure import ComplexStructure, validate_almost_complex
from .linalg import Matrix, Subspace, Value
from .stratification import Stratification


class CatalogEntry(Value):
    name: str
    algebra: LieAlgebra
    complex_structures: tuple[tuple[str, ComplexStructure], ...]
    stratifications: tuple[tuple[str, Stratification], ...]
    expected: Mapping[str, object] = MappingProxyType({})

    @property
    def primary_structure(self) -> ComplexStructure | None:
        return self.complex_structures[0][1] if self.complex_structures else None

    @property
    def primary_stratification(self) -> Stratification | None:
        return self.stratifications[0][1] if self.stratifications else None


def standard_block_j(dim: int) -> Matrix:
    """Block-diagonal J0 sending e_{2i-1} to e_{2i} on each 2-plane."""
    if dim % 2 != 0:
        raise ValueError(f"odd dimension {dim}: no almost-complex structure exists")
    rows = [[0] * dim for _ in range(dim)]
    for b in range(0, dim, 2):
        rows[b][b + 1] = -1
        rows[b + 1][b] = 1
    return Matrix.from_rows(rows)


# One row per entry, in plain literals, so that importing builds nothing.  A
# row gives the dimension, the brackets {(i, j): {k: c}} meaning
# [e_i, e_j] = Σ c·e_k (1-based), the layers of the stratification named
# "canonical" as 1-based basis indices, and the expected facts.  Its complex
# structures are the standard block J0 under "standard", unless the row names
# its own under "J": matrix rows, or None for J0.
_TABLE = {
    "a4": {  # abelian
        "dim": 4, "brackets": {},
        "layers": ((1, 2, 3, 4),),
        "expected": {
            "step": 1,
            "j0": {"standard": 1},
            "integrable": {"standard": True},
            "abelian_j": {"standard": True},
            "bi_invariant_j": {"standard": True},
            "center_dim": 4,
        },
    },
    "kt4": {  # the Kodaira-Thurston algebra
        "dim": 4, "brackets": {(1, 2): {3: 1}},
        "layers": ((1, 2, 4), (3,)),
        "expected": {
            "step": 2,
            "j0": {"standard": 2},
            "integrable": {"standard": True},
            "abelian_j": {"standard": True},
            "bi_invariant_j": {"standard": False},
            "center_dim": 2,
            "step2_case": {"standard": "k_zero"},
            "center_preserving": {"standard": True},
        },
    },
    "ch6": {  # the complex Heisenberg algebra
        "dim": 6, "brackets": {(1, 3): {5: 1}, (1, 4): {6: 1}, (2, 3): {6: 1}, (2, 4): {5: -1}},
        "layers": ((1, 2, 3, 4), (5, 6)),
        "expected": {
            "step": 2,
            "j0": {"standard": 2},
            "integrable": {"standard": True},
            "abelian_j": {"standard": False},
            "bi_invariant_j": {"standard": True},
            "center_dim": 2,
            "step2_case": {"standard": "k_full"},
            "strata_preserving": {"standard": True},
        },
    },
    "hh6": {  # two copies of the Heisenberg algebra h3
        "dim": 6, "brackets": {(1, 2): {5: 1}, (3, 4): {6: 1}},
        "J": {
            "standard": None,
            # Pairs e1 with e3 and e2 with e4 instead of the bracket-compatible
            # pairing; this one fails integrability with witness pair (1, 2).
            "axis_swapped": (
                (0, 0, -1, 0, 0, 0),
                (0, 0, 0, -1, 0, 0),
                (1, 0, 0, 0, 0, 0),
                (0, 1, 0, 0, 0, 0),
                (0, 0, 0, 0, 0, -1),
                (0, 0, 0, 0, 1, 0),
            ),
        },
        "layers": ((1, 2, 3, 4), (5, 6)),
        "expected": {
            "step": 2,
            "j0": {"standard": 2},
            "integrable": {"standard": True, "axis_swapped": False},
            "abelian_j": {"standard": True},
            "bi_invariant_j": {"standard": False},
            "center_dim": 2,
            "step2_case": {"standard": "k_full"},
            "strata_preserving": {"standard": True},
        },
    },
    "fr6": {  # the free 2-step nilpotent algebra on 3 generators
        "dim": 6, "brackets": {(1, 2): {4: 1}, (1, 3): {5: 1}, (2, 3): {6: 1}},
        "layers": ((1, 2, 3), (4, 5, 6)),
        "expected": {
            "step": 2,
            "j0": {"standard": 3},
            "integrable": {"standard": True},
            "abelian_j": {"standard": False},
            "bi_invariant_j": {"standard": False},
            "center_dim": 3,
            "step2_case": {"standard": "k_proper"},
            "strata_preserving": {"standard": False},
            "center_preserving": {"standard": False},
        },
    },
    "rf8": {  # the realified complex filiform algebra of step 3
        # z1 = e1 + i e2, z2 = e3 + i e4, z3 = e5 + i e6, z4 = e7 + i e8
        "dim": 8,
        "brackets": {
            (1, 3): {5: 1}, (1, 4): {6: 1}, (2, 3): {6: 1}, (2, 4): {5: -1},
            (1, 5): {7: 1}, (1, 6): {8: 1}, (2, 5): {8: 1}, (2, 6): {7: -1},
        },
        "layers": ((1, 2, 3, 4), (5, 6), (7, 8)),
        "expected": {
            "step": 3,
            "j0": {"standard": 3},
            "integrable": {"standard": True},
            "abelian_j": {"standard": False},
            "bi_invariant_j": {"standard": True},
            "center_dim": 2,
        },
    },
    "f4": {  # filiform, with a 1-dimensional center
        "dim": 4, "brackets": {(1, 2): {3: 1}, (1, 3): {4: 1}},
        "layers": ((1, 2), (3,), (4,)),
        "expected": {
            "step": 3,
            "j0": {"standard": None},
            "integrable": {"standard": False},
            "center_dim": 1,
        },
    },
    "nn3": {  # non-nilpotent (sl2-type), for negative tests
        "dim": 3, "brackets": {(1, 2): {3: 1}, (1, 3): {1: -2}, (2, 3): {2: 2}},
        "J": {},
        "expected": {"step": None, "center_dim": 0},
    },
}


def catalog_names() -> list[str]:
    return sorted(_TABLE)


def builtin(name: str) -> CatalogEntry:
    """Build the named catalog entry afresh, or raise KeyError for unknown names."""
    try:
        row = _TABLE[name]
    except KeyError:
        raise KeyError(f"unknown catalog entry {name!r}; available: {', '.join(catalog_names())}")
    dim = row["dim"]
    alg = LieAlgebra.from_brackets(dim, row["brackets"])
    structures = []
    for j_name, rows in row.get("J", {"standard": None}).items():
        matrix = standard_block_j(dim) if rows is None else Matrix.from_rows(rows)
        structures.append((j_name, validate_almost_complex(alg, matrix)))
    layers = tuple(_span(dim, indices) for indices in row.get("layers", ()))
    strata = (("canonical", Stratification(layers)),) if layers else ()
    # copied, so that no two entries share a dict with each other or the table
    expected = {key: dict(v) if isinstance(v, dict) else v for key, v in row["expected"].items()}
    return CatalogEntry(name, alg, tuple(structures), strata, expected)


def _span(dim: int, indices: tuple[int, ...]) -> Subspace:
    """The coordinate subspace on 1-based basis indices."""
    return Subspace(dim, tuple(tuple(int(j == i - 1) for j in range(dim)) for i in indices))
