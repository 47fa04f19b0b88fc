"""Search for integrable complex structures.

The only exact-arithmetic promise in this module is the gate at the end:
whatever the floating-point machinery proposes is reconstructed as a
rational matrix and re-verified exactly (J² = -I and vanishing Nijenhuis
tensor) before it is allowed out.  A candidate that cannot be verified is
discarded, never returned.

Candidates are parametrized as J = P J0 P⁻¹ with J0 the standard block
structure, so J² = -I holds identically and the search space is invertible
matrices P.  Each restart draws a rational P, first checks the conjugated
structure exactly (this finds e.g. the standard structure immediately),
then minimizes the squared Nijenhuis norm in floats and tries to snap the
optimum back to small-denominator rationals.  numpy and scipy are loaded
only when a restart first reaches the optimizer, so a search that ends at
an exact check runs without them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import TYPE_CHECKING

from .algebra import LieAlgebra
from .catalog import standard_block_j
from .complex_structure import ComplexStructure, is_integrable, validate_almost_complex
from .linalg import Matrix

if TYPE_CHECKING:
    import numpy as np

DEFAULT_RESTARTS = 100
DEFAULT_THRESHOLD = 1e-10
DEFAULT_DENOMINATOR_CAP = 10**6


def _verify_candidate(alg: LieAlgebra, j: Matrix) -> ComplexStructure | None:
    """The exactness gate: returns a bound structure only on exact success."""
    try:
        cs = validate_almost_complex(alg, j)
    except ValueError:
        return None
    if not is_integrable(cs).integrable:
        return None
    return cs


def _float_tensor(alg: LieAlgebra) -> np.ndarray:
    """c[i, j, k] = C_ij^k / D, correctly rounded like float(Fraction(C_ij^k, D))."""
    import numpy as np

    d = alg.tensor[0]
    c = np.zeros((alg.dim, alg.dim, alg.dim))
    for i, j, row in alg.nonzero_rows():
        for k, v in row:
            c[i, j, k] = v / d
        c[j, i] = -c[i, j]
    return c


def _nijenhuis_residual(c: np.ndarray, j: np.ndarray) -> float:
    """Sum of squared Nijenhuis values over basis pairs a < b, in floats.

    The float twin of ``ComplexStructure.pair_table``, all pairs at once:
    ``left[a, b]`` = [Je_a, e_b] and ``both[a, b]`` = [Je_a, Je_b].
    """
    import numpy as np

    left = np.einsum("ia,ijk->ajk", j, c)
    both = np.einsum("ajk,jb->abk", left, j)
    values = both - c - (left - left.transpose(1, 0, 2)) @ j.T
    upper = values[np.triu_indices(j.shape[0], 1)]
    return float(np.sum(upper * upper))


def _random_rational_invertible(rng: random.Random, n: int) -> tuple[Matrix, Matrix]:
    while True:
        rows = [
            [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(n)]
            for _ in range(n)
        ]
        m = Matrix.from_rows(rows)
        try:
            return m, m.inverse()
        except ValueError:  # singular: draw again
            continue


def _snap_caps(den_cap: int):
    cap = 1
    while cap < den_cap:
        yield cap
        cap *= 4
    yield den_cap


def _snap_matrix(values: np.ndarray, n: int, cap: int) -> Matrix:
    return Matrix(n, n, [Fraction(v).limit_denominator(cap) for v in values])


def _float_optimizer(alg: LieAlgebra, j0: Matrix):
    """The float machinery of one search: ``P ↦ minimize(residual, P)``.

    Built at most once per call, when a restart first fails its exact
    check.  ``minimize`` is looked up here, at call time, so a wrapper put
    on ``scipy.optimize.minimize`` after import is the one that runs.
    """
    import numpy as np
    from scipy.optimize import minimize

    n = alg.dim
    c_tensor = _float_tensor(alg)
    j0_float = np.array([[float(x) for x in j0.row(r)] for r in range(n)])

    def residual_from_flat(flat: np.ndarray) -> float:
        p = flat.reshape(n, n)
        sign, logdet = np.linalg.slogdet(p)
        if sign == 0 or logdet < -16.0:
            return 1e6
        j = p @ j0_float @ np.linalg.inv(p)
        return _nijenhuis_residual(c_tensor, j)

    def optimize(p_exact: Matrix):
        start = np.array([float(x) for x in p_exact.entries])
        return minimize(residual_from_flat, start, method="BFGS", options={"maxiter": 200})

    return optimize


def find_complex_structure(
    alg: LieAlgebra,
    seed: int = 0,
    budget: int = DEFAULT_RESTARTS,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    den_cap: int = DEFAULT_DENOMINATOR_CAP,
) -> ComplexStructure | None:
    """Search for an exactly integrable complex structure on ``alg``.

    ``budget`` counts random restarts; the trajectory is a deterministic
    function of ``seed``.  Returns None when the budget is exhausted or no
    float optimum survives rational reconstruction; both are ordinary
    outcomes, not errors.  Raises ValueError on odd dimension, where no
    almost-complex structure exists at all.
    """
    n = alg.dim
    j0 = standard_block_j(n)
    rng = random.Random(seed)
    optimize = None
    identity = Matrix.identity(n)

    for restart in range(budget):
        p_exact, p_inv = _random_rational_invertible(rng, n) if restart else (identity, identity)
        cs = _verify_candidate(alg, p_exact @ j0 @ p_inv)
        if cs is not None:
            return cs

        if optimize is None:
            optimize = _float_optimizer(alg, j0)
        result = optimize(p_exact)
        if result.fun >= threshold:
            continue
        for cap in _snap_caps(den_cap):
            p_hat = _snap_matrix(result.x, n, cap)
            try:
                p_inv = p_hat.inverse()
            except ValueError:  # singular
                continue
            cs = _verify_candidate(alg, p_hat @ j0 @ p_inv)
            if cs is not None:
                return cs
    return None
