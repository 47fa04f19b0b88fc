"""Search for integrable complex structures.

The only exact-arithmetic promise in this module is the gate at the end:
whatever the floating-point machinery proposes is reconstructed as a
rational matrix and re-verified exactly (J² = -I and vanishing Nijenhuis
tensor) before it is allowed out.  A candidate that cannot be verified is
discarded, never returned.

Candidates are parametrized as J = P J0 P⁻¹ with J0 the standard block
structure, so J² = -I holds identically and the search space is invertible
matrices P.  The search checks J0 itself exactly once (this finds e.g. the
standard structure immediately).  Then each restart drives the Nijenhuis
residual vector to zero in floats with a Levenberg–Marquardt loop on an
analytic Jacobian, from P = I at restart 0 and from a drawn rational P
after it, and, when the squared residual is below ``DEFAULT_THRESHOLD``,
snaps the optimum P to one common denominator, round(q·P)/q for q = 1, …,
``SNAP_DENOMINATOR`` in turn (a simultaneous Diophantine approximation:
Lagarias, SIAM J. Comput. 14, 1985).  A drawn P needs no exact check of
its own: where P J0 P⁻¹ is integrable, P is a zero of the residual, so the
loop stops at once, and its entries are k/1 or k/2, so the snap reaches P
itself by q = 2.  numpy is loaded only when the check of J0 fails, so a
search that ends there runs without it.  Above dimension
``MAX_OPTIMIZER_DIM`` the optimizer is never run and the search ends at
that check.

A failing restart is kept cheap at both of its costs, and neither changes
what a search returns.  The optimizer stops once its recent rate cannot
reach the threshold in the steps it has left.  A snapped candidate is
rejected before the gate when the optimizer's residual, on Q = round(q·P)
mod a 16-bit prime, is nonzero (``_residue_rejects``): it can only reject.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING

from .algebra import LieAlgebra
from .catalog import standard_block_j
from .complex_structure import ComplexStructure, is_integrable, validate_almost_complex
from .linalg import Matrix, Subspace

if TYPE_CHECKING:
    import numpy as np

DEFAULT_RESTARTS = 100
DEFAULT_THRESHOLD = 1e-10
# An optimum P below the threshold snaps to round(q·P)/q for q = 1, 2, …, this.
SNAP_DENOMINATOR = 12
# Each Levenberg–Marquardt step holds the Jacobian, n⁵/2 floats, and lstsq
# copies it: one optimizer run on a scrambled ch6⁴ (dim 24) peaks at about
# 100 MB of arrays and takes about a minute, and these grow as n⁵ and n⁷.
# Above this dimension the search ends at the exact check of J0.
MAX_OPTIMIZER_DIM = 24
# Levenberg–Marquardt steps per restart at most, and the window over which
# the optimizer measures its rate of progress (see ``_float_optimizer``).
STEPS = 200
RATE_WINDOW = 10
# The prime of ``_residue_rejects``: the largest below 2¹⁶, where its int64
# arithmetic is exact up to n = 64.
RESIDUE_PRIME = 65521


def _verify_candidate(alg: LieAlgebra, j: Matrix) -> ComplexStructure | None:
    """The exactness gate: returns a bound structure only on exact success."""
    try:
        cs = validate_almost_complex(alg, j)
    except ValueError:
        return None
    if not is_integrable(cs).integrable:
        return None
    return cs


def _dense_forms(alg: LieAlgebra, j0: Matrix) -> tuple[tuple[np.ndarray, ...], ...]:
    """(C, J0) in floats and (D·C, J0) mod ``RESIDUE_PRIME`` in int64, once per search.

    One pass over ``alg.tensor``: C_ab^k = v / D is correctly rounded like
    float(Fraction(v, D)).
    """
    import numpy as np

    n, (d, rows) = alg.dim, alg.tensor
    c_float, c_mod = np.zeros((n, n, n)), np.zeros((n, n, n), dtype=np.int64)
    for a, row_a in enumerate(rows):  # both orders a, b are stored
        for b, row in enumerate(row_a):
            for k, v in row:
                c_float[a, b, k], c_mod[a, b, k] = v / d, v % RESIDUE_PRIME
    assert j0.den == 1, "J0 is integral"
    j0_ints = np.array(j0.int_rows(), dtype=np.int64)
    return (c_float, j0_ints.astype(float)), (c_mod, j0_ints % RESIDUE_PRIME)


def _residue_rejects(c: np.ndarray, j0: np.ndarray, ints: list[int]) -> bool:
    """True when a residue proves that J = Q J0 Q⁻¹ is not integrable.

    ``c`` and ``j0`` are the residue forms of ``_dense_forms`` and ``ints``
    is Q row-major.  The residue is ``_nijenhuis_residual(c, J) mod ℓ`` on
    int64 arrays: D·N(J) is a polynomial with integer coefficients in J and
    c = D·C, whatever D is, so with Q invertible mod ℓ a nonzero value
    proves N(J) ≠ 0.  A zero one, or Q singular mod ℓ, leaves the candidate
    to the exact gate (the modular method: von zur Gathen and Gerhard,
    *Modern Computer Algebra*, 3rd ed., 2013, ch. 5).  int64 is exact: with
    every entry of c and J in [0, ℓ), each intermediate of ``_pair_form``
    is within 2n²ℓ³ + ℓ, below 2⁶¹ for ℓ < 2¹⁶ and n ≤ 64
    (``serialization.MAX_DIM``), and each one that builds J within
    n·ℓ² < 2³⁹.
    """
    import numpy as np

    n, ell = len(j0), RESIDUE_PRIME
    q_mod = [[a % ell for a in ints[r * n : (r + 1) * n]] for r in range(n)]
    q_inv = _inverse_mod(q_mod, ell)
    if q_inv is None:
        return False
    j = np.array(q_mod, dtype=np.int64) @ j0 % ell @ np.array(q_inv, dtype=np.int64) % ell
    return bool(np.any(_nijenhuis_residual(c, j) % ell))


def _inverse_mod(m: list[list[int]], ell: int) -> list[list[int]] | None:
    """The inverse of ``m`` mod the prime ``ell`` by Gauss–Jordan, or None if singular."""
    n = len(m)
    work = [row + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if work[r][c]), None)
        if pivot is None:
            return None
        work[c], work[pivot] = work[pivot], work[c]
        scale = pow(work[c][c], -1, ell)
        work[c] = [a * scale % ell for a in work[c]]
        for r in range(n):
            factor = work[r][c]
            if r != c and factor:
                work[r] = [(a - factor * b) % ell for a, b in zip(work[r], work[c])]
    return [row[n:] for row in work]


@cache
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The index arrays of the basis pairs a < b, built once per dimension and only read."""
    import numpy as np

    return np.triu_indices(n, 1)


def _pair_form(c: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """B(x, y)[..., a, b] = [xe_a, ye_b] − y([xe_a, e_b] + [e_a, xe_b]).

    The float twin of ``ComplexStructure.pair_table``, all pairs at once:
    N(J) = B(J, J) − c, and B is bilinear, so the derivative of N at J in
    the direction D is B(D, J) + B(J, D).  Leading axes of ``x`` and ``y``
    batch.
    """
    import numpy as np

    left = np.einsum("...ia,ijk->...ajk", x, c)
    skew = left - np.swapaxes(left, -3, -2)
    return np.einsum("...ajk,...jb->...abk", left, y) - np.einsum("...abm,...km->...abk", skew, y)


def _nijenhuis_residual(c: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The Nijenhuis values over basis pairs a < b, flattened, in floats.

    Its squared norm is the residual that ``DEFAULT_THRESHOLD`` bounds.
    """
    return (_pair_form(c, j, j) - c)[_upper_pairs(j.shape[0])].ravel()


def _nijenhuis_jacobian(c: np.ndarray, j: np.ndarray, p_inv: np.ndarray) -> np.ndarray:
    """d residual / d P at J = P J0 P⁻¹, one column per entry of P (row-major).

    The direction dP = e_p e_qᵀ gives E = dP P⁻¹ = e_p (row q of P⁻¹) and
    dJ = E J − J E; each column is B(dJ, J) + B(J, dJ) over the pairs a < b.
    The columns are built a block of rows of P at a time, so each
    temporary of ``_pair_form`` holds at most max(2¹⁸, n⁴) floats (one
    block up to dim 12), not the n⁵ of every direction at once.
    """
    import numpy as np

    n = j.shape[0]
    upper = _upper_pairs(n)
    rows = max(1, 2**18 // n**4)
    jac_t = np.empty((n * n, n * (n - 1) // 2 * n))
    for p in range(0, n, rows):
        e = np.einsum("px,qy->pqxy", np.eye(n)[p : p + rows], p_inv).reshape(-1, n, n)
        dj = e @ j - j @ e
        dn = _pair_form(c, dj, j) + _pair_form(c, j, dj)
        jac_t[p * n : p * n + len(e)] = dn[:, upper[0], upper[1]].reshape(len(e), -1)
    return jac_t.T


def _random_rational_invertible(rng: random.Random, n: int) -> Matrix:
    """A seeded P with entries k/d, |k| ≤ 3, d in {1, 2}; a singular draw is drawn again."""
    while True:
        entries = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(n * n)]
        m = Matrix(n, n, entries)
        if Subspace(n, m.int_rows()).dim == n:
            return m


def _float_optimizer(c_tensor: np.ndarray, j0_float: np.ndarray):
    """The float machinery of one search: ``P ↦ (f, P*)``, P flattened.

    Built once per search, from the float forms of ``_dense_forms``, when
    the exact check of J0 fails.  Levenberg–Marquardt on the residual
    vector, at most ``STEPS`` steps, with Nielsen's damping update (Madsen,
    Nielsen and Tingleff, *Methods for non-linear least squares problems*,
    2004, algorithm 3.16).  A zero of the residual stops it at once.  Each
    step solves min |r + Jac·h|² + μ|h|² by ``lstsq`` on the stacked
    system, so JacᵀJac, singular along the directions of P that leave J
    unchanged, is never formed.  A trial ``P`` whose ``slogdet`` is below −16 is rejected like
    one that raises the residual.  ``f`` is the final squared norm of the
    residual vector.

    The loop also stops on its rate of progress: from step k = 10
    (``RATE_WINDOW``) on, when f·(f / f_{k−10})^((STEPS − k)/10) is still
    at least ``DEFAULT_THRESHOLD``, that is when the geometric rate of the
    last ten steps, kept up over the remaining ones, would leave f above
    the threshold, whose optimum would not be snapped anyway.
    """
    import numpy as np

    n = len(j0_float)

    def point(p: np.ndarray):
        """(residual, J, P⁻¹) at P, or None where the determinant guard rejects P."""
        sign, logdet = np.linalg.slogdet(p)
        if sign == 0 or logdet < -16.0:
            return None
        p_inv = np.linalg.inv(p)
        j = p @ j0_float @ p_inv
        return _nijenhuis_residual(c_tensor, j), j, p_inv

    def optimize(p_exact: Matrix):
        p = np.array([float(x) for x in p_exact.entries])
        at = point(p.reshape(n, n))
        if at is None:
            return float("inf"), p
        r, f, jac = at[0], float(at[0] @ at[0]), _nijenhuis_jacobian(c_tensor, *at[1:])
        mu, nu = 1e-3 * float(np.max(np.sum(jac * jac, axis=0))), 2.0
        history = []  # f before each step
        for k in range(STEPS):
            history.append(f)
            # f never rises, so a restart below the threshold never stops here
            if k >= RATE_WINDOW and f >= DEFAULT_THRESHOLD:
                rate = f / history[k - RATE_WINDOW]
                if f * rate ** ((STEPS - k) / RATE_WINDOW) >= DEFAULT_THRESHOLD:
                    break
            g = jac.T @ r
            if float(np.max(np.abs(g))) <= 1e-15:
                break
            damped = np.vstack([jac, np.sqrt(mu) * np.eye(n * n)])
            h = np.linalg.lstsq(damped, np.concatenate([-r, np.zeros(n * n)]), rcond=None)[0]
            if np.linalg.norm(h) <= 1e-15 * (np.linalg.norm(p) + 1e-15):
                break
            trial = point((p + h).reshape(n, n))
            f_new = float("inf") if trial is None else float(trial[0] @ trial[0])
            rho = (f - f_new) / float(h @ (mu * h - g))  # actual over predicted decrease
            if rho > 0:  # the Jacobian is built only at accepted steps
                p, r, f = p + h, trial[0], f_new
                jac = _nijenhuis_jacobian(c_tensor, *trial[1:])
                mu, nu = mu * max(1 / 3, 1 - (2 * rho - 1) ** 3), 2.0
            else:
                mu, nu = mu * nu, 2 * nu
        return f, p

    return optimize


def find_complex_structure(
    alg: LieAlgebra,
    seed: int = 0,
    budget: int = DEFAULT_RESTARTS,
) -> ComplexStructure | None:
    """Search for an exactly integrable complex structure on ``alg``.

    ``budget`` counts the optimizer's restarts, from P = I and then from
    rational P drawn by a generator seeded with ``seed``, so the result is a
    deterministic function of ``seed``.  Returns None when ``budget`` is
    below 1, or when no float optimum survives rational reconstruction;
    both are ordinary outcomes, not errors.  Above dimension
    ``MAX_OPTIMIZER_DIM`` only the exact check of J0 runs.  Raises
    ValueError on odd dimension, where no almost-complex structure exists
    at all.
    """
    n = alg.dim
    j0 = standard_block_j(n)
    if budget < 1:
        return None
    cs = _verify_candidate(alg, j0)
    if cs is not None or n > MAX_OPTIMIZER_DIM:
        return cs
    floats, residues = _dense_forms(alg, j0)
    optimize = _float_optimizer(*floats)
    rng = random.Random(seed)

    for restart in range(budget):
        p = _random_rational_invertible(rng, n) if restart else Matrix.identity(n)
        f, p_float = optimize(p)
        if f >= DEFAULT_THRESHOLD:
            continue
        for den in range(1, SNAP_DENOMINATOR + 1):
            ints = [round(den * v) for v in p_float.tolist()]
            if _residue_rejects(*residues, ints):
                continue
            q = Matrix(n, n, ints)  # Q = den·P conjugates J0 to the same J
            try:
                q_inv = q.inverse()
            except ValueError:  # singular
                continue
            cs = _verify_candidate(alg, q @ j0 @ q_inv)
            if cs is not None:
                return cs
    return None
