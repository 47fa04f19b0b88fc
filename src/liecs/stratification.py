"""Stratifications (Carnot gradings) and the theorem suite.

A step-k stratification is a decomposition n = n_1 ⊕ ... ⊕ n_k with
[n_1, n_{j-1}] = n_j for 2 ≤ j ≤ k and [n_1, n_k] = 0.  The layers then
recover the lower central series: c_j = n_{j+1} ⊕ ... ⊕ n_k.

For step-2 algebras whose derived subalgebra is J-invariant, a
strata-preserving decomposition always exists: take n_2 = [n, n] and n_1
its orthogonal complement under a J-averaged inner product.  The
``classify_step2`` trichotomy is driven by k = n_2 ∩ J n_2, the largest
J-invariant subspace of the top layer, and predicts the nilpotent step of
J (2 or 3) from it.

``theorem_suite`` re-checks, on a concrete input, a battery of known
implications between these notions; a failed verdict therefore signals a
bug or an invalid input, never new mathematics.  The battery is the table
``SUITE`` and the two non-existence criteria are ``OBSTRUCTIONS``, both
tuples of ``verdicts.Statement`` read by ``verdicts.evaluate``; a new
statement is one more entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

from .algebra import LieAlgebra, bracket_subspaces, center, memoized, nilpotency_step
from .complex_structure import (
    ComplexStructure,
    j_invariant_inner_product,
    largest_j_invariant_subspace,
)
from .errors import HypothesisNotMet, InconsistencyError
from .linalg import (
    Matrix,
    Subspace,
    orthogonal_complement,
    subspace_intersection,
    subspace_sum,
)
from .verdicts import Statement, Verdict, evaluate

K_ZERO = "k_zero"
K_PROPER = "k_proper"
K_FULL = "k_full"


@dataclass(frozen=True)
class Stratification:
    """Ordered layers n_1, ..., n_k of a stratified algebra."""

    layers: tuple[Subspace, ...]

    @property
    def step(self) -> int:
        return len(self.layers)

    def layer(self, index: int) -> Subspace:
        """1-based layer access: layer(1) = n_1."""
        return self.layers[index - 1]


@dataclass(frozen=True)
class StratificationViolation:
    property_name: str
    layer: int
    detail: str


@dataclass(frozen=True)
class StratificationVerdict:
    ok: bool
    violations: tuple[StratificationViolation, ...]


def verify_stratification(alg: LieAlgebra, s: Stratification) -> StratificationVerdict:
    """Check all stratification axioms and the layer/series compatibility.

    Violations are named by property (direct_sum, generation,
    top_annihilation, series_match) and 1-based layer, so a rejected input
    says exactly what broke where.
    """
    violations: list[StratificationViolation] = []
    k = s.step
    if k == 0:
        return StratificationVerdict(
            False, (StratificationViolation("direct_sum", 0, "no layers given"),)
        )
    for idx, layer in enumerate(s.layers, start=1):
        if layer.ambient_dim != alg.dim:
            return StratificationVerdict(
                False,
                (
                    StratificationViolation(
                        "direct_sum", idx, "layer ambient dimension mismatch"
                    ),
                ),
            )

    if s.layers[-1].is_zero():
        violations.append(
            StratificationViolation("direct_sum", k, "top layer is the zero subspace")
        )

    partial = s.layers[0]
    sum_ok = True
    for idx in range(2, k + 1):
        layer = s.layer(idx)
        overlap = subspace_intersection(partial, layer)
        if not overlap.is_zero():
            violations.append(
                StratificationViolation(
                    "direct_sum", idx, f"layer meets the span of earlier layers in dim {overlap.dim}"
                )
            )
            sum_ok = False
        partial = subspace_sum(partial, layer)
    if not partial.is_full():
        violations.append(
            StratificationViolation(
                "direct_sum", k, f"layers span dimension {partial.dim} of {alg.dim}"
            )
        )
        sum_ok = False

    n1 = s.layer(1)
    for idx in range(2, k + 1):
        generated = bracket_subspaces(alg, n1, s.layer(idx - 1))
        if generated != s.layer(idx):
            violations.append(
                StratificationViolation(
                    "generation",
                    idx,
                    f"[n_1, n_{idx - 1}] has dimension {generated.dim}, expected layer of dimension {s.layer(idx).dim}",
                )
            )
    top_bracket = bracket_subspaces(alg, n1, s.layer(k))
    if not top_bracket.is_zero():
        violations.append(
            StratificationViolation(
                "top_annihilation", k, f"[n_1, n_{k}] is nonzero (dim {top_bracket.dim})"
            )
        )

    if sum_ok:
        series = alg.descending_series
        for j in range(k + 1):
            tail = Subspace.zero(alg.dim)
            for idx in range(j + 1, k + 1):
                tail = subspace_sum(tail, s.layer(idx))
            if series.term(j) != tail:
                violations.append(
                    StratificationViolation(
                        "series_match",
                        j + 1,
                        f"sum of layers above {j} differs from the lower central series term",
                    )
                )
    return StratificationVerdict(ok=not violations, violations=tuple(violations))


@memoized
def stratification_verdict(alg: LieAlgebra, s: Stratification) -> StratificationVerdict:
    """``verify_stratification(alg, s)``, computed once per (algebra, stratification).

    The verdict is memoized on the algebra (``algebra.memoized``), keyed by
    the frozen stratification, so the parse gate, the step-2
    classification, the obstructions and the theorem suite share one check.
    """
    return verify_stratification(alg, s)


def is_strata_preserving(cs: ComplexStructure, s: Stratification) -> bool:
    """True iff J maps every layer onto itself."""
    return all(cs.image(layer) == layer for layer in s.layers)


def build_step2_j_stratification(
    alg: LieAlgebra, cs: ComplexStructure, phi: Matrix
) -> Stratification:
    """J-invariant stratification of a step-2 algebra.

    Takes n_2 = [n, n] and n_1 = the orthogonal complement of n_2 under
    psi = phi + Jᵀ phi J.  Requires the algebra to be nilpotent of step 2
    and [n, n] to be J-invariant; under those hypotheses the output always
    verifies and J preserves both layers (checked before returning).
    """
    step = nilpotency_step(alg)
    if step != 2:
        raise HypothesisNotMet(f"algebra is not nilpotent of step 2 (step is {step})")
    derived = alg.descending_series.term(1)
    if cs.image(derived) != derived:
        raise HypothesisNotMet("[n, n] is not J-invariant")
    psi = j_invariant_inner_product(cs, phi)
    n1 = orthogonal_complement(derived, psi)
    s = Stratification((n1, derived))
    verdict = verify_stratification(alg, s)
    if not verdict.ok:
        raise InconsistencyError(f"constructed stratification failed to verify: {verdict.violations}")
    if not is_strata_preserving(cs, s):
        raise InconsistencyError("constructed stratification is not J-invariant")
    return s


@dataclass(frozen=True)
class Step2Classification:
    """Trichotomy for a complex structure on a step-2 nilpotent algebra.

    ``case`` reflects k = n_2 ∩ J n_2: zero, proper nonzero, or all of
    n_2.  The predicted nilpotent step of J is 2, 3, 2 respectively, and
    is cross-checked against the computed step before this object is
    returned.
    """

    case: str
    k_subspace: Subspace
    predicted_j0: int
    strata_preserving: bool
    center_preserving: bool


def classify_step2(
    alg: LieAlgebra,
    cs: ComplexStructure,
    s: Stratification | None = None,
) -> Step2Classification:
    """Classify (algebra, J) with algebra nilpotent of step 2.

    The case analysis depends only on n_2 = [n, n], which is canonical; a
    supplied stratification is only validated.  A valid one needs no
    further check: ``series_match`` at j = k and j = k - 1 gives c_k = 0
    and c_{k-1} = n_k, and n_k is nonzero, so k is the algebra's step 2
    and the top layer is c_1 = [n, n].

    Integrability is a real hypothesis here, not pedantry: the trichotomy
    uses the vanishing of the Nijenhuis tensor to see that [J n_2, n] is
    J-invariant, and the prediction can fail for a non-integrable J.
    """
    step = nilpotency_step(alg)
    if step != 2:
        raise HypothesisNotMet(f"algebra is not nilpotent of step 2 (step is {step})")
    if not cs.integrability.integrable:
        raise HypothesisNotMet("complex structure is not integrable")
    n2 = alg.descending_series.term(1)
    if s is not None:
        verdict = stratification_verdict(alg, s)
        if not verdict.ok:
            raise ValueError(f"supplied stratification is invalid: {verdict.violations}")
    k_sub = largest_j_invariant_subspace(cs, n2)
    if k_sub.is_zero():
        case, predicted = K_ZERO, 2
    elif k_sub == n2:
        case, predicted = K_FULL, 2
    else:
        case, predicted = K_PROPER, 3
    j0 = cs.series.j0
    if j0 != predicted:
        raise InconsistencyError(
            f"classification predicts nilpotent step {predicted} but computed {j0}"
        )
    strata_preserving = case == K_FULL
    if strata_preserving and not is_strata_preserving(cs, cs.step2_stratification):
        raise InconsistencyError("k = n_2 case did not yield a J-invariant stratification")
    z = center(alg)
    return Step2Classification(
        case=case,
        k_subspace=k_sub,
        predicted_j0=predicted,
        strata_preserving=strata_preserving,
        center_preserving=cs.image(z) == z,
    )


def blocks_stratification_by_dims(dim: int, descending_dims: tuple[int, ...]) -> bool:
    """Dimension-profile obstruction to admitting any stratification.

    True when dim = 2n with n ≥ 2, the algebra has step n, and the lower
    central series dimensions are exactly 2n, 2n-2, ..., 2, 0.  No Lie
    algebra has this profile: c_1/c_2 is spanned by the classes of [V, V]
    for a complement V of c_1, and dim V = 2 makes that at most one
    dimension, not two.  For n = 1 the profile (2, 0) is the abelian
    plane, which is stratified by one layer.
    """
    if dim % 2 != 0 or dim < 4:
        return False
    n = dim // 2
    if len(descending_dims) != n + 1 or descending_dims[-1] != 0:
        return False
    return all(descending_dims[j] == 2 * n - 2 * j for j in range(n + 1))


def _facts(alg: LieAlgebra, s: Stratification | None, **more) -> SimpleNamespace:
    """What the statements of ``OBSTRUCTIONS`` and ``SUITE`` read."""
    ok = s is not None and stratification_verdict(alg, s).ok
    return SimpleNamespace(alg=alg, s=s, strat_ok=ok, **more)


OBSTRUCTIONS = (
    Statement(
        "no_stratification_exists",
        ((lambda f: nilpotency_step(f.alg) is not None
          and blocks_stratification_by_dims(f.alg.dim, f.alg.descending_series.dims()),
          "dimension profile does not match"),),
        lambda f: (not f.strat_ok,
                   f"dimension profile {f.alg.descending_series.dims()} admits no stratification"),
    ),
    # n_2 = [n_1, n_1] is spanned by one bracket, and no J preserves an odd-dimensional layer.
    Statement(
        "no_strata_preserving_structure",
        ((lambda f: f.strat_ok, "no valid stratification supplied"),
         (lambda f: f.s.step >= 2 and f.s.layer(1).dim == 2, "first layer is not 2-dimensional")),
        lambda f: (f.s.layer(2).dim == 1,
                   "first layer is 2-dimensional in step >= 2: no strata-preserving J exists"),
    ),
)


def stratification_obstructions(
    alg: LieAlgebra, s: Stratification | None = None
) -> list[Verdict]:
    """Evaluate the two known non-existence criteria (``OBSTRUCTIONS``) on this input.

    Returns one verdict per criterion; hypothesis_not_met means the
    criterion's profile does not apply, a pass means the obstruction
    triggered and the stated object cannot exist.
    """
    return evaluate(OBSTRUCTIONS, _facts(alg, s))


def _lower_series_invariant(f) -> bool:
    return all(f.cs.image(c) == c for c in f.r.c_desc.terms)


def _invariant_stratification_exists(f) -> bool:
    """Run the step-2 construction; building succeeds iff it self-verifies."""
    try:
        return is_strata_preserving(f.cs, f.cs.step2_stratification)
    except (HypothesisNotMet, InconsistencyError):
        return False


def _large_twisted_top(f) -> bool:
    n2 = f.s.layer(2)
    l2 = n2.dim // 2
    return n2.dim % 2 == 0 and l2 >= 2 and f.d1.dim <= 4 * l2 - 2 and f.cs.image(n2) != n2


def _third_layer_splits_d2(f) -> tuple[bool, str]:
    n3 = f.s.layer(3)
    jn3 = f.cs.image(n3)
    split = subspace_intersection(n3, jn3).is_zero() and f.r.d_desc.term(2) == subspace_sum(n3, jn3)
    return f.j0 == 4 and split, f"j0 = {f.j0}"


def _j0_is(step: int):
    return lambda f: (f.j0 == step, f"j0 = {f.j0}")


_TWO_DIM_TOP = (lambda f: f.strat_ok and f.s.step == 2 and f.s.layer(2).dim == 2,
                "needs a step-2 stratification with 2-dimensional top layer")

SUITE = (
    # All lower central series terms J-invariant => p_j = c_j and j0 = k.
    Statement(
        "invariant_lower_series_pins_p_chain",
        ((lambda f: f.k is not None and _lower_series_invariant(f),
          "some lower central series term is not J-invariant"),),
        lambda f: (f.r.c_desc == f.r.p_desc and f.j0 == f.k, f"j0 = {f.j0}, k = {f.k}"),
    ),
    # Step-k J with c_{k-1} equal to the center => the center is J-invariant.
    Statement(
        "terminal_lower_term_forces_invariant_center",
        ((lambda f: f.k is not None and f.j0 == f.k and f.r.c_desc.term(f.k - 1) == f.z,
          "requires nilpotent J of the algebra's step and c_{k-1} = z"),),
        lambda f: f.cs.image(f.z) == f.z,
    ),
    # One-dimensional center => J cannot be nilpotent.
    Statement(
        "one_dim_center_forces_non_nilpotent",
        ((lambda f: f.z.dim == 1, "center is not 1-dimensional"),),
        lambda f: f.j0 is None,
    ),
    # Strata-preserving J on a stratified algebra => series J-invariant, j0 = step.
    Statement(
        "strata_preserving_pins_series",
        ((lambda f: f.strat_ok and is_strata_preserving(f.cs, f.s),
          "needs a stratification preserved by J"),),
        lambda f: (_lower_series_invariant(f) and f.j0 == f.s.step, f"j0 = {f.j0}"),
    ),
    # Step-2 stratification with 2-dimensional top layer.
    Statement("two_dim_top_layer_step_two", (_TWO_DIM_TOP,), _j0_is(2)),
    Statement(
        "two_dim_top_layer_j_fixes_top",
        (_TWO_DIM_TOP, (lambda f: f.d1.dim == 2, "z ∩ Jz is not 2-dimensional")),
        lambda f: f.cs.image(f.s.layer(2)) == f.s.layer(2),
    ),
    Statement(
        "two_dim_top_center_or_strata_preserving",
        (_TWO_DIM_TOP,),
        lambda f: f.cs.image(f.s.layer(2)) == f.s.layer(2) or f.cs.image(f.z) == f.z,
    ),
    Statement(
        "two_dim_top_invariant_stratification_exists",
        (_TWO_DIM_TOP,
         (lambda f: 2 <= f.z.dim <= 3 or (f.z.dim == 4 and f.cs.image(f.z) != f.z),
          "center dimension profile out of range")),
        lambda f: f.cs.image(f.s.layer(2)) == f.s.layer(2) and _invariant_stratification_exists(f),
    ),
    # Step-2 stratification with top layer of dimension 2l (l >= 2), small
    # z ∩ Jz, and J not fixing the top layer => J nilpotent of step 3.
    Statement(
        "large_twisted_top_layer_step_three",
        ((lambda f: f.strat_ok and f.s.step == 2, "needs a step-2 stratification"),
         (_large_twisted_top, "needs dim n_2 = 2l >= 4, small z ∩ Jz, and J n_2 != n_2")),
        _j0_is(3),
    ),
    # Step-k stratification, J nilpotent of step k, 2-dimensional terminal
    # layer and 2-dimensional z ∩ Jz => J fixes the terminal layer.
    Statement(
        "two_dim_terminal_layer_preserved",
        ((lambda f: f.strat_ok and f.j0 == f.s.step and f.s.layer(f.s.step).dim == 2
          and f.d1.dim == 2,
          "needs nilpotent J of the stratification step with 2-dimensional terminal layer"
          " and z ∩ Jz"),),
        lambda f: f.cs.image(f.s.layer(f.s.step)) == f.s.layer(f.s.step),
    ),
    # Six-dimensional step-2 algebra with 2-dimensional derived subalgebra
    # admits a J-invariant stratification.
    Statement(
        "six_dim_small_derived_invariant_stratification",
        ((lambda f: f.alg.dim == 6 and f.k == 2 and f.r.c_desc.term(1).dim == 2,
          "needs dim 6, step 2, 2-dimensional derived subalgebra"),),
        lambda f: (f.cs.image(f.r.c_desc.term(1)) == f.r.c_desc.term(1)
                   and _invariant_stratification_exists(f)),
    ),
    # Step-3 stratification with J-fixed third layer => J nilpotent of step 3.
    Statement(
        "fixed_third_layer_step_three",
        ((lambda f: f.strat_ok and f.s.step == 3 and f.cs.image(f.s.layer(3)) == f.s.layer(3),
          "needs a step-3 stratification with J n_3 = n_3"),),
        _j0_is(3),
    ),
    # Eight-dimensional step-3 stratification with twisted 2-dimensional
    # third layer and small center => J nilpotent of step 4 and d_2 splits
    # as n_3 ⊕ J n_3.
    Statement(
        "eight_dim_twisted_third_layer_step_four",
        ((lambda f: f.strat_ok and f.s.step == 3 and f.alg.dim == 8 and f.s.layer(3).dim == 2
          and f.r.c_desc.term(1).dim == 4 and f.cs.image(f.s.layer(3)) != f.s.layer(3)
          and f.z.dim <= 3,
          "needs dim 8, step-3 stratification, dim n_3 = 2, dim [n, n] = 4, J n_3 != n_3,"
          " dim z <= 3"),),
        _third_layer_splits_d2,
    ),
)


def theorem_suite(
    alg: LieAlgebra,
    cs: ComplexStructure,
    s: Stratification | None = None,
) -> list[Verdict]:
    """Assert every applicable statement of the theorem battery (``SUITE``).

    Each statement is evaluated three-valued: hypotheses checked exactly,
    conclusion asserted only when they hold.  Statements needing a
    stratification are skipped (hypothesis_not_met) when none is supplied.
    """
    r = cs.series
    facts = _facts(alg, s, cs=cs, r=r, j0=r.j0, k=r.algebra_step, z=r.center, d1=r.d_asc.term(1))
    return evaluate(SUITE, facts)
