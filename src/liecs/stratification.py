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
bug or an invalid input, never new mathematics.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import LieAlgebra, bracket_subspaces, center, nilpotency_step
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
from .verdicts import Verdict, checked, not_met

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


def stratification_verdict(alg: LieAlgebra, s: Stratification) -> StratificationVerdict:
    """``verify_stratification(alg, s)``, computed once per (algebra, stratification).

    The verdict is memoized on the algebra, keyed by the frozen
    stratification, so the parse gate, the step-2 classification, the
    obstructions and the theorem suite share one check.
    """
    verdicts = alg.stratification_verdicts
    if s not in verdicts:
        verdicts[s] = verify_stratification(alg, s)
    return verdicts[s]


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
    supplied stratification is only validated for consistency (its top
    layer must be [n, n]).

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
        if s.step != 2 or s.layer(2) != n2:
            raise ValueError("supplied stratification does not have top layer [n, n]")
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

    True when dim = 2n, the algebra has step n, and the lower central
    series dimensions are exactly 2n, 2n-2, ..., 2, 0.  Such a profile is
    incompatible with a stratification: it would force a two-dimensional
    first layer, whose self-bracket spans at most one dimension.
    """
    if dim % 2 != 0 or dim == 0:
        return False
    n = dim // 2
    if len(descending_dims) != n + 1 or descending_dims[-1] != 0:
        return False
    return all(descending_dims[j] == 2 * n - 2 * j for j in range(n + 1))


def stratification_obstructions(
    alg: LieAlgebra, s: Stratification | None = None
) -> list[Verdict]:
    """Evaluate the two known non-existence criteria on this input.

    Returns one verdict per criterion; hypothesis_not_met means the
    criterion's profile does not apply, a pass means the obstruction
    triggered and the stated object cannot exist.
    """
    verdicts: list[Verdict] = []
    dims = alg.descending_series.dims()
    step = nilpotency_step(alg)
    if step is not None and blocks_stratification_by_dims(alg.dim, dims):
        verdicts.append(
            checked(
                "no_stratification_exists",
                True,
                f"dimension profile {dims} admits no stratification",
            )
        )
    else:
        verdicts.append(
            not_met("no_stratification_exists", "dimension profile does not match")
        )

    if s is not None and stratification_verdict(alg, s).ok:
        if s.step >= 2 and s.layer(1).dim == 2:
            verdicts.append(
                checked(
                    "no_strata_preserving_structure",
                    True,
                    "first layer is 2-dimensional in step >= 2: no strata-preserving J exists",
                )
            )
        else:
            verdicts.append(
                not_met("no_strata_preserving_structure", "first layer is not 2-dimensional")
            )
    else:
        verdicts.append(
            not_met("no_strata_preserving_structure", "no valid stratification supplied")
        )
    return verdicts


def _chains_equal(chain_a, chain_b, span: int) -> bool:
    return all(chain_a.term(j) == chain_b.term(j) for j in range(span + 1))


def _invariant_stratification_exists(cs: ComplexStructure) -> bool:
    """Run the step-2 construction; building succeeds iff it self-verifies."""
    try:
        return is_strata_preserving(cs, cs.step2_stratification)
    except (HypothesisNotMet, InconsistencyError):
        return False


def theorem_suite(
    alg: LieAlgebra,
    cs: ComplexStructure,
    s: Stratification | None = None,
) -> list[Verdict]:
    """Assert every applicable statement of the theorem battery.

    Each statement is evaluated three-valued: hypotheses checked exactly,
    conclusion asserted only when they hold.  Statements needing a
    stratification are skipped (hypothesis_not_met) when none is supplied.
    """
    report = cs.series
    verdicts: list[Verdict] = []
    k_alg = report.algebra_step
    z = report.center
    c_desc = report.c_desc
    j0 = report.j0

    strat_ok = s is not None and stratification_verdict(alg, s).ok
    d1 = report.d_asc.term(1)

    # All lower central series terms J-invariant => p_j = c_j and j0 = k.
    if k_alg is not None and all(
        cs.image(c_desc.term(j)) == c_desc.term(j) for j in range(c_desc.stabilized_at + 1)
    ):
        span = max(c_desc.stabilized_at, report.p_desc.stabilized_at)
        ok = _chains_equal(c_desc, report.p_desc, span) and j0 == k_alg
        verdicts.append(
            checked("invariant_lower_series_pins_p_chain", ok, f"j0 = {j0}, k = {k_alg}")
        )
    else:
        verdicts.append(
            not_met(
                "invariant_lower_series_pins_p_chain",
                "some lower central series term is not J-invariant",
            )
        )

    # Step-k J with c_{k-1} equal to the center => the center is J-invariant.
    if k_alg is not None and j0 == k_alg and c_desc.term(k_alg - 1) == z:
        verdicts.append(
            checked("terminal_lower_term_forces_invariant_center", cs.image(z) == z)
        )
    else:
        verdicts.append(
            not_met(
                "terminal_lower_term_forces_invariant_center",
                "requires nilpotent J of the algebra's step and c_{k-1} = z",
            )
        )

    # One-dimensional center => J cannot be nilpotent.
    if z.dim == 1:
        verdicts.append(checked("one_dim_center_forces_non_nilpotent", j0 is None))
    else:
        verdicts.append(not_met("one_dim_center_forces_non_nilpotent", "center is not 1-dimensional"))

    # Strata-preserving J on a stratified algebra => series J-invariant, j0 = step.
    if strat_ok and is_strata_preserving(cs, s):
        ok = (
            all(
                cs.image(c_desc.term(j)) == c_desc.term(j)
                for j in range(c_desc.stabilized_at + 1)
            )
            and j0 == s.step
        )
        verdicts.append(checked("strata_preserving_pins_series", ok, f"j0 = {j0}"))
    else:
        verdicts.append(
            not_met("strata_preserving_pins_series", "needs a stratification preserved by J")
        )

    # Step-2 stratification with 2-dimensional top layer.
    if strat_ok and s.step == 2 and s.layer(2).dim == 2:
        verdicts.append(checked("two_dim_top_layer_step_two", j0 == 2, f"j0 = {j0}"))
        if d1.dim == 2:
            verdicts.append(
                checked("two_dim_top_layer_j_fixes_top", cs.image(s.layer(2)) == s.layer(2))
            )
        else:
            verdicts.append(
                not_met("two_dim_top_layer_j_fixes_top", "z ∩ Jz is not 2-dimensional")
            )
        preserves = cs.image(s.layer(2)) == s.layer(2) or cs.image(z) == z
        verdicts.append(checked("two_dim_top_center_or_strata_preserving", preserves))
        if 2 <= z.dim <= 3 or (z.dim == 4 and cs.image(z) != z):
            n2 = s.layer(2)
            ok = cs.image(n2) == n2 and _invariant_stratification_exists(cs)
            verdicts.append(checked("two_dim_top_invariant_stratification_exists", ok))
        else:
            verdicts.append(
                not_met(
                    "two_dim_top_invariant_stratification_exists",
                    "center dimension profile out of range",
                )
            )
    else:
        for name in (
            "two_dim_top_layer_step_two",
            "two_dim_top_layer_j_fixes_top",
            "two_dim_top_center_or_strata_preserving",
            "two_dim_top_invariant_stratification_exists",
        ):
            verdicts.append(not_met(name, "needs a step-2 stratification with 2-dimensional top layer"))

    # Step-2 stratification with top layer of dimension 2l (l >= 2), small
    # z ∩ Jz, and J not fixing the top layer => J nilpotent of step 3.
    if strat_ok and s.step == 2:
        n2 = s.layer(2)
        l2 = n2.dim // 2
        if (
            n2.dim % 2 == 0
            and l2 >= 2
            and d1.dim <= 4 * l2 - 2
            and cs.image(n2) != n2
        ):
            verdicts.append(checked("large_twisted_top_layer_step_three", j0 == 3, f"j0 = {j0}"))
        else:
            verdicts.append(
                not_met(
                    "large_twisted_top_layer_step_three",
                    "needs dim n_2 = 2l >= 4, small z ∩ Jz, and J n_2 != n_2",
                )
            )
    else:
        verdicts.append(
            not_met("large_twisted_top_layer_step_three", "needs a step-2 stratification")
        )

    # Step-k stratification, J nilpotent of step k, 2-dimensional terminal
    # layer and 2-dimensional z ∩ Jz => J fixes the terminal layer.
    if (
        strat_ok
        and j0 == s.step
        and s.layer(s.step).dim == 2
        and d1.dim == 2
    ):
        top = s.layer(s.step)
        verdicts.append(checked("two_dim_terminal_layer_preserved", cs.image(top) == top))
    else:
        verdicts.append(
            not_met(
                "two_dim_terminal_layer_preserved",
                "needs nilpotent J of the stratification step with 2-dimensional terminal layer and z ∩ Jz",
            )
        )

    # Six-dimensional step-2 algebra with 2-dimensional derived subalgebra
    # admits a J-invariant stratification.
    if alg.dim == 6 and k_alg == 2 and c_desc.term(1).dim == 2:
        derived = c_desc.term(1)
        ok = cs.image(derived) == derived and _invariant_stratification_exists(cs)
        verdicts.append(checked("six_dim_small_derived_invariant_stratification", ok))
    else:
        verdicts.append(
            not_met(
                "six_dim_small_derived_invariant_stratification",
                "needs dim 6, step 2, 2-dimensional derived subalgebra",
            )
        )

    # Step-3 stratification with J-fixed third layer => J nilpotent of step 3.
    if strat_ok and s.step == 3 and cs.image(s.layer(3)) == s.layer(3):
        verdicts.append(checked("fixed_third_layer_step_three", j0 == 3, f"j0 = {j0}"))
    else:
        verdicts.append(
            not_met("fixed_third_layer_step_three", "needs a step-3 stratification with J n_3 = n_3")
        )

    # Eight-dimensional step-3 stratification with twisted 2-dimensional
    # third layer and small center => J nilpotent of step 4 and d_2 splits
    # as n_3 ⊕ J n_3.
    if (
        strat_ok
        and s.step == 3
        and alg.dim == 8
        and s.layer(3).dim == 2
        and c_desc.term(1).dim == 4
        and cs.image(s.layer(3)) != s.layer(3)
        and z.dim <= 3
    ):
        n3 = s.layer(3)
        jn3 = cs.image(n3)
        split = subspace_sum(n3, jn3)
        ok = (
            j0 == 4
            and subspace_intersection(n3, jn3).is_zero()
            and report.d_desc.term(2) == split
        )
        verdicts.append(checked("eight_dim_twisted_third_layer_step_four", ok, f"j0 = {j0}"))
    else:
        verdicts.append(
            not_met(
                "eight_dim_twisted_third_layer_step_four",
                "needs dim 8, step-3 stratification, dim n_3 = 2, dim [n, n] = 4, J n_3 != n_3, dim z <= 3",
            )
        )

    return verdicts
