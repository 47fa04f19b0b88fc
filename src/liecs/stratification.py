"""Stratifications (Carnot gradings) and the theorem suite.

A step-k stratification is a decomposition n = n_1 ⊕ ... ⊕ n_k with
[n_1, n_{j-1}] = n_j for 2 ≤ j ≤ k and [n_1, n_k] = 0.  The layers then
recover the lower central series: c_j = n_{j+1} ⊕ ... ⊕ n_k.

For step-2 algebras whose derived subalgebra is J-invariant, a
strata-preserving decomposition always exists: take n_2 = [n, n] and n_1
its orthogonal complement under a J-averaged inner product.  The
``classify_step2`` trichotomy is driven by k = n_2 ∩ J n_2, the largest
J-invariant subspace of the top layer; the nilpotent step of J is 2 iff
J[n, n] ⊆ z, and 3 otherwise.

``theorem_suite`` re-checks, on a concrete input, a battery of known
implications between these notions; a failed verdict therefore signals a
bug or an invalid input, never new mathematics.  The battery is the table
``SUITE`` and the two non-existence criteria are ``OBSTRUCTIONS``, both
tuples of ``verdicts.Statement`` read by ``verdicts.evaluate``; a new
statement is one more entry.
"""

from __future__ import annotations

from .algebra import (
    AdaptedInput,
    LieAlgebra,
    bracket_subspaces,
    center,
    memoized,
    nilpotency_step,
)
from .complex_structure import (
    ComplexStructure,
    j_invariant_inner_product,
    largest_j_invariant_subspace,
)
from .errors import HypothesisNotMet, InconsistencyError
from .j_series import SeriesReport
from .linalg import (
    Matrix,
    Subspace,
    Value,
    _orthogonal_complement,
    contains,
    subspace_intersection,
    subspace_sum,
)
from .verdicts import Statement, Verdict, evaluate

K_ZERO = "k_zero"
K_PROPER = "k_proper"
K_FULL = "k_full"


class Stratification(Value):
    """Ordered layers n_1, ..., n_k of a stratified algebra."""

    layers: tuple[Subspace, ...]

    @property
    def step(self) -> int:
        return len(self.layers)

    def layer(self, index: int) -> Subspace:
        """1-based layer access: layer(1) = n_1."""
        return self.layers[index - 1]

    def on_twin(self, twin: AdaptedInput) -> Stratification:
        """The layers in the coordinates of ``twin``, each moved once (``AdaptedInput.to_twin``)."""
        return Stratification(tuple(map(twin.to_twin, self.layers)))


class StratificationViolation(Value):
    property_name: str
    layer: int
    detail: str


class StratificationVerdict(Value):
    ok: bool
    violations: tuple[StratificationViolation, ...]


def verify_stratification(alg: LieAlgebra, s: Stratification) -> StratificationVerdict:
    """Check all stratification axioms and the layer/series compatibility.

    Violations are named by property (direct_sum, generation,
    top_annihilation, series_match) and 1-based layer, so a rejected input
    says exactly what broke where.
    """
    k = s.step
    if k == 0:
        return StratificationVerdict(False, (StratificationViolation("direct_sum", 0, "no layers given"),))
    for idx, layer in enumerate(s.layers, start=1):
        if layer.ambient_dim != alg.dim:
            mismatch = StratificationViolation("direct_sum", idx, "layer ambient dimension mismatch")
            return StratificationVerdict(False, (mismatch,))
    violations: list[StratificationViolation] = []

    def fail(name: str, layer: int, detail: str) -> None:
        violations.append(StratificationViolation(name, layer, detail))

    if s.layers[-1].is_zero():
        fail("direct_sum", k, "top layer is the zero subspace")

    partial = s.layers[0]
    sum_ok = True
    for idx, layer in enumerate(s.layers[1:], start=2):
        joined = subspace_sum(partial, layer)
        overlap = partial.dim + layer.dim - joined.dim  # dim(partial ∩ layer)
        if overlap:
            fail("direct_sum", idx, f"layer meets the span of earlier layers in dim {overlap}")
            sum_ok = False
        partial = joined
    if not partial.is_full():
        fail("direct_sum", k, f"layers span dimension {partial.dim} of {alg.dim}")
        sum_ok = False

    n1 = s.layer(1)
    for idx in range(2, k + 1):
        generated = bracket_subspaces(alg, n1, s.layer(idx - 1))
        if generated != s.layer(idx):
            fail(
                "generation",
                idx,
                f"[n_1, n_{idx - 1}] has dimension {generated.dim}, expected layer of dimension {s.layer(idx).dim}",
            )
    top_bracket = bracket_subspaces(alg, n1, s.layer(k))
    if not top_bracket.is_zero():
        fail("top_annihilation", k, f"[n_1, n_{k}] is nonzero (dim {top_bracket.dim})")

    if sum_ok:
        series = alg.descending_series
        tails = [Subspace.zero(alg.dim)]  # tails[m]: the sum of layers above k - m
        for layer in reversed(s.layers):
            tails.append(subspace_sum(tails[-1], layer))
        for j in range(k + 1):
            if series.term(j) != tails[k - j]:
                detail = f"sum of layers above {j} differs from the lower central series term"
                fail("series_match", j + 1, detail)
    return StratificationVerdict(ok=not violations, violations=tuple(violations))


@memoized
def stratification_verdict(alg: LieAlgebra, s: Stratification) -> StratificationVerdict:
    """``verify_stratification(alg, s)``, decided on the twin, once per (algebra, stratification).

    The verdict is memoized on the algebra (``algebra.memoized``), keyed by
    the frozen stratification, so the parse gate, the step-2
    classification, the obstructions and the theorem suite share one check.
    It is decided on ``alg.twin`` with the layers moved there: every
    violation names a property, a layer index and dimensions, which no
    change of basis alters.
    """
    twin = alg.twin
    if twin.algebra is alg or any(layer.ambient_dim != alg.dim for layer in s.layers):
        return verify_stratification(alg, s)
    return stratification_verdict(twin.algebra, s.on_twin(twin))


def is_strata_preserving(cs: ComplexStructure, s: Stratification) -> bool:
    """True iff J maps every layer onto itself."""
    return all(cs.image(layer) == layer for layer in s.layers)


def build_step2_j_stratification(cs: ComplexStructure, phi: Matrix) -> Stratification:
    """J-invariant stratification of a step-2 algebra.

    Takes n_2 = [n, n] and n_1 = the orthogonal complement of n_2 under
    psi = phi + Jᵀ phi J.  Requires the algebra to be nilpotent of step 2
    and [n, n] to be J-invariant; under those hypotheses the output always
    verifies and J preserves both layers (checked before returning).
    """
    alg = cs.algebra
    step = nilpotency_step(alg)
    if step != 2:
        raise HypothesisNotMet(f"algebra is not nilpotent of step 2 (step is {step})")
    derived = alg.descending_series.term(1)
    if cs.image(derived) != derived:
        raise HypothesisNotMet("[n, n] is not J-invariant")
    # psi is SPD because phi is, which j_invariant_inner_product checks.
    n1 = _orthogonal_complement(derived, j_invariant_inner_product(cs, phi))
    s = Stratification((n1, derived))
    verdict = verify_stratification(alg, s)
    if not verdict.ok:
        raise InconsistencyError(f"constructed stratification failed to verify: {verdict.violations}")
    if not is_strata_preserving(cs, s):
        raise InconsistencyError("constructed stratification is not J-invariant")
    return s


class Step2Classification(Value):
    """Trichotomy for a complex structure on a step-2 nilpotent algebra.

    ``case`` reflects k = n_2 ∩ J n_2: zero, proper nonzero, or all of
    n_2.  The predicted nilpotent step of J is 2 iff J[n, n] ⊆ z, else 3
    (see ``classify_step2``), and is cross-checked against the computed
    step before this object is returned.
    """

    case: str
    k_subspace: Subspace
    predicted_j0: int
    strata_preserving: bool
    center_preserving: bool


def classify_step2(cs: ComplexStructure) -> Step2Classification:
    """Classify J on its algebra, which must be nilpotent of step 2.

    The case analysis reads only n_2 = [n, n], the top layer of every valid
    stratification (``series_match``), so it takes none; supplied strata are
    checked by the parse gate and the battery's ``strat_ok``.

    The prediction is j0 = 2 iff J n_2 ⊆ z, else j0 = 3.  Proof, for n
    non-abelian of step 2 and J integrable:

    - Take x ∈ n_2.  It is central, so N(x, y) = 0 reads
      [Jx, Jy] = J[Jx, y].  Hence the image of ad_{Jx} is J-invariant and
      lies in n_2, so it lies in k ⊆ z ∩ Jz = d^1.
    - So n_2 + J n_2 ⊆ d^2, and d^3 = n, since every [x, n] lies in n_2.
    - d^1 ⊆ z ≠ n, and d^2 = n iff n_2 ⊆ d^1 iff n_2 ⊆ Jz (n_2 ⊆ z
      always) iff J n_2 ⊆ z.

    k = 0 and k = n_2 both give j0 = 2 as corollaries: J n_2 is central
    by the first step, or equal to n_2.  A proper k can give either step.
    Integrability is a real hypothesis here, not pedantry: the first step
    needs it, and the prediction can fail for a non-integrable J.
    """
    alg = cs.algebra
    step = nilpotency_step(alg)
    if step != 2:
        raise HypothesisNotMet(f"algebra is not nilpotent of step 2 (step is {step})")
    if not cs.integrability.integrable:
        raise HypothesisNotMet("complex structure is not integrable")
    n2 = alg.descending_series.term(1)
    z = center(alg)
    k_sub = largest_j_invariant_subspace(cs, n2)
    case = K_ZERO if k_sub.is_zero() else K_FULL if k_sub == n2 else K_PROPER
    predicted = 2 if contains(z, cs.image(n2)) else 3
    j0 = cs.series.j0
    if j0 != predicted:
        raise InconsistencyError(
            f"classification predicts nilpotent step {predicted} but computed {j0}"
        )
    strata_preserving = case == K_FULL
    if strata_preserving:
        # the construction raises InconsistencyError unless J preserves its layers
        cs.step2_stratification
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


class _Facts(Value):
    """What the statements of ``OBSTRUCTIONS`` and ``SUITE`` read.

    A stratification ``s`` (or None) on ``alg`` and, for ``SUITE``, the
    ``SeriesReport`` ``r`` of the J on it: J itself, j0, the algebra's
    step, the center and the five series are read from ``r``.
    """

    alg: LieAlgebra
    s: Stratification | None
    r: SeriesReport | None = None

    @property
    def strat_ok(self) -> bool:
        return self.s is not None and stratification_verdict(self.alg, self.s).ok


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
    return evaluate(OBSTRUCTIONS, _Facts(alg, s))


def _fixed(f, w: Subspace) -> bool:
    """J w = w."""
    return f.r.j.image(w) == w


def _lower_series_invariant(f) -> bool:
    return all(_fixed(f, c) for c in f.r.c_desc.terms)


def _invariant_stratification_exists(f) -> bool:
    """Run the step-2 construction; building succeeds iff it self-verifies."""
    try:
        f.r.j.step2_stratification
    except (HypothesisNotMet, InconsistencyError):
        return False
    return True


def _large_twisted_top(f) -> bool:
    """dim n_2 = 2l >= 4, J n_2 != n_2, J integrable and dim d^1 < 4l - dim k.

    k = n_2 ∩ J n_2 is computed last, so the inputs with J n_2 = n_2 never
    build it.
    """
    n2 = f.s.layer(2)
    l2 = n2.dim // 2
    return (
        n2.dim % 2 == 0
        and l2 >= 2
        and not _fixed(f, n2)
        and f.r.j.integrability.integrable
        and f.r.d_asc.term(1).dim < 4 * l2 - largest_j_invariant_subspace(f.r.j, n2).dim
    )


def _third_layer_splits_d2(f) -> tuple[bool, str]:
    n3 = f.s.layer(3)
    jn3 = f.r.j.image(n3)
    split = subspace_intersection(n3, jn3).is_zero() and f.r.d_desc.term(2) == subspace_sum(n3, jn3)
    return f.r.j0 == 4 and split, f"j0 = {f.r.j0}"


def _j0_is(step: int):
    return lambda f: (f.r.j0 == step, f"j0 = {f.r.j0}")


_TWO_DIM_TOP = (lambda f: f.strat_ok and f.s.step == 2 and f.s.layer(2).dim == 2,
                "needs a step-2 stratification with 2-dimensional top layer")

SUITE = (
    # All lower central series terms J-invariant => p_j = c_j and j0 = k.
    Statement(
        "invariant_lower_series_pins_p_chain",
        ((lambda f: f.r.algebra_step is not None and _lower_series_invariant(f),
          "some lower central series term is not J-invariant"),),
        lambda f: (f.r.c_desc == f.r.p_desc and f.r.j0 == f.r.algebra_step,
                   f"j0 = {f.r.j0}, k = {f.r.algebra_step}"),
    ),
    # Step-k J with c_{k-1} equal to the center => the center is J-invariant.
    Statement(
        "terminal_lower_term_forces_invariant_center",
        ((lambda f: f.r.algebra_step is not None and f.r.j0 == f.r.algebra_step
          and f.r.c_desc.term(f.r.algebra_step - 1) == f.r.center,
          "requires nilpotent J of the algebra's step and c_{k-1} = z"),),
        lambda f: _fixed(f, f.r.center),
    ),
    # One-dimensional center => J cannot be nilpotent.
    Statement(
        "one_dim_center_forces_non_nilpotent",
        ((lambda f: f.r.center.dim == 1, "center is not 1-dimensional"),),
        lambda f: f.r.j0 is None,
    ),
    # Strata-preserving J on a stratified algebra => series J-invariant, j0 = step.
    Statement(
        "strata_preserving_pins_series",
        ((lambda f: f.strat_ok and is_strata_preserving(f.r.j, f.s),
          "needs a stratification preserved by J"),),
        lambda f: (_lower_series_invariant(f) and f.r.j0 == f.s.step, f"j0 = {f.r.j0}"),
    ),
    # Step-2 stratification with 2-dimensional top layer.
    Statement("two_dim_top_layer_step_two", (_TWO_DIM_TOP,), _j0_is(2)),
    Statement(
        "two_dim_top_layer_j_fixes_top",
        (_TWO_DIM_TOP, (lambda f: f.r.d_asc.term(1).dim == 2, "z ∩ Jz is not 2-dimensional")),
        lambda f: _fixed(f, f.s.layer(2)),
    ),
    Statement(
        "two_dim_top_center_or_strata_preserving",
        (_TWO_DIM_TOP,),
        lambda f: _fixed(f, f.s.layer(2)) or _fixed(f, f.r.center),
    ),
    Statement(
        "two_dim_top_invariant_stratification_exists",
        (_TWO_DIM_TOP,
         (lambda f: 2 <= f.r.center.dim <= 3
          or (f.r.center.dim == 4 and not _fixed(f, f.r.center)),
          "center dimension profile out of range")),
        lambda f: _fixed(f, f.s.layer(2)) and _invariant_stratification_exists(f),
    ),
    # Step-2 stratification with top layer n_2 of dimension 2l (l >= 2),
    # J n_2 != n_2, J integrable, and dim d^1 < 4l - dim k for
    # k = n_2 ∩ J n_2 => J nilpotent of step 3.  Proof: j0 is 2 or 3, and
    # j0 = 2 iff J n_2 ⊆ z (``classify_step2``).  If J n_2 ⊆ z, then
    # n_2 + J n_2 is J-invariant and central, so it lies in d^1 = z ∩ Jz,
    # and its dimension is 4l - dim k.  So dim d^1 < 4l - dim k forces
    # j0 = 3.  The bound is proven here, not transcribed from the paper.  The
    # bound dim d^1 <= 4l - 2 it replaces agrees with it only when k = 0,
    # and fails on a valid dim-10 input with dim k = 2 and dim d^1 = 6
    # (``tests/builders.step2_twisted_dim10``).
    Statement(
        "large_twisted_top_layer_step_three",
        ((lambda f: f.strat_ok and f.s.step == 2, "needs a step-2 stratification"),
         (_large_twisted_top,
          "needs dim n_2 = 2l >= 4, J n_2 != n_2, J integrable, "
          "and dim z ∩ Jz < 4l - dim(n_2 ∩ J n_2)")),
        _j0_is(3),
    ),
    # Step-k stratification, J nilpotent of step k, 2-dimensional terminal
    # layer and 2-dimensional z ∩ Jz => J fixes the terminal layer.
    Statement(
        "two_dim_terminal_layer_preserved",
        ((lambda f: f.strat_ok and f.r.j0 == f.s.step and f.s.layer(f.s.step).dim == 2
          and f.r.d_asc.term(1).dim == 2,
          "needs nilpotent J of the stratification step with 2-dimensional terminal layer"
          " and z ∩ Jz"),),
        lambda f: _fixed(f, f.s.layer(f.s.step)),
    ),
    # Six-dimensional step-2 algebra with 2-dimensional derived subalgebra
    # admits a J-invariant stratification.
    Statement(
        "six_dim_small_derived_invariant_stratification",
        ((lambda f: f.alg.dim == 6 and f.r.algebra_step == 2 and f.r.c_desc.term(1).dim == 2,
          "needs dim 6, step 2, 2-dimensional derived subalgebra"),),
        lambda f: _fixed(f, f.r.c_desc.term(1)) and _invariant_stratification_exists(f),
    ),
    # Step-3 stratification with J-fixed third layer => J nilpotent of step 3.
    Statement(
        "fixed_third_layer_step_three",
        ((lambda f: f.strat_ok and f.s.step == 3 and _fixed(f, f.s.layer(3)),
          "needs a step-3 stratification with J n_3 = n_3"),),
        _j0_is(3),
    ),
    # Eight-dimensional step-3 stratification with twisted 2-dimensional
    # third layer and small center => J nilpotent of step 4 and d_2 splits
    # as n_3 ⊕ J n_3.
    Statement(
        "eight_dim_twisted_third_layer_step_four",
        ((lambda f: f.strat_ok and f.s.step == 3 and f.alg.dim == 8 and f.s.layer(3).dim == 2
          and f.r.c_desc.term(1).dim == 4 and not _fixed(f, f.s.layer(3))
          and f.r.center.dim <= 3,
          "needs dim 8, step-3 stratification, dim n_3 = 2, dim [n, n] = 4, J n_3 != n_3,"
          " dim z <= 3"),),
        _third_layer_splits_d2,
    ),
)


def theorem_suite(cs: ComplexStructure, s: Stratification | None = None) -> list[Verdict]:
    """Assert every applicable statement of the theorem battery (``SUITE``).

    Each statement is evaluated three-valued: hypotheses checked exactly,
    conclusion asserted only when they hold.  Statements needing a
    stratification are skipped (hypothesis_not_met) when none is supplied.
    """
    r = cs.series
    return evaluate(SUITE, _Facts(r.algebra, s, r))
