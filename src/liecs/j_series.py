"""J-invariant central series and the nilpotent step of a complex structure.

Three chains are attached to an algebra n with an almost-complex J:

    ascending   d^0 = 0,  d^j = {x : [x, n] ⊆ d^{j-1} and [Jx, n] ⊆ d^{j-1}}
    descending  d_0 = n,  d_j = [d_{j-1}, n] + J[d_{j-1}, n]
    mixed       p_0 = n,  p_j = [p_{j-1}, n] + [J p_{j-1}, n]

J is *nilpotent of step j0* when d^{j0} is the whole algebra and d^{j0-1}
is not.  The same j0 is, equivalently, the first vanishing index of the
p-chain and of the descending d-chain; :func:`nilpotent_step` computes all
three routes and refuses to return if they ever disagree, since a
disagreement can only come from an implementation bug.

None of the definitions needs J integrable; they read J as a plain linear
map, and integrability is reported separately.

The containment lattice among the five series and the center bounds are
the statement tables ``AUDIT`` and ``BOUNDS`` (see ``verdicts.Statement``),
read by ``containment_audit`` and ``center_dim_bounds``.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

from .algebra import (
    LieAlgebra,
    SubspaceChain,
    bracket_subspaces,
    centralizer,
    chain_until_stable,
    nilpotency_step,
)
from .complex_structure import ComplexStructure, largest_j_invariant_subspace
from .errors import InconsistencyError
from .linalg import Subspace, contains, subspace_sum
from .verdicts import Statement, Verdict, evaluate


def j_ascending_series(alg: LieAlgebra, cs: ComplexStructure) -> SubspaceChain:
    """The ascending chain d^j = Z ∩ J·Z, Z = Z(d^{j-1}) = {x : [x, n] ⊆ d^{j-1}}.

    x lies in d^j iff x and Jx lie in Z (``algebra.centralizer``), and
    {x : Jx ∈ Z} = J⁻¹Z = JZ because J⁻¹ = -J.  So each term is the
    largest J-invariant subspace of one centralizer step, Z ∩ JZ.
    """
    return chain_until_stable(
        Subspace.zero(alg.dim),
        lambda prev: largest_j_invariant_subspace(cs, centralizer(alg, prev)),
    )


def j_descending_series(alg: LieAlgebra, cs: ComplexStructure) -> SubspaceChain:
    """The descending chain d_j = [d_{j-1}, n] + J[d_{j-1}, n]."""
    full = Subspace.full(alg.dim)

    def step(prev: Subspace) -> Subspace:
        derived = bracket_subspaces(alg, prev, full)
        return subspace_sum(derived, cs.image(derived))

    return chain_until_stable(full, step)


def p_series(alg: LieAlgebra, cs: ComplexStructure) -> SubspaceChain:
    """The chain p_j = [p_{j-1}, n] + [J p_{j-1}, n]."""
    full = Subspace.full(alg.dim)

    def step(prev: Subspace) -> Subspace:
        return subspace_sum(
            bracket_subspaces(alg, prev, full),
            bracket_subspaces(alg, cs.image(prev), full),
        )

    return chain_until_stable(full, step)


@dataclass(frozen=True)
class SeriesReport:
    """All five series of one (algebra, J) pair plus the nilpotent step.

    ``j0`` is None when J is not nilpotent (the ascending chain stops
    below the full algebra).  ``route_agreement`` records that the three
    independent computations of j0 coincided; a report is never produced
    when they do not.
    """

    algebra: LieAlgebra
    j: ComplexStructure
    c_desc: SubspaceChain
    c_asc: SubspaceChain
    d_asc: SubspaceChain
    d_desc: SubspaceChain
    p_desc: SubspaceChain
    j0: int | None
    route_agreement: bool

    @property
    def center(self) -> Subspace:
        return self.c_asc.term(1)

    @property
    def algebra_step(self) -> int | None:
        return self.c_desc.first_zero()


def nilpotent_step(alg: LieAlgebra, cs: ComplexStructure) -> SeriesReport:
    """Compute every series and the nilpotent step of J by three routes.

    Route (i): first index where d^j is everything.  Route (ii): first
    vanishing p_j.  Route (iii): first vanishing d_j.  The three must
    agree (also on "J is not nilpotent"); disagreement raises
    InconsistencyError because it refutes the implementation, not the
    input.
    """
    d_asc = j_ascending_series(alg, cs)
    d_desc = j_descending_series(alg, cs)
    p_desc = p_series(alg, cs)
    routes = {
        "ascending": d_asc.first_full(),
        "p_chain": p_desc.first_zero(),
        "descending": d_desc.first_zero(),
    }
    values = set(routes.values())
    if len(values) != 1:
        raise InconsistencyError(f"nilpotent step routes disagree: {routes}")
    return SeriesReport(
        algebra=alg,
        j=cs,
        c_desc=alg.descending_series,
        c_asc=alg.ascending_series,
        d_asc=d_asc,
        d_desc=d_desc,
        p_desc=p_desc,
        j0=values.pop(),
        route_agreement=True,
    )


def _facts(report: SeriesReport) -> SimpleNamespace:
    """What the statements of ``AUDIT`` and ``BOUNDS`` read: all of it is in ``report``."""
    return SimpleNamespace(alg=report.algebra, cs=report.j, r=report)


def _j_closure(cs: ComplexStructure, w: Subspace) -> Subspace:
    """w + J w."""
    return subspace_sum(w, cs.image(w))


def _with_n(alg: LieAlgebra, w: Subspace) -> Subspace:
    """[w, n]."""
    return bracket_subspaces(alg, w, Subspace.full(alg.dim))


def _is_ideal(alg: LieAlgebra, w: Subspace) -> bool:
    return contains(w, _with_n(alg, w))


def _at_every_index(check):
    """``check(f, c_j, p_j, d_j, p_{j+1})`` for every j up to the last stabilization."""

    def conclusion(f) -> bool:
        r = f.r
        span = max(r.c_desc.stabilized_at, r.p_desc.stabilized_at, r.d_desc.stabilized_at)
        return all(
            check(f, r.c_desc.term(j), r.p_desc.term(j), r.d_desc.term(j), r.p_desc.term(j + 1))
            for j in range(span + 1)
        )

    return conclusion


def _nested_chain_with_dual(f) -> bool:
    """c_j + J c_j ⊆ p_j + J p_j ⊆ d_j ⊆ d^{j0-j} for 0 ≤ j ≤ j0."""
    r, j0 = f.r, f.r.j0
    for j in range(j0 + 1):
        p_cl, d_j = _j_closure(f.cs, r.p_desc.term(j)), r.d_desc.term(j)
        if not contains(p_cl, _j_closure(f.cs, r.c_desc.term(j))):
            return False
        if not (contains(d_j, p_cl) and contains(r.d_asc.term(j0 - j), d_j)):
            return False
    return True


def _terminal_d_term_central_abelian(f) -> bool:
    """d_{j0-1} ⊆ d^1 ⊆ z and [d_{j0-1}, d_{j0-1}] = 0."""
    d_last, d1_up = f.r.d_desc.term(f.r.j0 - 1), f.r.d_asc.term(1)
    return (
        contains(d1_up, d_last)
        and contains(f.r.center, d1_up)
        and bracket_subspaces(f.alg, d_last, d_last).is_zero()
    )


_NILPOTENT = (lambda f: f.r.j0 is not None, "J is not nilpotent")

# Conclusions checked at every index j, on (c_j, p_j, d_j, p_{j+1}).
_EVERY_INDEX = {
    "lower_series_inside_p_chain": lambda f, c, p, d, p1: contains(p, c),
    "p_chain_inside_d_chain": lambda f, c, p, d, p1: contains(d, p),
    "j_image_of_p_inside_d_chain": lambda f, c, p, d, p1: contains(d, f.cs.image(p)),
    "p_plus_jp_is_ideal": lambda f, c, p, d, p1: _is_ideal(f.alg, _j_closure(f.cs, p)),
    "p_bracket_descends": lambda f, c, p, d, p1: contains(p1, _with_n(f.alg, p)),
}

AUDIT = (
    *(Statement(name, (), _at_every_index(check)) for name, check in _EVERY_INDEX.items()),
    Statement("nested_chain_with_dual", (_NILPOTENT,), _nested_chain_with_dual),
    Statement("terminal_d_term_central_abelian", (_NILPOTENT,), _terminal_d_term_central_abelian),
    Statement(
        "dual_terms_not_nested",
        (_NILPOTENT,),
        lambda f: not any(
            contains(f.r.d_asc.term(j - 1), f.r.d_desc.term(f.r.j0 - j))
            for j in range(1, f.r.j0 + 1)
        ),
    ),
)


def containment_audit(report: SeriesReport) -> list[Verdict]:
    """Check the containment lattice among the five series (``AUDIT``).

    For every index j:

      * c_j ⊆ p_j ⊆ d_j and J p_j ⊆ d_j,
      * p_j + J p_j is an ideal and [p_j, n] ⊆ p_{j+1},

    and when J is nilpotent of step j0, additionally:

      * c_j + J c_j ⊆ p_j + J p_j ⊆ d_j ⊆ d^{j0-j} for 0 ≤ j ≤ j0,
      * d_{j0-1} ⊆ d^1 ⊆ z and d_{j0-1} is abelian,
      * d_{j0-j} is not contained in d^{j-1} for 1 ≤ j ≤ j0.
    """
    return evaluate(AUDIT, _facts(report))


def _center_bounds(f) -> tuple[bool, str]:
    alg, r = f.alg, f.r
    z, d1 = r.center, r.d_asc.term(1)
    problems = []
    if not 2 <= z.dim <= alg.dim - 2:
        problems.append(f"dim z = {z.dim} outside [2, {alg.dim - 2}]")
    if d1.dim < 2 or d1.dim % 2 != 0:
        problems.append(f"dim (z ∩ Jz) = {d1.dim} not even and >= 2")
    if d1 != largest_j_invariant_subspace(f.cs, z):
        problems.append("d^1 differs from z ∩ Jz")
    k = nilpotency_step(alg)
    if k is None:
        problems.append("algebra is not nilpotent despite nilpotent J")
    elif not (k <= r.j0 and 2 * r.j0 <= alg.dim):
        problems.append(f"step bounds violated: k={k}, j0={r.j0}, dim={alg.dim}")
    if problems:
        return False, "; ".join(problems)
    return True, f"dim z = {z.dim} in [2, {alg.dim - 2}], j0 = {r.j0}"


BOUNDS = (
    Statement(
        "center_dimension_bounds",
        ((lambda f: not f.alg.is_abelian(), "algebra is abelian"), _NILPOTENT),
        _center_bounds,
    ),
)


def center_dim_bounds(report: SeriesReport) -> Verdict:
    """Dimension bounds forced by a nilpotent J on a non-abelian algebra (``BOUNDS``).

    Checks 2 ≤ dim z ≤ dim - 2, that d^1 = z ∩ Jz is nonzero and
    even-dimensional, and k ≤ j0 ≤ dim/2 where k is the nilpotency step of
    the algebra.  Reports hypothesis_not_met when J is not nilpotent or
    the algebra is abelian.
    """
    return evaluate(BOUNDS, _facts(report))[0]
