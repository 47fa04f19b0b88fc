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
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    LieAlgebra,
    SubspaceChain,
    ascending_chain,
    bracket_subspaces,
    chain_until_stable,
    nilpotency_step,
)
from .complex_structure import ComplexStructure, largest_j_invariant_subspace
from .errors import InconsistencyError
from .linalg import Subspace, contains, int_row_times_matrix, subspace_sum
from .verdicts import Verdict, checked, not_met


def j_ascending_series(alg: LieAlgebra, cs: ComplexStructure) -> SubspaceChain:
    """The ascending chain d^j, each term J-invariant by construction.

    It is the ascending chain of the maps x -> [x, e_i] and x -> [Jx, e_i]
    for every basis index i, taken as the integer products D·ad_i and
    D·ad_i·J_int, J_int = ``J.ints``; the scale factors do not change a kernel.
    """
    n = alg.dim
    j_int = cs.matrix.ints
    maps = []
    for i in range(n):
        ad = alg.right_ad(i)
        maps.append(ad)
        maps.append(
            [v for r in range(n) for v in int_row_times_matrix(ad[r * n : (r + 1) * n], j_int, n)]
        )
    return ascending_chain(n, maps)


def j_descending_series(alg: LieAlgebra, cs: ComplexStructure) -> SubspaceChain:
    """The descending chain d_j = [d_{j-1}, n] + J[d_{j-1}, n]."""
    full = Subspace.full(alg.dim)

    def step(prev: Subspace) -> Subspace:
        derived = bracket_subspaces(alg, prev, full)
        return subspace_sum(derived, cs.image(derived))

    return chain_until_stable(full, step, alg.dim + 1)


def p_series(alg: LieAlgebra, cs: ComplexStructure) -> SubspaceChain:
    """The chain p_j = [p_{j-1}, n] + [J p_{j-1}, n]."""
    full = Subspace.full(alg.dim)

    def step(prev: Subspace) -> Subspace:
        return subspace_sum(
            bracket_subspaces(alg, prev, full),
            bracket_subspaces(alg, cs.image(prev), full),
        )

    return chain_until_stable(full, step, alg.dim + 1)


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


def containment_audit(report: SeriesReport) -> list[Verdict]:
    """Check the containment lattice among the five series.

    For every index j:

      * c_j ⊆ p_j ⊆ d_j and J p_j ⊆ d_j,
      * p_j + J p_j is an ideal and [p_j, n] ⊆ p_{j+1},

    and when J is nilpotent of step j0, additionally:

      * c_j + J c_j ⊆ p_j + J p_j ⊆ d_j ⊆ d^{j0-j} for 0 ≤ j ≤ j0,
      * d_{j0-1} ⊆ d^1 ⊆ z and d_{j0-1} is abelian,
      * d_{j0-j} is not contained in d^{j-1} for 1 ≤ j ≤ j0.
    """
    alg = report.algebra
    cs = report.j
    full = Subspace.full(alg.dim)
    span = max(
        report.c_desc.stabilized_at,
        report.p_desc.stabilized_at,
        report.d_desc.stabilized_at,
    )
    verdicts: list[Verdict] = []

    def j_closure(w: Subspace) -> Subspace:
        return subspace_sum(w, cs.image(w))

    ok_c_p = ok_p_d = ok_jp_d = ok_ideal = ok_step = True
    for j in range(span + 1):
        c_j = report.c_desc.term(j)
        p_j = report.p_desc.term(j)
        d_j = report.d_desc.term(j)
        ok_c_p &= contains(p_j, c_j)
        ok_p_d &= contains(d_j, p_j)
        ok_jp_d &= contains(d_j, cs.image(p_j))
        p_ideal = j_closure(p_j)
        ok_ideal &= contains(p_ideal, bracket_subspaces(alg, p_ideal, full))
        ok_step &= contains(report.p_desc.term(j + 1), bracket_subspaces(alg, p_j, full))
    verdicts.append(checked("lower_series_inside_p_chain", ok_c_p))
    verdicts.append(checked("p_chain_inside_d_chain", ok_p_d))
    verdicts.append(checked("j_image_of_p_inside_d_chain", ok_jp_d))
    verdicts.append(checked("p_plus_jp_is_ideal", ok_ideal))
    verdicts.append(checked("p_bracket_descends", ok_step))

    if report.j0 is None:
        verdicts.append(not_met("nested_chain_with_dual", "J is not nilpotent"))
        verdicts.append(not_met("terminal_d_term_central_abelian", "J is not nilpotent"))
        verdicts.append(not_met("dual_terms_not_nested", "J is not nilpotent"))
        return verdicts

    j0 = report.j0
    ok_chain = True
    for j in range(j0 + 1):
        c_cl = j_closure(report.c_desc.term(j))
        p_cl = j_closure(report.p_desc.term(j))
        d_j = report.d_desc.term(j)
        dual = report.d_asc.term(j0 - j)
        ok_chain &= contains(p_cl, c_cl) and contains(d_j, p_cl) and contains(dual, d_j)
    verdicts.append(checked("nested_chain_with_dual", ok_chain))

    d_last = report.d_desc.term(j0 - 1)
    z = report.center
    d1_up = report.d_asc.term(1)
    ok_terminal = (
        contains(d1_up, d_last)
        and contains(z, d1_up)
        and bracket_subspaces(alg, d_last, d_last).is_zero()
    )
    verdicts.append(checked("terminal_d_term_central_abelian", ok_terminal))

    ok_not_nested = all(
        not contains(report.d_asc.term(j - 1), report.d_desc.term(j0 - j))
        for j in range(1, j0 + 1)
    )
    verdicts.append(checked("dual_terms_not_nested", ok_not_nested))
    return verdicts


def center_dim_bounds(alg: LieAlgebra, cs: ComplexStructure, report: SeriesReport) -> Verdict:
    """Dimension bounds forced by a nilpotent J on a non-abelian algebra.

    Checks 2 ≤ dim z ≤ dim - 2, that d^1 = z ∩ Jz is nonzero and
    even-dimensional, and k ≤ j0 ≤ dim/2 where k is the nilpotency step of
    the algebra.  Reports hypothesis_not_met when J is not nilpotent or
    the algebra is abelian.
    """
    name = "center_dimension_bounds"
    if alg.is_abelian():
        return not_met(name, "algebra is abelian")
    if report.j0 is None:
        return not_met(name, "J is not nilpotent")
    z = report.center
    d1 = report.d_asc.term(1)
    problems = []
    if not 2 <= z.dim <= alg.dim - 2:
        problems.append(f"dim z = {z.dim} outside [2, {alg.dim - 2}]")
    if d1.dim < 2 or d1.dim % 2 != 0:
        problems.append(f"dim (z ∩ Jz) = {d1.dim} not even and >= 2")
    if d1 != largest_j_invariant_subspace(cs, z):
        problems.append("d^1 differs from z ∩ Jz")
    k = nilpotency_step(alg)
    if k is None:
        problems.append("algebra is not nilpotent despite nilpotent J")
    elif not (k <= report.j0 and 2 * report.j0 <= alg.dim):
        problems.append(f"step bounds violated: k={k}, j0={report.j0}, dim={alg.dim}")
    if problems:
        return checked(name, False, "; ".join(problems))
    return checked(
        name, True, f"dim z = {z.dim} in [2, {alg.dim - 2}], j0 = {report.j0}"
    )
