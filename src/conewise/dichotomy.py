"""The complete-3-fold dichotomy.

Every valid complete rank-3 fan falls into one of two cases.  If every ray
lies in at least four 2-dimensional cones, the counting argument guarantees
a nontrivial integral conewise linear function (branch A).  Otherwise some
ray has exactly three neighbouring walls; a finite-index sublattice and a
half-integral degree are constructed so that the wall certificate validates
on the reindexed fan (branch B).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cones import Cone
from .cpl import CountReport, CPLFunction, counting_certificate, nontrivial_cpl
from .danilov import H1Certificate, h1_wall_certificate, lattice_points_by_shell
from .errors import (
    CertificateInvalid,
    InvalidFan,
    LNotInRelativeInterior,
    NotComplete,
    SearchExhausted,
    WrongDimension,
)
from .fans import Fan, ReindexedFan, is_complete, reindex_lattice, stats
from .linalg import RatVec, Sublattice, dot, span_lattice, vec_scale


def classify_rays(fan: Fan) -> dict[int, int]:
    """Number of 2-dimensional cones containing each ray."""
    if fan.ambient_rank != 3:
        raise WrongDimension("ray classification runs on rank-3 fans")
    if not is_complete(fan):
        raise NotComplete("ray classification needs a complete fan")
    st = stats(fan)
    return {i: st.m_rho[i] for i in range(len(fan.rays))}


def choose_l(tau: Cone, tau1: Cone, tau2: Cone, lattice: Sublattice,
             search_radius: int = 10) -> RatVec:
    """First lattice point in RelInt(tau^v) avoiding both other dual cones.

    Candidates are ordered by sup-norm then lexicographically.  The three
    cones are expected to be the walls around a common ray; failure raises
    SearchExhausted carrying the dual cones for diagnosis.
    """
    dual = tau.dual()
    d1 = tau1.dual()
    d2 = tau2.dual()
    for l in lattice_points_by_shell(lattice, search_radius):
        if not dual.in_relative_interior(l):
            continue
        if d1.contains(l) or d2.contains(l):
            continue
        return l
    raise SearchExhausted(
        "no admissible functional with sup-norm <= %d" % search_radius,
        diagnostics={"tau_dual": dual, "tau1_dual": d1, "tau2_dual": d2})


@dataclass(frozen=True)
class SublatticeRefinement:
    """Outcome of the wall normalization.

    ``n_normalized`` is the finite-index sublattice in whose coordinates the
    wall is smooth with primitive generators v1, v2 taking value 1 under the
    rescaled functional.  ``m_prime`` is the half-degree overlattice of its
    dual, and ``n_prime`` is the dual of ``m_prime``: the lattice of the
    certified variety, finer again by the (even) order of the half-degree
    coset.  The wall is deliberately singular in ``n_prime``; that break is
    what the certificate detects.
    """

    tau: Cone
    l: RatVec
    n0: tuple[int, ...]
    c1: int
    c2: int
    q: int
    v1: tuple[int, ...]
    v2: tuple[int, ...]
    l_rescaled: RatVec
    degree: RatVec
    n1: Sublattice
    n2: Sublattice
    n_normalized: Sublattice
    m_normalized: Sublattice
    m_prime: Sublattice
    n_prime: Sublattice
    index_n_normalized: int
    index_n_prime: int


def build_sublattice(tau: Cone, l: Sequence, lattice: Sublattice | None = None
                     ) -> SublatticeRefinement:
    """Normalize a wall against a functional from its dual interior.

    Steps: split off a rank-1 complement spanned by the first lattice point
    outside Span(tau); rescale the wall generators so the functional takes a
    common value on them; pass to the half-degree overlattice on the dual
    side and dualize back.
    """
    if tau.dim != 2:
        raise WrongDimension("wall normalization needs a 2-dimensional cone")
    n = tau.ambient_rank
    if lattice is None:
        lattice = Sublattice.standard(n)
    l = tuple(Fraction(x) for x in l)
    if not tau.dual().in_relative_interior(l):
        raise LNotInRelativeInterior(
            "functional %s is not in the relative interior of the dual" % (l,))
    p = next(p for p in lattice_points_by_shell(lattice)
             if any(p) and span_lattice(list(tau.rays) + [p], n).rank > 2)
    n0 = tuple(int(x) if x.denominator == 1 else x for x in p)
    n1 = lattice.intersect_span([n0])
    w1, w2 = tau.rays
    c1 = dot(l, w1)
    c2 = dot(l, w2)
    if c1 <= 0 or c2 <= 0:
        raise LNotInRelativeInterior("functional is not positive on the wall rays")
    if c1.denominator != 1 or c2.denominator != 1:
        raise LNotInRelativeInterior("functional does not pair integrally")
    c1, c2 = int(c1), int(c2)
    q = c1 * c2
    v1 = vec_scale(c2, w1)
    v2 = vec_scale(c1, w2)
    n2 = span_lattice([v1, v2], n)
    l_rescaled = tuple(Fraction(x, q) for x in l)
    degree = tuple(x / 2 for x in l_rescaled)
    n_norm = n1.sum(n2)
    m_norm = n_norm.dual()
    m_prime = m_norm.add_generator(degree)
    n_prime = m_prime.dual()
    if dot(l_rescaled, v1) != 1 or dot(l_rescaled, v2) != 1:
        raise CertificateInvalid("rescaled functional is not 1 on the wall generators")
    if not m_prime.contains(degree):
        raise CertificateInvalid("half degree is not in the overlattice")
    return SublatticeRefinement(
        tau=tau, l=l, n0=n0, c1=c1, c2=c2, q=q, v1=v1, v2=v2,
        l_rescaled=l_rescaled, degree=degree,
        n1=n1, n2=n2,
        n_normalized=n_norm, m_normalized=m_norm,
        m_prime=m_prime, n_prime=n_prime,
        index_n_normalized=n_norm.index_in(lattice),
        index_n_prime=n_prime.index_in(lattice),
    )


@dataclass(frozen=True)
class KGroupWitness:
    """Branch-B data: the ray, its three walls, the refinement, and the
    certificate computed on the reindexed fan."""

    ray_index: int
    wall_rays: tuple[int, ...]
    other_wall_rays: tuple[tuple[int, ...], tuple[int, ...]]
    refinement: SublatticeRefinement
    reindexed: ReindexedFan
    degree_new: RatVec
    m_prime_new: Sublattice
    certificate: H1Certificate
    tau_smooth_after_reindex: bool
    degree_outside_neighbour_duals: tuple[bool, bool]


@dataclass(frozen=True)
class DichotomyResult:
    branch: str  # "line_bundle" or "k_group"
    line_bundle_witness: CPLFunction | None
    count_report: CountReport | None
    kgroup_witness: KGroupWitness | None


def run_dichotomy(fan: Fan, search_radius: int = 10) -> DichotomyResult:
    """Branch on the minimum ray neighbour count, exactly.

    Branch A returns the nontrivial conewise linear function together with
    the counting chain that guarantees it.  Branch B picks the first ray
    with three walls, searches the three wall labelings for an admissible
    functional, builds the sublattice refinement, and verifies the wall
    certificate on the reindexed fan; any failure of the expected
    postconditions is an internal contradiction and raises.
    """
    if fan.ambient_rank != 3:
        raise WrongDimension("the dichotomy runs on rank-3 fans")
    if not is_complete(fan):
        raise NotComplete("the dichotomy needs a complete fan")
    st = stats(fan)
    if st.min_m_rho >= 4:
        count = counting_certificate(fan)
        witness = nontrivial_cpl(fan)
        if witness is None:
            raise CertificateInvalid(
                "counting chain promises a nontrivial function but none found")
        return DichotomyResult(branch="line_bundle", line_bundle_witness=witness,
                               count_report=count, kgroup_witness=None)

    if st.min_m_rho < 3:
        raise InvalidFan("a ray of a complete 3-fold fan lies in %d walls"
                         % st.min_m_rho)
    ray_index = min(i for i, m in enumerate(st.m_rho) if m == 3)
    walls = [fc for fc in fan.cones_of_dim(2) if ray_index in fc.ray_indices]
    if len(walls) != 3:
        raise CertificateInvalid("ray %d lies in %d walls, expected 3"
                                 % (ray_index, len(walls)))
    lattice = Sublattice.standard(3)
    chosen = None
    failures = []
    for t in range(3):
        tau_fc = walls[t]
        others = [walls[k] for k in range(3) if k != t]
        try:
            l = choose_l(tau_fc.cone, others[0].cone, others[1].cone,
                         lattice, search_radius)
        except SearchExhausted as exc:
            failures.append(exc)
            continue
        chosen = (tau_fc, others, l)
        break
    if chosen is None:
        raise SearchExhausted(
            "no admissible functional for any labeling of the three walls "
            "around ray %d with sup-norm <= %d" % (ray_index, search_radius),
            diagnostics={"failures": failures})
    tau_fc, others, l = chosen
    refinement = build_sublattice(tau_fc.cone, l, lattice)
    reindexed = reindex_lattice(fan, refinement.n_normalized)
    degree_new = reindexed.degree_to_new(refinement.degree)
    m_prime_new = Sublattice.standard(3).add_generator(degree_new)
    certificate = h1_wall_certificate(reindexed.fan, tau_fc.ray_indices,
                                      degree_new, m_prime_new)
    tau_new = reindexed.fan.find_cone_by_rays(tau_fc.ray_indices)
    tau_smooth = tau_new is not None and tau_new.cone.is_smooth()
    duals_ok = tuple(
        not reindexed.fan.maximal_cones[k].dual().contains(degree_new)
        for k in certificate.neighbour_indices)
    if not certificate.valid:
        raise CertificateInvalid("wall certificate failed on the reindexed fan")
    if certificate.wall_report.dim_f != 1:
        raise CertificateInvalid("wall cokernel dimension is %d, expected 1"
                                 % certificate.wall_report.dim_f)
    if not tau_smooth:
        raise CertificateInvalid("wall is not smooth in the normalized lattice")
    if not all(duals_ok):
        raise CertificateInvalid("degree lies in a neighbour dual cone")
    witness = KGroupWitness(
        ray_index=ray_index,
        wall_rays=tau_fc.ray_indices,
        other_wall_rays=(others[0].ray_indices, others[1].ray_indices),
        refinement=refinement,
        reindexed=reindexed,
        degree_new=degree_new,
        m_prime_new=m_prime_new,
        certificate=certificate,
        tau_smooth_after_reindex=tau_smooth,
        degree_outside_neighbour_duals=duals_ok,
    )
    return DichotomyResult(branch="k_group", line_bundle_witness=None,
                           count_report=None, kgroup_witness=witness)
