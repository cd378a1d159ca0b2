"""Multivalued conewise linear functions and their Chern-type data.

A multivalued function assigns to every maximal cone a multiset of integral
linear functionals, compatible under restriction to shared faces.  The
restriction of a functional to the span of a face is represented by its
canonical coset modulo the annihilator lattice of that span, so multiset
comparison is plain sorted-tuple equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Sequence

from .cones import Cone, facet_pairs, intersect
from .errors import (
    DegreeOutOfRange,
    HypothesisFailed,
    Inconsistent,
    NoFullDimensionalCone,
    NotFullDimensional,
)
from .fans import Fan
from .linalg import IntVec, Sublattice, reduce_mod, span_lattice, vec_add, vec_scale


def _span_annihilator(cone: Cone) -> Sublattice:
    gens = list(cone.rays) + list(cone.lineality)
    if not gens:
        return Sublattice.standard(cone.ambient_rank)
    return span_lattice(gens, cone.ambient_rank).annihilator()


def restrict_multiset(elements: Sequence[IntVec], cone: Cone) -> tuple[IntVec, ...]:
    """Multiset of restrictions to Span(cone), canonically represented."""
    ann = _span_annihilator(cone)
    return tuple(sorted(reduce_mod([int(x) for x in u], ann.basis_int)
                        for u in elements))


@dataclass(frozen=True)
class FunctionalMultiset:
    """A sorted multiset of integral linear functionals."""

    elements: tuple[IntVec, ...]

    @staticmethod
    def of(elements: Sequence[Sequence[int]]) -> "FunctionalMultiset":
        return FunctionalMultiset(tuple(sorted(tuple(int(x) for x in e)
                                               for e in elements)))

    @property
    def degree(self) -> int:
        return len(self.elements)

    def __contains__(self, u) -> bool:
        return tuple(u) in self.elements


@dataclass(frozen=True)
class MultivaluedCPL:
    fan: Fan
    multisets: tuple[FunctionalMultiset, ...]

    def __post_init__(self):
        if len(self.multisets) != len(self.fan.maximal_cones):
            raise ValueError("one multiset per maximal cone required")
        degrees = {m.degree for m in self.multisets}
        if len(degrees) > 1:
            raise ValueError("multisets have mixed degrees")

    @property
    def degree(self) -> int:
        return self.multisets[0].degree if self.multisets else 0


@dataclass(frozen=True)
class ConsistencyReport:
    ok: bool
    mismatches: tuple[dict, ...]


@dataclass(frozen=True)
class TrivialityReport:
    trivial: bool
    witness_cone: int | None
    candidate: FunctionalMultiset


def facet_functionals(cone: Cone) -> tuple[IntVec, ...]:
    """Primitive generators of the dual rays vanishing on each facet.

    For a pointed full-dimensional cone each facet supports exactly one
    extremal dual ray; the functionals come back ordered by the canonical
    facet-normal order and are nonnegative on the whole cone.
    """
    return tuple(u for _, u in facet_pairs(cone))


def construct_nontrivial(fan: Fan, sigma_index: int | None = None,
                         scale: int | Sequence[int] = 1) -> MultivaluedCPL:
    """The parity construction of a nontrivial multivalued function.

    Take the facet functionals L_1 .. L_k of the chosen full-dimensional
    cone and form the two multisets of sums with an even or odd number of
    terms.  The odd multiset goes on the chosen cone, the even one (which
    contains 0) on every other maximal cone; their restrictions to any facet
    coincide because flipping the coefficient of that facet's functional is
    a parity-swapping bijection that fixes the restriction.
    """
    n = fan.ambient_rank
    full = [k for k, c in enumerate(fan.maximal_cones) if c.dim == n]
    if len(full) < 2:
        raise HypothesisFailed(
            "need more than one maximal cone of dimension equal to the rank")
    if sigma_index is None:
        sigma_index = full[0]
    if not 0 <= sigma_index < len(fan.maximal_cones):
        raise HypothesisFailed("no maximal cone has index %d" % sigma_index)
    cone = fan.maximal_cones[sigma_index]
    if cone.dim != n:
        raise NotFullDimensional("chosen cone does not span the ambient space")
    funcs = list(facet_functionals(cone))
    k = len(funcs)
    if isinstance(scale, int):
        scales = [scale] * k
    else:
        scales = [int(s) for s in scale]
        if len(scales) != k:
            raise ValueError("need one scale per facet")
    if any(s < 1 for s in scales):
        raise ValueError("scales must be positive")
    funcs = [vec_scale(s, f) for s, f in zip(scales, funcs)]
    odd, even = [], []
    for eps in product((0, 1), repeat=k):
        total = (0,) * n
        for e, f in zip(eps, funcs):
            if e:
                total = vec_add(total, f)
        (odd if sum(eps) % 2 == 1 else even).append(total)
    a1 = FunctionalMultiset.of(odd)
    a2 = FunctionalMultiset.of(even)
    multisets = tuple(a1 if c == sigma_index else a2
                      for c in range(len(fan.maximal_cones)))
    return MultivaluedCPL(fan=fan, multisets=multisets)


def check_consistency(f: MultivaluedCPL) -> ConsistencyReport:
    """Compare restrictions on the span of every pairwise intersection.

    Agreement modulo the annihilator of Span(sigma meet sigma') implies
    agreement on every common face, so maximal pairs suffice.
    """
    fan = f.fan
    mismatches = []
    for i, j in combinations(range(len(fan.maximal_cones)), 2):
        meet = intersect(fan.maximal_cones[i], fan.maximal_cones[j])
        ri = restrict_multiset(f.multisets[i].elements, meet)
        rj = restrict_multiset(f.multisets[j].elements, meet)
        if ri != rj:
            mismatches.append({
                "cones": [i, j],
                "face_rays": list(meet.rays),
                "restrictions": [list(ri), list(rj)],
            })
    return ConsistencyReport(ok=not mismatches, mismatches=tuple(mismatches))


def triviality(f: MultivaluedCPL) -> TrivialityReport:
    """Decide whether one global multiset restricts to every cone.

    The candidate is the multiset of the first full-dimensional maximal
    cone, whose restriction determines its functionals uniquely.
    """
    fan = f.fan
    n = fan.ambient_rank
    full = [k for k, c in enumerate(fan.maximal_cones) if c.dim == n]
    if not full:
        raise NoFullDimensionalCone(
            "triviality needs a maximal cone of dimension equal to the rank")
    report = check_consistency(f)
    if not report.ok:
        raise Inconsistent("multivalued function fails restriction compatibility")
    candidate = f.multisets[full[0]]
    for k, cone in enumerate(fan.maximal_cones):
        want = restrict_multiset(f.multisets[k].elements, cone)
        got = restrict_multiset(candidate.elements, cone)
        if want != got:
            return TrivialityReport(trivial=False, witness_cone=k,
                                    candidate=candidate)
    return TrivialityReport(trivial=True, witness_cone=None, candidate=candidate)


def is_trivial(f: MultivaluedCPL) -> bool:
    return triviality(f).trivial


# ---------------------------------------------------------------------------
# symmetric functions of the functionals


Polynomial = dict[tuple[int, ...], int]


def _poly_mul_linear(poly: Polynomial, form: Sequence[int], n: int) -> Polynomial:
    out: Polynomial = {}
    for exps, coeff in poly.items():
        for t in range(n):
            if form[t] == 0:
                continue
            e = list(exps)
            e[t] += 1
            key = tuple(e)
            out[key] = out.get(key, 0) + coeff * form[t]
    return {k: v for k, v in out.items() if v}


def _poly_add(a: Polynomial, b: Polynomial) -> Polynomial:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def elementary_symmetric(f: MultivaluedCPL, i: int) -> list[Polynomial]:
    """Per-cone expansion of the i-th elementary symmetric polynomial
    evaluated on the multiset of linear forms.

    Each entry maps an exponent tuple to its integer coefficient; the result
    is homogeneous of degree i.  For a consistent input these polynomials
    agree on the spans of shared faces.
    """
    if not 1 <= i <= f.degree:
        raise DegreeOutOfRange("index %d outside 1..%d" % (i, f.degree))
    n = f.fan.ambient_rank
    out = []
    for ms in f.multisets:
        elem: list[Polynomial] = [{} for _ in range(i + 1)]
        elem[0] = {tuple([0] * n): 1}
        for form in ms.elements:
            for s in range(min(i, f.degree), 0, -1):
                elem[s] = _poly_add(elem[s], _poly_mul_linear(elem[s - 1], form, n))
        out.append(elem[i])
    return out


def restrict_polynomial(poly: Polynomial, basis: Sequence[Sequence[int]],
                        n: int) -> Polynomial:
    """Substitute x = sum_k t_k * b_k and expand in the t variables."""
    s = len(basis)
    out: Polynomial = {}
    for exps, coeff in poly.items():
        term: Polynomial = {tuple([0] * s): coeff}
        for t in range(n):
            form = [basis[k][t] for k in range(s)]
            for _ in range(exps[t]):
                term = _poly_mul_linear(term, form, s)
        out = _poly_add(out, term)
    return out
