"""Fans: validation, completeness, statistics, builders, lattice reindexing.

A fan is given by its primitive ray generators and the maximal cones as ray
index lists.  The face closure is computed eagerly at construction and all
derived cone lists are kept in a deterministic order, so identical input
data always produces identical output.

The same pass builds the fan's index, which every lookup reads:
``ray_index`` maps a ray to its index, ``by_cone`` a closure ``Cone`` to its
``FanCone``, and ``by_rays`` a sorted ray-index tuple to the first closure
cone in ``all_cones`` order with that ray set (``{0}`` and a lineality-only
face both have ``()``).  Each ``FanCone`` lists its ``owners``, the maximal
cones it is a face of.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .cones import Cone, _halfspaces_to_rays
from .errors import InvalidFan, NotComplete, NotFullRank, OriginNotInterior, WrongDimension
from .linalg import (
    Sublattice,
    invert_fraction_matrix,
    is_zero_vec,
    mat_transpose,
    primitive_vector,
    span_lattice,
    vec_mat,
    vec_neg,
)

@dataclass(frozen=True)
class FanCone:
    """A cone of the fan, its ray index set, and the indices of the maximal
    cones it is a face of."""

    cone: Cone
    ray_indices: tuple[int, ...]
    owners: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.cone.dim


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[dict, ...]


@dataclass(frozen=True)
class FanStats:
    """Counts of cones by dimension and the incidence numbers used by the
    dimension-count argument for conewise linear functions."""

    f: tuple[int, ...]
    m_rho: tuple[int, ...]
    n_sigma: tuple[int, ...]

    @property
    def min_m_rho(self) -> int:
        return min(self.m_rho)


def _rays_in(rays: tuple, mask: int) -> tuple:
    return tuple(r for i, r in enumerate(rays) if mask >> i & 1)


class Fan:
    """Immutable fan with an eagerly computed face closure."""

    def __init__(self, ambient_rank: int, rays: Sequence[Sequence[int]],
                 maximal_cones: Sequence[Sequence[int]],
                 labels: dict[str, Sequence[int]] | None = None):
        rays = tuple(tuple(int(x) for x in r) for r in rays)
        for r in rays:
            if len(r) != ambient_rank:
                raise InvalidFan("ray length does not match ambient rank")
            if is_zero_vec(r):
                raise InvalidFan("zero vector listed as a ray")
        self.ambient_rank = ambient_rank
        self.rays = rays
        self.maximal_cone_rays = tuple(tuple(sorted(set(int(i) for i in c)))
                                       for c in maximal_cones)
        for c in self.maximal_cone_rays:
            if not c:
                raise InvalidFan("maximal cone with empty ray list")
            if any(i < 0 or i >= len(rays) for i in c):
                raise InvalidFan("maximal cone references a missing ray index")
        self.labels = {str(k): tuple(sorted(int(i) for i in v))
                       for k, v in (labels or {}).items()}
        self.maximal_cones = tuple(
            Cone.from_generators([rays[i] for i in c], ambient_rank)
            for c in self.maximal_cone_rays)
        self.ray_index = {r: i for i, r in enumerate(rays)}
        if len(self.ray_index) != len(rays):
            raise InvalidFan("duplicate rays")
        for r in rays:
            if primitive_vector(r) != r:
                raise InvalidFan("ray %s is not primitive" % (r,))
        self._build_closure()
        self._validation: ValidationReport | None = None
        self._complete: bool | None = None

    # -- closure -----------------------------------------------------------

    def _ray_indices_of(self, cone: Cone) -> tuple[int, ...]:
        """The index of each of the cone's rays, in the order of its rays."""
        for r in cone.rays:
            if r not in self.ray_index:
                raise InvalidFan("face ray %s is not a listed fan ray" % (r,))
        return tuple(self.ray_index[r] for r in cone.rays)

    def _build_closure(self):
        """Each face of a maximal cone is a ray mask (:meth:`Cone.face_masks`)
        and keyed by its canonical ``(rays, lineality)``: the cone's rays in
        the mask and the cone's lineality.  It is built once, from its first
        owner; its data are canonical, so every owner would build the same."""
        owners: dict[tuple, tuple] = {}
        for k, cone in enumerate(self.maximal_cones):
            idx = self._ray_indices_of(cone)
            for mask in cone.face_masks():
                key = (_rays_in(cone.rays, mask), cone.lineality)
                owners.setdefault(key, (cone, mask, idx, []))[3].append(k)
        cones = [FanCone(c._face(m), tuple(sorted(_rays_in(idx, m))), tuple(ks))
                 for c, m, idx, ks in owners.values()]
        cones.sort(key=lambda fc: (fc.dim, fc.ray_indices, fc.cone.rays))
        self.all_cones: tuple[FanCone, ...] = tuple(cones)
        self.by_cone: dict[Cone, FanCone] = {fc.cone: fc for fc in cones}
        self.by_rays: dict[tuple[int, ...], FanCone] = {}
        for fc in cones:
            self.by_rays.setdefault(fc.ray_indices, fc)

    def cones_of_dim(self, d: int) -> tuple[FanCone, ...]:
        return tuple(fc for fc in self.all_cones if fc.dim == d)

    def find_cone_by_rays(self, ray_indices: Sequence[int]) -> FanCone | None:
        """The closure cone whose ray index set is exactly the given one."""
        return self.by_rays.get(tuple(sorted(set(int(i) for i in ray_indices))))

    def maximal_cones_containing(self, fc: FanCone) -> tuple[int, ...]:
        """The maximal cones of this fan having ``fc.cone`` as a face; ``fc``
        may come from another fan."""
        own = self.by_cone.get(fc.cone)
        return own.owners if own is not None else ()

    # -- identity ------------------------------------------------------------

    def _key(self):
        return (self.ambient_rank, self.rays, self.maximal_cone_rays,
                tuple(sorted(self.labels.items())))

    def __eq__(self, other):
        if not isinstance(other, Fan):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "Fan(rank=%d, %d rays, %d maximal cones)" % (
            self.ambient_rank, len(self.rays), len(self.maximal_cones))


# ---------------------------------------------------------------------------
# validation and completeness


def _meet_is_common_face(a: Cone, b: Cone) -> bool:
    """Whether ``a`` and ``b`` meet in a face of each, by one conversion of
    D = a^v ∩ (-b)^v; see :func:`validate`."""
    ga = a.generators
    _, _, tight = _halfspaces_to_rays(ga + tuple(map(vec_neg, b.generators)),
                                      a.ambient_rank)
    common = -1
    for z in tight:
        common &= z
    return ((_rays_in(a.rays, common), a.lineality)
            == (_rays_in(b.rays, common >> len(ga)), b.lineality))


def validate(fan: Fan) -> ValidationReport:
    """Check the fan axioms pairwise on maximal cones.

    Face closure holds by construction, so the work is: strong convexity of
    each cone and the common-face property for every pair.  Violations are
    reported as data, never raised.

    The pair check is the Separation Lemma (Fulton, *Introduction to Toric
    Varieties*, 1993, §1.2): a and b meet in a face of each iff some u in
    D = a^v ∩ (-b)^v has ``a ∩ u^⊥ = a ∩ b = b ∩ u^⊥``.  Every u in D is
    >= 0 on a and <= 0 on b, so it vanishes on a ∩ b, and ``a ∩ u^⊥`` is a
    face of a holding a ∩ b.  For u in the relative interior of D and any
    u' in D, ``u - εu'`` lies in D for small ε > 0, so ``a ∩ u^⊥`` lies in
    ``a ∩ u'^⊥``; hence ``a ∩ u^⊥ = a ∩ D^⊥`` is the smallest face that any
    u in D cuts out of a, and likewise for b.  So some u works iff a
    relative-interior one does, that is iff ``a ∩ D^⊥ = b ∩ D^⊥``: that
    cone holds a ∩ b and lies in both a and b.

    One conversion of the rows ``a.generators + (-b.generators)`` gives the
    rays of D with the rows tight on each; the generators tight on all of
    them vanish on D, so they span ``a ∩ D^⊥`` and ``b ∩ D^⊥``.  A face is
    the cone's lineality plus its rays in the face, both canonical, so the
    two faces compare by those tuples, pointed or not, full-dimensional or
    not.
    """
    if fan._validation is not None:
        return fan._validation
    violations = []
    for k, cone in enumerate(fan.maximal_cones):
        if not cone.is_pointed():
            violations.append({"kind": "not_pointed", "cones": [k]})
    for i, j in combinations(range(len(fan.maximal_cones)), 2):
        if not _meet_is_common_face(fan.maximal_cones[i], fan.maximal_cones[j]):
            violations.append({"kind": "intersection_not_common_face",
                               "cones": [i, j]})
    report = ValidationReport(ok=not violations, violations=tuple(violations))
    fan._validation = report
    return report


def is_complete(fan: Fan) -> bool:
    """Whether the valid fan is complete, decided as: it has a maximal cone,
    every maximal cone is full-dimensional, no maximal cone is listed twice,
    and every wall (codimension-1 cone) lies in exactly two maximal cones.

    These conditions imply that the support |F| is all of R^n.  |F| is
    closed.  A point x of its boundary lies in the relative interior of some
    cone of F, which is not full-dimensional (x would be interior) and not a
    wall: the wall's two maximal cones are distinct, so (the fan being
    valid) they meet in a proper face of each that contains the wall, that
    is in the wall itself; so they lie on opposite sides of its hyperplane
    and cover a neighbourhood of x.  So the
    boundary lies in W, the union of the spans of the cones of codimension
    at least 2, whose complement is connected.  That complement is the
    disjoint union of its open parts inside int|F| and outside |F|; the
    first is not empty, so the second is empty.  Hence R^n - |F| lies in W
    and, being open, is empty.
    """
    if not validate(fan).ok:
        raise InvalidFan("fan does not satisfy the fan axioms")
    if fan._complete is None:
        n = fan.ambient_rank
        fan._complete = (
            bool(fan.maximal_cones)
            and all(c.dim == n for c in fan.maximal_cones)
            and len(set(fan.maximal_cones)) == len(fan.maximal_cones)
            and all(len(wall.owners) == 2 for wall in fan.cones_of_dim(n - 1)))
    return fan._complete


def stats(fan: Fan) -> FanStats:
    if not validate(fan).ok:
        raise InvalidFan("fan does not satisfy the fan axioms")
    n = fan.ambient_rank
    f = tuple(len(fan.cones_of_dim(d)) for d in range(1, n + 1))
    m_rho = [0] * len(fan.rays)
    n_sigma = [0] * len(fan.maximal_cones)
    for fc in fan.cones_of_dim(2):
        for i in fc.ray_indices:
            m_rho[i] += 1
        for k in fc.owners:
            n_sigma[k] += 1
    return FanStats(f=f, m_rho=tuple(m_rho), n_sigma=tuple(n_sigma))


def euler_check(fan: Fan) -> bool:
    """f1 - f2 + f3 == 2 for a complete three-dimensional fan."""
    if fan.ambient_rank != 3:
        raise WrongDimension("Euler identity check needs a rank-3 fan")
    if not is_complete(fan):
        raise NotComplete("Euler identity check needs a complete fan")
    f1, f2, f3 = stats(fan).f
    return f1 - f2 + f3 == 2


# ---------------------------------------------------------------------------
# builders


def build_face_fan(points: Sequence[Sequence[int]],
                   labels: dict[str, Sequence[int]] | None = None) -> Fan:
    """Fan whose maximal cones are the cones over the facets of conv(points).

    The origin must be an interior point of the hull.  The facets
    ``<u, x> <= c`` of a full-dimensional hull are the extremal rays (u, c)
    of the pointed cone of inequalities valid on every point, rows
    ``(-p, 1)``; the origin is interior iff every facet has ``c > 0``.
    """
    pts = [tuple(int(x) for x in p) for p in points]
    if not pts:
        raise OriginNotInterior("no points given")
    n = len(pts[0])
    if span_lattice(pts, n).rank != n:
        raise OriginNotInterior("points do not span the ambient space")
    lin, normals, tight = _halfspaces_to_rays([vec_neg(p) + (1,) for p in pts], n + 1)
    if lin:
        raise OriginNotInterior("points lie on an affine hyperplane")
    for *u, c in normals:
        if c <= 0:
            raise OriginNotInterior(
                "supporting hyperplane %s . x = %d excludes the origin" % (tuple(u), c))
    # only extremal ray directions of the facet cones become fan rays; a
    # point interior to a facet generates nothing one-dimensional
    facet_cones = [Cone.from_generators([p for i, p in enumerate(pts) if z >> i & 1], n)
                   for z in tight]
    extremal = set()
    for cone in facet_cones:
        extremal.update(cone.rays)
    rays = []
    for p in pts:
        prim = primitive_vector(p)
        if prim in extremal and prim not in rays:
            rays.append(prim)
    index = {p: k for k, p in enumerate(rays)}
    max_cones = sorted({tuple(sorted(index[r] for r in cone.rays))
                        for cone in facet_cones})
    return Fan(n, rays, max_cones, labels=labels)


def _cube_points():
    return [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]


def build_cube_fan() -> Fan:
    """Fan over the faces of the cube with vertices (+-1, +-1, +-1)."""
    return build_face_fan(_cube_points())


def build_octahedron_fan() -> Fan:
    """The eight octants; the face fan of the cross-polytope."""
    pts = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]
    return build_face_fan(pts)


PAYNE_SIGMA1 = ((1, -1, -1), (1, -1, 2), (1, 1, -1), (1, 2, 3))
PAYNE_SIGMA2 = ((1, -1, -1), (1, -1, 2), (-1, -1, -1), (-1, -1, 1))
PAYNE_TAU = ((1, -1, -1), (1, -1, 2))


def build_payne_fan() -> Fan:
    """The deformed cube fan: vertices (1,-1,1) -> (1,-1,2), (1,1,1) -> (1,2,3).

    The deformed top face is no longer planar, so the face fan of the hull
    triangulates it; the x=1 and y=-1 faces stay planar and the named cones
    sigma1, sigma2 and their common wall tau survive verbatim.  They are
    exposed through labels.
    """
    pts = _cube_points()
    pts[pts.index((1, -1, 1))] = (1, -1, 2)
    pts[pts.index((1, 1, 1))] = (1, 2, 3)
    fan = build_face_fan(pts)
    for name, gens in (("sigma1", PAYNE_SIGMA1), ("sigma2", PAYNE_SIGMA2),
                       ("tau", PAYNE_TAU)):
        try:
            fan.labels[name] = tuple(sorted(fan.ray_index[primitive_vector(g)]
                                            for g in gens))
        except KeyError:
            raise InvalidFan("deformed fan lost the named generator %s" % name)
        fc = fan.find_cone_by_rays(fan.labels[name])
        if fc is None or fc.cone != Cone.from_generators(gens, 3):
            raise InvalidFan("deformed fan does not contain the cone %s" % name)
    return fan


# ---------------------------------------------------------------------------
# lattice reindexing


@dataclass(frozen=True)
class ReindexedFan:
    """A fan re-expressed in coordinates of a full-rank sublattice.

    ``degree_to_new`` transports dual-side (M) vectors into the new
    coordinates; ``vector_to_new`` transports lattice-side (N) vectors.
    """

    fan: Fan
    basis: tuple[tuple[Fraction, ...], ...]
    basis_inverse: tuple[tuple[Fraction, ...], ...]

    def vector_to_new(self, v: Sequence) -> tuple[Fraction, ...]:
        return vec_mat(tuple(Fraction(x) for x in v), self.basis_inverse)

    def degree_to_new(self, u: Sequence) -> tuple[Fraction, ...]:
        return vec_mat(tuple(Fraction(x) for x in u),
                       mat_transpose(self.basis))

    def degree_from_new(self, u: Sequence) -> tuple[Fraction, ...]:
        return vec_mat(tuple(Fraction(x) for x in u),
                       mat_transpose(self.basis_inverse))


def reindex_lattice(fan: Fan, new_lattice: Sublattice) -> ReindexedFan:
    """The same geometric fan written in coordinates of ``new_lattice``.

    Ray directions are re-primitivized with respect to the new lattice, so
    the combinatorics (ray indices, maximal cones, labels) carry over
    unchanged.  A linear isomorphism preserves the fan axioms, completeness
    and the maximal-cone indices that violations name, so a validation
    report and completeness already computed on ``fan`` carry over too.
    """
    n = fan.ambient_rank
    if new_lattice.ambient_rank != n or new_lattice.rank != n:
        raise NotFullRank("reindexing needs a full-rank sublattice")
    basis = new_lattice.basis
    inv = invert_fraction_matrix(basis)
    new_rays = [primitive_vector(vec_mat(tuple(Fraction(x) for x in r), inv))
                for r in fan.rays]
    new_fan = Fan(n, new_rays, fan.maximal_cone_rays, labels=fan.labels)
    new_fan._validation = fan._validation
    new_fan._complete = fan._complete
    return ReindexedFan(fan=new_fan, basis=basis, basis_inverse=inv)
