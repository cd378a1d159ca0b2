"""Fans: validation, completeness, statistics, builders, lattice reindexing.

A fan is given by its primitive ray generators and the maximal cones as ray
index lists.  The face closure is computed eagerly at construction and all
derived cone lists are kept in a deterministic order, so identical input
data always produces identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .cones import Cone, _halfspaces_to_rays, intersect
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
    """A cone of the fan together with its ray index set."""

    cone: Cone
    ray_indices: tuple[int, ...]

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
        self._ray_index = {r: i for i, r in enumerate(rays)}
        if len(self._ray_index) != len(rays):
            raise InvalidFan("duplicate rays")
        for r in rays:
            if primitive_vector(r) != r:
                raise InvalidFan("ray %s is not primitive" % (r,))
        self._build_closure()
        self._validation: ValidationReport | None = None
        self._complete: bool | None = None

    # -- closure -----------------------------------------------------------

    def _ray_indices_of(self, cone: Cone) -> tuple[int, ...]:
        idx = []
        for r in cone.rays:
            i = self._ray_index.get(r)
            if i is None:
                raise InvalidFan("face ray %s is not a listed fan ray" % (r,))
            idx.append(i)
        return tuple(sorted(idx))

    def _build_closure(self):
        seen: dict[Cone, tuple[int, ...]] = {}
        per_max: list[tuple[Cone, ...]] = []
        for cone in self.maximal_cones:
            faces = cone.faces()
            per_max.append(faces)
            for f in faces:
                if f not in seen:
                    seen[f] = self._ray_indices_of(f)
        cones = [FanCone(c, seen[c]) for c in seen]
        cones.sort(key=lambda fc: (fc.dim, fc.ray_indices, fc.cone.rays))
        self.all_cones: tuple[FanCone, ...] = tuple(cones)
        self._max_faces = tuple(per_max)

    def cones_of_dim(self, d: int) -> tuple[FanCone, ...]:
        return tuple(fc for fc in self.all_cones if fc.dim == d)

    def find_cone_by_rays(self, ray_indices: Sequence[int]) -> FanCone | None:
        """The closure cone whose ray index set is exactly the given one."""
        want = tuple(sorted(set(int(i) for i in ray_indices)))
        for fc in self.all_cones:
            if fc.ray_indices == want:
                return fc
        return None

    def maximal_cones_containing(self, fc: FanCone) -> tuple[int, ...]:
        out = []
        for k, cone in enumerate(self.maximal_cones):
            if fc.cone in self._max_faces[k]:
                out.append(k)
        return tuple(out)

    # -- identity ------------------------------------------------------------

    def _with_labels(self, labels: dict[str, Sequence[int]]) -> "Fan":
        """Copy sharing the computed closure, with fresh labels."""
        import copy

        new = copy.copy(self)
        new.labels = {str(k): tuple(sorted(int(i) for i in v))
                      for k, v in labels.items()}
        return new

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


def validate(fan: Fan) -> ValidationReport:
    """Check the fan axioms pairwise on maximal cones.

    Face closure holds by construction, so the work is: strong convexity of
    each cone and the common-face property for every pair.  Violations are
    reported as data, never raised.
    """
    if fan._validation is not None:
        return fan._validation
    violations = []
    for k, cone in enumerate(fan.maximal_cones):
        if not cone.is_pointed():
            violations.append({"kind": "not_pointed", "cones": [k]})
    for i, j in combinations(range(len(fan.maximal_cones)), 2):
        ci, cj = fan.maximal_cones[i], fan.maximal_cones[j]
        meet = intersect(ci, cj)
        if not (meet.is_face_of(ci) and meet.is_face_of(cj)):
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
            and all(len(fan.maximal_cones_containing(wall)) == 2
                    for wall in fan.cones_of_dim(n - 1)))
    return fan._complete


def stats(fan: Fan) -> FanStats:
    if not validate(fan).ok:
        raise InvalidFan("fan does not satisfy the fan axioms")
    n = fan.ambient_rank
    f = tuple(len(fan.cones_of_dim(d)) for d in range(1, n + 1))
    two_cones = fan.cones_of_dim(2)
    m_rho = []
    for i in range(len(fan.rays)):
        m_rho.append(sum(1 for fc in two_cones if i in fc.ray_indices))
    n_sigma = []
    for faces in fan._max_faces:
        n_sigma.append(sum(1 for c in faces if c.dim == 2))
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
    ray_index = {r: i for i, r in enumerate(fan.rays)}
    labels = {}
    for name, gens in (("sigma1", PAYNE_SIGMA1), ("sigma2", PAYNE_SIGMA2),
                       ("tau", PAYNE_TAU)):
        try:
            labels[name] = tuple(sorted(ray_index[primitive_vector(g)]
                                        for g in gens))
        except KeyError:
            raise InvalidFan("deformed fan lost the named generator %s" % name)
    fan = fan._with_labels(labels)
    for name, gens in (("sigma1", PAYNE_SIGMA1), ("sigma2", PAYNE_SIGMA2),
                       ("tau", PAYNE_TAU)):
        expected = Cone.from_generators(gens, 3)
        fc = fan.find_cone_by_rays(labels[name])
        if fc is None or fc.cone != expected:
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
