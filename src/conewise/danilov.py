"""Graded ranks of the differential-forms cokernel on affine toric pieces.

For a cone sigma and a degree m in the dual lattice M, the graded piece of
the sheaf of Danilov one-forms has dimension equal to the rank of
Span(sigma^v_m) intersected with M, where sigma^v_m is the smallest face of
the dual cone containing m.  The image of the ordinary one-forms in that
piece is spanned by the lattice points of sigma^v meet (m - sigma^v), and
the cokernel dimension is the rank difference.  Everything reduces to exact
lattice computations; no sheaf objects appear.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, lcm
from typing import Sequence

from .cones import Cone, _halfspaces_to_rays
from .errors import (
    DegreeNotInCone,
    DegreeNotInLattice,
    EmptyPolyhedron,
    NotAWall,
    NotComplete,
    NotFullRank,
    WrongDimension,
)
from .fans import Fan, FanCone, is_complete
from .linalg import (
    RatVec,
    Sublattice,
    dot,
    span_lattice,
    sup_norm,
    vec_neg,
)


class Polyhedron:
    """A rational polyhedron ``{x : a_i . x >= c_i}`` with exact data.

    The V-description (minimal-face representatives, recession rays,
    lineality) is derived once through the homogenization cone and cached.
    """

    def __init__(self, inequalities: Sequence[tuple[Sequence[int], Fraction]],
                 ambient_rank: int):
        rows = []
        for a, c in inequalities:
            a = tuple(int(x) for x in a)
            c = Fraction(c)
            if len(a) != ambient_rank:
                raise ValueError("inequality length mismatch")
            rows.append((a, c))
        self.ambient_rank = ambient_rank
        self.inequalities = tuple(rows)
        self._vrep = None

    def contains(self, x: Sequence) -> bool:
        x = tuple(Fraction(v) for v in x)
        return all(dot(a, x) >= c for a, c in self.inequalities)

    def v_description(self):
        """Returns (vertices, rays, lineality).

        Vertices are exact rational points, one per minimal face; rays and
        lineality generators are primitive integer vectors.  With nonempty
        lineality the "vertices" are canonical representatives of the
        minimal faces rather than honest vertices.
        """
        if self._vrep is not None:
            return self._vrep
        n = self.ambient_rank
        hom_rows = []
        for a, c in self.inequalities:
            den = c.denominator
            hom_rows.append(tuple(den * x for x in a) + (-int(c * den),))
        hom_rows.append(tuple([0] * n) + (1,))
        lin, rays, _ = _halfspaces_to_rays(hom_rows, n + 1)
        for b in lin:
            if b[n] != 0:
                raise AssertionError("lineality escaped the t >= 0 constraint")
        lineality = tuple(r[:n] for r in lin)
        vertices = []
        recession = []
        for r in rays:
            t = r[n]
            if t > 0:
                vertices.append(tuple(Fraction(x, t) for x in r[:n]))
            else:
                recession.append(r[:n])
        self._vrep = (tuple(vertices), tuple(recession), lineality)
        return self._vrep

    def is_empty(self) -> bool:
        vertices, _, _ = self.v_description()
        return not vertices


def cone_shifted_reflection(cone: Cone, m: Sequence) -> Polyhedron:
    """The polyhedron ``sigma^v intersect (-sigma^v + m)``.

    Its defining system is ``0 <= <g, x> <= <g, m>`` over the generators g
    of sigma, which is exactly the set of degrees q with both q and m - q in
    the dual cone.
    """
    m = tuple(Fraction(x) for x in m)
    rows = []
    for g in cone.generators:
        rows.append((g, Fraction(0)))
        rows.append((vec_neg(g), -dot(g, m)))
    return Polyhedron(rows, cone.ambient_rank)


def _axis_bounds(polyhedron: Polyhedron, bound: int):
    """Per-axis enumeration ranges: the recession cone leaves an axis
    bounded exactly when all its generators vanish there, and then the
    vertex hull gives sharp bounds."""
    vertices, rays, lineality = polyhedron.v_description()
    n = polyhedron.ambient_rank
    spans = list(rays) + list(lineality) + [vec_neg(l) for l in lineality]
    out = []
    for t in range(n):
        lo, hi = -Fraction(bound), Fraction(bound)
        neg_free = any(r[t] < 0 for r in spans)
        pos_free = any(r[t] > 0 for r in spans)
        if not neg_free:
            lo = max(lo, min(v[t] for v in vertices))
        if not pos_free:
            hi = min(hi, max(v[t] for v in vertices))
        out.append((lo, hi))
    return out


def lattice_points_in(polyhedron: Polyhedron, lattice: Sublattice,
                      bound: int) -> list[RatVec]:
    """All points of the lattice inside the polyhedron with sup-norm at most
    ``bound`` (sharpened to the vertex ranges on axes the recession cone
    leaves bounded)."""
    den = lattice.den
    return [tuple(Fraction(x, den) for x in y)
            for y in _enumerate_scaled(polyhedron, lattice, bound)]


def _enumerate_scaled(polyhedron: Polyhedron, lattice: Sublattice,
                      bound: int) -> list[tuple[int, ...]]:
    """The same point set as :func:`lattice_points_in`, scaled by the
    lattice denominator so every coordinate is an integer."""
    if polyhedron.is_empty():
        return []
    return _lattice_points_grid(polyhedron, lattice, bound)


def _is_standard(lattice: Sublattice) -> bool:
    return (lattice.den == 1
            and lattice.basis_int == Sublattice.standard(lattice.ambient_rank).basis_int)


def _lattice_points_grid(polyhedron: Polyhedron, lattice: Sublattice,
                         bound: int) -> list[RatVec]:
    n = polyhedron.ambient_rank
    den = lattice.den
    # y = den * x runs over an integer grid; scaling each constraint by the
    # denominator of den*c keeps the hot loop in pure integer arithmetic
    scaled_rows = []
    for a, c in polyhedron.inequalities:
        cc = c * den
        k = cc.denominator
        scaled_rows.append((tuple(k * x for x in a), int(cc * k)))
    ranges = []
    for lo, hi in _axis_bounds(polyhedron, bound):
        lo_i = ceil(lo * den)
        hi_i = floor(hi * den)
        if lo_i > hi_i:
            return []
        ranges.append(range(lo_i, hi_i + 1))
    standard = _is_standard(lattice)
    points = []
    for y in itertools.product(*ranges):
        if all(dot(a, y) >= c for a, c in scaled_rows):
            if standard or _in_scaled_lattice(lattice, y):
                points.append(y)
    return points


def _in_scaled_lattice(lattice: Sublattice, y: Sequence[int]) -> bool:
    res = list(y)
    for row in lattice.basis_int:
        c = next(j for j, x in enumerate(row) if x != 0)
        if res[c] % row[c] != 0:
            return False
        q = res[c] // row[c]
        if q:
            res = [a - q * b for a, b in zip(res, row)]
    return all(x == 0 for x in res)


def lattice_points_span(polyhedron: Polyhedron, lattice: Sublattice) -> Sublattice:
    """Span of the lattice points of a polyhedron.

    A lineality space is split off exactly first: the point set is a union
    of full cosets of the lattice's lineality part, so its span is that part
    plus a lifted copy of the span computed in the lineality-free quotient.
    In the quotient the initial box radius comes from the vertex sup-norms
    plus the sup-norms of the primitive recession generators; the box then
    doubles until the computed span is stable across three consecutive
    sizes.  The chain of spans lives inside a fixed finitely generated
    lattice, so it stabilizes; the stopping rule is certified against the
    brute-force oracle in the test suite at the scales this library targets.
    """
    if polyhedron.is_empty():
        raise EmptyPolyhedron("polyhedron has no points")
    _, _, lineality = polyhedron.v_description()
    if lineality:
        return _span_with_lineality_collapsed(polyhedron, lattice, lineality)
    vertices, rays, _ = polyhedron.v_description()
    b0 = ceil(max(max(abs(x) for x in v) for v in vertices))
    b0 += sum(sup_norm(r) for r in rays)
    b0 = max(b0, 1)
    spans = []
    bound = b0
    while True:
        pts = _enumerate_scaled(polyhedron, lattice, bound)
        spans.append(_span_of_scaled_points(pts, polyhedron.ambient_rank,
                                            lattice.den))
        if len(spans) >= 3 and spans[-1] == spans[-2] == spans[-3]:
            return spans[-1]
        bound *= 2


def _span_with_lineality_collapsed(polyhedron: Polyhedron, lattice: Sublattice,
                                   lineality) -> Sublattice:
    """Exact reduction to the lineality-free quotient.

    In coordinates given by a basis of the (full-rank) working lattice, the
    lattice elements inside the lineality space form a saturated sublattice;
    a unimodular chart adapted to it turns membership into integrality of
    plain coordinates.  Every constraint vanishes on the lineality, so the
    quotient variables see a polyhedron with trivial lineality, and the
    total span is the lineality part plus the section image of the quotient
    span.
    """
    from .linalg import quotient_chart, right_kernel, vec_mat

    n = polyhedron.ambient_rank
    if lattice.rank != n:
        raise NotFullRank("span computation needs a full-rank working lattice")
    basis = lattice.basis
    ann = span_lattice(lineality, n).annihilator()
    if ann.rank == 0:
        return lattice
    pairing = [[dot(b, a) for b in basis] for a in ann.basis_int]
    den = lcm(*(x.denominator for row in pairing for x in row))
    k_z = right_kernel([[int(x * den) for x in row] for row in pairing], n)
    w_z, _ = quotient_chart(k_z, n)
    k = len(k_z)
    chart = [vec_mat(w_z[i], basis) for i in range(n)]
    lineality_part = Sublattice.from_rows(n, chart[:k])
    quotient_rows = []
    for a, c in polyhedron.inequalities:
        coeffs = [dot(chart[i], a) for i in range(k, n)]
        cden = lcm(Fraction(c).denominator,
                   *(x.denominator for x in coeffs))
        quotient_rows.append((tuple(int(x * cden) for x in coeffs),
                              Fraction(c) * cden))
    quotient_poly = Polyhedron(quotient_rows, n - k)
    quotient_span = lattice_points_span(quotient_poly,
                                        Sublattice.standard(n - k))
    lifted = [vec_mat(row, chart[k:]) for row in quotient_span.basis]
    if not lifted:
        return lineality_part
    return lineality_part.sum(Sublattice.from_rows(n, lifted))


def _span_of_scaled_points(points, n: int, den: int) -> Sublattice:
    """Fold den-scaled integer points into a running integer HNF basis.

    Membership against the running basis is a pure integer pivot solve, and
    re-normalization only ever touches a matrix of at most rank+1 rows, so
    large enumerations stay cheap."""
    from .linalg import hermite_normal_form, is_zero_vec

    basis: list[tuple[int, ...]] = []
    for y in points:
        if _int_span_member(basis, y):
            continue
        h, _ = hermite_normal_form(basis + [list(y)])
        basis = [row for row in h if not is_zero_vec(row)]
    return Sublattice.from_rows(n, [[Fraction(x, den) for x in row]
                                    for row in basis])


def _int_span_member(basis, y) -> bool:
    res = list(y)
    for row in basis:
        c = next(j for j, x in enumerate(row) if x != 0)
        if res[c] % row[c] != 0:
            return False
        q = res[c] // row[c]
        if q:
            res = [a - q * b for a, b in zip(res, row)]
    return all(x == 0 for x in res)


# ---------------------------------------------------------------------------
# graded pieces


@dataclass(frozen=True)
class GradedPieceReport:
    """Dimensions of the graded piece in one degree over one cone."""

    degree: RatVec
    dim_tilde: int
    image_lattice: Sublattice
    dim_f: int


def tilde_omega_dim(cone: Cone, m: Sequence, lattice: Sublattice) -> int:
    """Rank of Span(sigma^v_m) within the working lattice; 0 outside the
    dual cone."""
    m = tuple(Fraction(x) for x in m)
    if not lattice.contains(m):
        raise DegreeNotInLattice("degree %s is not in the lattice" % (m,))
    dual = cone.dual()
    if not dual.contains(m):
        return 0
    face = dual.smallest_face_containing(m)
    gens = list(face.rays) + list(face.lineality)
    if not gens:
        return 0
    return lattice.intersect_span(gens).rank


def image_lattice(cone: Cone, m: Sequence, lattice: Sublattice) -> Sublattice:
    """Span of the degrees q with q and m - q both in the dual cone."""
    m = tuple(Fraction(x) for x in m)
    if not lattice.contains(m):
        raise DegreeNotInLattice("degree %s is not in the lattice" % (m,))
    if not cone.dual().contains(m):
        raise DegreeNotInCone("degree %s is not in the dual cone" % (m,))
    return lattice_points_span(cone_shifted_reflection(cone, m), lattice)


def f_dim(cone: Cone, m: Sequence, lattice: Sublattice) -> GradedPieceReport:
    """Graded dimension report of the cokernel piece in degree m.

    Over a characteristic-zero coefficient field only ranks matter; a degree
    outside the dual cone contributes nothing at all.
    """
    m = tuple(Fraction(x) for x in m)
    if not lattice.contains(m):
        raise DegreeNotInLattice("degree %s is not in the lattice" % (m,))
    if not cone.dual().contains(m):
        return GradedPieceReport(degree=m, dim_tilde=0,
                                 image_lattice=Sublattice.zero(cone.ambient_rank),
                                 dim_f=0)
    dim_tilde = tilde_omega_dim(cone, m, lattice)
    image = image_lattice(cone, m, lattice)
    dim_f = dim_tilde - image.rank
    if dim_f < 0:
        raise AssertionError("image rank exceeds the ambient graded dimension")
    return GradedPieceReport(degree=m, dim_tilde=dim_tilde,
                             image_lattice=image, dim_f=dim_f)


# ---------------------------------------------------------------------------
# wall certificates


CERTIFICATE_NOTE = (
    "A valid certificate shows the cokernel sheaf has a section over the wall "
    "that no section over the two neighbouring affine pieces hits, so the "
    "first cohomology of the cokernel sheaf is nonzero.  Over a coefficient "
    "field of uncountable transcendence degree this graded piece witnesses an "
    "uncountable-rank summand of the Grothendieck group of perfect complexes; "
    "no claim about vector bundles is made.")


@dataclass(frozen=True)
class H1Certificate:
    fan: Fan
    wall_rays: tuple[int, ...]
    neighbour_indices: tuple[int, int]
    degree: RatVec
    lattice: Sublattice
    wall_report: GradedPieceReport
    neighbour_reports: tuple[GradedPieceReport, GradedPieceReport]
    two_cone_intersections_ok: bool
    valid: bool
    notes: str = CERTIFICATE_NOTE


def _resolve_wall(fan: Fan, wall) -> FanCone:
    if isinstance(wall, FanCone):
        fc = wall
    elif isinstance(wall, Cone):
        fc = next((c for c in fan.all_cones if c.cone == wall), None)
        if fc is None:
            raise NotAWall("cone is not in the fan")
    else:
        fc = fan.find_cone_by_rays(tuple(wall))
        if fc is None:
            raise NotAWall("no fan cone with ray indices %s" % (tuple(wall),))
    if fc.dim != fan.ambient_rank - 1:
        raise NotAWall("cone %s has dimension %d, not %d" %
                       (fc.ray_indices, fc.dim, fan.ambient_rank - 1))
    return fc


def h1_wall_certificate(fan: Fan, wall, m: Sequence,
                        lattice: Sublattice | None = None) -> H1Certificate:
    """Assemble the three graded reports for a wall and its two neighbours.

    The certificate is valid when the cokernel piece vanishes on both
    neighbours but not on the wall; together with the structural fact that
    distinct 2-cones meet in dimension at most 1 this forces nonzero first
    cohomology on the whole toric variety.  The fact needs no computation: a
    complete fan is valid, so two distinct 2-cones meet in a common proper
    face of each, which has dimension at most 1.
    """
    if fan.ambient_rank != 3:
        raise WrongDimension("wall certificates are computed on rank-3 fans")
    if not is_complete(fan):
        raise NotComplete("wall certificates need a complete fan")
    if lattice is None:
        lattice = Sublattice.standard(fan.ambient_rank)
    fc = _resolve_wall(fan, wall)
    owners = fan.maximal_cones_containing(fc)
    if len(owners) != 2:
        raise NotAWall("cone %s lies in %d maximal cones, not 2" %
                       (fc.ray_indices, len(owners)))
    m = tuple(Fraction(x) for x in m)
    wall_report = f_dim(fc.cone, m, lattice)
    s1 = f_dim(fan.maximal_cones[owners[0]], m, lattice)
    s2 = f_dim(fan.maximal_cones[owners[1]], m, lattice)
    valid = s1.dim_f == 0 and s2.dim_f == 0 and wall_report.dim_f >= 1
    return H1Certificate(
        fan=fan,
        wall_rays=fc.ray_indices,
        neighbour_indices=(owners[0], owners[1]),
        degree=m,
        lattice=lattice,
        wall_report=wall_report,
        neighbour_reports=(s1, s2),
        two_cone_intersections_ok=True,
        valid=valid,
    )


def lattice_points_by_shell(lattice: Sublattice, radius: int | None = None):
    """Lattice points by sup-norm then lexicographically, generated shell by
    shell up to ``radius`` (without end when None), so that a first-hit
    search stops at its hit."""
    den = lattice.den
    standard = _is_standard(lattice)
    for s in itertools.count() if radius is None else range(radius * den + 1):
        for y in itertools.product(range(-s, s + 1), repeat=lattice.ambient_rank):
            if (max(map(abs, y), default=0) == s
                    and (standard or _in_scaled_lattice(lattice, y))):
                yield tuple(Fraction(x, den) for x in y)


def lattice_points_in_box(lattice: Sublattice, radius: int) -> list[RatVec]:
    """Lattice points with sup-norm at most radius, sorted by sup-norm then
    lexicographically."""
    return list(lattice_points_by_shell(lattice, radius))


def find_h1_witness(fan: Fan, lattice: Sublattice | None = None,
                    search_radius: int = 2) -> list[H1Certificate]:
    """Exhaustive scan over walls and small degrees in the relative interior
    of the wall's dual cone; returns every valid certificate in the
    deterministic (wall, degree) enumeration order."""
    if fan.ambient_rank != 3:
        raise WrongDimension("witness search runs on rank-3 fans")
    if not is_complete(fan):
        raise NotComplete("witness search needs a complete fan")
    if lattice is None:
        lattice = Sublattice.standard(fan.ambient_rank)
    degrees = lattice_points_in_box(lattice, search_radius)
    out = []
    for fc in fan.cones_of_dim(2):
        dual = fc.cone.dual()
        for m in degrees:
            if not dual.in_relative_interior(m):
                continue
            cert = h1_wall_certificate(fan, fc, m, lattice)
            if cert.valid:
                out.append(cert)
    return out
