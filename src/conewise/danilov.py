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
from typing import Sequence

from .cones import Cone
from .errors import (
    CertificateInvalid,
    DegreeNotInCone,
    DegreeNotInLattice,
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
    hermite_normal_form,
    is_zero_vec,
    reduce_mod,
    vec_mat,
)


def _is_standard(lattice: Sublattice) -> bool:
    return (lattice.den == 1
            and lattice.basis_int == Sublattice.standard(lattice.ambient_rank).basis_int)


def _fibre_range(h, y, box, columns) -> tuple[int, int]:
    """The t with ``0 <= y[c] + t*h[c] <= box[c]`` on every given column, as
    ``(lo, hi)``; the first column is h's pivot, so the range is finite."""
    c0 = columns[0]
    lo, hi = -(y[c0] // h[c0]), (box[c0] - y[c0]) // h[c0]
    for c in columns[1:]:
        a, b, u = h[c], y[c], box[c]
        if a > 0:
            lo, hi = max(lo, -(b // a)), min(hi, (u - b) // a)
        elif a < 0:
            lo, hi = max(lo, -((u - b) // -a)), min(hi, b // -a)
        elif not 0 <= b <= u:
            return 1, 0
    return lo, hi


def _outward(lo: int, hi: int):
    """The integers of ``[lo, hi]`` by distance from 0."""
    for pair in itertools.zip_longest(range(max(lo, 0), hi + 1),
                                      range(min(hi, -1), lo - 1, -1)):
        yield from (t for t in pair if t is not None)


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
    return _face_span_rank(dual, m, lattice)


def _face_span_rank(dual: Cone, m: RatVec, lattice: Sublattice) -> int:
    face = dual.smallest_face_containing(m)
    gens = list(face.rays) + list(face.lineality)
    if not gens:
        return 0
    return lattice.intersect_span(gens).rank


def image_lattice(cone: Cone, m: Sequence, lattice: Sublattice) -> Sublattice:
    """Span of the degrees q with q and m - q both in the dual cone: the
    lattice points of ``P = sigma^v meet (m - sigma^v)``, computed in pairing
    coordinates.

    The identity.  Let g_1..g_k be the generators of sigma (its rays and both
    signs of its lineality basis), ``pi(x) = (<g_i, x>)_i``, ``Lambda =
    pi(L)`` for the working lattice L, and ``B = prod [0, <g_i, m>]``.  P is
    cut out by these pairings alone, so ``P meet L = pi^-1(Lambda meet B)``
    exactly.  The kernel of pi, ``sigma^perp meet L``, maps to 0, which lies
    in B, so it lies in P and ``span(P meet L) = pi^-1(span(Lambda meet
    B))``.  B is a finite box, so one finite enumeration gives the span
    exactly: no V-description, emptiness test or stopping rule is needed.

    The enumeration.  With the HNF basis h_1..h_s of Lambda (scaled by the
    lattice denominator), a point is ``sum t_j h_j``.  The basis is
    triangular, so the columns from h_j's pivot up to the next pivot are
    fixed once t_1..t_j are, and the box bounds t_j to an interval given
    t_1..t_(j-1).  Fibre by fibre, each interval walked outward from 0, the
    points are folded into a running span S in t-coordinates; the point list
    is never built.

    The early exit.  If S holds a point with prefix t_1..t_j and the whole
    fibre lattice ``0 x Z^(s-j)``, it holds every point with that prefix,
    and the rest of the fibre is skipped.  At j = 0 this says S is all of
    Lambda: the enumeration stops there, and the span is L itself.
    """
    m = tuple(Fraction(x) for x in m)
    if not lattice.contains(m):
        raise DegreeNotInLattice("degree %s is not in the lattice" % (m,))
    if not cone.dual().contains(m):
        raise DegreeNotInCone("degree %s is not in the dual cone" % (m,))
    return _pairing_span(cone, m, lattice)


def _pairing_span(cone: Cone, m: RatVec, lattice: Sublattice) -> Sublattice:
    """:func:`image_lattice` for a degree m already known to lie in the
    lattice and in the dual cone.  A working lattice of lower rank is
    refused when P has lineality (sigma not full-dimensional)."""
    n, den = lattice.ambient_rank, lattice.den
    if lattice.rank != n and cone.dim != n:
        raise NotFullRank("span computation needs a full-rank working lattice")
    # narrowest sides first, so that pinned pairings fix the outer fibres
    cols = sorted((int(dot(g, m) * den), g) for g in cone.generators)
    box = [u for u, _ in cols]
    h, u_mat = hermite_normal_form([[dot(g, b) for _, g in cols]
                                    for b in lattice.basis_int])
    s = sum(1 for row in h if not is_zero_vec(row))
    pivots = [next(c for c, x in enumerate(row) if x) for row in h[:s]]
    bands = [range(p, q) for p, q in zip(pivots, pivots[1:] + [len(cols)])]
    span: list[tuple[int, ...]] = []

    def holds_fibre(j: int) -> bool:
        """Whether S contains ``0 x Z^(s-j)``: the HNF rows of S with pivots
        j..s-1 are all there, each with pivot 1."""
        tail = span[len(span) - (s - j):]
        return len(tail) == s - j and all(
            row[j + i] == 1 and not any(row[:j + i]) for i, row in enumerate(tail))

    def walk(j: int, t: tuple, y: list) -> bool:
        """Folds in the points with prefix t; whether there are any."""
        nonlocal span
        if j == s:
            if any(reduce_mod(t, span)):
                span = [row for row in hermite_normal_form(span + [t])[0]
                        if not is_zero_vec(row)]
            return True
        found = False
        for v in _outward(*_fibre_range(h[j], y, box, bands[j])):
            if found and holds_fibre(j):
                break
            found |= walk(j + 1, t + (v,),
                          [a + v * b for a, b in zip(y, h[j])])
        return found

    walk(0, (), [0] * len(cols))
    if holds_fibre(0):
        return lattice
    # pi^-1(S): the lifts of S's rows plus the kernel, in lattice coordinates
    coords = [vec_mat(t, u_mat[:s]) for t in span] + list(u_mat[s:])
    return Sublattice.from_rows(n, [[Fraction(x, den) for x in vec_mat(c, lattice.basis_int)]
                                    for c in coords])


def f_dim(cone: Cone, m: Sequence, lattice: Sublattice) -> GradedPieceReport:
    """Graded dimension report of the cokernel piece in degree m.

    Over a characteristic-zero coefficient field only ranks matter; a degree
    outside the dual cone contributes nothing at all.
    """
    m = tuple(Fraction(x) for x in m)
    if not lattice.contains(m):
        raise DegreeNotInLattice("degree %s is not in the lattice" % (m,))
    dual = cone.dual()
    if not dual.contains(m):
        return GradedPieceReport(degree=m, dim_tilde=0,
                                 image_lattice=Sublattice.zero(cone.ambient_rank),
                                 dim_f=0)
    dim_tilde = _face_span_rank(dual, m, lattice)
    image = _pairing_span(cone, m, lattice)
    dim_f = dim_tilde - image.rank
    if dim_f < 0:
        raise CertificateInvalid("image rank exceeds the ambient graded dimension")
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
    return _certificate(fan, fc, owners, m, lattice, f_dim(fc.cone, m, lattice))


def _certificate(fan: Fan, fc: FanCone, owners, m: RatVec, lattice: Sublattice,
                 wall_report: GradedPieceReport) -> H1Certificate:
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
                    and (standard or not any(reduce_mod(y, lattice.basis_int)))):
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
        owners = fan.maximal_cones_containing(fc)
        for m in degrees:
            if not dual.in_relative_interior(m):
                continue
            # a wall piece with dim_f = 0 never certifies, whatever the
            # neighbours give, so their reports are skipped
            wall_report = f_dim(fc.cone, m, lattice)
            if wall_report.dim_f == 0:
                continue
            cert = _certificate(fan, fc, owners, m, lattice, wall_report)
            if cert.valid:
                out.append(cert)
    return out
