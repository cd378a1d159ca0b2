"""Rational polyhedral cones with exact dual descriptions.

A cone is stored by two V-descriptions: its own extremal rays plus lineality
basis, and the extremal rays plus lineality basis of its dual.  The latter
doubles as the facet-normal / equation H-description of the cone itself, so
dualizing is a constant-time swap and both descriptions are canonical.

Canonical form: ray representatives are primitive integer vectors reduced
through a fixed quotient chart modulo the lineality lattice and sorted
lexicographically; the lineality basis is the HNF basis of its saturated
lattice.  Cone equality is equality of these tuples.

One double-description pass converts an H-description; everything else is
read off ray-facet incidence, so building a cone or a face converts at most
once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import NotFullDimensional, NotPointed
from .linalg import (
    IntVec,
    Sublattice,
    dot,
    is_zero_vec,
    primitive_vector,
    quotient_chart,
    right_kernel,
    smith_normal_form,
    vec_mat,
    vec_neg,
)


def _eliminate(p: int, x: IntVec, q: int, y: IntVec) -> IntVec:
    """The primitive integer vector along ``p*x - q*y`` (nonzero)."""
    z = [p * a - q * b for a, b in zip(x, y)]
    g = gcd(*z)
    return tuple(c // g for c in z)


def _maximal(sets: set[int]) -> set[int]:
    """The bitmasks of ``sets`` contained in no other one."""
    return {f for f in sets if not any(f != h and f & h == f for h in sets)}


def _reduce(vectors: Sequence[IntVec], lin: Sequence[IntVec], n: int) -> list:
    """Sorted canonical representatives of primitive vectors modulo the
    lattice ``lin``: primitive quotient-chart images lifted by the section."""
    k = len(lin)
    if k and vectors:
        w, v = quotient_chart(lin, n)
        vectors = [vec_mat(primitive_vector(vec_mat(x, v)[k:]), w[k:])
                   for x in vectors]
    return sorted(set(vectors))


def _halfspaces_to_rays(rows: Sequence[IntVec], n: int):
    """V-description of ``{x : <a, x> >= 0 for every row a}``.

    Returns ``(lineality, rays, tight)``: the HNF basis of the lineality
    lattice K (the kernel of the rows), the canonical extremal rays, and for
    each ray the bitmask of the rows vanishing on it (bit i for ``rows[i]``).

    Quotient: rows vanish on K, so in the chart ``x = y @ W`` of
    :func:`quotient_chart` they pair only with the quotient part ``y'``, via
    the section rows of ``W``, and the quotient cone is pointed.  Its rays
    are found as primitive ``y'`` and lifted through the section.  That is
    the canonical representative however the ray was found, since it is
    the primitive quotient image of the ray line.

    Double description (Motzkin et al. 1953; Fukuda & Prodon 1996): start
    from the whole quotient as a lineality basis, then add rows one at a
    time.  A row nonzero on a lineality vector l (``<a,l> > 0``) makes l a
    ray and projects the other generators along l onto ``a = 0``, keeping
    their earlier pairings.  Otherwise the rays with ``<a,r> >= 0`` stay and
    each adjacent pair with ``<a,r> > 0 > <a,s>`` adds ``<a,r> s - <a,s> r``.
    Adjacency is combinatorial: the rows tight on r and s cut out the least
    face holding ``r + s``, a 2-face modulo lineality iff no third ray is
    tight on all of them, and then they have rank ``d - lin - 2``.
    """
    rows = [tuple(r) for r in rows]
    lin = right_kernel(rows, n)
    k = len(lin)
    section = quotient_chart(lin, n)[0][k:]
    line = [tuple(int(i == j) for j in range(n - k)) for i in range(n - k)]
    rays: list[tuple[IntVec, int]] = []
    done = 0
    for i, row in enumerate(rows):
        a, bit = (tuple(dot(row, s) for s in section) if k else row), 1 << i
        vals = [dot(a, l) for l in line]
        j = next((t for t, x in enumerate(vals) if x), None)
        if j is not None:
            l, s = line.pop(j), vals.pop(j)
            l, s = (l, s) if s > 0 else (vec_neg(l), -s)
            line = [_eliminate(s, m, t, l) for m, t in zip(line, vals)]
            rays = [(_eliminate(s, r, dot(a, r), l), z | bit) for r, z in rays]
            rays.append((l, done))
        else:
            vals = [dot(a, r) for r, _ in rays]
            need = n - k - len(line) - 2
            new = [(r, z if x else z | bit)
                   for (r, z), x in zip(rays, vals) if x >= 0]
            for (rp, zp), xp in zip(rays, vals):
                for (rq, zq), xq in zip(rays, vals):
                    c = zp & zq
                    if xp > 0 > xq and c.bit_count() >= need and all(
                            c & z != c or z in (zp, zq) for _, z in rays):
                        new.append((_eliminate(xp, rq, xq, rp), c | bit))
            rays = new
        done |= bit
    out = sorted((vec_mat(r, section) if k else r, z) for r, z in rays)
    return lin, tuple(r for r, _ in out), tuple(z for _, z in out)


class Cone:
    """Immutable rational polyhedral cone.

    ``rays``/``lineality`` describe the cone, ``ineq_rays``/``equations``
    are the extremal rays and lineality basis of the dual cone, i.e. the
    facet normals and the defining equations of the span.
    """

    __slots__ = ("ambient_rank", "rays", "lineality", "ineq_rays",
                 "equations", "_faces", "_facet_masks")

    def __init__(self, ambient_rank, rays, lineality, ineq_rays, equations):
        values = (ambient_rank, tuple(rays), tuple(lineality), tuple(ineq_rays),
                  tuple(equations), None, None)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Cone is immutable")

    @staticmethod
    def from_generators(generators: Iterable[Sequence], ambient_rank: int | None = None) -> "Cone":
        gens = [primitive_vector(g) for g in generators if not is_zero_vec(g)]
        if ambient_rank is None:
            if not gens:
                raise ValueError("ambient rank needed for an empty generator set")
            ambient_rank = len(gens[0])
        for g in gens:
            if len(g) != ambient_rank:
                raise ValueError("generators have inconsistent lengths")
        return Cone._from_dual(gens, ambient_rank,
                               *_halfspaces_to_rays(gens, ambient_rank))

    @staticmethod
    def _from_dual(gens: Sequence[IntVec], n: int, eq, ineq, tight) -> "Cone":
        """The cone generated by the primitive ``gens``, given its dual's
        canonical lineality ``eq`` and rays ``ineq``, with ``tight[j]`` the
        generators vanishing on ``ineq[j]``.  The dual rays vanishing on a
        generator cut out its smallest face: generators on all of them span
        the lineality, and the others with a maximal set are extremal."""
        on = [sum(1 << j for j, z in enumerate(tight) if z >> i & 1)
              for i in range(len(gens))]
        full = (1 << len(ineq)) - 1
        lin = right_kernel(list(ineq) + list(eq), n) if full in on else ()
        top = _maximal(set(on) - {full})
        rays = _reduce([g for g, f in zip(gens, on) if f in top], lin, n)
        return Cone(n, rays, lin, ineq, eq)

    @staticmethod
    def from_inequalities(inequalities: Sequence[Sequence], ambient_rank: int,
                          equations: Sequence[Sequence] = ()) -> "Cone":
        rows = [primitive_vector(r) for r in inequalities if not is_zero_vec(r)]
        rows += [primitive_vector(e) for e in equations if not is_zero_vec(e)]
        rows += [vec_neg(primitive_vector(e)) for e in equations if not is_zero_vec(e)]
        lin, rays, tight = _halfspaces_to_rays(rows, ambient_rank)
        return Cone._from_dual(rows, ambient_rank, lin, rays, tight).dual()

    @staticmethod
    def zero(ambient_rank: int) -> "Cone":
        return Cone.from_generators([], ambient_rank)

    # -- canonical identity ------------------------------------------------

    def _key(self):
        return (self.ambient_rank, self.rays, self.lineality)

    def __eq__(self, other):
        if not isinstance(other, Cone):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "Cone(rank=%d, rays=%s, lineality=%s)" % (
            self.ambient_rank, list(self.rays), list(self.lineality))

    # -- basic geometry ----------------------------------------------------

    @property
    def generators(self) -> tuple[IntVec, ...]:
        """Extremal rays plus both signs of the lineality basis."""
        return self.rays + tuple(x for b in self.lineality for x in (b, vec_neg(b)))

    @property
    def dim(self) -> int:
        return self.ambient_rank - len(self.equations)

    @property
    def lineality_dim(self) -> int:
        return len(self.lineality)

    def is_pointed(self) -> bool:
        return not self.lineality

    def dual(self) -> "Cone":
        return Cone(self.ambient_rank, self.ineq_rays, self.equations,
                    self.rays, self.lineality)

    def contains(self, p: Sequence) -> bool:
        p = tuple(Fraction(x) for x in p)
        return (all(dot(e, p) == 0 for e in self.equations)
                and all(dot(u, p) >= 0 for u in self.ineq_rays))

    def in_relative_interior(self, p: Sequence) -> bool:
        p = tuple(Fraction(x) for x in p)
        return (all(dot(e, p) == 0 for e in self.equations)
                and all(dot(u, p) > 0 for u in self.ineq_rays))

    def span(self) -> Sublattice:
        """Saturated lattice of the linear span: the kernel of the equations."""
        return Sublattice.from_rows(self.ambient_rank,
                                    right_kernel(self.equations, self.ambient_rank))

    # -- faces ---------------------------------------------------------------

    def _rays_on_facets(self) -> tuple[int, ...]:
        """For each facet normal, the bitmask of the rays on it."""
        if self._facet_masks is None:
            object.__setattr__(self, "_facet_masks", tuple(
                sum(1 << k for k, r in enumerate(self.rays) if dot(u, r) == 0)
                for u in self.ineq_rays))
        return self._facet_masks

    def _face(self, mask: int) -> "Cone":
        """The face generated by the lineality and the rays in ``mask``.

        Its equations are the kernel of those generators.  Its facets are the
        maximal proper traces ``mask & F`` of this cone's facets F, and the
        normal of such an F is, modulo those equations, a positive multiple
        of the facet's own normal, which :func:`_reduce` makes canonical."""
        if mask == (1 << len(self.rays)) - 1:
            return self
        n = self.ambient_rank
        rays = [r for k, r in enumerate(self.rays) if mask >> k & 1]
        eq = right_kernel(rays + list(self.lineality), n)
        cut = {}
        for u, f in zip(self.ineq_rays, self._rays_on_facets()):
            if f & mask != mask:
                cut.setdefault(f & mask, u)
        ineq = _reduce([cut[f] for f in _maximal(set(cut))], eq, n)
        return Cone(n, rays, self.lineality, ineq, eq)

    def facets(self) -> tuple["Cone", ...]:
        return tuple(self._face(f) for f in self._rays_on_facets())

    def faces(self) -> tuple["Cone", ...]:
        """All faces (including the cone itself), sorted by dimension then
        canonical key.  Their ray sets are the full set and the intersections
        of facet ray sets (Kaibel & Pfetsch 2002), closed here pairwise."""
        if self._faces is not None:
            return self._faces
        masks = {(1 << len(self.rays)) - 1}
        frontier = set(self._rays_on_facets())
        while frontier:
            masks |= frontier
            frontier = {a & b for a in frontier for b in masks} - masks
        out = tuple(sorted((self._face(m) for m in masks),
                           key=lambda c: (c.dim, c.rays, c.lineality)))
        object.__setattr__(self, "_faces", out)
        return out

    def is_face_of(self, other: "Cone") -> bool:
        if self.ambient_rank != other.ambient_rank:
            return False
        if any(not other.contains(g) for g in self.generators):
            return False
        if self.lineality != other.lineality:
            return False
        tight = [u for u in other.ineq_rays
                 if all(dot(u, g) == 0 for g in self.generators)]
        return self.rays == tuple(r for r in other.rays
                                  if all(dot(u, r) == 0 for u in tight))

    def is_smooth(self) -> bool:
        """Pointed, simplicial, and the ray generators extend to a basis."""
        if not self.is_pointed():
            return False
        if len(self.rays) != self.dim:
            return False
        if not self.rays:
            return True
        d, _, _ = smith_normal_form(self.rays)
        return all(d[i][i] == 1 for i in range(len(self.rays)))


def dual_cone(c: Cone) -> Cone:
    return c.dual()


def intersect(c1: Cone, c2: Cone) -> Cone:
    if c1.ambient_rank != c2.ambient_rank:
        raise ValueError("ambient ranks differ")
    ineqs = list(c1.ineq_rays) + list(c2.ineq_rays)
    eqs = list(c1.equations) + list(c2.equations)
    return Cone.from_inequalities(ineqs, c1.ambient_rank, eqs)


def facet_pairs(c: Cone):
    """Facets of a full-dimensional pointed cone paired with their inward
    primitive normals, i.e. the extremal rays of the dual vanishing on them."""
    if c.dim != c.ambient_rank:
        raise NotFullDimensional("cone does not span the ambient space")
    if not c.is_pointed():
        raise NotPointed("cone has a nontrivial lineality space")
    return list(zip(c.facets(), c.ineq_rays))
