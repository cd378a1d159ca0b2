import random

import pytest

from conewise.cones import Cone, dual_cone, facet_pairs, intersect
from conewise.errors import NotFullDimensional, NotPointed
from conewise.linalg import dot, span_lattice
from helpers import (
    cone_contains_oracle,
    cone_oracle,
    facet_count_oracle,
    faces_oracle,
    fraction_det,
    halfspaces_to_rays_oracle,
    random_unimodular,
    smallest_face_oracle,
)

OCTANT = Cone.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
TAU = Cone.from_generators([(1, -1, -1), (1, -1, 2)])
SIGMA1 = Cone.from_generators([(1, -1, -1), (1, -1, 2), (1, 1, -1), (1, 2, 3)])
SIGMA2 = Cone.from_generators([(1, -1, -1), (1, -1, 2), (-1, -1, -1), (-1, -1, 1)])
M = (1, -1, 0)


class TestDual:
    def test_octant_self_dual(self):
        assert dual_cone(OCTANT) == OCTANT

    def test_tau_dual_fixture(self):
        # extremal rays (0,-1,1), (0,-2,-1) and the line through (1,1,0)
        expected = Cone.from_generators(
            [(0, -1, 1), (0, -2, -1), (1, 1, 0), (-1, -1, 0)])
        assert dual_cone(TAU) == expected
        assert set(dual_cone(TAU).rays) == {(0, -1, 1), (0, -2, -1)}
        assert dual_cone(TAU).lineality == ((1, 1, 0),)

    def test_full_space_and_zero(self):
        full = Cone.from_generators(
            [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])
        zero = dual_cone(full)
        assert zero.dim == 0 and not zero.rays and not zero.lineality
        assert dual_cone(zero) == full

    def test_involution_random(self):
        rng = random.Random(23)
        done = 0
        while done < 100:
            n = rng.randint(2, 3)
            k = rng.randint(1, 6)
            gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)]
            gens = [g for g in gens if any(g)]
            if not gens:
                continue
            c = Cone.from_generators(gens, n)
            assert dual_cone(dual_cone(c)) == c
            done += 1


class TestMembership:
    def test_against_combination_oracle(self):
        rng = random.Random(29)
        checked = 0
        while checked < 60:
            n = rng.randint(2, 3)
            k = rng.randint(1, 5)
            gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)]
            gens = [g for g in gens if any(g)]
            if not gens:
                continue
            c = Cone.from_generators(gens, n)
            p = tuple(rng.randint(-4, 4) for _ in range(n))
            assert c.contains(p) == cone_contains_oracle(gens, p)
            checked += 1

    def test_paper_pairings(self):
        # the degree fails sigma1 through the (1,2,3) generator
        assert dot(M, (1, 2, 3)) == -1
        assert not dual_cone(SIGMA1).contains(M)
        # and sits in the interior of the wall's dual
        tv = dual_cone(TAU)
        assert dot(M, (1, -1, -1)) == 2 and dot(M, (1, -1, 2)) == 2
        assert tv.in_relative_interior(M)

    def test_zero_point(self):
        assert OCTANT.contains((0, 0, 0))
        assert not OCTANT.in_relative_interior((0, 0, 0))
        line = Cone.from_generators([(1, 0), (-1, 0)])
        assert line.in_relative_interior((0, 0))


class TestFaces:
    def test_octant_face_counts(self):
        faces = OCTANT.faces()
        by_dim = {}
        for f in faces:
            by_dim.setdefault(f.dim, []).append(f)
        assert len(by_dim[2]) == 3
        assert len(by_dim[1]) == 3
        assert len(by_dim[0]) == 1
        assert len(OCTANT.facets()) == 3

    def test_sigma1_facets_against_normal_search(self):
        gens = [(1, -1, -1), (1, -1, 2), (1, 1, -1), (1, 2, 3)]
        assert facet_count_oracle(gens) == 4
        assert len(SIGMA1.facets()) == 4

    def test_ray_has_zero_facet(self):
        ray = Cone.from_generators([(2, 3, 5)])
        facets = ray.facets()
        assert len(facets) == 1
        assert facets[0].dim == 0

    def test_closed_under_intersection(self):
        rng = random.Random(31)
        for gens in ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
                     [(1, -1, -1), (1, -1, 2), (1, 1, -1), (1, 2, 3)],
                     [(1, 0), (1, 2)]):
            c = Cone.from_generators(gens)
            faces = c.faces()
            for a in faces:
                for b in faces:
                    assert intersect(a, b) in faces

    def test_facet_count_equals_dual_ray_count(self):
        rng = random.Random(37)
        done = 0
        while done < 30:
            gens = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(4)]
            gens = [g for g in gens if any(g)]
            if not gens:
                continue
            c = Cone.from_generators(gens, 3)
            if c.dim != 3 or not c.is_pointed():
                continue
            assert len(c.facets()) == len(dual_cone(c).rays)
            done += 1


class TestSmallestFace:
    def test_interior_point_gives_whole_cone(self):
        tv = dual_cone(TAU)
        assert smallest_face_oracle(tv, M) == tv
        assert span_lattice(list(tv.rays) + list(tv.lineality), 3).rank == 3

    def test_sigma2_dimension_one(self):
        face = smallest_face_oracle(dual_cone(SIGMA2), M)
        assert face.dim == 1

    def test_zero_gives_lineality(self):
        tv = dual_cone(TAU)
        face = smallest_face_oracle(tv, (0, 0, 0))
        assert face.dim == 1 and face.lineality == tv.lineality
        assert smallest_face_oracle(OCTANT, (0, 0, 0)).dim == 0

    def test_not_in_cone(self):
        with pytest.raises(ValueError):
            smallest_face_oracle(OCTANT, (-1, 0, 0))

    def test_face_properties_random(self):
        rng = random.Random(41)
        done = 0
        while done < 40:
            gens = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(4)]
            gens = [g for g in gens if any(g)]
            if not gens:
                continue
            c = Cone.from_generators(gens, 3)
            coeffs = [rng.randint(0, 2) for _ in gens]
            p = tuple(sum(c0 * g[t] for c0, g in zip(coeffs, gens))
                      for t in range(3))
            face = smallest_face_oracle(c, p)
            assert face.is_face_of(c)
            assert face.contains(p)
            assert face.in_relative_interior(p) or all(x == 0 for x in p) \
                and face.dim == c.lineality_dim
            done += 1


class TestSmooth:
    def test_examples(self):
        assert OCTANT.is_smooth()
        assert not Cone.from_generators([(1, 1), (1, -1)]).is_smooth()
        assert Cone.from_generators([(2, 3, 5)]).is_smooth()
        assert not TAU.is_smooth()
        assert Cone.from_generators([(1, 0, 0), (0, 1, 0)]).is_smooth()

    def test_smooth_full_dim_has_unit_determinant(self):
        rng = random.Random(43)
        for _ in range(40):
            u = random_unimodular(rng, 3)
            c = Cone.from_generators(u)
            assert c.is_smooth()
            assert abs(fraction_det(list(c.rays))) == 1


class TestFaceRelations:
    def test_intersect_opposite_octants(self):
        neg = Cone.from_generators([(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
        assert intersect(OCTANT, neg).dim == 0

    def test_span_of_wall(self):
        lat = TAU.span()
        assert lat.rank == 2
        assert lat == span_lattice([(1, -1, -1), (1, -1, 2)], 3).saturation()

    def test_ray_is_face(self):
        ray = Cone.from_generators([(1, -1, -1)])
        assert ray.is_face_of(TAU)
        assert not Cone.from_generators([(1, 0, 0)]).is_face_of(TAU)
        assert TAU.is_face_of(TAU)

    def test_facet_pairs_errors(self):
        with pytest.raises(NotFullDimensional):
            facet_pairs(TAU)
        line = Cone.from_generators([(1, 0), (-1, 0), (0, 1)])
        with pytest.raises(NotPointed):
            facet_pairs(line)



def _data(c):
    return c.rays, c.lineality, c.ineq_rays, c.equations


def _both_signs(vectors):
    return [v for b in vectors for v in (tuple(b), tuple(-x for x in b))]


def _random_generators(rng, n, kind):
    """Generators of a seeded cone of the requested kind in rank n."""
    if kind == "zero":
        return [(0,) * n] * rng.randint(0, 2)
    if kind == "lower":
        # generators inside the span of n - 1 random vectors
        basis = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n - 1)]
        return [tuple(sum(rng.randint(-2, 2) * b[t] for b in basis) for t in range(n))
                for _ in range(rng.randint(1, n + 1))]
    gens = [tuple(rng.randint(-3, 3) for _ in range(n))
            for _ in range(rng.randint(1, n + 2))]
    if kind == "nonpointed":
        gens.append(tuple(-x for x in gens[0]))
    return gens


def _kind(c):
    if not c.rays and not c.lineality:
        return "zero"
    if c.lineality:
        return "nonpointed"
    return "lower" if c.dim < c.ambient_rank else "pointed"


class TestConverterOracle:
    """Every cone and face against the exhaustive subset-search converter."""

    @pytest.mark.parametrize("name", ["payne_fan", "cube_fan", "octahedron_fan"])
    def test_every_face_of_the_fixtures(self, name, request):
        fan = request.getfixturevalue(name)
        n = fan.ambient_rank
        for cone, gens in zip(fan.maximal_cones, fan.maximal_cone_rays):
            assert _data(cone) == cone_oracle([fan.rays[i] for i in gens], n)
            assert {_data(f) for f in cone.faces()} == faces_oracle(cone.rays, n)
        for fc in fan.all_cones:
            assert _data(fc.cone) == cone_oracle(fc.cone.generators, n)

    @pytest.mark.parametrize("kind,seed", [("pointed", 53), ("nonpointed", 59),
                                           ("lower", 61), ("zero", 67)])
    def test_random_cones_ranks_2_to_4(self, kind, seed):
        rng = random.Random(seed)
        seen = set()
        for trial in range(24):
            n = 2 + trial % 3
            gens = _random_generators(rng, n, kind)
            c = Cone.from_generators(gens, n)
            assert _data(c) == cone_oracle(gens, n), (gens, n)
            assert {_data(f) for f in c.faces()} == faces_oracle(gens, n)
            dual_gens = list(c.ineq_rays) + _both_signs(c.equations)
            assert _data(c.dual()) == cone_oracle(dual_gens, n)
            seen.add(_kind(c))
        assert kind in seen

    def test_intersections(self):
        rng = random.Random(71)
        for trial in range(30):
            n = 2 + trial % 3
            c1 = Cone.from_generators(_random_generators(rng, n, "pointed"), n)
            c2 = Cone.from_generators(_random_generators(rng, n, "nonpointed"), n)
            rows = (list(c1.ineq_rays) + list(c2.ineq_rays)
                    + _both_signs(c1.equations + c2.equations))
            lin, rays = halfspaces_to_rays_oracle(rows, n)
            meet = intersect(c1, c2)
            assert (meet.rays, meet.lineality) == (rays, lin)
            assert _data(meet) == cone_oracle(list(rays) + _both_signs(lin), n)

    def test_v_description_of_shifted_reflections(self, payne_fan, cube_fan):
        # the homogenized polyhedra 0 <= <g, x> <= <g, m> over the generators
        # g of a fan cone: a lineality space whenever the cone is not full
        from conewise.cones import _halfspaces_to_rays

        rng = random.Random(73)
        for fan in (payne_fan, cube_fan):
            for fc in fan.all_cones[::2]:
                m = tuple(rng.randint(-3, 3) for _ in range(3))
                hom = [(0, 0, 0, 1)]
                for g in fc.cone.generators:
                    hom += [tuple(g) + (0,), tuple(-x for x in g) + (dot(g, m),)]
                lin, rays, _ = _halfspaces_to_rays(hom, 4)
                assert (lin, rays) == halfspaces_to_rays_oracle(hom, 4)
