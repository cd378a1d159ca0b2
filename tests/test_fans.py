import random
from fractions import Fraction

import pytest

from conewise.cones import Cone
from conewise.errors import InvalidFan, NotComplete, NotFullRank, OriginNotInterior, WrongDimension
from conewise.fans import (
    Fan,
    build_face_fan,
    euler_check,
    is_complete,
    reindex_lattice,
    stats,
    validate,
)
from conewise.linalg import Sublattice, span_lattice
from helpers import (
    apply_unimodular,
    face_fan_facets_oracle,
    find_cone_oracle,
    owners_oracle,
    random_unimodular,
    sampled_completeness_oracle,
    sphere_points,
    stats_oracle,
)
from test_golden import SMALL_FANS

P1 = Fan(1, [(1,), (-1,)], [[0], [1]])


class TestBuilders:
    def test_cube(self, cube_fan):
        assert len(cube_fan.rays) == 8
        assert len(cube_fan.maximal_cones) == 6
        assert all(len(c) == 4 for c in cube_fan.maximal_cone_rays)
        assert validate(cube_fan).ok
        assert is_complete(cube_fan)

    def test_octahedron(self, octahedron_fan):
        assert len(octahedron_fan.rays) == 6
        assert len(octahedron_fan.maximal_cones) == 8
        assert all(c.is_smooth() for c in octahedron_fan.maximal_cones)
        assert is_complete(octahedron_fan)

    def test_quadrant_face_fan(self):
        fan = build_face_fan([(1, 0), (0, 1), (-1, 0), (0, -1)])
        assert len(fan.maximal_cones) == 4
        assert is_complete(fan)

    def test_origin_not_interior(self):
        with pytest.raises(OriginNotInterior):
            build_face_fan([(1, 0), (0, 1), (1, 1)])
        with pytest.raises(OriginNotInterior):
            build_face_fan([(1, 0), (0, 1), (-1, 0)])  # origin on the boundary
        with pytest.raises(OriginNotInterior):
            build_face_fan([(1, 0, 0), (-1, 0, 0), (0, 1, 0)])  # flat hull
        with pytest.raises(OriginNotInterior):
            build_face_fan([(1, 0, 0), (0, 1, 0), (0, 0, 1)])  # hull off the origin

    def test_facets_against_subset_search(self):
        rng = random.Random(103)
        checked = raised = 0
        for trial in range(60):
            n = 2 + trial % 2
            pts = sorted({tuple(rng.randint(-3, 3) for _ in range(n))
                          for _ in range(rng.randint(n + 2, 10))} - {(0,) * n})
            diffs = [tuple(a - b for a, b in zip(p, pts[0])) for p in pts]
            if span_lattice(diffs, n).rank != n:
                continue
            facets = face_fan_facets_oracle(pts)
            if facets is None:
                with pytest.raises(OriginNotInterior):
                    build_face_fan(pts)
                raised += 1
                continue
            expected = {Cone.from_generators([pts[i] for i in f], n) for f in facets}
            assert set(build_face_fan(pts).maximal_cones) == expected
            checked += 1
        assert checked >= 10 and raised >= 5

    def test_face_fan_always_valid_and_complete(self):
        rng = random.Random(101)
        built = 0
        while built < 8:
            pts = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                   (0, 0, 1), (0, 0, -1)]
            for _ in range(rng.randint(0, 2)):
                extra = (rng.randint(-2, 2), rng.randint(-2, 2),
                         rng.randint(-2, 2))
                if extra != (0, 0, 0) and extra not in pts:
                    pts.append(extra)
            try:
                fan = build_face_fan(pts)
            except OriginNotInterior:
                continue
            assert validate(fan).ok
            assert is_complete(fan)
            built += 1


class TestPayne:
    def test_named_cones(self, payne_fan):
        labels = payne_fan.labels
        assert set(labels) == {"sigma1", "sigma2", "tau"}
        s1 = payne_fan.find_cone_by_rays(labels["sigma1"])
        s2 = payne_fan.find_cone_by_rays(labels["sigma2"])
        tau = payne_fan.find_cone_by_rays(labels["tau"])
        assert s1.cone == Cone.from_generators(
            [(1, -1, -1), (1, -1, 2), (1, 1, -1), (1, 2, 3)])
        assert s2.cone == Cone.from_generators(
            [(1, -1, -1), (1, -1, 2), (-1, -1, -1), (-1, -1, 1)])
        assert tau.cone == Cone.from_generators([(1, -1, -1), (1, -1, 2)])
        # tau is the wall between exactly sigma1 and sigma2
        owners = payne_fan.maximal_cones_containing(tau)
        owner_rays = {payne_fan.maximal_cone_rays[k] for k in owners}
        assert owner_rays == {labels["sigma1"], labels["sigma2"]}

    def test_valid_and_complete(self, payne_fan):
        assert validate(payne_fan).ok
        assert is_complete(payne_fan)
        assert euler_check(payne_fan)

    def test_every_ray_in_at_least_three_walls(self, payne_fan):
        assert stats(payne_fan).min_m_rho >= 3


class TestValidate:
    def test_overlapping_cones_are_reported(self):
        # two full cones sharing a ray interior to the first
        fan = Fan(2, [(1, 0), (0, 1), (1, 1), (-1, 1)], [[0, 1], [2, 3]])
        report = validate(fan)
        assert not report.ok
        assert any(v["kind"] == "intersection_not_common_face"
                   and v["cones"] == [0, 1] for v in report.violations)

    def test_single_cone_fan_is_valid(self):
        fan = Fan(2, [(1, 0), (0, 1)], [[0, 1]])
        assert validate(fan).ok

    def test_duplicate_and_nonprimitive_rays_rejected(self):
        with pytest.raises(InvalidFan):
            Fan(2, [(1, 0), (1, 0)], [[0], [1]])
        with pytest.raises(InvalidFan):
            Fan(2, [(2, 0), (0, 1)], [[0, 1]])


class TestComplete:
    def test_p1(self):
        assert is_complete(P1)

    def test_octant_fan_not_complete(self):
        fan = Fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [[0, 1, 2]])
        assert not is_complete(fan)

    def test_half_plane_pair_not_complete(self):
        fan = Fan(2, [(1, 0), (0, 1), (-1, 0)], [[0, 1], [1, 2]])
        assert not is_complete(fan)

    def test_no_maximal_cone_is_not_complete(self):
        assert not is_complete(Fan(2, [(1, 0)], []))

    def test_repeated_maximal_cone_is_not_complete(self, cube_fan):
        octant = Fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [[0, 1, 2], [0, 1, 2]])
        assert validate(octant).ok and not is_complete(octant)
        doubled = Fan(3, cube_fan.rays,
                      cube_fan.maximal_cone_rays + cube_fan.maximal_cone_rays[:1])
        assert validate(doubled).ok and not is_complete(doubled)

    def test_agrees_with_sampling_oracle(self, cube_fan, octahedron_fan, payne_fan):
        fans = [P1, cube_fan, octahedron_fan, payne_fan,
                Fan(2, [(1, 0)], []),
                Fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [[0, 1, 2]]),
                Fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [[0, 1], [2]]),
                Fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [[0, 1, 2], [0, 1, 2]]),
                Fan(3, cube_fan.rays,
                    cube_fan.maximal_cone_rays + cube_fan.maximal_cone_rays[:1])]
        # a complete fan with one maximal cone removed is valid and not complete
        for fan in (cube_fan, payne_fan):
            for k in (0, len(fan.maximal_cones) - 1):
                cones = fan.maximal_cone_rays[:k] + fan.maximal_cone_rays[k + 1:]
                fans.append(Fan(3, fan.rays, cones))
        rng = random.Random(103)
        while len(fans) < 26:
            n = rng.choice((2, 3))
            pts = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n + 5)]
            try:
                fans.append(build_face_fan([p for p in pts if any(p)]))
            except OriginNotInterior:
                continue
        verdicts = [is_complete(fan) for fan in fans]
        assert verdicts == [sampled_completeness_oracle(fan) for fan in fans]
        assert verdicts.count(False) == 9 and verdicts.count(True) == 17


class TestStats:
    def test_cube(self, cube_fan):
        st = stats(cube_fan)
        assert st.f == (8, 12, 6)
        assert st.m_rho == (3,) * 8
        assert st.n_sigma == (4,) * 6
        assert euler_check(cube_fan)

    def test_octahedron(self, octahedron_fan):
        st = stats(octahedron_fan)
        assert st.f == (6, 12, 8)
        assert st.m_rho == (4,) * 6
        assert euler_check(octahedron_fan)

    def test_wall_face_sum_identity(self, cube_fan, octahedron_fan, payne_fan):
        for fan in (cube_fan, octahedron_fan, payne_fan):
            st = stats(fan)
            assert sum(st.n_sigma) == 2 * st.f[1]

    def test_neighbour_bound_implies_wall_count(self, octahedron_fan):
        st = stats(octahedron_fan)
        assert st.min_m_rho >= 4
        assert 2 * st.f[1] >= 4 * st.f[0]

    def test_euler_errors(self):
        with pytest.raises(WrongDimension):
            euler_check(P1)
        octant = Fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [[0, 1, 2]])
        with pytest.raises(NotComplete):
            euler_check(octant)


# a half-plane beside a ray: {0} and the line are both closure cones with
# the ray index set ()
HALF_PLANE_AND_RAY = Fan(2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [[0, 1, 2], [3]])


class TestIndex:
    """The lookups built with the closure against scans of every maximal
    cone's faces."""

    @pytest.fixture(scope="class")
    def fans(self, cube_fan, octahedron_fan, payne_fan):
        doubled = Fan(3, cube_fan.rays,
                      cube_fan.maximal_cone_rays + cube_fan.maximal_cone_rays[:1])
        golden = [Fan(d["rank"], d["rays"], d["maximal_cones"])
                  for d in (SMALL_FANS["not_pointed"], SMALL_FANS["overlap"])]
        return [cube_fan, octahedron_fan, payne_fan,
                build_face_fan(sphere_points(5)), build_face_fan(sphere_points(6)),
                doubled, HALF_PLANE_AND_RAY] + golden

    def test_lookups_agree_with_scans(self, fans):
        for fan in fans:
            for fc in fan.all_cones:
                assert fc.owners == owners_oracle(fan, fc.cone)
                assert fan.maximal_cones_containing(fc) == fc.owners
                assert fan.by_cone[fc.cone] is fc
                for rays in (fc.ray_indices, fc.ray_indices[::-1] * 2):
                    assert fan.find_cone_by_rays(rays) is find_cone_oracle(fan, rays)
            everything = range(len(fan.rays))
            assert fan.find_cone_by_rays(everything) is find_cone_oracle(fan, everything)
            assert fan.ray_index == {r: i for i, r in enumerate(fan.rays)}

    def test_stats_agree_with_scans(self, fans):
        checked = 0
        for fan in fans:
            if validate(fan).ok:
                st = stats(fan)
                assert (st.f, st.m_rho, st.n_sigma) == stats_oracle(fan)
                checked += 1
        assert checked == 6

    def test_each_face_is_built_once_and_canonical(self, fans):
        """A closure cone is built from its first owner alone; that is safe
        because the same face taken from every owner has the same data."""
        def data(c):
            return c.rays, c.lineality, c.ineq_rays, c.equations

        for fan in fans:
            for fc in fan.all_cones:
                for k in fc.owners:
                    faces = fan.maximal_cones[k].faces()
                    assert data(faces[faces.index(fc.cone)]) == data(fc.cone)

    def test_closure_builds_each_face_once(self, monkeypatch):
        real = Cone._face
        full = []

        def counting(cone, mask):
            full.append(mask == (1 << len(cone.rays)) - 1)
            return real(cone, mask)

        monkeypatch.setattr(Cone, "_face", counting)
        fan = build_face_fan(sphere_points(6))
        maximal = set(fan.maximal_cones)
        assert len(maximal) == len(fan.maximal_cones) == full.count(True)
        assert full.count(False) == sum(fc.cone not in maximal for fc in fan.all_cones)

    def test_shared_ray_set_finds_the_first_cone(self):
        empty = [fc for fc in HALF_PLANE_AND_RAY.all_cones if fc.ray_indices == ()]
        assert [fc.dim for fc in empty] == [0, 1]
        assert HALF_PLANE_AND_RAY.find_cone_by_rays(()) is empty[0]

    def test_doubled_cone_owns_its_faces_twice(self, cube_fan):
        doubled = Fan(3, cube_fan.rays,
                      cube_fan.maximal_cone_rays + cube_fan.maximal_cone_rays[:1])
        top = doubled.find_cone_by_rays(cube_fan.maximal_cone_rays[0])
        assert top.owners == (0, len(cube_fan.maximal_cones))

    def test_cone_from_another_fan(self, cube_fan, octahedron_fan, payne_fan):
        owned = []
        for fan in (cube_fan, octahedron_fan, payne_fan):
            for other in (cube_fan, octahedron_fan, payne_fan):
                if other is not fan:
                    for fc in other.all_cones:
                        found = fan.maximal_cones_containing(fc)
                        assert found == owners_oracle(fan, fc.cone)
                        owned.append(bool(found))
        assert any(owned) and not all(owned)


class TestReindex:
    def test_identity(self, cube_fan):
        re = reindex_lattice(cube_fan, Sublattice.standard(3))
        assert re.fan.rays == cube_fan.rays
        assert re.fan.maximal_cone_rays == cube_fan.maximal_cone_rays

    def test_uniform_scaling(self):
        p1xp1 = build_face_fan([(1, 0), (0, 1), (-1, 0), (0, -1)])
        re = reindex_lattice(p1xp1, Sublattice.from_rows(2, [(2, 0), (0, 2)]))
        assert re.fan.rays == p1xp1.rays  # re-primitivization undoes the scale
        assert is_complete(re.fan)

    def test_not_full_rank(self, cube_fan):
        with pytest.raises(NotFullRank):
            reindex_lattice(cube_fan, Sublattice.from_rows(3, [(1, 0, 0)]))

    def test_combinatorics_preserved(self, payne_fan):
        rng = random.Random(47)
        st = stats(payne_fan)
        closure = sorted((fc.dim, fc.ray_indices) for fc in payne_fan.all_cones)
        for _ in range(5):
            u = random_unimodular(rng, 3)
            new_fan, _ = apply_unimodular(payne_fan, u)
            assert is_complete(new_fan)
            st2 = stats(new_fan)
            assert st2.f == st.f
            assert st2.m_rho == st.m_rho
            assert st2.n_sigma == st.n_sigma
            assert sorted((fc.dim, fc.ray_indices)
                          for fc in new_fan.all_cones) == closure

    def test_degree_transport_roundtrip(self, payne_fan):
        lat = Sublattice.from_rows(3, [(1, 0, 0), (1, 2, 0), (0, 0, 1)])
        re = reindex_lattice(payne_fan, lat)
        m = (Fraction(1), Fraction(-1), Fraction(0))
        assert re.degree_from_new(re.degree_to_new(m)) == m

    @pytest.mark.parametrize("name", ["cube_fan", "octahedron_fan", "payne_fan",
                                      "sphere5", "overlap"])
    def test_validation_and_completeness_carry_over(self, name, request):
        if name == "sphere5":
            fan = build_face_fan(sphere_points(5))
        elif name == "overlap":
            fan = Fan(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (-1, 1, 0), (0, 0, 1)],
                      [[0, 1, 4], [2, 3, 4]])
        else:
            fan = request.getfixturevalue(name)
        ok = validate(fan).ok
        if ok:
            is_complete(fan)
        lattices = [
            Sublattice.standard(3),
            Sublattice.from_rows(3, [(2, 0, 0), (1, 1, 0), (0, 0, 1)]),
            Sublattice.from_rows(3, [(1, 0, 0), (1, 2, 0), (0, 1, 3)]),
            Sublattice.standard(3).add_generator((Fraction(1, 2), Fraction(-1, 2), 0)),
        ]
        for lattice in lattices:
            new = reindex_lattice(fan, lattice).fan
            assert new._validation is not None
            fresh = Fan(3, new.rays, new.maximal_cone_rays)
            assert validate(new) == validate(fresh)
            if ok:
                assert new._complete is not None
                assert is_complete(new) == is_complete(fresh)
            else:
                for f in (new, fresh):
                    with pytest.raises(InvalidFan):
                        is_complete(f)
