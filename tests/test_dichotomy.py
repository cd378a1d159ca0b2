import sys
from fractions import Fraction
from math import comb

import pytest

from conewise.cones import Cone
from conewise.dichotomy import (
    build_sublattice,
    choose_l,
    classify_rays,
    run_dichotomy,
)
from conewise.errors import LNotInRelativeInterior, NotComplete, SearchExhausted, WrongDimension
from conewise.fans import Fan, build_face_fan, reindex_lattice
from conewise.jsonio import dichotomy_to_obj, dumps
from conewise.linalg import Sublattice, dot
from helpers import sphere_points

Z3 = Sublattice.standard(3)


class TestClassifyRays:
    def test_cube(self, cube_fan):
        assert classify_rays(cube_fan) == {i: 3 for i in range(8)}

    def test_octahedron(self, octahedron_fan):
        assert classify_rays(octahedron_fan) == {i: 4 for i in range(6)}

    def test_payne(self, payne_fan):
        counts = classify_rays(payne_fan)
        assert min(counts.values()) == 3
        assert all(v >= 3 for v in counts.values())

    def test_not_complete(self):
        octant = Fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [[0, 1, 2]])
        with pytest.raises(NotComplete):
            classify_rays(octant)


class TestChooseL:
    def test_cube_corner_walls(self, cube_fan):
        ray = cube_fan.rays.index((1, 1, 1))
        walls = [fc for fc in cube_fan.cones_of_dim(2)
                 if ray in fc.ray_indices]
        assert len(walls) == 3
        tau, tau1, tau2 = (w.cone for w in walls)
        l = choose_l(tau, tau1, tau2, Z3, search_radius=4)
        assert tau.dual().in_relative_interior(l)
        assert not tau1.dual().contains(l)
        assert not tau2.dual().contains(l)
        assert max(abs(x) for x in l) <= 2

    def test_degenerate_exhausts(self):
        tau = Cone.from_generators([(1, 0, 0), (0, 1, 0)])
        with pytest.raises(SearchExhausted) as err:
            choose_l(tau, tau, tau, Z3, search_radius=3)
        assert err.value.diagnostics is not None


class TestBuildSublattice:
    def test_already_normalized_wall(self):
        tau = Cone.from_generators([(1, 0, 0), (0, 1, 0)])
        l = (1, 1, 0)
        ref = build_sublattice(tau, l)
        assert (ref.c1, ref.c2, ref.q) == (1, 1, 1)
        assert ref.degree == (Fraction(1, 2), Fraction(1, 2), Fraction(0))
        assert ref.n_normalized == Z3
        assert ref.index_n_normalized == 1
        assert ref.index_n_prime == 2
        assert ref.m_prime.contains(ref.degree)
        # direct pairing: every n_prime basis row pairs integrally with m_prime
        for v in ref.n_prime.basis:
            for u in ref.m_prime.basis:
                assert sum(a * b for a, b in zip(u, v)).denominator == 1

    def test_rescaling_arithmetic(self):
        # pairings 3 and 2 force q = 6 and cross-scaled generators
        tau = Cone.from_generators([(1, 0, 0), (0, 1, 0)])
        l = (3, 2, 0)
        ref = build_sublattice(tau, l)
        assert ref.q == 6
        scaled = {ref.v1, ref.v2}
        assert scaled == {(2, 0, 0), (0, 3, 0)}
        assert dot(ref.l_rescaled, ref.v1) == 1
        assert dot(ref.l_rescaled, ref.v2) == 1

    def test_wall_smooth_in_normalized_lattice(self, payne_fan):
        tau_fc = payne_fan.find_cone_by_rays(payne_fan.labels["tau"])
        walls = [fc for fc in payne_fan.cones_of_dim(2)
                 if 4 in fc.ray_indices and fc is not tau_fc]
        l = choose_l(tau_fc.cone, walls[0].cone, walls[1].cone, Z3)
        ref = build_sublattice(tau_fc.cone, l)
        re = reindex_lattice(payne_fan, ref.n_normalized)
        new_tau = re.fan.find_cone_by_rays(payne_fan.labels["tau"])
        assert new_tau.cone.is_smooth()
        # the half-degree coset has even order, so the dual drops by an
        # even factor from the normalized lattice
        sub_index = ref.n_prime.index_in(ref.n_normalized)
        assert sub_index >= 2 and sub_index % 2 == 0

    def test_functional_must_be_interior(self):
        tau = Cone.from_generators([(1, 0, 0), (0, 1, 0)])
        with pytest.raises(LNotInRelativeInterior):
            build_sublattice(tau, (1, 0, 0))
        with pytest.raises(WrongDimension):
            build_sublattice(Cone.from_generators([(1, 0, 0)]), (1, 1, 0))


class TestRunDichotomy:
    def test_octahedron_line_bundle(self, octahedron_fan):
        result = run_dichotomy(octahedron_fan)
        assert result.branch == "line_bundle"
        fn = result.line_bundle_witness
        assert fn is not None and fn.is_integral()
        assert result.count_report.all_m_rho_ge_4

    def test_cube_kgroup(self, cube_fan):
        result = run_dichotomy(cube_fan)
        assert result.branch == "k_group"
        w = result.kgroup_witness
        assert w.certificate.valid
        assert w.certificate.wall_report.dim_f == 1
        assert all(r.dim_f == 0 for r in w.certificate.neighbour_reports)
        assert w.tau_smooth_after_reindex
        assert all(w.degree_outside_neighbour_duals)
        assert dot(w.refinement.l_rescaled, w.refinement.v1) == 1
        assert dot(w.refinement.l_rescaled, w.refinement.v2) == 1
        assert w.m_prime_new.contains(w.degree_new)
        # half of the rescaled functional is the certificate degree
        assert w.refinement.degree == tuple(x / 2 for x in w.refinement.l_rescaled)

    def test_payne_kgroup(self, payne_fan):
        result = run_dichotomy(payne_fan)
        assert result.branch == "k_group"
        w = result.kgroup_witness
        assert w.certificate.valid
        assert w.tau_smooth_after_reindex
        # the refinement lattices nest with finite index
        ref = w.refinement
        assert ref.index_n_prime % ref.index_n_normalized == 0
        assert (ref.index_n_prime // ref.index_n_normalized) % 2 == 0

    def test_deterministic_output(self, cube_fan, payne_fan, octahedron_fan):
        for fan in (octahedron_fan, cube_fan, payne_fan):
            a = dumps(dichotomy_to_obj(run_dichotomy(fan)))
            b = dumps(dichotomy_to_obj(run_dichotomy(fan)))
            assert a == b

    def test_branch_rule_is_min_neighbour_count(self, cube_fan, octahedron_fan,
                                                payne_fan):
        from conewise.fans import stats
        for fan in (cube_fan, octahedron_fan, payne_fan):
            result = run_dichotomy(fan)
            expected = "line_bundle" if stats(fan).min_m_rho >= 4 else "k_group"
            assert result.branch == expected

    def test_generated_complete_fans(self):
        # theorem-level run over generated complete fans: whichever branch
        # fires, its advertised postconditions must all verify
        import random
        from conewise.errors import OriginNotInterior
        from conewise.fans import build_face_fan, is_complete, stats, validate

        rng = random.Random(20260810)
        built = 0
        while built < 6:
            pts = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                   (0, 0, 1), (0, 0, -1)]
            for _ in range(rng.randint(0, 3)):
                extra = (rng.randint(-2, 2), rng.randint(-2, 2),
                         rng.randint(-2, 2))
                if extra != (0, 0, 0) and extra not in pts:
                    pts.append(extra)
            try:
                fan = build_face_fan(pts)
            except OriginNotInterior:
                continue
            if not validate(fan).ok or not is_complete(fan):
                continue
            built += 1
            result = run_dichotomy(fan)
            if result.branch == "line_bundle":
                assert stats(fan).min_m_rho >= 4
                assert result.line_bundle_witness is not None
            else:
                assert stats(fan).min_m_rho == 3
                w = result.kgroup_witness
                assert w.certificate.valid
                assert w.certificate.wall_report.dim_f == 1
                assert all(r.dim_f == 0
                           for r in w.certificate.neighbour_reports)
                assert w.tau_smooth_after_reindex


@pytest.mark.parametrize("r2, branch", [(6, "line_bundle"), (5, "k_group")])
def test_only_the_one_validate_intersects(r2, branch, monkeypatch):
    """Branch A reads the conewise linear space off ray values, and branch B
    carries the validation through the reindexing: the C(k,2) intersections
    of the first ``validate`` are the only ones."""
    import conewise.cones

    fan = build_face_fan(sphere_points(r2))
    real = conewise.cones.intersect
    callers = []

    def counting(c1, c2):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(c1, c2)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "conewise" and getattr(module, "intersect", None) is real:
            monkeypatch.setattr(module, "intersect", counting)
    assert run_dichotomy(fan).branch == branch
    assert callers == ["validate"] * comb(len(fan.maximal_cones), 2)
