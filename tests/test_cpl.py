import random
from fractions import Fraction
from itertools import combinations

import pytest

from conewise.cones import intersect
from conewise.cpl import cpl_space, counting_certificate, nontrivial_cpl
from conewise.errors import HypothesisFailed, NotComplete, WrongDimension
from conewise.fans import Fan, build_face_fan
from conewise.linalg import dot, integer_rank, span_lattice

P1 = Fan(1, [(1,), (-1,)], [[0], [1]])


def _no_global_matches(fan, vals):
    """No single functional u has <u, ray_i> = vals_i for every ray."""
    from helpers import solve_exact
    n = fan.ambient_rank
    transposed = [[r[t] for r in fan.rays] for t in range(n)]
    return solve_exact(transposed, vals) is None


def independent_solution_dim(fan):
    """Rank of the continuity system through integer HNF instead of the
    rational echelon path used by the library."""
    n = fan.ambient_rank
    ncols = n * len(fan.maximal_cones)
    rows = []
    for i, j in combinations(range(len(fan.maximal_cones)), 2):
        meet = intersect(fan.maximal_cones[i], fan.maximal_cones[j])
        gens = list(meet.rays) + list(meet.lineality)
        if not gens:
            continue
        for w in span_lattice(gens, n).basis_int:
            row = [0] * ncols
            row[i * n:(i + 1) * n] = list(w)
            row[j * n:(j + 1) * n] = [-x for x in w]
            rows.append(row)
    rank = integer_rank(rows) if rows else 0
    return ncols - rank


class TestSpace:
    def test_p1(self):
        space = cpl_space(P1)
        assert space.dim == 2
        assert space.trivial_dim == 1

    def test_octahedron(self, octahedron_fan):
        space = cpl_space(octahedron_fan)
        # values on the six rays are unconstrained across the octants
        assert space.dim == 6
        assert space.trivial_dim == 3

    def test_cube_dim_exact(self, cube_fan):
        space = cpl_space(cube_fan)
        assert space.dim == independent_solution_dim(cube_fan)
        assert space.dim >= 3

    def test_basis_satisfies_wall_agreement(self, cube_fan, payne_fan):
        for fan in (cube_fan, payne_fan):
            space = cpl_space(fan)
            assert space.dim == independent_solution_dim(fan)
            for b in space.basis:
                for i, j in combinations(range(len(fan.maximal_cones)), 2):
                    meet = intersect(fan.maximal_cones[i], fan.maximal_cones[j])
                    gens = list(meet.rays) + list(meet.lineality)
                    for w in gens:
                        assert dot(b.functionals[i], w) == dot(b.functionals[j], w)

    def test_global_functionals_embed(self, octahedron_fan):
        space = cpl_space(octahedron_fan)
        n = octahedron_fan.ambient_rank
        k = len(octahedron_fan.maximal_cones)
        for t in range(n):
            coeffs = [Fraction(int(j % n == t)) for _ in range(k) for j in range(n)]
            target = tuple(coeffs)
            # solve target = sum x_i basis_i exactly
            from helpers import solve_exact
            flat_basis = [tuple(x for f in b.functionals for x in f)
                          for b in space.basis]
            assert solve_exact(flat_basis, target) is not None


class TestNontrivial:
    def test_p1_slopes(self):
        fn = nontrivial_cpl(P1)
        assert fn is not None
        assert fn.functionals == ((Fraction(1),), (Fraction(0),))
        assert fn.witness_ray is not None

    def test_octahedron(self, octahedron_fan):
        fn = nontrivial_cpl(octahedron_fan)
        assert fn is not None
        assert fn.is_integral()
        assert _no_global_matches(octahedron_fan, fn.ray_values())

    def test_single_cone_absent(self):
        fan = Fan(2, [(1, 0), (0, 1)], [[0, 1]])
        assert nontrivial_cpl(fan) is None

    def test_ray_in_no_maximal_cone_is_refused(self):
        fan = Fan(2, [(1, 0), (0, 1), (-1, 0), (-1, -1)], [[0, 1], [1, 2]])
        with pytest.raises(HypothesisFailed, match="ray 3 lies in no maximal cone"):
            nontrivial_cpl(fan)

    def test_witness_ray_disagrees(self, cube_fan):
        fn = nontrivial_cpl(cube_fan)
        assert fn is not None
        assert _no_global_matches(cube_fan, fn.ray_values())


class TestCounting:
    def test_octahedron_chain(self, octahedron_fan):
        rep = counting_certificate(octahedron_fan)
        assert (rep.f1, rep.f2, rep.f3) == (6, 12, 8)
        assert rep.all_m_rho_ge_4
        assert rep.ineq_4f1_le_2f2 and 4 * rep.f1 == 24 and 2 * rep.f2 == 24
        assert rep.ineq_f2_gt_2f1_minus_3 and rep.f2 == 12 and 2 * rep.f1 - 3 == 9

    def test_cube_hypothesis_fails(self, cube_fan):
        rep = counting_certificate(cube_fan)
        assert rep.min_m_rho == 3
        assert not rep.all_m_rho_ge_4

    def test_payne(self, payne_fan):
        rep = counting_certificate(payne_fan)
        assert rep.min_m_rho == 3

    def test_errors(self):
        with pytest.raises(WrongDimension):
            counting_certificate(P1)
        octant = Fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [[0, 1, 2]])
        with pytest.raises(NotComplete):
            counting_certificate(octant)

    def test_hypothesis_forces_nontrivial_function(self, octahedron_fan):
        # theorem-level property: on generated complete fans with every
        # neighbour count at least 4, the solution space exceeds the
        # trivial one and an integral nontrivial function comes back
        rng = random.Random(53)
        fans = [octahedron_fan]
        while len(fans) < 4:
            pts = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                   (0, 0, 1), (0, 0, -1)]
            extra = (rng.randint(-1, 1), rng.randint(-1, 1), rng.choice([1, -1]))
            if extra in pts or extra == (0, 0, 0):
                continue
            try:
                fan = build_face_fan(pts + [extra])
            except Exception:
                continue
            from conewise.fans import is_complete, stats
            if is_complete(fan) and stats(fan).min_m_rho >= 4:
                fans.append(fan)
        for fan in fans:
            space = cpl_space(fan)
            assert space.dim > 3
            assert nontrivial_cpl(fan) is not None
