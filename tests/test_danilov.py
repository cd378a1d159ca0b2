import itertools
import random
from fractions import Fraction

import pytest

from conewise import danilov
from conewise.cones import Cone, intersect
from conewise.danilov import (
    f_dim,
    find_h1_witness,
    h1_wall_certificate,
    image_lattice,
    lattice_points_by_shell,
    lattice_points_in_box,
    tilde_omega_dim,
)
from conewise.errors import (
    DegreeNotInCone,
    DegreeNotInLattice,
    NotAWall,
    NotComplete,
    NotFullRank,
)
from conewise.linalg import Sublattice, dot, span_lattice, vec_add, vec_scale
from helpers import (
    apply_unimodular,
    numpy_span_oracle,
    random_unimodular,
    smallest_face_oracle,
    solve_exact,
)

Z3 = Sublattice.standard(3)
M = (1, -1, 0)
TAU = Cone.from_generators([(1, -1, -1), (1, -1, 2)])
SIGMA1 = Cone.from_generators([(1, -1, -1), (1, -1, 2), (1, 1, -1), (1, 2, 3)])
SIGMA2 = Cone.from_generators([(1, -1, -1), (1, -1, 2), (-1, -1, -1), (-1, -1, 1)])
OCTANT = Cone.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)])


class TestSemigroupFixture:
    def test_forced_generator_value(self):
        # the stated average uses generators (0,-1,1) and (0,-2,-1); the
        # variant with (0,-2,1) is not even a lattice point
        q = vec_scale(Fraction(1, 3), vec_add((0, -1, 1), (0, -2, -1)))
        assert q == (0, -1, 0)
        broken = vec_scale(Fraction(1, 3), vec_add((0, -1, 1), (0, -2, 1)))
        assert any(x.denominator != 1 for x in broken)
        assert vec_add(vec_scale(2, q), (1, 1, 0)) == (1, -1, 0)
        assert TAU.dual().contains(q)


class TestTildeOmega:
    def test_wall_interior_degree(self):
        assert tilde_omega_dim(TAU, M, Z3) == 3

    def test_degree_outside_dual(self):
        assert tilde_omega_dim(SIGMA1, M, Z3) == 0

    def test_zero_degree_on_octant(self):
        assert tilde_omega_dim(OCTANT, (0, 0, 0), Z3) == 0

    def test_degree_not_in_lattice(self):
        with pytest.raises(DegreeNotInLattice, match="^degree 1/2,0,0 is not in"):
            tilde_omega_dim(OCTANT, (Fraction(1, 2), 0, 0), Z3)


class TestImageLattice:
    def test_wall_image_is_the_plane(self):
        lat = image_lattice(TAU, M, Z3)
        assert lat == span_lattice([(1, 1, 0), (0, -1, 0)])
        assert lat.rank == 2

    def test_contains_degree_and_zero(self):
        for cone, m in ((TAU, M), (SIGMA2, M), (OCTANT, (1, 2, 0))):
            if not cone.dual().contains(m):
                continue
            lat = image_lattice(cone, m, Z3)
            assert lat.contains(m)
            assert lat.contains((0, 0, 0))

    def test_dimension_one_case(self):
        face = smallest_face_oracle(SIGMA2.dual(), M)
        assert face.dim == 1
        lat = image_lattice(SIGMA2, M, Z3)
        assert lat.rank == 1
        assert lat.contains(M)

    def test_degree_not_in_cone(self):
        with pytest.raises(DegreeNotInCone, match="^degree 1,-1,0 is not in"):
            image_lattice(SIGMA1, M, Z3)

    def test_lower_rank_lattice(self):
        plane = span_lattice([(1, -1, 0), (0, 0, 1)])
        assert image_lattice(SIGMA2, M, plane) == span_lattice([M])
        with pytest.raises(NotFullRank):
            image_lattice(TAU, M, plane)


class TestFDim:
    def test_paper_triple(self):
        assert f_dim(TAU, M, Z3).dim_f == 1
        assert f_dim(TAU, M, Z3).dim_tilde == 3
        r2 = f_dim(SIGMA2, M, Z3)
        assert (r2.dim_tilde, r2.dim_f) == (1, 0)
        r1 = f_dim(SIGMA1, M, Z3)
        assert (r1.dim_tilde, r1.dim_f) == (0, 0)

    def test_bounds(self):
        for m in ((1, 0, 0), (2, 1, 0), (1, 1, 1), (0, 0, 0)):
            rep = f_dim(OCTANT, m, Z3)
            assert 0 <= rep.dim_f <= rep.dim_tilde

    def test_image_inside_face_span(self):
        for cone, m in ((TAU, M), (SIGMA2, M), (OCTANT, (2, 1, 0))):
            face = smallest_face_oracle(cone.dual(), m)
            ambient = Z3.intersect_span(list(face.rays) + list(face.lineality))
            assert ambient.contains_lattice(image_lattice(cone, m, Z3))

    def test_smooth_vanishing_small_degrees(self):
        cones = [OCTANT, Cone.from_generators([(1, 0, 0), (0, 1, 0)]),
                 Cone.from_generators([(1, 2, 3)])]
        rng = random.Random(61)
        for _ in range(2):
            cones.append(Cone.from_generators(random_unimodular(rng, 3)))
        for cone in cones:
            assert cone.is_smooth()
            dual = cone.dual()
            for m in lattice_points_in_box(Z3, 2):
                if dual.contains(m):
                    assert f_dim(cone, m, Z3).dim_f == 0

    def test_dimension_one_face_is_surjective(self):
        rng = random.Random(67)
        done = 0
        while done < 25:
            gens = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(4)]
            gens = [g for g in gens if any(g)]
            if not gens:
                continue
            cone = Cone.from_generators(gens, 3)
            dual = cone.dual()
            for m in lattice_points_in_box(Z3, 2):
                if not dual.contains(m) or all(x == 0 for x in m):
                    continue
                face = smallest_face_oracle(dual, m)
                if face.dim == 1:
                    assert f_dim(cone, m, Z3).dim_f == 0
                    done += 1
                    break


class TestPolyhedron:
    """The span of the lattice points of P = sigma^v meet (m - sigma^v)."""

    QUADRANT = Cone.from_generators([(1, 0), (0, 1)])

    def test_segment_span_rank_zero(self):
        # m = 0 pins every pairing: P meet L is the origin
        assert image_lattice(self.QUADRANT, (0, 0), Sublattice.standard(2)).rank == 0
        assert image_lattice(SIGMA1, (0, 0, 0), Z3) == Sublattice.zero(3)

    def test_unit_square_span(self):
        lat = Sublattice.standard(2)
        assert image_lattice(self.QUADRANT, (1, 1), lat) == lat

    def test_wall_strip_span(self):
        # a short span: every point of the box lies on the line through pi(m)
        lat = image_lattice(TAU, M, Z3)
        assert lat.rank == 2
        assert lat.basis_int == ((1, 0, 0), (0, 1, 0))

    def test_empty_polyhedron(self):
        # P is empty exactly when m is outside the dual cone
        with pytest.raises(DegreeNotInCone):
            image_lattice(self.QUADRANT, (-1, 1), Sublattice.standard(2))

    def test_span_against_box_oracle_small(self):
        run_span_oracle_trials(40, random.Random(73))

    def test_span_against_box_oracle_ranks_2_to_4(self):
        assert run_span_oracle_trials(60, random.Random(74), ranks=(2, 3, 4)) == 60

    def test_rational_lattice_enumeration(self):
        m_prime = Sublattice.standard(2).add_generator(
            (Fraction(1, 2), Fraction(1, 2)))
        half = (Fraction(1, 2), Fraction(1, 2))
        # P = [0, 1/2]^2 holds the lattice points 0 and (1/2, 1/2)
        assert image_lattice(self.QUADRANT, half, m_prime) == span_lattice([half])


def _lattices(n):
    """The standard lattice, two overlattices and an index-2 sublattice,
    each with a multiplier taking Z^n into it."""
    half = [Fraction(1, 2), Fraction(-1, 2)] + [Fraction(0)] * (n - 2)
    third = [Fraction(1, 3)] * n
    even = [(2,) + (0,) * (n - 1), (1, 1) + (0,) * (n - 2)]
    even += [tuple(int(i == j) for j in range(n)) for i in range(2, n)]
    return [(Sublattice.standard(n), 1),
            (Sublattice.standard(n).add_generator(half), 1),
            (Sublattice.standard(n).add_generator(third), 1),
            (span_lattice(even, n), 2)]


def _sup_bound(gens, m, n):
    """Sup-norm bound of P when the generators span: with n independent ones
    as the rows of G, a point is G^-1 y with 0 <= y <= pairings of m."""
    rows = []
    for g in gens:
        if span_lattice(rows + [g], n).rank > len(rows):
            rows.append(g)
    if len(rows) < n:
        return None
    columns = [list(col) for col in zip(*rows)]
    inverse = [solve_exact(columns, [int(i == j) for i in range(n)])
               for j in range(n)]
    return max(sum(abs(inverse[j][i]) * dot(rows[j], m) for j in range(n))
               for i in range(n))


def run_span_oracle_trials(target, rng, ranks=(2, 3)):
    """Random cones with entries up to 2 and small degrees in their dual
    cones (sums of at most 5 - n times each dual ray, plus a short lattice
    step), on standard and non-standard lattices: the pairing-coordinate
    span must match the flat numpy box scan.  For a full-dimensional cone
    P is bounded and the box is its sup-norm bound.  Otherwise (ranks 2 and
    3 only) P holds sigma^perp, the box is three times the sup-norm of its
    basis and at least 8, and the oracle must agree with itself on a larger
    box."""
    done = 0
    while done < target:
        n = rng.choice(ranks)
        gens = [tuple(rng.randint(-2, 2) for _ in range(n))
                for _ in range(rng.randint(1, n + 2))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        cone = Cone.from_generators(gens, n)
        if n == 4 and cone.dim < n:
            continue
        lat, mult = rng.choice(_lattices(n))
        dual = cone.dual()
        m = (0,) * n
        for u in dual.rays:
            m = vec_add(m, vec_scale(mult * rng.randint(0, 5 - n), u))
        step = (0,) * n
        for b in lat.basis:
            step = vec_add(step, vec_scale(rng.randint(-2, 2), b))
        if dual.contains(vec_add(m, step)):
            m = vec_add(m, step)
        gens = cone.generators
        bound = _sup_bound(gens, m, n)
        if bound is None:
            box = max(8, 3 * max(abs(x) for e in cone.equations for x in e))
        else:
            box = int(bound) + 1
        if (2 * box * lat.den + 1) ** n > 400_000:
            continue
        expected = numpy_span_oracle(gens, m, lat, box)
        if bound is None:
            assert numpy_span_oracle(gens, m, lat, box + 4) == expected
        assert image_lattice(cone, m, lat) == expected
        done += 1
    return done


class TestBoxOrder:
    def test_shells_match_the_sorted_box(self):
        half = Z3.add_generator((Fraction(1, 2), Fraction(-1, 2), Fraction(0)))
        for lattice in (Z3, half, span_lattice([(2, 0, 0), (0, 1, 1), (0, 0, 3)], 3)):
            den = lattice.den
            box = [p for p in (tuple(Fraction(x, den) for x in y)
                               for y in itertools.product(range(-2 * den, 2 * den + 1),
                                                          repeat=3))
                   if lattice.contains(p)]
            box.sort(key=lambda p: (max(abs(x) for x in p), p))
            assert lattice_points_in_box(lattice, 2) == box
            shells = lattice_points_by_shell(lattice)
            assert list(itertools.islice(shells, len(box))) == box


class TestCertificates:
    def test_distinct_walls_meet_in_dimension_at_most_one(self, payne_fan, cube_fan,
                                                          octahedron_fan):
        # the structural fact every certificate records without a check
        for fan in (payne_fan, cube_fan, octahedron_fan):
            for a, b in itertools.combinations(fan.cones_of_dim(2), 2):
                assert intersect(a.cone, b.cone).dim <= 1

    def test_payne_wall_certificate(self, payne_fan):
        cert = h1_wall_certificate(payne_fan, payne_fan.labels["tau"], M, Z3)
        assert cert.valid
        assert cert.wall_report.dim_f == 1
        assert cert.neighbour_reports[0].dim_f == 0
        assert cert.neighbour_reports[1].dim_f == 0
        assert cert.two_cone_intersections_ok

    def test_payne_other_degree_evaluated(self, payne_fan):
        cert = h1_wall_certificate(payne_fan, payne_fan.labels["tau"],
                                   (0, 0, 1), Z3)
        expected = (cert.neighbour_reports[0].dim_f == 0
                    and cert.neighbour_reports[1].dim_f == 0
                    and cert.wall_report.dim_f >= 1
                    and cert.two_cone_intersections_ok)
        assert cert.valid == expected

    def test_octahedron_zero_degree_invalid(self, octahedron_fan):
        wall = octahedron_fan.cones_of_dim(2)[0]
        cert = h1_wall_certificate(octahedron_fan, wall, (0, 0, 0), Z3)
        assert not cert.valid
        assert cert.wall_report.dim_f == 0

    def test_wall_resolution_errors(self, payne_fan, octahedron_fan):
        with pytest.raises(NotAWall):
            h1_wall_certificate(payne_fan, (0, 1, 2, 3), M, Z3)
        with pytest.raises(NotAWall):
            h1_wall_certificate(payne_fan, (0, 7), M, Z3)
        with pytest.raises(DegreeNotInLattice):
            h1_wall_certificate(payne_fan, payne_fan.labels["tau"],
                                (Fraction(1, 2), 0, 0), Z3)
        octant = __import__("conewise.fans", fromlist=["Fan"]).Fan(
            3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [[0, 1, 2]])
        with pytest.raises(NotComplete):
            h1_wall_certificate(octant, (0, 1), (1, 1, 0), Z3)

    def test_certificate_invariant_under_unimodular_change(self, payne_fan):
        rng = random.Random(79)
        for _ in range(5):
            u = random_unimodular(rng, 3)
            fan2, degree_map = apply_unimodular(payne_fan, u)
            cert = h1_wall_certificate(fan2, payne_fan.labels["tau"],
                                       degree_map(M), Z3)
            assert cert.valid
            assert cert.wall_report.dim_f == 1


class TestWitnessSearch:
    def test_payne_contains_the_known_witness(self, payne_fan):
        certs = find_h1_witness(payne_fan, Z3, search_radius=2)
        assert len(certs) == 1
        cert = certs[0]
        assert cert.wall_rays == tuple(payne_fan.labels["tau"])
        assert tuple(int(x) for x in cert.degree) == (1, -1, 0)

    def test_octahedron_empty(self, octahedron_fan):
        assert find_h1_witness(octahedron_fan, Z3, search_radius=3) == []

    def test_cube_regression(self, cube_fan):
        # frozen exhaustive run: the undeformed fan in the standard lattice
        # yields no witness at this radius, matching its need for the
        # sublattice refinement
        assert find_h1_witness(cube_fan, Z3, search_radius=2) == []

    @pytest.mark.parametrize("name, calls", [
        # 6 of payne's 14 walls, none of the cube's 12 and all 12 of the
        # octahedron's are smooth, and a smooth wall costs no f_dim call
        ("payne_fan", 288), ("cube_fan", 432), ("octahedron_fan", 0)])
    def test_f_dim_call_count(self, request, monkeypatch, name, calls):
        count = [0]

        def counted(*args):
            count[0] += 1
            return f_dim(*args)

        monkeypatch.setattr(danilov, "f_dim", counted)
        find_h1_witness(request.getfixturevalue(name), Z3, search_radius=2)
        assert count[0] == calls

    def test_lower_rank_lattice_is_refused(self, octahedron_fan):
        # the octahedron's walls in the plane z = 0 pair it onto Z^2, and no
        # other wall has a degree of it in its dual's relative interior, so
        # a skip keyed on the minors alone would return []
        plane = Sublattice.from_rows(3, [[1, 0, 0], [0, 1, 0]])
        with pytest.raises(NotFullRank):
            find_h1_witness(octahedron_fan, plane, search_radius=1)
