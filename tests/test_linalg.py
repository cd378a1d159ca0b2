import random
from fractions import Fraction

import pytest

from conewise.errors import NotASublattice, NotFullRank
from conewise.linalg import (
    Sublattice,
    dual_lattice,
    hermite_normal_form,
    is_zero_vec,
    mat_mul,
    membership,
    quotient_rank,
    saturation,
    smith_normal_form,
    span_lattice,
)
from helpers import (
    fraction_det,
    hnf_oracle_2x2,
    is_canonical_row_hnf,
    random_int_matrix,
    random_unimodular,
)


class TestHermite:
    def test_identity(self):
        h, u = hermite_normal_form([[1, 0], [0, 1]])
        assert h == ((1, 0), (0, 1))
        assert u == ((1, 0), (0, 1))

    def test_small_example_against_unimodular_search(self):
        # the brute-force oracle enumerates U and keeps canonical forms;
        # it finds exactly one, frozen here
        a = [[2, 4], [1, 3]]
        oracle = hnf_oracle_2x2(a)
        assert oracle == {((1, 1), (0, 2))}
        h, u = hermite_normal_form(a)
        assert h == ((1, 1), (0, 2))
        assert h == mat_mul(u, a)

    def test_zero_matrix(self):
        h, u = hermite_normal_form([[0, 0], [0, 0]])
        assert all(is_zero_vec(row) for row in h)
        assert span_lattice([(0, 0), (0, 0)]).rank == 0

    def test_contract_and_canonicity_random(self):
        rng = random.Random(7)
        for _ in range(100):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            a = random_int_matrix(rng, rows, cols)
            h, u = hermite_normal_form(a)
            assert h == mat_mul(u, a)
            assert abs(fraction_det(u)) == 1
            assert is_canonical_row_hnf(h)
            # row-equivalent input gives the identical canonical form
            g = random_unimodular(rng, rows)
            h2, _ = hermite_normal_form(mat_mul(g, a))
            assert h2 == h


class TestSmith:
    def test_examples(self):
        d, _, _ = smith_normal_form([[2, 0], [0, 3]])
        assert d == ((1, 0), (0, 6))
        d, _, _ = smith_normal_form([[1, 0], [0, 1]])
        assert d == ((1, 0), (0, 1))
        d, _, _ = smith_normal_form([[2, 0], [0, 2]])
        assert d == ((2, 0), (0, 2))

    def test_contract_random(self):
        rng = random.Random(11)
        for _ in range(100):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            a = random_int_matrix(rng, rows, cols)
            d, u, v = smith_normal_form(a)
            assert d == mat_mul(mat_mul(u, a), v)
            assert abs(fraction_det(u)) == 1
            assert abs(fraction_det(v)) == 1
            diag = [d[i][i] for i in range(min(rows, cols))]
            assert all(d[i][j] == 0 for i in range(rows) for j in range(cols)
                       if i != j)
            assert all(x >= 0 for x in diag)
            for x, y in zip(diag, diag[1:]):
                if x != 0:
                    assert y % x == 0
                else:
                    assert y == 0


class TestSpanLattice:
    def test_plane_span(self):
        lat = span_lattice([(1, 1, 0), (0, -1, 0)])
        assert lat.basis_int == ((1, 0, 0), (0, 1, 0))
        assert lat.rank == 2

    def test_empty(self):
        assert span_lattice([], ambient_rank=3).rank == 0

    def test_diagonal(self):
        lat = span_lattice([(2, 0), (0, 2)])
        assert lat.basis_int == ((2, 0), (0, 2))
        assert lat.rank == 2
        assert lat.index_in(Sublattice.standard(2)) == 4


class TestQuotientRank:
    def test_plane_in_z3(self):
        inner = span_lattice([(1, 1, 0), (0, -1, 0)])
        assert quotient_rank(Sublattice.standard(3), inner) == 1

    def test_equal(self):
        lat = span_lattice([(1, 2), (0, 5)])
        assert quotient_rank(lat, lat) == 0

    def test_finite_index(self):
        inner = span_lattice([(2, 0), (0, 2)])
        assert quotient_rank(Sublattice.standard(2), inner) == 0

    def test_not_a_sublattice(self):
        inner = span_lattice([(1, 0)])
        outer = span_lattice([(2, 0), (0, 1)])
        with pytest.raises(NotASublattice):
            quotient_rank(outer, inner)

    def test_rank_matches_snf_of_inclusion(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(1, 4)
            outer = Sublattice.standard(n)
            rows = random_int_matrix(rng, rng.randint(0, n), n, -3, 3)
            inner = span_lattice(rows, n) if rows else Sublattice.zero(n)
            d, _, _ = smith_normal_form(rows) if rows else ((), (), ())
            snf_rank = sum(1 for i in range(min(len(rows), n))
                           if rows and d[i][i] != 0)
            assert quotient_rank(outer, inner) == n - snf_rank


class TestDualLattice:
    def test_standard_self_dual(self):
        for n in (1, 2, 3):
            assert dual_lattice(Sublattice.standard(n)) == Sublattice.standard(n)

    def test_diagonal_rescale(self):
        lat = Sublattice.from_rows(2, [(2, 0), (0, 1)])
        dual = dual_lattice(lat)
        assert dual == Sublattice.from_rows(2, [[Fraction(1, 2), 0], [0, 1]])

    def test_half_degree_overlattice(self):
        # M' = Z^3 + (1/2, 1/2, 0) Z has an index-2 dual inside Z^3
        m_prime = Sublattice.standard(3).add_generator(
            (Fraction(1, 2), Fraction(1, 2), Fraction(0)))
        n_prime = dual_lattice(m_prime)
        assert n_prime.index_in(Sublattice.standard(3)) == 2
        for u in m_prime.basis:
            for v in n_prime.basis:
                pairing = sum(a * b for a, b in zip(u, v))
                assert pairing.denominator == 1

    def test_involution_random(self):
        rng = random.Random(17)
        done = 0
        while done < 100:
            n = rng.randint(1, 3)
            rows = random_int_matrix(rng, n, n, -10, 10)
            if fraction_det(rows) == 0:
                continue
            lat = Sublattice.from_rows(n, rows)
            assert dual_lattice(dual_lattice(lat)) == lat
            done += 1

    def test_not_full_rank(self):
        with pytest.raises(NotFullRank):
            dual_lattice(span_lattice([(1, 0, 0)]))


class TestMembership:
    def test_examples(self):
        lat = Sublattice.from_rows(2, [(2, 0), (0, 1)])
        assert not membership(lat, (1, 1))
        assert membership(lat, (2, 3))
        assert membership(lat, (0, 0))

    def test_rational_vector(self):
        lat = Sublattice.from_rows(2, [[Fraction(1, 2), 0], [0, 1]])
        assert membership(lat, (Fraction(3, 2), 4))
        assert not membership(lat, (Fraction(1, 3), 0))


class TestSaturation:
    def test_primitive_rescale(self):
        assert saturation(span_lattice([(2, 0, 0)])) == span_lattice([(1, 0, 0)])

    def test_full_rank(self):
        assert saturation(span_lattice([(2, 2), (0, 4)])) == Sublattice.standard(2)

    def test_idempotent_and_contains_random(self):
        rng = random.Random(19)
        for _ in range(100):
            n = rng.randint(1, 4)
            rows = random_int_matrix(rng, rng.randint(1, n), n, -6, 6)
            lat = span_lattice(rows, n)
            sat = saturation(lat)
            assert saturation(sat) == sat
            assert sat.contains_lattice(lat)
            assert sat.rank == lat.rank
