"""Property tests of the two linalg kernels, ``rref`` and ``reduce_mod``,
and of what is built on them, against the oracles in ``helpers``.

Runs are derandomized with a fixed example budget, so every run draws the
same cases and the module costs a few seconds.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conewise.errors import NotASublattice, NotFullRank
from conewise.linalg import (
    Sublattice,
    hermite_normal_form,
    invert_fraction_matrix,
    is_zero_vec,
    mat_identity,
    mat_mul,
    reduce_mod,
    rref,
)
from helpers import fraction_det, solve_exact

PROPERTY = settings(max_examples=150, derandomize=True, deadline=None)

small_ints = st.integers(-6, 6)
rationals = st.builds(Fraction, small_ints, st.sampled_from((1, 1, 2, 3, 6)))


@st.composite
def matrices(draw, entries, rows=st.integers(0, 4), cols=st.integers(1, 4)):
    m, n = draw(rows), draw(cols)
    return [[draw(entries) for _ in range(n)] for _ in range(m)]


@st.composite
def lattice_and_vector(draw, entries):
    """A lattice of ambient rank 1-4 and a vector: a member half the time."""
    n = draw(st.integers(1, 4))
    rows = draw(matrices(entries, rows=st.integers(0, n + 1), cols=st.just(n)))
    lattice = Sublattice.from_rows(n, rows)
    if lattice.rank and draw(st.booleans()):
        coeffs = [draw(small_ints) for _ in range(lattice.rank)]
        v = [sum(c * b[j] for c, b in zip(coeffs, lattice.basis)) for j in range(n)]
    else:
        v = [draw(entries) for _ in range(n)]
    return lattice, v


def _integral_coords(rows, v):
    """Whether v is an integer combination of the independent rows."""
    x = solve_exact(rows, v)
    return x is not None and all(Fraction(c).denominator == 1 for c in x)


@PROPERTY
@given(matrices(rationals), st.integers(0, 2))
def test_rref_is_reduced_and_keeps_the_row_space(a, extra):
    ncols = max(len(a[0]) - extra, 0) if a else 0
    m, pivots = rref(a, ncols)
    assert pivots == sorted(set(pivots)) and all(c < ncols for c in pivots)
    for i, row in enumerate(m):
        if i < len(pivots):
            assert row[pivots[i]] == 1
            assert all(m[k][pivots[i]] == 0 for k in range(len(m)) if k != i)
            assert all(x == 0 for x in row[:pivots[i]])
        else:
            assert all(x == 0 for x in row[:ncols])
    # the same row space: each side is a rational combination of the other
    assert all(solve_exact(m, row) is not None for row in a)
    assert all(solve_exact(a, row) is not None for row in m)


@PROPERTY
@given(matrices(small_ints), st.data())
def test_reduce_mod_is_the_canonical_coset_representative(a, data):
    n = len(a[0]) if a else data.draw(st.integers(1, 4))
    basis = [row for row in hermite_normal_form(a)[0] if not is_zero_vec(row)]
    v = data.draw(st.lists(small_ints, min_size=n, max_size=n))
    r = reduce_mod(v, basis)
    assert _integral_coords(basis, [x - y for x, y in zip(v, r)])
    assert is_zero_vec(r) == _integral_coords(basis, v)
    shift = [data.draw(small_ints) for _ in basis]
    w = [x + sum(c * b[j] for c, b in zip(shift, basis)) for j, x in enumerate(v)]
    assert reduce_mod(w, basis) == r


@PROPERTY
@given(lattice_and_vector(rationals))
def test_contains_matches_the_solve_oracle(case):
    lattice, v = case
    assert lattice.contains(v) == _integral_coords(lattice.basis, v)


def test_contains_refuses_a_wrong_length():
    with pytest.raises(ValueError):
        Sublattice.standard(3).contains((1, 2))


@PROPERTY
@given(lattice_and_vector(rationals), st.data())
def test_index_in_matches_the_determinant_oracle(case, data):
    lattice, _ = case
    k = lattice.rank
    c = data.draw(matrices(small_ints, rows=st.just(k), cols=st.just(k)))
    det = fraction_det(c)
    sub = Sublattice.from_rows(lattice.ambient_rank, mat_mul(c, lattice.basis))
    if det == 0:
        if k:
            with pytest.raises(ValueError):
                sub.index_in(lattice)
        return
    assert sub.index_in(lattice) == abs(det)
    if abs(det) > 1:
        with pytest.raises(NotASublattice):
            lattice.index_in(sub)
    coords = [solve_exact(lattice.basis, row) for row in sub.basis]
    assert sub.index_in(lattice) == abs(fraction_det(coords))


@PROPERTY
@given(st.integers(1, 4).flatmap(
    lambda n: matrices(rationals, rows=st.just(n), cols=st.just(n))))
def test_invert_fraction_matrix_matches_the_determinant_oracle(a):
    n = len(a)
    if fraction_det(a) == 0:
        with pytest.raises(NotFullRank):
            invert_fraction_matrix(a)
        return
    inv = invert_fraction_matrix(a)
    identity = tuple(tuple(row) for row in mat_identity(n))
    assert mat_mul(inv, a) == identity and mat_mul(a, inv) == identity
