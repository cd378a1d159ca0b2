"""Differential property test of the graded-piece rank ``dim_tilde``.

``tilde_omega_dim`` and ``f_dim`` read dim_tilde off the Hermite form of the
pairing matrix.  The oracle takes the other route of the definition: the
smallest face of the dual cone holding m, found by a scan of the face
lattice, and the rank of the working lattice meet its span.

Runs are derandomized with a fixed example budget, so every run draws the
same cases and the module costs a few seconds.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conewise.cones import Cone
from conewise.danilov import f_dim, tilde_omega_dim
from conewise.errors import NotFullRank
from conewise.linalg import Sublattice, dot
from helpers import smallest_face_oracle

PROPERTY = settings(max_examples=300, derandomize=True, deadline=None)

LATTICES = ("standard", "overlattice", "index 2", "lower rank")


def _lattice(draw, kind, n, point):
    """A working lattice of the given kind; one of lower rank holds point."""
    small = st.integers(-2, 2)
    if kind == "standard":
        return Sublattice.standard(n)
    if kind == "overlattice":
        half = [Fraction(draw(st.integers(0, 1)), 2) for _ in range(n - 1)]
        return Sublattice.standard(n).add_generator([Fraction(1, 2)] + half)
    if kind == "index 2":
        rows = [[2] + [0] * (n - 1)]
        rows += [[draw(st.integers(0, 1))] + [int(i == j) for j in range(1, n)]
                 for i in range(1, n)]
        return Sublattice.from_rows(n, rows)
    k = draw(st.integers(0, n - 2))
    return Sublattice.from_rows(n, [point] + [[draw(small) for _ in range(n)]
                                              for _ in range(k)])


@st.composite
def graded_cases(draw):
    """A cone of rank 2-4 (with lineality now and then), a working lattice
    and a degree in it: twice an integer point of the dual cone (every
    lattice drawn holds it), a lattice vector, or 0."""
    n = draw(st.integers(2, 4))
    vec = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    gens = draw(st.lists(vec, min_size=1, max_size=n + 1))
    if draw(st.booleans()):
        gens.append([-x for x in gens[0]])
    cone = Cone.from_generators(gens, n)
    dual = cone.dual().generators
    coeffs = [draw(st.integers(0, 2)) for _ in dual]
    m = [2 * sum(c * g[j] for c, g in zip(coeffs, dual)) for j in range(n)]
    lattice = _lattice(draw, draw(st.sampled_from(LATTICES)), n, m)
    choice = draw(st.sampled_from(("dual", "lattice", "zero")))
    if choice == "lattice":
        coeffs = [draw(st.integers(-2, 2)) for _ in range(lattice.rank)]
        m = [sum(c * b[j] for c, b in zip(coeffs, lattice.basis)) for j in range(n)]
    elif choice == "zero":
        m = [0] * n
    return gens, cone, lattice, tuple(m)


def _oracle_dim_tilde(gens, cone, lattice, m):
    if any(dot(g, m) < 0 for g in gens):
        return 0
    face = smallest_face_oracle(cone.dual(), m)
    return lattice.intersect_span(list(face.rays) + list(face.lineality)).rank


@PROPERTY
@given(graded_cases())
def test_dim_tilde_matches_the_face_span(case):
    gens, cone, lattice, m = case
    expected = _oracle_dim_tilde(gens, cone, lattice, m)
    assert tilde_omega_dim(cone, m, lattice) == expected
    n = cone.ambient_rank
    inside = all(dot(g, m) >= 0 for g in gens)
    if inside and lattice.rank < n and cone.dim < n:
        try:
            f_dim(cone, m, lattice)
        except NotFullRank:
            return
        raise AssertionError("f_dim should refuse the lower-rank lattice")
    report = f_dim(cone, m, lattice)
    assert report.dim_tilde == expected
    assert 0 <= report.dim_f <= report.dim_tilde
