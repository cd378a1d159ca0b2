"""Differential property tests of the witness search and its predicates.

``Cone.contains`` and ``Cone.in_relative_interior`` scale the point to an
integer one; the oracles pair the ``Fraction`` point itself.  The search
skips every smooth wall, where the pairing matrix has minors of gcd 1; the
lemma behind the skip is checked directly, by f_dim at every degree of the
box, with smoothness read off a Smith form, and the whole search against
the scan that skips no wall.

Runs are derandomized with a fixed example budget, so every run draws the
same cases and the module costs a few seconds.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conewise.cones import Cone
from conewise.danilov import _smooth_wall, f_dim, find_h1_witness, lattice_points_in_box
from conewise.fans import build_face_fan, build_octahedron_fan, build_payne_fan
from conewise.linalg import Sublattice, dot, smith_normal_form
from helpers import contains_oracle, find_h1_witness_oracle, relative_interior_oracle

PROPERTY = settings(max_examples=300, derandomize=True, deadline=None)
SEARCH = settings(max_examples=40, derandomize=True, deadline=None)


@st.composite
def cones_and_points(draw):
    """A cone of rank 2-4, pointed, with a line or lower dimensional, and a
    point with denominators 1-6: a random one, or a combination of the
    generators with some coefficients 0, so that faces and relative
    interiors are hit as often as the outside."""
    n = draw(st.integers(2, 4))
    vec = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    gens = draw(st.lists(vec, min_size=1, max_size=n + 1))
    if draw(st.booleans()):
        gens.append([-x for x in gens[0]])
    cone = Cone.from_generators(gens, n)
    den = st.integers(1, 6)
    if draw(st.booleans()):
        point = [Fraction(draw(st.integers(-6, 6)), draw(den)) for _ in range(n)]
    else:
        coeffs = [Fraction(draw(st.integers(0, 3)), draw(den)) for _ in gens]
        point = [sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(n)]
    return cone, tuple(point)


@PROPERTY
@given(cones_and_points())
def test_integer_predicates_match_the_fraction_oracles(case):
    cone, p = case
    assert cone.contains(p) == contains_oracle(cone, p)
    assert cone.in_relative_interior(p) == relative_interior_oracle(cone, p)
    dual = cone.dual()
    assert dual.contains(p) == contains_oracle(dual, p)
    assert dual.in_relative_interior(p) == relative_interior_oracle(dual, p)


@st.composite
def fans_and_lattices(draw):
    """The complete face fan of the simplex e_1, e_2, e_3, (-1, -1, -1),
    with -e_1, -e_2, both or neither and up to three points of sup-norm 2,
    and a full-rank lattice: standard, an index-2 sublattice, a den-2
    overlattice or one spanned by three small rows."""
    pts = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    pts += [p for p in ((-1, 0, 0), (0, -1, 0)) if draw(st.booleans())]
    point = st.tuples(*[st.integers(-2, 2)] * 3)
    for p in draw(st.lists(point, max_size=3)):
        if any(p) and p not in pts:
            pts.append(p)
    fan = build_face_fan(pts)
    bit = st.integers(0, 1)
    kind = draw(st.sampled_from(("standard", "index 2", "overlattice", "rows")))
    if kind == "standard":
        lattice = Sublattice.standard(3)
    elif kind == "index 2":
        lattice = Sublattice.from_rows(3, [[2, 0, 0], [draw(bit), 1, 0],
                                           [draw(bit), 0, 1]])
    elif kind == "overlattice":
        lattice = Sublattice.standard(3).add_generator(
            [Fraction(1, 2), Fraction(draw(bit), 2), Fraction(draw(bit), 2)])
    else:
        row = st.lists(st.integers(-2, 2), min_size=3, max_size=3)
        rows = draw(st.lists(row, min_size=3, max_size=3).filter(
            lambda r: Sublattice.from_rows(3, r).rank == 3))
        lattice = Sublattice.from_rows(3, rows)
    return fan, lattice


def _pairing_onto(wall, lattice):
    """Whether the pairing with the wall's rays maps the lattice onto Z^2:
    the Smith form of ``[<g_i, b_j>]`` has two unit invariant factors."""
    if wall.lineality:
        return False
    rows = [[dot(g, b) for g in wall.rays] for b in lattice.basis_int]
    d, _, _ = smith_normal_form(rows)
    return d[0][0] == 1 and d[1][1] == 1


@SEARCH
@given(fans_and_lattices())
@example((build_octahedron_fan(), Sublattice.standard(3)))
@example((build_payne_fan(), Sublattice.from_rows(3, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])))
def test_a_smooth_wall_has_no_cokernel_in_the_box(case):
    fan, lattice = case
    degrees = lattice_points_in_box(lattice, 2)
    for fc in fan.cones_of_dim(2):
        smooth = _pairing_onto(fc.cone, lattice)
        assert _smooth_wall(fc.cone, lattice) == smooth
        if not smooth:
            continue
        dual = fc.cone.dual()
        for m in degrees:
            if dual.in_relative_interior(m):
                assert f_dim(fc.cone, m, lattice).dim_f == 0


@SEARCH
@given(fans_and_lattices(), st.integers(1, 2))
@example((build_payne_fan(), Sublattice.standard(3)), 2)
def test_search_matches_the_scan_of_every_wall(case, radius):
    fan, lattice = case
    assert (find_h1_witness(fan, lattice, radius)
            == find_h1_witness_oracle(fan, lattice, radius))
