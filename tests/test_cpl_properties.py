"""Differential property test of the conewise linear space.

``cpl_space`` reads the space off the values on the rays; the oracle
``cpl_space_oracle`` takes the pairwise route, the functionals of two
maximal cones agreeing on the span of their intersection.  The two must
give the identical basis on every valid fan: face fans of clouds in ranks
2-4, sub-fans of them (which leave rays in no maximal cone), fans where
some maximal cones are replaced by one of their faces (lower-dimensional
maximal cones), and unimodular images of all of these.

Runs are derandomized with a fixed example budget, so every run draws the
same cases and the module costs a few seconds.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conewise.cpl import cpl_space
from conewise.fans import Fan, build_face_fan, validate
from helpers import apply_unimodular, cpl_space_oracle, random_unimodular

PROPERTY = settings(max_examples=60, derandomize=True, deadline=None)


@st.composite
def fans(draw):
    """The face fan of the cross-polytope and up to three more points of
    sup-norm 2 in rank 2-4 (the origin is always interior), then a subset
    of its maximal cones, some replaced by a face, then a unimodular map."""
    n = draw(st.integers(2, 4))
    pts = [tuple(s * int(i == j) for j in range(n)) for i in range(n) for s in (1, -1)]
    point = st.tuples(*[st.integers(-2, 2)] * n)
    for p in draw(st.lists(point, max_size=3 if n < 4 else 2)):
        if any(p) and p not in pts:
            pts.append(p)
    fan = build_face_fan(pts)
    cones = []
    for idx, cone in zip(fan.maximal_cone_rays, fan.maximal_cones):
        action = draw(st.sampled_from(("keep", "keep", "drop", "face")))
        if action == "keep" or (action == "drop" and not cones):
            cones.append(idx)
        elif action == "face":
            faces = [f for f in cone.faces() if f.dim > 0]
            face = faces[draw(st.integers(0, len(faces) - 1))]
            cones.append([fan.rays.index(r) for r in face.rays])
    fan = Fan(n, fan.rays, cones)
    if draw(st.booleans()):
        u = random_unimodular(random.Random(draw(st.integers(0, 10 ** 6))), n)
        fan, _ = apply_unimodular(fan, u)
    return fan


@PROPERTY
@given(fans())
def test_basis_matches_the_pairwise_oracle(fan):
    assert validate(fan).ok
    assert cpl_space(fan).basis == cpl_space_oracle(fan)
