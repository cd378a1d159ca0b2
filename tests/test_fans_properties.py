"""Differential property test of the fan axioms check.

``validate`` decides the common-face property of two maximal cones by one
separation test; the oracle ``validate_oracle`` takes the pairwise route,
``intersect`` and then a face test against each cone.  The two must give
the identical violation list on every fan: face fans of small clouds in
ranks 2-4 with some maximal cones dropped, doubled or replaced by a face
(lower dimensional), plus cones on random ray subsets, which overlap the
others and, holding a ray and its negative, need not be pointed.

Runs are derandomized with a fixed example budget, so every run draws the
same cases and the module costs a few seconds.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conewise.cones import Cone
from conewise.fans import Fan, build_face_fan, build_payne_fan, validate
from conewise.linalg import primitive_vector, vec_neg
from helpers import validate_oracle
from test_golden import SMALL_FANS

PROPERTY = settings(max_examples=100, derandomize=True, deadline=None)


def _golden(name):
    doc = SMALL_FANS[name]
    return Fan(doc["rank"], doc["rays"], doc["maximal_cones"])


@st.composite
def fans(draw):
    """The face fan of the simplex e_1, ..., e_n, -(e_1 + ... + e_n), with
    -e_1, -e_2, both or neither and up to two more points of sup-norm 2.
    Its maximal cones are kept, dropped, doubled or replaced by a face; then
    come up to three cones on random subsets of its rays, which may use up
    to two new rays, and which may all hold the line through e_1, so that
    non-pointed cones share a lineality.  Rays that a cone's canonical form
    needs are listed."""
    n = draw(st.integers(2, 4))
    pts = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    pts += [(-1,) * n] + [vec_neg(e) for e in pts[:2] if draw(st.booleans())]
    point = st.tuples(*[st.integers(-2, 2)] * n)
    for p in draw(st.lists(point, max_size=2)):
        if any(p) and p not in pts:
            pts.append(p)
    base = build_face_fan(pts)
    rays = list(base.rays)
    cones = []
    for idx, cone in zip(base.maximal_cone_rays, base.maximal_cones):
        action = draw(st.sampled_from(("keep", "keep", "drop", "double", "face")))
        if action in ("keep", "double"):
            cones += [idx] * (1 + (action == "double"))
        elif action == "face":
            faces = [f for f in cone.faces() if f.dim > 0]
            face = faces[draw(st.integers(0, len(faces) - 1))]
            cones.append([rays.index(r) for r in face.rays])
    for p in draw(st.lists(point, max_size=2)):
        if any(p) and primitive_vector(p) not in rays:
            rays.append(primitive_vector(p))
    index = st.integers(0, len(rays) - 1)
    pair = [rays.index(v) for v in (pts[0], vec_neg(pts[0])) if v in rays]
    line = pair if len(pair) == 2 and draw(st.booleans()) else []
    for _ in range(draw(st.integers(0 if cones else 1, 3))):
        cones.append(line + draw(st.lists(index, min_size=2, max_size=n + 1,
                                          unique=True)))
    for idx in cones:
        for r in Cone.from_generators([rays[i] for i in idx], n).rays:
            if r not in rays:
                rays.append(r)
    return Fan(n, rays, cones)


@PROPERTY
@given(fans())
@example(build_payne_fan())
@example(_golden("not_pointed"))
@example(_golden("overlap"))
def test_violations_match_the_pairwise_oracle(fan):
    assert validate(fan).violations == validate_oracle(fan)
