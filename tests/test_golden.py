"""Golden CLI corpus: every listed command must keep its exact output.

Each entry of ``golden_digests.json`` holds an argv (``{cube}``,
``{octahedron}``, ``{payne}``, ``{sphere5}``, ``{sphere6}``,
``{half_lattice}``, ``{index2_lattice}`` and ``{den2_lattice}`` stand for
the fixture files), the exit code, and the sha256 of stdout and of
stderr.  ``sphereN`` is the face fan of the lattice
points with x^2 + y^2 + z^2 = N; both are non-simplicial, and the dichotomy
takes branch B on sphere5 and branch A on sphere6.  The small documents
of ``SMALL_FANS`` and ``{cube_part}``, three of the cube's maximal cones
over the rays they use, cover the shapes the fixtures lack: a
lower-dimensional maximal cone, ranks 1 and 2, a JSON ``true`` as the
rank, a non-complete fan, a ray in no maximal cone, two kinds of invalid
fan, and labels that do not name rays by integer indices.  A refactor
that changes any of them changes a CLI document; a change that does so on
purpose re-records the file and names the entries it changed.

Re-record with ``PYTHONPATH=src python tests/test_golden.py --record``.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import sphere_points

DATA = Path(__file__).with_name("golden_digests.json")
FIXTURES = ("cube", "octahedron", "payne")
SPHERES = (5, 6)
SMALL_FANS = {
    # e1, e2, e3 and (-1,-1,0); the second maximal cone is 2-dimensional
    "lowdim3": {"rank": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, 0]],
                "maximal_cones": [[0, 1, 2], [1, 3]]},
    # the complete fan of the Hirzebruch surface F2
    "rank2": {"rank": 2, "rays": [[1, 0], [0, 1], [-1, 2], [0, -1]],
              "maximal_cones": [[0, 1], [1, 2], [2, 3], [3, 0]]},
    "rank1": {"rank": 1, "rays": [[1], [-1]], "maximal_cones": [[0], [1]]},
    # a JSON true where the rank belongs
    "rank_bool": {"rank": True, "rays": [[1], [-1]], "maximal_cones": [[0], [1]]},
    # ray 3 lies in no maximal cone
    "stray_ray": {"rank": 2, "rays": [[1, 0], [0, 1], [-1, 0], [-1, -1]],
                  "maximal_cones": [[0, 1], [1, 2]]},
    # a half-plane
    "not_pointed": {"rank": 2, "rays": [[1, 0], [-1, 0], [0, 1]],
                    "maximal_cones": [[0, 1, 2]]},
    # cone(e1, e2) and cone((1,1), (-1,1)) meet in cone((1,1), e2)
    "overlap": {"rank": 2, "rays": [[1, 0], [0, 1], [1, 1], [-1, 1]],
                "maximal_cones": [[0, 1], [2, 3]]},
    # a label naming a ray by a string, one naming it by a float, and one
    # that is not a list
    "label_str": {"rank": 2, "rays": [[1, 0], [0, 1]], "maximal_cones": [[0, 1]],
                  "labels": {"a": ["x"]}},
    "label_float": {"rank": 2, "rays": [[1, 0], [0, 1]], "maximal_cones": [[0, 1]],
                    "labels": {"a": [0.5]}},
    "label_int": {"rank": 2, "rays": [[1, 0], [0, 1]], "maximal_cones": [[0, 1]],
                  "labels": {"a": 5}},
}

LATTICES = {
    "index2_lattice": [[2, 0, 0], [0, 1, 0], [0, 0, 1]],
    "den2_lattice": [["1/2", "1/2", 0], [0, 1, 0], [0, 0, 1]],
}

JOBS = []
for _name, _wall in (("cube", "0,1"), ("octahedron", "0,1"), ("payne", "4,5")):
    _fan = "{%s}" % _name
    JOBS += [
        ["validate", _fan],
        ["stats", _fan],
        ["cpl", _fan],
        ["multival", _fan],
        ["multival", _fan, "--sigma", "1"],
        ["fdim", _fan, "--cone", _wall, "--degree", "1,-1,0"],
        ["fdim", _fan, "--cone", "0,1,2", "--degree", "0,0,0"],
        ["certify", _fan, "--wall", _wall, "--degree", "1,-1,0"],
        ["certify", _fan, "--wall", "0,2", "--degree=-1,2,1"],
    ]
JOBS += [
    ["builders", "payne"],
    ["fdim", "{payne}", "--cone", "tau", "--degree", "1,-1,0"],
    ["fdim", "{payne}", "--cone", "sigma1", "--degree", "1,-1,0"],
    ["certify", "{payne}", "--wall", "(1,-1,-1),(1,-1,2)", "--degree", "1,-1,0"],
    ["certify", "{payne}", "--wall", "4,5", "--degree", "1/2,-1/2,0",
     "--lattice", "{half_lattice}"],
    ["fdim", "{payne}", "--cone", "tau", "--degree", "1/2,-1/2,0",
     "--lattice", "{half_lattice}"],
    ["search", "{payne}", "--radius", "1"],
    # error documents
    ["certify", "{payne}", "--wall", "0,7", "--degree", "1,-1,0"],
    ["certify", "{payne}", "--wall", "(0,0,0)", "--degree", "1,-1,0"],
    ["fdim", "{payne}", "--cone", "tau", "--degree", "1,-1"],
    ["multival", "{octahedron}", "--sigma", "7"],
    ["fdim", "{payne}", "--cone", "tau", "--degree", "1/2,0,0"],
    # a repeated ray index
    ["fdim", "{payne}", "--cone", "4,4", "--degree", "1,-1,0"],
    ["certify", "{payne}", "--wall", "4,4,5", "--degree", "1,-1,0"],
    # large degrees, as the bigdegree benchmark draws them (seed 0)
    ["certify", "{payne}", "--wall", "2,7", "--degree=54,36,-36"],
    ["certify", "{payne}", "--wall", "0,4", "--degree=44,-66,0"],
    ["certify", "{cube}", "--wall", "6,7", "--degree=60,0,-30"],
    ["certify", "{cube}", "--wall", "0,1", "--degree=-54,0,18"],
    # degrees on proper faces of the wall's dual cone, where P has lineality
    ["fdim", "{payne}", "--cone", "tau", "--degree", "3,0,3"],
    ["fdim", "{payne}", "--cone", "tau", "--degree", "2,2,0"],
    # a 1-cone, a simplicial and a non-simplicial 3-cone
    ["fdim", "{payne}", "--cone", "7", "--degree", "3,-1,2"],
    ["fdim", "{payne}", "--cone", "1,5,7", "--degree", "0,-2,3"],
    ["fdim", "{payne}", "--cone", "sigma1", "--degree", "5,-1,0"],
    # the half lattice at larger degrees
    ["certify", "{payne}", "--wall", "4,5", "--degree", "5/2,3/2,0",
     "--lattice", "{half_lattice}"],
    ["certify", "{payne}", "--wall", "4,5", "--degree", "7/2,-9/2,1",
     "--lattice", "{half_lattice}"],
    ["fdim", "{payne}", "--cone", "4,5", "--degree=100,-100,0"],
    # the dichotomy on both branches: index_in, dual, reindex_lattice, the
    # nullspace and the witness choice
    ["dichotomy", "{payne}"],
    ["dichotomy", "{cube}"],
    ["dichotomy", "{octahedron}"],
    ["dichotomy", "{sphere5}"],
    ["dichotomy", "{sphere6}"],
    ["cpl", "{sphere6}"],
    ["search", "{cube}", "--radius", "1"],
    ["search", "{octahedron}", "--radius", "1"],
    ["builders", "cube"],
    ["builders", "octahedron"],
]
# the benchmark's search radius, on the standard lattice, an index-2
# sublattice and a den-2 overlattice
for _name in FIXTURES:
    JOBS += [["search", "{%s}" % _name, "--radius", "2"]]
for _name in ("payne", "cube"):
    JOBS += [["search", "{%s}" % _name, "--radius", "2", "--lattice", "{%s}" % _lat]
             for _lat in ("index2_lattice", "den2_lattice")]
for _name in ("lowdim3", "rank2", "rank1", "rank_bool", "cube_part", "stray_ray"):
    JOBS += [["cpl", "{%s}" % _name], ["multival", "{%s}" % _name]]
for _name in ("not_pointed", "overlap"):
    JOBS += [["validate", "{%s}" % _name], ["stats", "{%s}" % _name]]
for _name in ("label_str", "label_float", "label_int"):
    JOBS += [["fdim", "{%s}" % _name, "--cone", "a", "--degree", "1,0"]]


def _run(argv):
    from conewise.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _write_fixtures(root: Path) -> dict:
    from conewise.fans import build_cube_fan, build_face_fan
    from conewise.jsonio import dumps, fan_to_obj, lattice_to_obj
    from conewise.linalg import Sublattice

    paths = {}
    for name in FIXTURES:
        code, out, _ = _run(["builders", name])
        assert code == 0
        (root / ("%s.json" % name)).write_text(out)
        paths[name] = str(root / ("%s.json" % name))
    for r2 in SPHERES:
        name = "sphere%d" % r2
        fan = build_face_fan(sphere_points(r2))
        (root / ("%s.json" % name)).write_text(dumps(fan_to_obj(fan)))
        paths[name] = str(root / ("%s.json" % name))
    cube = build_cube_fan()
    cones = cube.maximal_cone_rays[:3]
    used = sorted({i for c in cones for i in c})
    small = dict(SMALL_FANS, cube_part={
        "rank": 3, "rays": [list(cube.rays[i]) for i in used],
        "maximal_cones": [[used.index(i) for i in c] for c in cones]})
    for name, doc in small.items():
        (root / ("%s.json" % name)).write_text(dumps(doc))
        paths[name] = str(root / ("%s.json" % name))
    half = Sublattice.standard(3).add_generator(
        (Fraction(1, 2), Fraction(-1, 2), Fraction(0)))
    (root / "half.json").write_text(dumps(lattice_to_obj(half)))
    paths["half_lattice"] = str(root / "half.json")
    for name, basis in LATTICES.items():
        (root / ("%s.json" % name)).write_text(dumps({"rank": 3, "basis": basis}))
        paths[name] = str(root / ("%s.json" % name))
    return paths


def _digest(argv, paths):
    code, out, err = _run([a.format(**paths) for a in argv])
    return {"argv": argv, "exit": code, "stdout": _sha(out), "stderr": _sha(err)}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return _write_fixtures(tmp_path_factory.mktemp("golden"))


GOLDEN = json.loads(DATA.read_text()) if DATA.exists() else []


@pytest.mark.parametrize("entry", GOLDEN, ids=[" ".join(e["argv"]) for e in GOLDEN])
def test_output_matches_golden(entry, paths):
    assert _digest(entry["argv"], paths) == entry


def test_corpus_lists_every_job():
    assert [e["argv"] for e in GOLDEN] == JOBS


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        found = _write_fixtures(Path(tmp))
        rows = [_digest(argv, found) for argv in JOBS]
    DATA.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    print("recorded %d entries in %s" % (len(rows), DATA))
