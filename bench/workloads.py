"""Seeded job lists for the three benchmark workloads, and the correctness
gate each job's output must pass.

A job is one ``conewise`` CLI invocation.  ``build_jobs(workload, seed,
workdir)`` writes the fan documents the jobs read into ``workdir`` and
returns the jobs in their fixed order; the same seed always gives the same
documents and arguments.  Only the library's builders (``build_*_fan``,
``build_face_fan``) and its canonical JSON writer are used here, so later
changes to the computational layers cannot change the inputs.

Every job carries a ``check(stdout) -> str | None`` closure.  The checks are
independent of the code under test: expected answers come from the paper's
fixtures, from the coordinate change the generator applied, or from plain
combinatorics of the fan document, never from a second library call.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

# module attributes, not imported names, so a traced set-up sees the
# wrapped builders
from conewise import fans, jsonio

WORKLOADS = ("search", "bigdegree", "facefan")

# The one wall certificate of each fixture at search radius 2, as
# (wall ray indices, degree); cube and octahedron have none.
SEARCH_WITNESSES = {
    "payne": [((4, 5), (1, -1, 0))],
    "cube": [],
    "octahedron": [],
}
# bigdegree: cost of a job is driven by the lattice-point boxes of the
# neighbour polytopes P = sigma^v cap (m - sigma^v) (see degree_box).
BIGDEGREE_JOBS = 21
BIGDEGREE_BOX = 100_000
BIGDEGREE_BOX_SLACK = 1.25
# facefan: random clouds of lattice points in [-BOX_R, BOX_R]^3, one per
# point count, kept when their hull has FACEFAN_FACETS facets, a vertex count
# in FACEFAN_VERTICES and a vertex on only three edges (branch B).  The job cost follows the facets and rays of the
# fan (validation checks every pair of maximal cones), the set-up cost the
# point count; fixing both keeps seeds comparable.
FACEFAN_CLOUD_POINTS = (20, 24, 28, 32)
FACEFAN_BOX_R = 4
FACEFAN_FACETS = 24
FACEFAN_VERTICES = (15, 16)
FACEFAN_SPHERES = (6, 11)


@dataclass
class Job:
    name: str
    argv: list[str]
    check: Callable[[str], str | None]


# ---------------------------------------------------------------------------
# small exact helpers


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _det3(a, b, c):
    return _dot(a, _cross(b, c))


def _solve3(rows, rhs):
    """The x with <rows[i], x> = rhs[i], by Cramer's rule, or None."""
    d = _det3(*rows)
    if d == 0:
        return None
    return tuple(Fraction(_det3(*[r[:j] + (v,) + r[j + 1:]
                                  for r, v in zip(rows, rhs)]), d)
                 for j in range(3))


def _mat_vec(a, v):
    return tuple(_dot(row, v) for row in a)


def _mat_mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(3))
                       for j in range(3)) for i in range(3))


def _primitive(v):
    g = math.gcd(*v)
    return tuple(x // g for x in v)


def _fracs(v):
    return tuple(Fraction(x) for x in v)


def _write(workdir: str, name: str, obj: dict) -> tuple[str, str]:
    text = jsonio.dumps(obj)
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path, jsonio.sha256_text(text)


def _fixture_objs() -> dict[str, dict]:
    return {"payne": jsonio.fan_to_obj(fans.build_payne_fan()),
            "cube": jsonio.fan_to_obj(fans.build_cube_fan()),
            "octahedron": jsonio.fan_to_obj(fans.build_octahedron_fan())}


def fan_combinatorics(obj: dict):
    """Walls, their two owning maximal cones, and the ray neighbour counts of
    a complete rank-3 fan, from its ray index lists alone.

    In a complete 3-fan a wall is a pair of rays lying together in exactly
    two maximal cones (two rays of one non-simplicial cone that are not
    adjacent share only that cone)."""
    cones = [tuple(c) for c in obj["maximal_cones"]]
    owners: dict[tuple[int, int], list[int]] = {}
    for k, c in enumerate(cones):
        for pair in combinations(sorted(c), 2):
            owners.setdefault(pair, []).append(k)
    walls = {pair: tuple(ks) for pair, ks in sorted(owners.items())
             if len(ks) == 2}
    m_rho = [sum(1 for w in walls if i in w) for i in range(len(obj["rays"]))]
    return walls, m_rho


# ---------------------------------------------------------------------------
# output checks shared by the workloads


def _check_piece(piece: dict, label: str) -> str | None:
    if piece["image_rank"] != len(piece["image_basis"]):
        return "%s: image_rank disagrees with its basis" % label
    if piece["dim_f"] != piece["dim_tilde"] - piece["image_rank"]:
        return "%s: dim_f != dim_tilde - image_rank" % label
    if piece["dim_f"] < 0:
        return "%s: negative dim_f" % label
    return None


def check_certificate(cert: dict, wall, degree, fan_sha: str | None = None
                      ) -> str | None:
    """The statements a certificate document makes must hold together."""
    if tuple(cert["wall_rays"]) != tuple(wall):
        return "wall %s, expected %s" % (cert["wall_rays"], list(wall))
    if _fracs(cert["degree"]) != _fracs(degree):
        return "degree %s, expected %s" % (cert["degree"], list(degree))
    if fan_sha is not None and cert["fan_sha256"] != fan_sha:
        return "fan_sha256 does not match the input document"
    for label in ("wall", "sigma1", "sigma2"):
        err = _check_piece(cert[label], label)
        if err:
            return err
    valid = (cert["wall"]["dim_f"] >= 1 and cert["sigma1"]["dim_f"] == 0
             and cert["sigma2"]["dim_f"] == 0
             and cert["two_cone_intersections_ok"] == 1)
    if cert["valid"] != int(valid):
        return "valid=%d contradicts the reported dimensions" % cert["valid"]
    return None


def _parse(stdout: str):
    try:
        return json.loads(stdout), None
    except json.JSONDecodeError as exc:
        return None, "output is not JSON: %s" % exc


# ---------------------------------------------------------------------------
# search: the fixtures under a seeded signed permutation of coordinates


def _signed_permutation(rng: random.Random):
    perm = rng.sample(range(3), 3)
    signs = [rng.choice((1, -1)) for _ in range(3)]
    return tuple(tuple(signs[i] if j == perm[i] else 0 for j in range(3))
                 for i in range(3))


IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _transform_fan(obj: dict, a) -> dict:
    """Rays r -> a.r; the combinatorics (indices, labels) are unchanged."""
    out = dict(obj)
    out["rays"] = [list(_mat_vec(a, r)) for r in obj["rays"]]
    return out


def _search_jobs(seed: int, workdir: str) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for name, obj in _fixture_objs().items():
        # a signed permutation is orthogonal, so degrees move by the same
        # matrix and the sup-norm search box maps onto itself: the job scans
        # the same degrees and must find the same witnesses
        a = IDENTITY if seed == 0 else _signed_permutation(rng)
        path, sha = _write(workdir, "search-%s.json" % name,
                           _transform_fan(obj, a))
        expected = [(wall, _mat_vec(a, m)) for wall, m in SEARCH_WITNESSES[name]]
        jobs.append(Job("search-" + name, ["search", path, "--radius", "2"],
                        search_check(expected, sha, 2)))
    return jobs


def search_check(expected, sha, radius):
    def check(stdout):
        doc, err = _parse(stdout)
        if err:
            return err
        if doc["fan_sha256"] != sha or doc["radius"] != radius:
            return "search echoes the wrong fan or radius"
        if doc["count"] != len(expected) or len(doc["certificates"]) != len(expected):
            return "found %d certificates, expected %d" % (doc["count"], len(expected))
        for cert, (wall, m) in zip(doc["certificates"], expected):
            err = check_certificate(cert, wall, m, sha)
            if err:
                return err
            if cert["valid"] != 1:
                return "search returned an invalid certificate"
        return None
    return check


# ---------------------------------------------------------------------------
# bigdegree: certify at large degrees, sized by the neighbour polytope box


def degree_box(rays, m) -> int:
    """Integer points in the bounding box of P = {x : 0 <= <g,x> <= <g,m>}
    over the rays g of a full-dimensional cone, for m in its dual.

    This is the grid a box enumeration of P visits; it grows like |m|^3 and
    is what the generator sizes jobs by."""
    planes = [(tuple(g), c) for g in rays for c in (0, _dot(g, m))]
    verts = []
    for triple in combinations(planes, 3):
        x = _solve3([g for g, _ in triple], [c for _, c in triple])
        if x is not None and all(0 <= _dot(g, x) <= _dot(g, m) for g in rays):
            verts.append(x)
    box = 1
    for t in range(3):
        box *= (math.floor(max(v[t] for v in verts))
                - math.ceil(min(v[t] for v in verts)) + 1)
    return box


def _bigdegree_jobs(seed: int, workdir: str) -> list[Job]:
    rng = random.Random(seed)
    objs = _fixture_objs()
    docs = {}
    for name in ("payne", "cube"):
        path, sha = _write(workdir, "bigdegree-%s.json" % name, objs[name])
        walls, _ = fan_combinatorics(objs[name])
        docs[name] = (path, sha, objs[name], walls)
    path, sha, _, _ = docs["payne"]
    jobs = [paper_certify_job(path, sha)]
    while len(jobs) < 1 + BIGDEGREE_JOBS:
        name = rng.choice(("payne", "cube"))
        path, sha, obj, walls = docs[name]
        wall = rng.choice(sorted(walls))
        side = rng.randrange(2)
        sigma = [tuple(obj["rays"][i]) for i in obj["maximal_cones"][walls[wall][side]]]
        d = tuple(rng.randint(-3, 3) for _ in range(3))
        if any(_dot(g, d) <= 0 for g in sigma):
            continue
        # neighbours whose dual holds m enumerate a 3-d polytope; the wall's
        # own polytope is 2-d after its lineality is split off
        neighbours = [[tuple(obj["rays"][i]) for i in obj["maximal_cones"][k]]
                      for k in walls[wall]]

        def box(m):
            return sum(degree_box(rs, m) for rs in neighbours
                       if all(_dot(g, m) >= 0 for g in rs))
        k = max(1, int((BIGDEGREE_BOX / box(d)) ** (1 / 3)))
        while box(tuple(k * x for x in d)) < BIGDEGREE_BOX:
            k += 1
        m = tuple(k * x for x in d)
        if box(m) > BIGDEGREE_BOX * BIGDEGREE_BOX_SLACK:
            continue
        jobs.append(Job("certify-%s-%d-%d" % ((name,) + wall),
                        # "--degree=-3,..." keeps a leading minus from
                        # reading as an option
                        ["certify", path, "--wall=%d,%d" % wall,
                         "--degree=" + ",".join(str(x) for x in m)],
                        _certify_check(wall, m, sha, neighbours)))
    return jobs


def paper_certify_job(path: str, sha: str) -> Job:
    """The paper's certificate: payne, wall tau, degree (1,-1,0)."""
    return Job("certify-payne-tau", ["certify", path, "--wall=4,5",
                                     "--degree=1,-1,0"],
               _certify_check((4, 5), (1, -1, 0), sha, [], paper=True))


def _certify_check(wall, m, sha, neighbours, paper=False):
    def check(stdout):
        doc, err = _parse(stdout)
        if err:
            return err
        err = check_certificate(doc, wall, m, sha)
        if err:
            return err
        if paper and (doc["valid"], doc["wall"]["dim_f"], doc["sigma1"]["dim_f"],
                      doc["sigma2"]["dim_f"]) != (1, 1, 0, 0):
            return "payne tau at (1,-1,0) must give a valid (1,0,0) certificate"
        # m is interior to the wall's dual; for each neighbour it is either
        # interior to the dual (full graded piece) or outside it (zero piece)
        if doc["wall"]["dim_tilde"] != 3:
            return "wall dim_tilde is %d, expected 3" % doc["wall"]["dim_tilde"]
        for label, rays in zip(("sigma1", "sigma2"), neighbours):
            inside = all(_dot(g, m) > 0 for g in rays)
            outside = any(_dot(g, m) < 0 for g in rays)
            want = 3 if inside else 0 if outside else None
            if want is not None and doc[label]["dim_tilde"] != want:
                return "%s dim_tilde is %d, expected %d" % (
                    label, doc[label]["dim_tilde"], want)
        return None
    return check


# ---------------------------------------------------------------------------
# facefan: dichotomy on face fans built during set-up


def hull_facets(points) -> list[tuple[tuple[int, ...], int]]:
    """Supporting planes (outer primitive normal u, offset h) of the hull of
    integer points, one per facet."""
    found = set()
    for a, b, c in combinations(points, 3):
        u0, u1, u2 = _cross(_sub(b, a), _sub(c, a))
        if u0 == u1 == u2 == 0:
            continue
        h = u0 * a[0] + u1 * a[1] + u2 * a[2]
        above = below = False
        for p in points:
            v = u0 * p[0] + u1 * p[1] + u2 * p[2]
            if v > h:
                above = True
                if below:
                    break
            elif v < h:
                below = True
                if above:
                    break
        else:
            u = _primitive((u0, u1, u2))
            if above:
                u = tuple(-x for x in u)
            found.add((u, _dot(u, a)))
    return sorted(found)


def _sphere_points(r2: int):
    r = math.isqrt(r2)
    rng = range(-r, r + 1)
    return [(x, y, z) for x in rng for y in rng for z in rng
            if x * x + y * y + z * z == r2]


def _unimodular(rng: random.Random):
    """A signed permutation times two elementary shears with entries +-1."""
    a = _signed_permutation(rng)
    for _ in range(2):
        i, j = rng.sample(range(3), 2)
        e = [list(row) for row in IDENTITY]
        e[i][j] = rng.choice((1, -1))
        a = _mat_mul(a, tuple(tuple(r) for r in e))
    return a


def _random_cloud(rng: random.Random, n: int):
    while True:
        pts = set()
        while len(pts) < n:
            p = tuple(rng.randint(-FACEFAN_BOX_R, FACEFAN_BOX_R) for _ in range(3))
            if p != (0, 0, 0):
                pts.add(p)
        pts = sorted(pts)
        rng.shuffle(pts)
        facets = hull_facets(pts)
        if len(facets) != FACEFAN_FACETS or any(h <= 0 for _, h in facets):
            continue
        # a hull vertex lies on at least three facets, an edge or facet
        # point on fewer; two vertices span an edge when they share two
        tight = [frozenset(k for k, (u, h) in enumerate(facets) if _dot(u, p) == h)
                 for p in pts]
        vertices = [t for t in tight if len(t) >= 3]
        if not FACEFAN_VERTICES[0] <= len(vertices) <= FACEFAN_VERTICES[1]:
            continue
        # a vertex on three edges sends the dichotomy to branch B, whose
        # certificate re-validates the fan; branch A (all >= 4) costs less
        edges = [sum(1 for w in vertices if w is not v and len(v & w) == 2)
                 for v in vertices]
        if min(edges) == 3:
            return pts


def _facefan_jobs(seed: int, workdir: str) -> list[Job]:
    rng = random.Random(seed)
    objs = list(_fixture_objs().items())
    for r2 in FACEFAN_SPHERES:
        a = IDENTITY if seed == 0 else _unimodular(rng)
        pts = [_mat_vec(a, p) for p in _sphere_points(r2)]
        objs.append(("sphere%d" % r2, jsonio.fan_to_obj(fans.build_face_fan(pts))))
    for n in FACEFAN_CLOUD_POINTS:
        objs.append(("cloud%d" % n,
                     jsonio.fan_to_obj(fans.build_face_fan(_random_cloud(rng, n)))))
    jobs = []
    for name, obj in objs:
        path, _ = _write(workdir, "facefan-%s.json" % name, obj)
        jobs.append(Job("dichotomy-" + name, ["dichotomy", path],
                        _dichotomy_check(obj)))
    return jobs


# the paper's fixtures take fixed branches
FIXTURE_BRANCH = {"payne": "k_group", "cube": "k_group",
                  "octahedron": "line_bundle"}


def _dichotomy_check(obj):
    walls, m_rho = fan_combinatorics(obj)
    rays = [tuple(r) for r in obj["rays"]]
    cones = obj["maximal_cones"]
    f = (len(rays), len(walls), len(cones))
    branch = "line_bundle" if min(m_rho) >= 4 else "k_group"

    def check(stdout):
        doc, err = _parse(stdout)
        if err:
            return err
        if f[0] - f[1] + f[2] != 2:
            return "input fan fails the Euler identity"
        if doc["branch"] != branch:
            return "branch %s, expected %s" % (doc["branch"], branch)
        if branch == "line_bundle":
            return _check_line_bundle(doc, rays, cones, f, min(m_rho))
        w = doc["witness"]
        ray = min(i for i, m in enumerate(m_rho) if m == 3)
        if w["ray_index"] != ray:
            return "k_group ray %d, expected %d" % (w["ray_index"], ray)
        if ray not in w["wall_rays"] or tuple(w["wall_rays"]) not in walls:
            return "k_group wall is not a wall through the ray"
        cert = w["certificate"]
        err = check_certificate(cert, w["wall_rays"],
                                [Fraction(x) for x in w["degree_new"]])
        if err:
            return err
        if (cert["valid"], cert["wall"]["dim_f"], cert["sigma1"]["dim_f"],
                cert["sigma2"]["dim_f"]) != (1, 1, 0, 0):
            return "k_group certificate is not a valid (1,0,0) certificate"
        if w["tau_smooth_after_reindex"] != 1 or w["degree_outside_neighbour_duals"] != [1, 1]:
            return "k_group witness flags are not all set"
        return None
    return check


def _check_line_bundle(doc, rays, cones, f, min_m_rho):
    count = doc["count"]
    if (count["f1"], count["f2"], count["f3"]) != f or count["min_m_rho"] != min_m_rho:
        return "count report disagrees with the fan's combinatorics"
    if (count["all_m_rho_ge_4"], count["ineq_4f1_le_2f2"],
            count["ineq_f2_gt_2f1_minus_3"]) != (1, 1, 1):
        return "count report flags are not all set"
    funcs = [tuple(Fraction(x) for x in fn) for fn in doc["witness"]["functionals"]]
    if len(funcs) != len(cones) or any(x.denominator != 1 for fn in funcs for x in fn):
        return "witness is not one integral functional per maximal cone"
    # continuous: every maximal cone through a ray gives it the same value
    values = {}
    for fn, cone in zip(funcs, cones):
        for i in cone:
            if values.setdefault(i, _dot(fn, rays[i])) != _dot(fn, rays[i]):
                return "witness is not continuous at ray %d" % i
    # nontrivial: no global functional takes these values on every ray
    basis = next(b for b in combinations(range(len(rays)), 3)
                 if _det3(*(rays[i] for i in b)) != 0)
    u = _solve3([rays[i] for i in basis], [values[i] for i in basis])
    if all(_dot(u, rays[i]) == values[i] for i in range(len(rays))):
        return "witness is globally linear"
    return None


def build_jobs(workload: str, seed: int, workdir: str) -> list[Job]:
    return {"search": _search_jobs, "bigdegree": _bigdegree_jobs,
            "facefan": _facefan_jobs}[workload](seed, workdir)
