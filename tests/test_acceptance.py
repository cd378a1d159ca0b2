"""Acceptance suite.

One test per acceptance criterion; all arithmetic is exact so every
comparison is plain equality.  Each test prints a single pass/fail line
(visible with ``pytest -s``).
"""

import functools
import io
import json
import random
import time
from contextlib import redirect_stdout

import pytest

from conewise.cli import main
from conewise.cones import Cone, dual_cone
from conewise.cpl import cpl_space, counting_certificate, nontrivial_cpl
from conewise.danilov import f_dim, h1_wall_certificate, lattice_points_in_box
from conewise.dichotomy import run_dichotomy
from conewise.fans import euler_check, stats
from conewise.linalg import (
    Sublattice,
    dot,
    hermite_normal_form,
    mat_mul,
    smith_normal_form,
    span_lattice,
)
from conewise.multival import check_consistency, construct_nontrivial, triviality
from helpers import (
    apply_unimodular,
    fraction_det,
    is_canonical_row_hnf,
    random_int_matrix,
    random_unimodular,
)
from test_danilov import run_span_oracle_trials

Z3 = Sublattice.standard(3)


def reports(number, slug):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print("ACCEPTANCE %d (%s): FAIL" % (number, slug))
                raise
            print("ACCEPTANCE %d (%s): PASS%s"
                  % (number, slug, " -- %s" % detail if detail else ""))
        return run
    return wrap


def run_cli(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@reports(1, "payne-certificate")
def test_criterion_1_payne_certificate_reproduction(tmp_path):
    t0 = time.perf_counter()
    code, fan_text = run_cli(["builders", "payne"])
    assert code == 0
    fan_path = tmp_path / "payne.json"
    fan_path.write_text(fan_text)
    code, out = run_cli(["certify", str(fan_path),
                         "--wall", "(1,-1,-1),(1,-1,2)",
                         "--degree", "1,-1,0"])
    elapsed = time.perf_counter() - t0
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] == 1
    assert doc["wall"]["dim_f"] == 1
    assert doc["wall"]["dim_tilde"] == 3
    assert doc["sigma1"]["dim_f"] == 0
    assert doc["sigma2"]["dim_f"] == 0
    assert elapsed < 1.0
    return "dim_f = (1, 0, 0), %.2fs" % elapsed


@reports(2, "dual-cone-fixture")
def test_criterion_2_dual_cone_fixture():
    tau = Cone.from_generators([(1, -1, -1), (1, -1, 2)])
    expected = Cone.from_generators(
        [(0, -1, 1), (0, -2, -1), (1, 1, 0), (-1, -1, 0)])
    dual = dual_cone(tau)
    assert dual == expected
    assert set(dual.rays) == {(0, -1, 1), (0, -2, -1)}
    assert dual.lineality == ((1, 1, 0),)
    return "canonical forms equal"


@reports(3, "multivalued-constructor")
def test_criterion_3_theorem_constructor(cube_fan, octahedron_fan, payne_fan):
    details = []
    for name, fan in (("cube", cube_fan), ("octahedron", octahedron_fan),
                      ("payne", payne_fan)):
        t0 = time.perf_counter()
        f = construct_nontrivial(fan)
        consistency = check_consistency(f)
        trivial = triviality(f)
        elapsed = time.perf_counter() - t0
        assert consistency.ok and not consistency.mismatches
        assert not trivial.trivial and trivial.witness_cone is not None
        counts = {}
        for m in f.multisets:
            counts[m] = counts.get(m, 0) + 1
        sigma = next(i for i in range(len(f.multisets))
                     if counts[f.multisets[i]] == 1)
        k = len(fan.maximal_cones[sigma].facets())
        assert f.degree == 2 ** (k - 1)
        a1 = f.multisets[sigma]
        a2 = next(m for m in f.multisets if m != a1)
        zero = (0,) * fan.ambient_rank
        assert zero in a2 and zero not in a1
        assert elapsed < 1.0
        details.append("%s deg %d in %.2fs" % (name, f.degree, elapsed))
    return "; ".join(details)


@reports(4, "counting-lemma")
def test_criterion_4_counting_lemma(cube_fan, octahedron_fan, payne_fan):
    st = stats(octahedron_fan)
    assert st.f == (6, 12, 8)
    assert st.m_rho == (4,) * 6
    rep = counting_certificate(octahedron_fan)
    assert rep.ineq_4f1_le_2f2 and rep.ineq_f2_gt_2f1_minus_3
    space = cpl_space(octahedron_fan)
    assert space.dim == 6 > 3
    fn = nontrivial_cpl(octahedron_fan)
    assert fn is not None and fn.is_integral()
    for fan in (cube_fan, octahedron_fan, payne_fan):
        assert euler_check(fan)
    return "octahedron f=(6,12,8), cpl dim 6; Euler identity on all fixtures"


@reports(5, "dichotomy")
def test_criterion_5_dichotomy(cube_fan, octahedron_fan, payne_fan):
    t0 = time.perf_counter()
    result = run_dichotomy(octahedron_fan)
    t_octa = time.perf_counter() - t0
    assert result.branch == "line_bundle"
    assert result.line_bundle_witness is not None
    assert t_octa < 5.0
    details = ["octahedron A %.2fs" % t_octa]
    for name, fan in (("cube", cube_fan), ("payne", payne_fan)):
        t0 = time.perf_counter()
        result = run_dichotomy(fan)
        elapsed = time.perf_counter() - t0
        assert result.branch == "k_group"
        w = result.kgroup_witness
        ref = w.refinement
        assert w.tau_smooth_after_reindex
        assert dot(ref.l_rescaled, ref.v1) == 1
        assert dot(ref.l_rescaled, ref.v2) == 1
        assert ref.m_prime.contains(ref.degree)
        assert w.certificate.valid
        assert w.certificate.wall_report.dim_f == 1
        assert all(r.dim_f == 0 for r in w.certificate.neighbour_reports)
        assert all(w.degree_outside_neighbour_duals)
        assert elapsed < 5.0
        details.append("%s B %.2fs" % (name, elapsed))
    return "; ".join(details)


@reports(6, "oracle-equivalence")
def test_criterion_6_oracle_equivalence():
    pytest.importorskip("numpy")
    rng = random.Random(83)
    done = run_span_oracle_trials(200, rng)
    assert done >= 200
    cones = [Cone.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
             Cone.from_generators([(1, 0, 0), (0, 1, 0)]),
             Cone.from_generators([(1, 2, 3)])]
    for _ in range(2):
        cones.append(Cone.from_generators(random_unimodular(rng, 3, ops=3,
                                                            qmax=1)))
    checked = 0
    for cone in cones:
        assert cone.is_smooth()
        dual = cone.dual()
        for m in lattice_points_in_box(Z3, 4):
            if dual.contains(m):
                assert f_dim(cone, m, Z3).dim_f == 0
                checked += 1
    return "200 span oracles, %d smooth-vanishing degrees" % checked


@reports(7, "property-suite")
def test_criterion_7_property_suite(payne_fan):
    rng = random.Random(89)
    # dual-cone involution
    done = 0
    while done < 100:
        n = rng.randint(2, 3)
        gens = [tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(rng.randint(1, 6))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        c = Cone.from_generators(gens, n)
        assert dual_cone(dual_cone(c)) == c
        done += 1
    # HNF / SNF contracts
    for _ in range(100):
        a = random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        h, u = hermite_normal_form(a)
        assert h == mat_mul(u, a)
        assert abs(fraction_det(u)) == 1
        assert is_canonical_row_hnf(h)
        d, us, vs = smith_normal_form(a)
        assert d == mat_mul(mat_mul(us, a), vs)
        assert abs(fraction_det(us)) == 1
        assert abs(fraction_det(vs)) == 1
        diag = [d[i][i] for i in range(min(len(a), len(a[0])))]
        for x, y in zip(diag, diag[1:]):
            assert (x == 0 and y == 0) or (x != 0 and y % x == 0)
    # dual lattice involution
    done = 0
    while done < 100:
        n = rng.randint(1, 3)
        rows = random_int_matrix(rng, n, n, -10, 10)
        if fraction_det(rows) == 0:
            continue
        lat = Sublattice.from_rows(n, rows)
        assert lat.dual().dual() == lat
        done += 1
    # saturation idempotence
    for _ in range(100):
        n = rng.randint(1, 4)
        lat = span_lattice(random_int_matrix(rng, rng.randint(1, n), n, -6, 6), n)
        sat = lat.saturation()
        assert sat.saturation() == sat
        assert sat.contains_lattice(lat)
    # certificate invariance under unimodular reindexing
    m = (1, -1, 0)
    for _ in range(100):
        u = random_unimodular(rng, 3, ops=3, qmax=1)
        fan2, degree_map = apply_unimodular(payne_fan, u)
        cert = h1_wall_certificate(fan2, payne_fan.labels["tau"],
                                   degree_map(m), Z3)
        assert cert.valid and cert.wall_report.dim_f == 1
    return "5 properties x 100 randomized instances"


@reports(8, "cli-determinism")
def test_criterion_8_cli_determinism(tmp_path):
    fan_paths = {}
    for name in ("cube", "octahedron", "payne"):
        code, out = run_cli(["builders", name])
        assert code == 0
        path = tmp_path / ("%s.json" % name)
        path.write_text(out)
        fan_paths[name] = str(path)
    jobs = [["builders", name] for name in fan_paths]
    for name, path in fan_paths.items():
        for cmd in (["validate"], ["stats"], ["cpl"], ["multival"],
                    ["dichotomy"]):
            jobs.append(cmd + [path])
        wall = "4,5" if name == "payne" else "0,1"
        jobs.append(["certify", path, "--wall", wall, "--degree", "1,-1,0"])
        jobs.append(["fdim", path, "--cone", wall, "--degree", "1,-1,0"])
        jobs.append(["search", path, "--radius", "1"])
    for argv in jobs:
        code1, out1 = run_cli(argv)
        code2, out2 = run_cli(argv)
        assert (code1, out1) == (code2, out2), argv
    return "%d commands byte-identical across repeated runs" % len(jobs)
