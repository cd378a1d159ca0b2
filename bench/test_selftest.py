"""Self-test of the benchmark: the traced path's work counts repeat exactly,
the tracer leaves the package as it found it, the output gate rejects a
wrong answer, and BENCHMARK.json lists the metrics the benchmark emits.

    python3 -m pytest bench/test_selftest.py
"""

import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

import conewise.cones  # noqa: E402

COUNTS = ("linalg.hermite_normal_form.calls",
          "cones.halfspaces_to_rays.subsets_tried",
          "danilov.f_dim.calls", "danilov.f_dim.distinct",
          "danilov.points_enumerated")


def _payne_jobs(workdir):
    obj = workloads.jsonio.fan_to_obj(workloads.fans.build_payne_fan())
    path, sha = workloads._write(str(workdir), "payne.json", obj)
    expected = workloads.SEARCH_WITNESSES["payne"]
    return [workloads.paper_certify_job(path, sha),
            workloads.Job("search-payne-r1", ["search", path, "--radius", "1"],
                          workloads.search_check(expected, sha, 1))]


def _traced(jobs):
    tracer = Tracer()
    tracer.install()
    try:
        for job in jobs:
            tracer.begin_job()
            code, stdout = run._inprocess(job)
            assert code == 0 and job.check(stdout) is None, job.name
    finally:
        tracer.uninstall()
    return tracer


def test_counts_repeat_exactly(tmp_path):
    jobs = _payne_jobs(tmp_path)
    first, second = _traced(jobs), _traced(jobs)
    a = metrics.per_layer(first.per_function(), first.counts, {})
    b = metrics.per_layer(second.per_function(), second.counts, {})
    assert all(a[name] > 0 for name in COUNTS)
    assert {n: a[n] for n in COUNTS} == {n: b[n] for n in COUNTS}
    # every count and ratio, not only the named ones
    assert ({n: a[n] for n, (u, _) in metrics.PER_LAYER.items() if u != "s"}
            == {n: b[n] for n, (u, _) in metrics.PER_LAYER.items() if u != "s"})


def test_self_times_add_up_to_top_level_spans(tmp_path):
    tracer = _traced(_payne_jobs(tmp_path))
    total_self = sum(s for _, s in tracer.per_function().values())
    assert abs(total_self - tracer.root_seconds()) < 1e-6


def test_uninstall_restores_the_package(tmp_path):
    before = conewise.cones._halfspaces_to_rays
    from_generators = conewise.cones.Cone.__dict__["from_generators"]
    _traced(_payne_jobs(tmp_path))
    assert conewise.cones._halfspaces_to_rays is before
    assert conewise.cones.Cone.__dict__["from_generators"] is from_generators


def test_gate_rejects_a_wrong_certificate(tmp_path):
    job = _payne_jobs(tmp_path)[0]
    code, stdout = run._inprocess(job)
    doc = json.loads(stdout)
    assert code == 0 and job.check(stdout) is None
    doc["sigma1"]["dim_f"] = 1
    assert job.check(json.dumps(doc)) is not None


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert e2e == metrics.END_TO_END
    assert layers == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
