"""Names, units and derivations of every metric the benchmark reports.

``END_TO_END`` and ``PER_LAYER`` must match the lists in BENCHMARK.json
(the self-test checks this).  ``E2E_REPORTED`` and ``LAYER_REPORTED`` are
printed and saved with each run but are not in BENCHMARK.json: the tail's
percentile moves with the run's job count, fail_frac reads 0 on every healthy
run, and the cpl and dichotomy times read exactly 0 on the workloads that
never enter those layers.
"""

from __future__ import annotations

import statistics

from tracing import LAYERS

# name -> (unit, better)
END_TO_END = {
    "job_p50_s": ("s", "lower"),
    "jobs_per_s": ("1/s", "higher"),
    "job_cpu_p50_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

_COUNTS = [
    "linalg.hermite_normal_form.calls", "linalg.smith_normal_form.calls",
    "linalg.right_kernel.calls", "linalg.Sublattice.from_rows.calls",
    "cones.halfspaces_to_rays.calls", "cones.halfspaces_to_rays.subsets_tried",
    "cones.Cone.from_generators.calls", "cones.intersect.calls",
    "cones.Cone.faces.calls",
    "fans.Fan.init.calls", "fans.validate.pairs",
    "fans.maximal_cones_containing.calls", "fans.find_cone_by_rays.calls",
    "fans.cones_of_dim.calls", "fans.build_face_fan.subsets",
    "fans.reindex_lattice.calls",
    "danilov.f_dim.calls", "danilov.f_dim.distinct",
    "danilov.lattice_points_span.calls", "danilov.v_description.computed",
    "danilov.enumerations", "danilov.points_enumerated",
    "danilov.grid_points_visited", "danilov.h1_wall_certificate.calls",
    "cpl.cpl_space.calls", "cpl.wall_constraint_rows", "cpl.nontrivial_cpl.calls",
    "dichotomy.box_points",
]
_RATIOS = {
    # name -> (numerator, denominator, better)
    "danilov.f_dim.distinct_ratio":
        ("danilov.f_dim.distinct", "danilov.f_dim.calls", "higher"),
    "danilov.enumerations_per_span":
        ("danilov.enumerations", "danilov.lattice_points_span.calls", "lower"),
    "danilov.points_kept_ratio":
        ("danilov.points_enumerated", "danilov.grid_points_visited", "higher"),
    "danilov.valid_ratio":
        ("danilov.h1_wall_certificate.valid", "danilov.h1_wall_certificate.calls",
         "higher"),
}
_BRANCHES = ["dichotomy.branch_k_group", "dichotomy.branch_line_bundle"]
_TIMES = [
    "linalg.hermite_normal_form.self_s", "linalg.right_kernel.self_s",
    "linalg.self_s",
    "cones.halfspaces_to_rays.self_s", "cones.self_s",
    "fans.Fan.init.self_s", "fans.validate.self_s", "fans.is_complete.self_s",
    "fans.build_face_fan.self_s", "fans.self_s",
    "danilov.lattice_points_span.self_s", "danilov.self_s",
    "jsonio.fan_from_obj.self_s", "jsonio.dumps.self_s", "jsonio.self_s",
    "cli.main.self_s", "cli.self_s", "cli.import_s",
    "trace.overhead_s", "trace.unattributed_s",
]

PER_LAYER = {}
PER_LAYER.update({n: ("count", "lower") for n in _COUNTS})
PER_LAYER.update({n: ("ratio", spec[2]) for n, spec in _RATIOS.items()})
# branch tallies classify the jobs; more of either is not better or worse,
# "higher" only satisfies the schema
PER_LAYER.update({n: ("count", "higher") for n in _BRANCHES})
PER_LAYER.update({n: ("s", "lower") for n in _TIMES})

# printed and saved with each run, not in BENCHMARK.json (see the module
# docstring)
E2E_REPORTED = {
    "job_tail_s": ("s", "lower"),
    "fail_frac": ("ratio", "lower"),
}
LAYER_REPORTED = {
    "cpl.cpl_space.self_s": ("s", "lower"),
    "cpl.rational_nullspace.self_s": ("s", "lower"),
    "cpl.self_s": ("s", "lower"),
    "dichotomy.run_dichotomy.self_s": ("s", "lower"),
    "dichotomy.build_sublattice.self_s": ("s", "lower"),
    "dichotomy.self_s": ("s", "lower"),
    "trace.traced_s": ("s", "lower"),
    "trace.untraced_s": ("s", "lower"),
    "trace.setup_s": ("s", "lower"),
}

# which end-to-end metric each group of layer metrics should move, and on
# which workloads; recorded with every baseline
LAYER_MAP = {
    "linalg": ("job_p50_s", ["search", "facefan"]),
    "cones": ("job_p50_s, setup_s", ["facefan", "search"]),
    "fans": ("job_p50_s, setup_s", ["facefan", "search (lookup counts)"]),
    "danilov per-polyhedron counts": ("job_p50_s", ["search"]),
    "danilov enumeration counts": ("job_p50_s", ["bigdegree"]),
    "cpl": ("job_p50_s", ["facefan (branch-A jobs)"]),
    "dichotomy": ("job_p50_s", ["facefan"]),
    "jsonio, cli": ("job_p50_s floor", ["facefan fixture jobs", "all"]),
}

# a metric name in the trace maps to the wrapped function name
_FUNCTION_ALIASES = {
    "cones.halfspaces_to_rays": "cones._halfspaces_to_rays",
    "fans.Fan.init": "fans.Fan.__init__",
    "fans.maximal_cones_containing": "fans.Fan.maximal_cones_containing",
    "fans.find_cone_by_rays": "fans.Fan.find_cone_by_rays",
    "fans.cones_of_dim": "fans.Fan.cones_of_dim",
    "cpl.rational_nullspace": "cpl._rational_nullspace",
}


def end_to_end(records, elapsed: float, setup_times):
    """Metrics of one closed-loop run.  ``records`` hold per-job wall, cpu,
    maxrss (KiB) and ok.  The tail is the highest percentile with at least
    ten jobs beyond it, so the loop always runs at least eleven jobs."""
    walls = sorted(r["wall_s"] for r in records)
    n = len(walls)
    rank = n - 10
    ok = sum(1 for r in records if r["ok"])
    return {
        "job_p50_s": (statistics.median(walls), n),
        "job_tail_s": (walls[rank - 1], n, 100.0 * rank / n),
        "jobs_per_s": (ok / elapsed, n),
        "job_cpu_p50_s": (statistics.median(r["cpu_s"] for r in records), n),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in records) / 1024.0, n),
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "fail_frac": ((n - ok) / n, n),
    }


def per_layer(functions, counts, extra):
    """Layer metrics of one traced run.  ``functions`` maps a wrapped name
    to (calls, self seconds), ``counts`` holds hook counters, ``extra`` the
    trace.* and cli.import_s timings."""
    out = {}

    def fn(name):
        return functions.get(_FUNCTION_ALIASES.get(name, name), (0, 0.0))

    for layer in LAYERS:
        out[layer + ".self_s"] = sum(s for n, (_, s) in functions.items()
                                     if n.split(".", 1)[0] == layer)
    out.update(extra)
    for name in list(PER_LAYER) + list(LAYER_REPORTED):
        if name in out:
            continue
        if name in _RATIOS:
            num, den, _ = _RATIOS[name]
            a, b = _count(num, counts, fn), _count(den, counts, fn)
            out[name] = a / b if b else 0.0
        elif name.endswith(".self_s"):
            out[name] = fn(name[:-len(".self_s")])[1]
        else:
            out[name] = _count(name, counts, fn)
    return out


def _count(name, counts, fn):
    if name.endswith(".calls"):
        return fn(name[:-len(".calls")])[0]
    return counts.get(name, 0)
