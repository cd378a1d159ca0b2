"""Span tracing of the conewise layers from outside the package.

``Tracer.install()`` replaces selected functions and methods of the loaded
``conewise`` modules with wrappers that record one span per call: name,
start, end and the enclosing span.  A module-level function is replaced at
every module binding of it (``is_complete`` is imported into five modules),
a method on its class.  Spans and counters stay in memory; ``uninstall()``
restores the originals.  Nothing under ``src/`` is modified.

Counters come from the wrapped calls' arguments and return values, so they
are exact and repeat from run to run; only times vary.  A target missing
from the package (renamed or deleted by a later change) is skipped and its
counters read 0.
"""

from __future__ import annotations

import gzip
import json
import sys
from fractions import Fraction
from math import ceil, comb, floor
from time import perf_counter

# functions and methods wrapped per layer (module of definition)
TARGETS = {
    "linalg": ["hermite_normal_form", "smith_normal_form", "left_kernel",
               "right_kernel", "quotient_chart", "span_lattice",
               "invert_fraction_matrix", "fraction_det", "invert_unimodular",
               "Sublattice.from_rows", "Sublattice.intersect_span",
               "Sublattice.annihilator", "Sublattice.dual", "Sublattice.index_in"],
    "cones": ["_halfspaces_to_rays", "Cone.from_generators",
              "Cone.from_inequalities", "intersect", "Cone.faces",
              "Cone.smallest_face_containing", "Cone.is_face_of", "Cone.span",
              "Cone.is_smooth"],
    "fans": ["Fan.__init__", "validate", "is_complete", "stats",
             "Fan.maximal_cones_containing", "Fan.find_cone_by_rays",
             "Fan.cones_of_dim", "build_face_fan", "build_payne_fan",
             "build_cube_fan", "build_octahedron_fan", "reindex_lattice",
             "euler_check"],
    "danilov": ["Polyhedron.v_description", "cone_shifted_reflection",
                "lattice_points_span", "_span_with_lineality_collapsed",
                "_span_of_scaled_points", "_lattice_points_grid", "_axis_bounds",
                "f_dim", "tilde_omega_dim", "image_lattice",
                "h1_wall_certificate", "_two_cone_intersections_small",
                "find_h1_witness", "lattice_points_in_box"],
    "cpl": ["cpl_space", "_wall_constraints", "_rational_nullspace",
            "nontrivial_cpl", "counting_certificate", "_solve_global"],
    "dichotomy": ["run_dichotomy", "choose_l", "build_sublattice",
                  "classify_rays"],
    "jsonio": ["fan_from_obj", "fan_to_obj", "dumps", "fan_hash",
               "lattice_from_obj", "certificate_to_obj", "dichotomy_to_obj"],
    "cli": ["main", "build_parser", "_load_fan", "_load_lattice",
            "_parse_wall", "_parse_degree"],
}
LAYERS = tuple(TARGETS)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name_id, start, end, parent index]
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._undo: list[tuple] = []
        self._seen: dict[str, set] = {}
        self._keep: list = []
        self._bounds = None

    # -- counters ------------------------------------------------------------

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def begin_job(self) -> None:
        """Per-job scope for first-call and distinct-argument counters, as
        each CLI job is its own process."""
        self._seen = {}
        self._keep = []

    def first_time(self, kind: str, key) -> bool:
        seen = self._seen.setdefault(kind, set())
        if key in seen:
            return False
        seen.add(key)
        return True

    def first_call_on(self, kind: str, obj) -> bool:
        self._keep.append(obj)  # keeps id(obj) unique within the job
        return self.first_time(kind, id(obj))

    def parent_layer(self) -> str | None:
        if not self._stack:
            return None
        return self.names[self.spans[self._stack[-1]][0]].split(".", 1)[0]

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, name: str, fn, pre=None, post=None):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(self, args)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if post is not None:
                post(self, args, result)
            return result

        return wrapper

    def install(self) -> None:
        import conewise.cli  # noqa: F401  (loads every layer)

        modules = [m for k, m in sys.modules.items()
                   if k == "conewise" or k.startswith("conewise.")]
        for layer, quals in TARGETS.items():
            mod = sys.modules["conewise." + layer]
            for qual in quals:
                pre, post = HOOKS.get(layer + "." + qual, (None, None))
                name = layer + "." + qual
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(mod, cls_name, None)
                    raw = cls.__dict__.get(attr) if cls is not None else None
                    if raw is None:
                        continue
                    if isinstance(raw, staticmethod):
                        new = staticmethod(self._wrap(name, raw.__func__, pre, post))
                    else:
                        new = self._wrap(name, raw, pre, post)
                    setattr(cls, attr, new)
                    self._undo.append((cls, attr, raw))
                    continue
                fn = getattr(mod, qual, None)
                if fn is None:
                    continue
                new = self._wrap(name, fn, pre, post)
                for m in modules:
                    for key in [k for k, v in vars(m).items() if v is fn]:
                        setattr(m, key, new)
                        self._undo.append((m, key, fn))

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo = []

    # -- results ---------------------------------------------------------------

    def per_function(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds).  Self time is a span's duration
        minus the durations of its direct children, which nest inside it."""
        self_s = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                self_s[s[3]] -= s[2] - s[1]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        for s, t in zip(self.spans, self_s):
            calls[s[0]] += 1
            total[s[0]] += t
        return {n: (calls[i], total[i]) for i, n in enumerate(self.names)}

    def root_seconds(self, first: int = 0) -> float:
        """Summed duration of the top-level spans from index ``first`` on."""
        return sum(s[2] - s[1] for s in self.spans[first:] if s[3] < 0)

    def write_spans(self, path: str) -> None:
        """One JSON line of span names, then one [name, start_us, end_us,
        parent] line per span, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(self.names) + "\n")
            for s in self.spans:
                fh.write("[%d,%d,%d,%d]\n" % (s[0], round((s[1] - t0) * 1e6),
                                             round((s[2] - t0) * 1e6), s[3]))


# ---------------------------------------------------------------------------
# counter hooks: pre(tracer, args) runs before the call, post(tracer, args,
# result) after it; neither calls into the package


def _halfspaces_post(tr, args, result):
    rows, n = args[0], args[1]
    nonzero = sum(1 for r in rows if any(x != 0 for x in r))
    k0 = n - len(result[0]) - 1
    if k0 >= 0:
        tr.add("cones.halfspaces_to_rays.subsets_tried", comb(nonzero, k0))


def _axis_bounds_post(tr, args, result):
    tr._bounds = result


def _grid_pre(tr, args):
    tr._bounds = None


def _grid_post(tr, args, result):
    tr.add("danilov.enumerations")
    tr.add("danilov.points_enumerated", len(result))
    if tr._bounds is not None:
        den = args[1].den
        grid = 1
        for lo, hi in tr._bounds:
            grid *= max(0, floor(hi * den) - ceil(lo * den) + 1)
        tr.add("danilov.grid_points_visited", grid)


def _f_dim_pre(tr, args):
    key = (args[0], tuple(Fraction(x) for x in args[1]), args[2])
    if tr.first_time("f_dim", key):
        tr.add("danilov.f_dim.distinct")


def _v_description_pre(tr, args):
    if tr.first_call_on("v_description", args[0]):
        tr.add("danilov.v_description.computed")


def _certificate_post(tr, args, result):
    tr.add("danilov.h1_wall_certificate.valid", int(result.valid))


def _box_post(tr, args, result):
    if tr.parent_layer() == "dichotomy":
        tr.add("dichotomy.box_points", len(result))


def _validate_pre(tr, args):
    fan = args[0]
    if tr.first_call_on("validate", fan):
        tr.add("fans.validate.pairs", comb(len(fan.maximal_cones), 2))


def _face_fan_pre(tr, args):
    pts = list(args[0])
    if pts:
        tr.add("fans.build_face_fan.subsets", comb(len(pts), len(pts[0])))


def _wall_constraints_post(tr, args, result):
    tr.add("cpl.wall_constraint_rows", len(result))


def _dichotomy_post(tr, args, result):
    tr.add("dichotomy.branch_" + result.branch)


HOOKS = {
    "cones._halfspaces_to_rays": (None, _halfspaces_post),
    "danilov._axis_bounds": (None, _axis_bounds_post),
    "danilov._lattice_points_grid": (_grid_pre, _grid_post),
    "danilov.f_dim": (_f_dim_pre, None),
    "danilov.Polyhedron.v_description": (_v_description_pre, None),
    "danilov.h1_wall_certificate": (None, _certificate_post),
    "danilov.lattice_points_in_box": (None, _box_post),
    "fans.validate": (_validate_pre, None),
    "fans.build_face_fan": (_face_fan_pre, None),
    "cpl._wall_constraints": (None, _wall_constraints_post),
    "dichotomy.run_dichotomy": (None, _dichotomy_post),
}
