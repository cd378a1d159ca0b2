"""Canonical JSON encoding of every wire object.

All numeric leaves are either JSON integers or exact rational strings
"p/q"; nothing is ever emitted as a float.  Writers fix the key order, so
serialization is byte-reproducible.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Sequence

from .cpl import CountReport, CPLFunction, CPLSpace
from .danilov import GradedPieceReport, H1Certificate
from .dichotomy import DichotomyResult, KGroupWitness, SublatticeRefinement
from .errors import InvalidFan, ParseError
from .fans import Fan, FanStats, ValidationReport
from .linalg import Sublattice
from .multival import ConsistencyReport, MultivaluedCPL, TrivialityReport


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def rational(x) -> int | str:
    f = Fraction(x)
    if f.denominator == 1:
        return int(f)
    return "%d/%d" % (f.numerator, f.denominator)


def rational_vec(v: Sequence) -> list:
    return [rational(x) for x in v]


def parse_rational(x) -> Fraction:
    if isinstance(x, bool):
        raise ParseError("boolean is not a rational number")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise ParseError("cannot parse rational %r" % x)
    raise ParseError("cannot parse rational %r" % (x,))


# ---------------------------------------------------------------------------
# fans


def fan_to_obj(fan: Fan) -> dict:
    return {
        "rank": fan.ambient_rank,
        "rays": [list(r) for r in fan.rays],
        "maximal_cones": [list(c) for c in fan.maximal_cone_rays],
        "labels": {k: list(v) for k, v in sorted(fan.labels.items())},
    }


def _is_index_list(v) -> bool:
    return isinstance(v, list) and all(
        isinstance(i, int) and not isinstance(i, bool) for i in v)


def fan_from_obj(obj) -> Fan:
    if not isinstance(obj, dict):
        raise ParseError("fan document must be a JSON object")
    for key in ("rank", "rays", "maximal_cones"):
        if key not in obj:
            raise ParseError("fan document is missing the %r key" % key)
    rank = obj["rank"]
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        raise ParseError("fan rank must be a positive integer")
    rays = obj["rays"]
    if (not isinstance(rays, list)
            or any(not isinstance(r, list) or len(r) != rank
                   or any(not isinstance(x, int) or isinstance(x, bool) for x in r)
                   for r in rays)):
        raise ParseError("fan rays must be integer vectors of length %d" % rank)
    cones = obj["maximal_cones"]
    if not isinstance(cones, list) or not all(map(_is_index_list, cones)):
        raise ParseError("maximal cones must be lists of ray indices")
    labels = obj.get("labels", {})
    if not isinstance(labels, dict):
        raise ParseError("labels must be an object")
    if not all(map(_is_index_list, labels.values())):
        raise ParseError("labels must be lists of ray indices")
    try:
        return Fan(rank, rays, cones, labels=labels)
    except InvalidFan as exc:
        raise ParseError("invalid fan data: %s" % exc)


def fan_hash(fan: Fan) -> str:
    return sha256_text(dumps(fan_to_obj(fan)))


# ---------------------------------------------------------------------------
# lattices


def lattice_to_obj(lat: Sublattice) -> dict:
    return {
        "rank": lat.ambient_rank,
        "basis": [rational_vec(row) for row in lat.basis],
    }


def lattice_from_obj(obj) -> Sublattice:
    if not isinstance(obj, dict) or "rank" not in obj or "basis" not in obj:
        raise ParseError("lattice document needs 'rank' and 'basis'")
    rank = obj["rank"]
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        raise ParseError("lattice rank must be a positive integer")
    basis = obj["basis"]
    if not isinstance(basis, list):
        raise ParseError("lattice basis must be a list of rows")
    rows = [[parse_rational(x) for x in row] for row in basis]
    return Sublattice.from_rows(rank, rows)


# ---------------------------------------------------------------------------
# reports


def validation_to_obj(report: ValidationReport) -> dict:
    return {
        "valid": int(report.ok),
        "violations": [dict(v) for v in report.violations],
    }


def stats_to_obj(stats: FanStats, complete: bool, euler_ok: int | None) -> dict:
    obj = {
        "f": list(stats.f),
        "m_rho": list(stats.m_rho),
        "n_sigma": list(stats.n_sigma),
        "complete": int(complete),
    }
    if euler_ok is not None:
        obj["euler_ok"] = int(euler_ok)
    return obj


def count_to_obj(report: CountReport) -> dict:
    return {
        "f1": report.f1,
        "f2": report.f2,
        "f3": report.f3,
        "min_m_rho": report.min_m_rho,
        "all_m_rho_ge_4": int(report.all_m_rho_ge_4),
        "ineq_4f1_le_2f2": int(report.ineq_4f1_le_2f2),
        "ineq_f2_gt_2f1_minus_3": int(report.ineq_f2_gt_2f1_minus_3),
    }


def cpl_function_to_obj(fn: CPLFunction) -> dict:
    obj = {"functionals": [rational_vec(f) for f in fn.functionals]}
    if fn.witness_ray is not None:
        obj["witness_ray"] = fn.witness_ray
    return obj


def cpl_space_to_obj(space: CPLSpace, nontrivial: CPLFunction | None,
                     count: CountReport | None) -> dict:
    return {
        "dim": space.dim,
        "trivial_dim": space.trivial_dim,
        "basis": [[rational_vec(f) for f in b.functionals] for b in space.basis],
        "nontrivial": cpl_function_to_obj(nontrivial) if nontrivial else None,
        "count": count_to_obj(count) if count else None,
    }


def multival_to_obj(f: MultivaluedCPL) -> dict:
    return {
        "fan": fan_to_obj(f.fan),
        "degree": f.degree,
        "multisets": [[list(u) for u in m.elements] for m in f.multisets],
    }


def graded_piece_to_obj(report: GradedPieceReport) -> dict:
    return {
        "degree": rational_vec(report.degree),
        "dim_tilde": report.dim_tilde,
        "image_rank": report.image_lattice.rank,
        "image_basis": [rational_vec(row) for row in report.image_lattice.basis],
        "dim_f": report.dim_f,
    }


def certificate_to_obj(cert: H1Certificate) -> dict:
    return {
        "fan_sha256": fan_hash(cert.fan),
        "wall_rays": list(cert.wall_rays),
        "neighbours": list(cert.neighbour_indices),
        "degree": rational_vec(cert.degree),
        "lattice": lattice_to_obj(cert.lattice),
        "wall": graded_piece_to_obj(cert.wall_report),
        "sigma1": graded_piece_to_obj(cert.neighbour_reports[0]),
        "sigma2": graded_piece_to_obj(cert.neighbour_reports[1]),
        "two_cone_intersections_ok": int(cert.two_cone_intersections_ok),
        "valid": int(cert.valid),
        "notes": cert.notes,
    }


def refinement_to_obj(ref: SublatticeRefinement) -> dict:
    return {
        "l": rational_vec(ref.l),
        "n0": list(ref.n0),
        "c1": ref.c1,
        "c2": ref.c2,
        "q": ref.q,
        "v1": list(ref.v1),
        "v2": list(ref.v2),
        "l_rescaled": rational_vec(ref.l_rescaled),
        "degree": rational_vec(ref.degree),
        "n_normalized": lattice_to_obj(ref.n_normalized),
        "m_normalized": lattice_to_obj(ref.m_normalized),
        "m_prime": lattice_to_obj(ref.m_prime),
        "n_prime": lattice_to_obj(ref.n_prime),
        "index_n_normalized": ref.index_n_normalized,
        "index_n_prime": ref.index_n_prime,
    }


def dichotomy_to_obj(result: DichotomyResult) -> dict:
    if result.branch == "line_bundle":
        return {
            "branch": "line_bundle",
            "witness": cpl_function_to_obj(result.line_bundle_witness),
            "count": count_to_obj(result.count_report),
        }
    w: KGroupWitness = result.kgroup_witness
    return {
        "branch": "k_group",
        "witness": {
            "ray_index": w.ray_index,
            "wall_rays": list(w.wall_rays),
            "other_walls": [list(x) for x in w.other_wall_rays],
            "refinement": refinement_to_obj(w.refinement),
            "reindexed_fan": fan_to_obj(w.reindexed.fan),
            "degree_new": rational_vec(w.degree_new),
            "m_prime_new": lattice_to_obj(w.m_prime_new),
            "tau_smooth_after_reindex": int(w.tau_smooth_after_reindex),
            "degree_outside_neighbour_duals": [
                int(x) for x in w.degree_outside_neighbour_duals],
            "certificate": certificate_to_obj(w.certificate),
        },
    }


def consistency_to_obj(report: ConsistencyReport) -> dict:
    return {
        "consistent": int(report.ok),
        "mismatches": [
            {
                "cones": m["cones"],
                "face_rays": [list(r) for r in m["face_rays"]],
                "restrictions": [[list(u) for u in side]
                                 for side in m["restrictions"]],
            }
            for m in report.mismatches
        ],
    }


def triviality_to_obj(report: TrivialityReport) -> dict:
    return {
        "trivial": int(report.trivial),
        "witness_cone": report.witness_cone,
        "candidate": [list(u) for u in report.candidate.elements],
    }
