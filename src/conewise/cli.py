"""Command-line interface.

Every subcommand reads a fan document (path or "-" for stdin), writes one
canonical JSON document to stdout or to the ``-o`` target, and exits 0 on
success, 1 on invalid input, 2 when a bounded search is exhausted, and 3 on
an internal contradiction.  Writing to a file also drops a
``<output>.manifest.json`` sidecar recording the run.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
import time

from . import __version__
from . import jsonio
from .cpl import cpl_space, counting_certificate
from .danilov import f_dim, find_h1_witness, h1_wall_certificate
from .dichotomy import run_dichotomy
from .errors import (
    CertificateInvalid,
    ConewiseError,
    NotAWall,
    ParseError,
    SearchExhausted,
)
from .fans import (
    Fan,
    build_cube_fan,
    build_octahedron_fan,
    build_payne_fan,
    euler_check,
    is_complete,
    stats,
    validate,
)
from .linalg import Sublattice, is_zero_vec, primitive_vector


def _read_input(path: str) -> tuple[str, str | None]:
    if path == "-":
        return sys.stdin.read(), None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read(), path
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))


def _load_fan(args) -> Fan:
    """The fan named by ``args.fan``; its text is kept for the manifest."""
    text, _ = _read_input(args.fan)
    args._input = text
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("malformed JSON at line %d column %d: %s"
                         % (exc.lineno, exc.colno, exc.msg))
    return jsonio.fan_from_obj(obj)


def _load_lattice(path: str | None, rank: int) -> Sublattice:
    if path is None:
        return Sublattice.standard(rank)
    text, _ = _read_input(path)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("malformed lattice JSON: %s" % exc.msg)
    lattice = jsonio.lattice_from_obj(obj)
    if lattice.ambient_rank != rank or lattice.rank != rank:
        raise ParseError("lattice has rank %d in ambient rank %d; the fan needs "
                         "a full-rank lattice of rank %d"
                         % (lattice.rank, lattice.ambient_rank, rank))
    return lattice


def _parse_degree(text: str, rank: int):
    try:
        degree = tuple(jsonio.parse_rational(part.strip())
                       for part in text.split(","))
    except ParseError:
        raise ParseError("cannot parse degree %r; expected a,b,c with integer "
                         "or p/q entries" % text)
    if len(degree) != rank:
        raise ParseError("degree %r has %d entries; the fan has rank %d"
                         % (text, len(degree), rank))
    return degree


def _radius(args) -> int:
    if args.radius < 0:
        raise ParseError("--radius must be nonnegative, got %d" % args.radius)
    return args.radius


def _is_vector(v) -> bool:
    return (isinstance(v, (tuple, list)) and bool(v)
            and all(isinstance(x, (int, float)) for x in v))


def _distinct(idx: list[int], text: str) -> tuple[int, ...]:
    """The ray indices sorted, refusing one named twice."""
    idx = sorted(idx)
    for a, b in zip(idx, idx[1:]):
        if a == b:
            raise ParseError("%r names ray %d more than once" % (text, a))
    return tuple(idx)


def _parse_wall(text: str, fan: Fan):
    """Ray indices like "4,5" or coordinate tuples like "(1,-1,-1),(1,-1,2)",
    each ray named once."""
    text = text.strip()
    if "(" in text:
        try:
            parsed = ast.literal_eval(text)
        except (ValueError, SyntaxError):
            parsed = None
        if _is_vector(parsed):
            parsed = (parsed,)
        if not (isinstance(parsed, (tuple, list)) and parsed and all(map(_is_vector, parsed))):
            raise ParseError("cannot parse wall coordinates %r" % text)
        idx = []
        for vec in parsed:
            if is_zero_vec(vec):
                raise ParseError("wall coordinates %r hold the zero vector" % text)
            key = primitive_vector(vec)
            if key not in fan.ray_index:
                raise NotAWall("no fan ray in direction %s" % (vec,))
            idx.append(fan.ray_index[key])
        return _distinct(idx, text)
    try:
        idx = [int(p) for p in text.split(",")]
    except ValueError:
        raise ParseError("cannot parse wall %r" % text)
    return _distinct(idx, text)


def _resolve_cone_arg(text: str, fan: Fan):
    if text in fan.labels:
        return fan.labels[text]
    return _parse_wall(text, fan)


def _emit(doc: dict, args, command: str, input_text: str | None) -> None:
    rendered = jsonio.dumps(doc)
    out_path = getattr(args, "output", None)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(rendered)
        manifest = {
            "tool": "conewise %s" % __version__,
            "command": command,
            "parameters": {k: v for k, v in sorted(vars(args).items())
                           if k not in ("func", "command") and v is not None},
            "input_sha256": (jsonio.sha256_text(input_text)
                             if input_text is not None else None),
            "output": out_path,
            "output_sha256": jsonio.sha256_text(rendered),
            "wall_time_ms": int((time.monotonic() - args._t0) * 1000),
        }
        with open(out_path + ".manifest.json", "w", encoding="utf-8") as fh:
            fh.write(jsonio.dumps(manifest))
    else:
        sys.stdout.write(rendered)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> dict:
    fan = _load_fan(args)
    return jsonio.validation_to_obj(validate(fan))


def _cmd_stats(args) -> dict:
    fan = _load_fan(args)
    st = stats(fan)
    complete = is_complete(fan)
    euler = None
    if complete and fan.ambient_rank == 3:
        euler = euler_check(fan)
    return jsonio.stats_to_obj(st, complete, euler)


_BUILDERS = {
    "cube": build_cube_fan,
    "octahedron": build_octahedron_fan,
    "payne": build_payne_fan,
}


def _cmd_builders(args) -> dict:
    return jsonio.fan_to_obj(_BUILDERS[args.name]())


def _cmd_cpl(args) -> dict:
    fan = _load_fan(args)
    space = cpl_space(fan)
    fn = space.nontrivial()
    count = None
    if fan.ambient_rank == 3 and is_complete(fan):
        count = counting_certificate(fan)
    return jsonio.cpl_space_to_obj(space, fn, count)


def _cmd_multival(args) -> dict:
    from .multival import check_consistency, construct_nontrivial, triviality

    fan = _load_fan(args)
    f = construct_nontrivial(fan, sigma_index=args.sigma)
    doc = jsonio.multival_to_obj(f)
    consistency = check_consistency(f)
    trivial = triviality(f)
    doc["consistency"] = jsonio.consistency_to_obj(consistency)
    doc["triviality"] = jsonio.triviality_to_obj(trivial)
    return doc


def _cmd_fdim(args) -> dict:
    fan = _load_fan(args)
    lattice = _load_lattice(args.lattice, fan.ambient_rank)
    degree = _parse_degree(args.degree, fan.ambient_rank)
    rays = _resolve_cone_arg(args.cone, fan)
    fc = fan.find_cone_by_rays(rays)
    if fc is None:
        raise NotAWall("no fan cone with ray indices %s" % (rays,))
    report = f_dim(fc.cone, degree, lattice)
    doc = jsonio.graded_piece_to_obj(report)
    return {"cone_rays": list(rays), **doc}


def _cmd_certify(args) -> dict:
    fan = _load_fan(args)
    lattice = _load_lattice(args.lattice, fan.ambient_rank)
    degree = _parse_degree(args.degree, fan.ambient_rank)
    wall = _parse_wall(args.wall, fan)
    cert = h1_wall_certificate(fan, wall, degree, lattice)
    return jsonio.certificate_to_obj(cert)


def _cmd_search(args) -> dict:
    fan = _load_fan(args)
    lattice = _load_lattice(args.lattice, fan.ambient_rank)
    certs = find_h1_witness(fan, lattice, search_radius=_radius(args))
    return {
        "fan_sha256": jsonio.fan_hash(fan),
        "radius": args.radius,
        "count": len(certs),
        "certificates": [jsonio.certificate_to_obj(c) for c in certs],
    }


def _cmd_dichotomy(args) -> dict:
    fan = _load_fan(args)
    result = run_dichotomy(fan, search_radius=_radius(args))
    return jsonio.dichotomy_to_obj(result)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conewise",
        description="Exact fan computations: conewise linear data, graded "
                    "cokernel ranks, wall certificates, and the complete "
                    "3-fold dichotomy.")
    parser.add_argument("--version", action="version",
                        version="conewise %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=fn)
        p.add_argument("-o", "--output", help="write the JSON document here "
                       "instead of stdout (adds a .manifest.json sidecar)")
        return p

    p = add("validate", _cmd_validate, "check the fan axioms")
    p.add_argument("fan")
    p = add("stats", _cmd_stats, "f-vector, incidence counts, completeness")
    p.add_argument("fan")
    p = add("builders", _cmd_builders, "emit a named fan")
    p.add_argument("name", choices=sorted(_BUILDERS))
    p = add("cpl", _cmd_cpl, "space of conewise linear functions")
    p.add_argument("fan")
    p = add("multival", _cmd_multival, "nontrivial multivalued function")
    p.add_argument("fan")
    p.add_argument("--sigma", type=int, default=None,
                   help="index of the maximal cone carrying the odd multiset")
    p = add("fdim", _cmd_fdim, "graded cokernel dimensions on one cone")
    p.add_argument("fan")
    p.add_argument("--cone", required=True,
                   help="label, ray indices i,j,..., or coordinate tuples")
    p.add_argument("--degree", required=True, help="a,b,c with p/q entries")
    p.add_argument("--lattice", help="JSON file with a dual-side lattice")
    p = add("certify", _cmd_certify, "wall certificate at one degree")
    p.add_argument("fan")
    p.add_argument("--wall", required=True,
                   help="ray indices i,j or coordinate tuples (..),(..)")
    p.add_argument("--degree", required=True, help="a,b,c with p/q entries")
    p.add_argument("--lattice", help="JSON file with a dual-side lattice")
    p = add("search", _cmd_search, "scan walls and small degrees for valid "
            "certificates")
    p.add_argument("fan")
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--lattice", help="JSON file with a dual-side lattice")
    p = add("dichotomy", _cmd_dichotomy, "line-bundle vs K-group witness")
    p.add_argument("fan")
    p.add_argument("--radius", type=int, default=10)
    return parser


def _error_json(exc: Exception) -> str:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    return jsonio.dumps(payload)


_VECTOR_OPTIONS = ("--degree", "--wall", "--cone")


def _attach_vector_values(argv: list[str]) -> list[str]:
    """``--degree -1,2,1`` as ``--degree=-1,2,1``: argparse takes a separate
    value with a leading minus for an option and refuses it.  An abbreviated
    option such as ``--deg`` is matched too; no other option of the CLI
    starts like one of these three."""
    out = []
    for arg in argv:
        if (out and len(out[-1]) > 2
                and any(o.startswith(out[-1]) for o in _VECTOR_OPTIONS)
                and arg.startswith("-") and arg[1:2].isdigit()):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_vector_values(
        sys.argv[1:] if argv is None else list(argv)))
    args._t0 = time.monotonic()
    args._input = None
    try:
        doc = args.func(args)
        _emit(doc, args, args.command, args._input)
        return 0
    except SearchExhausted as exc:
        sys.stderr.write(_error_json(exc))
        return 2
    except CertificateInvalid as exc:
        sys.stderr.write(_error_json(exc))
        return 3
    except ConewiseError as exc:
        sys.stderr.write(_error_json(exc))
        return 1
    except (ValueError, KeyError, IndexError) as exc:
        sys.stderr.write(_error_json(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
