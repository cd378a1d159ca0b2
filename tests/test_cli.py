import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from conewise.cli import main
from conewise.fans import FanStats
from conewise.linalg import Sublattice
from conewise.jsonio import dumps, fan_from_obj, fan_to_obj, lattice_to_obj
from conewise.linalg import Sublattice


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def no_floats(obj):
    if isinstance(obj, float):
        return False
    if isinstance(obj, dict):
        return all(no_floats(v) for v in obj.values())
    if isinstance(obj, list):
        return all(no_floats(v) for v in obj)
    return True


@pytest.fixture(scope="module")
def fan_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fans")
    paths = {}
    for name in ("cube", "octahedron", "payne"):
        path = root / ("%s.json" % name)
        code, out, _ = run_cli(["builders", name])
        assert code == 0
        path.write_text(out)
        paths[name] = str(path)
    return paths


class TestBuilders:
    def test_round_trip(self, fan_files, payne_fan):
        parsed = fan_from_obj(json.loads(open(fan_files["payne"]).read()))
        assert parsed == payne_fan
        assert dumps(fan_to_obj(parsed)) == open(fan_files["payne"]).read()

    def test_output_file_and_manifest(self, tmp_path):
        out_path = tmp_path / "cube.json"
        code, out, _ = run_cli(["builders", "cube", "-o", str(out_path)])
        assert code == 0 and out == ""
        assert out_path.exists()
        manifest = json.loads((tmp_path / "cube.json.manifest.json").read_text())
        assert manifest["command"] == "builders"
        assert manifest["output_sha256"]
        assert isinstance(manifest["wall_time_ms"], int)


class TestCertify:
    def test_payne_pipeline_by_coordinates(self, fan_files):
        code, out, _ = run_cli([
            "certify", fan_files["payne"],
            "--wall", "(1,-1,-1),(1,-1,2)", "--degree", "1,-1,0"])
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"] == 1
        assert doc["wall"]["dim_f"] == 1
        assert doc["sigma1"]["dim_f"] == 0
        assert doc["sigma2"]["dim_f"] == 0
        assert no_floats(doc)

    def test_wall_by_indices(self, fan_files):
        code, out, _ = run_cli([
            "certify", fan_files["payne"], "--wall", "4,5",
            "--degree", "1,-1,0"])
        assert code == 0 and json.loads(out)["valid"] == 1

    def test_invalid_wall_exits_1(self, fan_files):
        code, _, err = run_cli([
            "certify", fan_files["payne"], "--wall", "0,7",
            "--degree", "1,-1,0"])
        assert code == 1
        assert json.loads(err)["error"] == "NotAWall"

    def test_rational_degree_with_lattice_file(self, fan_files, tmp_path):
        lattice = Sublattice.standard(3).add_generator(
            (Fraction(1, 2), Fraction(-1, 2), Fraction(0)))
        lat_path = tmp_path / "mprime.json"
        lat_path.write_text(dumps(lattice_to_obj(lattice)))
        code, out, _ = run_cli([
            "certify", fan_files["payne"], "--wall", "4,5",
            "--degree", "1/2,-1/2,0", "--lattice", str(lat_path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["degree"] == ["1/2", "-1/2", 0]
        assert no_floats(doc)


class TestParseBoundary:
    @pytest.mark.parametrize("wall", ["(None,)", "((1,2),(3,4)),(1,2)", "()",
                                      "(1)", "('a',1,2)", "(1,2),None"])
    def test_malformed_wall_is_a_parse_error(self, fan_files, wall):
        code, out, err = run_cli(["certify", fan_files["payne"], "--wall", wall,
                                  "--degree", "1,-1,0"])
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "ParseError"

    def test_empty_cone_tuple_is_a_parse_error(self, fan_files):
        code, _, err = run_cli(["fdim", fan_files["payne"], "--cone", "()",
                                "--degree", "1,-1,0"])
        assert code == 1 and json.loads(err)["error"] == "ParseError"

    @pytest.mark.parametrize("command, option, rays", [
        ("fdim", "--cone", "4,4"),
        ("certify", "--wall", "4,4,5"),
        ("certify", "--wall", "5,4,5"),
        ("fdim", "--cone", "(1,-1,-1),(1,-1,-1)"),
        ("certify", "--wall", "(1,-1,-1),(2,-2,-2),(1,-1,2)"),
    ])
    def test_repeated_ray_is_a_parse_error(self, fan_files, command, option, rays):
        code, out, err = run_cli([command, fan_files["payne"], option, rays,
                                  "--degree", "1,-1,0"])
        assert code == 1 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "ParseError" and "more than once" in doc["message"]

    def test_float_coordinates_still_name_the_wall(self, fan_files):
        code, out, _ = run_cli(["certify", fan_files["payne"], "--wall",
                                "(1.0,-1,-1),(1,-1,2)", "--degree", "1,-1,0"])
        assert code == 0 and json.loads(out)["wall_rays"] == [4, 5]

    @pytest.mark.parametrize("sigma", ["-1", "6", "99"])
    def test_sigma_outside_the_cone_range(self, fan_files, sigma):
        code, out, err = run_cli(["multival", fan_files["cube"], "--sigma=" + sigma])
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "HypothesisFailed"

    def test_last_sigma_is_accepted(self, fan_files):
        code, out, _ = run_cli(["multival", fan_files["cube"], "--sigma", "5"])
        assert code == 0 and json.loads(out)["triviality"]["trivial"] == 0

    @pytest.mark.parametrize("args", [
        ["certify", "payne", "--wall", "0,2", "--degree", "-1,2,1"],
        ["certify", "cube", "--wall", "0,1", "--degree", "-54,0,18"],
        ["fdim", "payne", "--cone", "4,5", "--degree", "-1/2,-3/2,0"],
        ["certify", "payne", "--wall", "-1,2", "--degree", "-1,2,1"],
        ["fdim", "payne", "--cone", "-3", "--degree", "-1,2,1"],
        ["certify", "payne", "--w", "0,2", "--deg", "-1,2,1"],
        ["fdim", "payne", "--co", "-3", "--d", "-1,2,1"],
    ])
    def test_leading_minus_values_parse_in_both_spellings(self, fan_files, args):
        command, fan, *pairs = args
        spaced = [command, fan_files[fan]] + pairs
        joined = [command, fan_files[fan]] + [
            "%s=%s" % (pairs[i], pairs[i + 1]) for i in range(0, len(pairs), 2)]
        result = run_cli(spaced)
        assert result == run_cli(joined)
        assert result[0] in (0, 1) and json.loads(result[1] or result[2])

    @pytest.mark.parametrize("args", [
        ["search", "--radius", "-1"],
        ["dichotomy", "--radius", "-1"],
        ["fdim", "--cone", "tau", "--degree", "1,-1"],
        ["certify", "--wall", "4,5", "--degree", "1,-1,0,2"],
        ["certify", "--wall", "(0,0,0)", "--degree", "1,-1,0"],
        ["certify", "--wall", "(1,-1,-1),(0,0,0)", "--degree", "1,-1,0"],
    ])
    def test_out_of_range_values_are_parse_errors(self, fan_files, args):
        code, out, err = run_cli([args[0], fan_files["payne"]] + args[1:])
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "ParseError"

    @pytest.mark.parametrize("rows", [
        [(1, 0), (0, 1)],  # rank 2, not the fan's rank 3
        [(1, 0, 0), (0, 1, 0)],  # rank 3 ambient, not full rank
    ])
    @pytest.mark.parametrize("command", [
        ["certify", "--wall", "4,5", "--degree", "1,-1,0"],
        ["fdim", "--cone", "tau", "--degree", "1,-1,0"],
        ["search", "--radius", "0"],
    ])
    def test_lattice_must_be_full_rank_in_the_fan_rank(self, fan_files, tmp_path,
                                                        rows, command):
        lat_path = tmp_path / "lattice.json"
        lat_path.write_text(dumps(lattice_to_obj(Sublattice.from_rows(len(rows[0]), rows))))
        code, out, err = run_cli([command[0], fan_files["payne"]] + command[1:]
                                 + ["--lattice", str(lat_path)])
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "ParseError"

    def test_abbreviated_option_with_leading_minus(self, fan_files):
        full = run_cli(["certify", fan_files["payne"], "--wall", "0,2",
                        "--degree=-1,2,1"])
        assert run_cli(["certify", fan_files["payne"], "--wa", "0,2",
                        "--deg", "-1,2,1"]) == full


class TestOtherCommands:
    def test_validate(self, fan_files):
        code, out, _ = run_cli(["validate", fan_files["cube"]])
        assert code == 0 and json.loads(out)["valid"] == 1

    def test_validate_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(["validate", str(bad)])
        assert code == 1
        assert json.loads(err)["error"] == "ParseError"

    def test_stats(self, fan_files):
        code, out, _ = run_cli(["stats", fan_files["octahedron"]])
        doc = json.loads(out)
        assert doc["f"] == [6, 12, 8]
        assert doc["complete"] == 1 and doc["euler_ok"] == 1

    def test_cpl(self, fan_files):
        code, out, _ = run_cli(["cpl", fan_files["octahedron"]])
        doc = json.loads(out)
        assert doc["dim"] == 6 and doc["trivial_dim"] == 3
        assert doc["nontrivial"] is not None
        assert doc["count"]["all_m_rho_ge_4"] == 1
        assert no_floats(doc)

    def test_fdim_at_a_large_wall_degree_finishes(self, fan_files):
        # Lambda meet B has about 10^6 points here; a subprocess with a
        # timeout keeps a hang from stalling the suite
        argv = [sys.executable, "-m", "conewise.cli", "fdim", fan_files["payne"],
                "--cone", "4,5", "--degree=1000,-1000,0"]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(argv, capture_output=True, text=True, env=env,
                              timeout=60)
        assert done.returncode == 0
        doc = json.loads(done.stdout)
        assert (doc["dim_tilde"], doc["image_rank"], doc["dim_f"]) == (3, 3, 0)

    def test_multival(self, fan_files):
        code, out, _ = run_cli(["multival", fan_files["cube"], "--sigma", "0"])
        doc = json.loads(out)
        assert doc["degree"] == 8
        assert doc["consistency"]["consistent"] == 1
        assert doc["triviality"]["trivial"] == 0
        assert len(doc["multisets"]) == 6

    def test_fdim_with_label(self, fan_files):
        code, out, _ = run_cli([
            "fdim", fan_files["payne"], "--cone", "tau", "--degree", "1,-1,0"])
        doc = json.loads(out)
        assert doc["dim_tilde"] == 3 and doc["dim_f"] == 1

    def test_fdim_with_indices(self, fan_files):
        code, out, _ = run_cli([
            "fdim", fan_files["payne"], "--cone", "4,5", "--degree", "1,-1,0"])
        assert json.loads(out)["dim_f"] == 1

    def test_search(self, fan_files):
        code, out, _ = run_cli(["search", fan_files["payne"], "--radius", "1"])
        doc = json.loads(out)
        assert doc["count"] == 1
        assert doc["certificates"][0]["wall_rays"] == [4, 5]
        assert doc["certificates"][0]["degree"] == [1, -1, 0]

    def test_dichotomy_branches(self, fan_files):
        code, out, _ = run_cli(["dichotomy", fan_files["octahedron"]])
        assert json.loads(out)["branch"] == "line_bundle"
        code, out, _ = run_cli(["dichotomy", fan_files["cube"]])
        doc = json.loads(out)
        assert doc["branch"] == "k_group"
        assert doc["witness"]["certificate"]["valid"] == 1
        assert no_floats(doc)

    def test_dichotomy_search_exhausted_exit_2(self, fan_files):
        code, _, err = run_cli(["dichotomy", fan_files["cube"], "--radius", "0"])
        assert code == 2
        assert json.loads(err)["error"] == "SearchExhausted"

    def test_internal_contradiction_exit_3(self, fan_files, monkeypatch):
        from conewise.errors import CertificateInvalid

        def boom(fan, search_radius=10):
            raise CertificateInvalid("forced for the exit-code contract")

        monkeypatch.setattr("conewise.cli.run_dichotomy", boom)
        code, _, err = run_cli(["dichotomy", fan_files["cube"]])
        assert code == 3
        assert json.loads(err)["error"] == "CertificateInvalid"

    @pytest.mark.parametrize("target, patch, argv, message", [
        ("conewise.danilov._pairing_span",
         lambda cone, cols, lattice, image=True: (0, Sublattice.standard(3)),
         ["fdim", "payne", "--cone", "tau", "--degree", "1,-1,0"], "image rank"),
        ("conewise.cpl.stats", lambda fan: FanStats((6, 3, 8), (4,) * 6, (3,) * 8),
         ["cpl", "octahedron"], "counting chain"),
        ("conewise.cpl._solve_global", lambda rays, values: None,
         ["cpl", "octahedron"], "independent rays"),
        ("conewise.dichotomy.vec_scale", lambda c, u: tuple(2 * c * x for x in u),
         ["dichotomy", "cube"], "rescaled functional"),
        ("conewise.dichotomy.stats",
         lambda fan: FanStats((6, 12, 8), (3,) + (4,) * 5, (3,) * 8),
         ["dichotomy", "octahedron"], "expected 3"),
    ])
    def test_internal_contradictions_exit_3(self, fan_files, monkeypatch,
                                            target, patch, argv, message):
        monkeypatch.setattr(target, patch)
        code, out, err = run_cli([argv[0], fan_files[argv[1]]] + argv[2:])
        assert code == 3 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "CertificateInvalid" and message in doc["message"]

    def test_stdin_input(self, fan_files, monkeypatch):
        text = open(fan_files["payne"]).read()
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run_cli(["stats", "-"])
        assert code == 0 and json.loads(out)["complete"] == 1


class TestDeterminism:
    COMMANDS = [
        ["builders", "cube"],
        ["builders", "octahedron"],
        ["builders", "payne"],
    ]
    PER_FAN = [
        ["validate"],
        ["stats"],
        ["cpl"],
        ["multival"],
        ["dichotomy"],
    ]

    def test_repeated_runs_are_byte_identical(self, fan_files):
        jobs = [list(c) for c in self.COMMANDS]
        for name, path in fan_files.items():
            for cmd in self.PER_FAN:
                jobs.append(cmd + [path])
            jobs.append(["certify", path, "--wall",
                         "0,1" if name != "payne" else "4,5",
                         "--degree", "1,-1,0"])
        jobs.append(["search", fan_files["payne"], "--radius", "1"])
        jobs.append(["fdim", fan_files["payne"], "--cone", "tau",
                     "--degree", "1,-1,0"])
        for argv in jobs:
            code1, out1, _ = run_cli(argv)
            code2, out2, _ = run_cli(argv)
            assert code1 == code2
            assert out1 == out2, argv
            if code1 == 0 and out1:
                assert no_floats(json.loads(out1)), argv
