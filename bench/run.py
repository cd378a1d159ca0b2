#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the conewise CLI.

One run, from the root of a checkout:

    python3 bench/run.py --workload search --seed 3 --seconds 24 --trace 0

``--trace 0`` runs the workload's seeded job list as a closed loop: one
client spawns ``python -m conewise.cli ...`` (``src`` on PYTHONPATH, nothing
installed), waits for it to exit, checks its output, and starts the next
job.  Whole passes over the list repeat until ``--seconds`` have passed and
at least eleven jobs have run.  ``--trace 1`` instead calls
``conewise.cli.main`` in-process on the same list, once untraced and once
with every layer wrapped in spans (see tracing.py), and reports per-layer
work counts and self times.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
result, with sample counts, goes to ``bench/out/``.

Other modes:

    python3 bench/run.py --all [--seed N] [--seconds S] [--out FILE]
        every workload, untraced and traced; prints every metric by name with
        its unit and sample count and writes them to one file
    python3 bench/run.py --compare A.json B.json
        per-workload deltas between two --all files
    python3 bench/run.py --record-digests
        stores the sha256 of every seed-0 job output (bench/digests.json)
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from time import perf_counter

import metrics
from tracing import Tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
DIGESTS = os.path.join(BENCH, "digests.json")
MIN_JOBS = 11
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
JOB_TIMEOUT_S = 120
CHILD_ENV = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")


@contextmanager
def _workdir(tag):
    """A scratch directory under bench/out, removed with its files."""
    path = os.path.join(OUT, "work-%s-pid%d" % (tag, os.getpid()))
    os.makedirs(path)
    try:
        yield path
    finally:
        for name in os.listdir(path):
            os.remove(os.path.join(path, name))
        os.rmdir(path)


# ---------------------------------------------------------------------------
# set-up


def set_up(workload: str, seed: int, workdir: str):
    """Builds the job list SETUP_REPEATS times; returns it and the set-up
    times.  Every repetition must produce the same documents."""
    from workloads import build_jobs

    times, first = [], None
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        jobs = build_jobs(workload, seed, workdir)
        times.append(perf_counter() - t0)
        snapshot = [(j.name, j.argv, _job_inputs(j)) for j in jobs]
        if first is None:
            first = snapshot
        elif snapshot != first:
            raise RuntimeError("set-up is not deterministic for seed %d" % seed)
    return jobs, times


def _job_inputs(job):
    out = []
    for arg in job.argv:
        if os.path.isfile(arg):
            with open(arg, encoding="utf-8") as fh:
                out.append(fh.read())
    return out


def _load_digests(workload: str, seed: int):
    """Output digests recorded from the seed commit, checked on seed 0."""
    if seed != 0:
        return None
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def _verdict(job, index, code, stdout, digests):
    if code != 0:
        return "exit code %s" % code
    reason = job.check(stdout)
    if reason:
        return reason
    if digests is not None:
        if hashlib.sha256(stdout.encode("utf-8")).hexdigest() != digests[index]:
            return "output differs from the recorded seed-0 digest"
    return None


# ---------------------------------------------------------------------------
# closed loop of CLI subprocesses


class _Child:
    """The one running child; SIGALRM kills it when a job overruns."""

    pid = None
    timed_out = False

    @classmethod
    def on_alarm(cls, signum, frame):
        if cls.pid is not None:
            cls.timed_out = True
            os.kill(cls.pid, signal.SIGKILL)


def run_cli_job(job, workdir):
    out_path = os.path.join(workdir, "job.stdout")
    err_path = os.path.join(workdir, "job.stderr")
    _Child.timed_out = False
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "conewise.cli"] + job.argv,
                                stdout=out, stderr=err, cwd=ROOT, env=CHILD_ENV)
        _Child.pid = proc.pid
        signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            _Child.pid = None
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    code = "timeout" if _Child.timed_out else proc.returncode
    return code, stdout, {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                          "maxrss_kb": usage.ru_maxrss}


def closed_loop(jobs, seconds, workdir, digests):
    signal.signal(signal.SIGALRM, _Child.on_alarm)
    records = []
    t0 = perf_counter()
    while True:
        for index, job in enumerate(jobs):
            code, stdout, rec = run_cli_job(job, workdir)
            reason = _verdict(job, index, code, stdout, digests)
            rec.update(job=job.name, ok=reason is None, reason=reason)
            records.append(rec)
        elapsed = perf_counter() - t0
        if elapsed >= seconds and len(records) >= MIN_JOBS:
            return records, elapsed


# ---------------------------------------------------------------------------
# traced in-process run


def _inprocess(job):
    import conewise.cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = conewise.cli.main(job.argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _inprocess_pass(jobs, digests, tracer=None):
    """Runs every job in-process; returns the summed job time (the output
    checks excluded) and the failures."""
    failures = []
    busy = 0.0
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.begin_job()
        t0 = perf_counter()
        code, stdout = _inprocess(job)
        busy += perf_counter() - t0
        reason = _verdict(job, index, code, stdout, digests)
        if reason:
            failures.append("%s: %s" % (job.name, reason))
    return busy, failures


def import_seconds():
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import conewise.cli"],
                       cwd=ROOT, env=CHILD_ENV, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def traced_run(workload, seed, jobs, workdir, digests, spans_path):
    from workloads import build_jobs

    import_s = import_seconds()
    untraced_s, failures = _inprocess_pass(jobs, digests)
    tracer = Tracer()
    tracer.install()
    try:
        t0 = perf_counter()
        tracer.begin_job()
        build_jobs(workload, seed, workdir)
        setup_s = perf_counter() - t0
        first_job_span = len(tracer.spans)
        traced_s, traced_failures = _inprocess_pass(jobs, digests, tracer)
    finally:
        tracer.uninstall()
    failures += traced_failures
    tracer.write_spans(spans_path)
    extra = {
        "cli.import_s": import_s,
        "trace.overhead_s": traced_s - untraced_s,
        # job time that no span covers; the layers' self times (set-up
        # spans aside) add up to traced_s minus this
        "trace.unattributed_s": traced_s - tracer.root_seconds(first_job_span),
        "trace.traced_s": traced_s,
        "trace.untraced_s": untraced_s,
        "trace.setup_s": setup_s,
    }
    values = metrics.per_layer(tracer.per_function(), tracer.counts, extra)
    return values, 2 * len(jobs), failures


# ---------------------------------------------------------------------------
# one run as the driver calls it


def run_once(workload, seed, seconds, trace):
    os.makedirs(OUT, exist_ok=True)
    job_times = None
    with _workdir("%s-seed%d-trace%d" % (workload, seed, trace)) as workdir:
        jobs, setup_times = set_up(workload, seed, workdir)
        digests = _load_digests(workload, seed)
        if trace:
            spans = os.path.join(OUT, "spans-%s-seed%d.jsonl.gz" % (workload, seed))
            values, attempted, failures = traced_run(workload, seed, jobs, workdir,
                                                     digests, spans)
            metrics_out = {n: {"value": values[n], "unit": u, "samples": 1}
                           for n, (u, _) in metrics.PER_LAYER.items()}
            reported = {n: {"value": values[n], "unit": u, "samples": 1}
                        for n, (u, _) in metrics.LAYER_REPORTED.items()}
        else:
            records, elapsed = closed_loop(jobs, seconds, workdir, digests)
            e2e = metrics.end_to_end(records, elapsed, setup_times)
            metrics_out = {n: {"value": e2e[n][0], "unit": u, "samples": e2e[n][1]}
                           for n, (u, _) in metrics.END_TO_END.items()}
            reported = {n: {"value": e2e[n][0], "unit": u, "samples": e2e[n][1]}
                        for n, (u, _) in metrics.E2E_REPORTED.items()}
            reported["job_tail_s"]["percentile"] = e2e["job_tail_s"][2]
            attempted = len(records)
            job_times = [[r["job"], r["wall_s"], r["cpu_s"]] for r in records]
            failures = ["%s: %s" % (r["job"], r["reason"]) for r in records
                        if not r["ok"]]
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "jobs": [j.name for j in jobs], "metrics": metrics_out,
        "reported": reported, "failures": failures, "context": context(),
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "job_times": job_times,
    }
    with open(os.path.join(OUT, "result-%s-seed%d-trace%d.json"
                           % (workload, seed, trace)), "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def context():
    lines = 0
    pkg = os.path.join(SRC, "conewise")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "src_lines": lines}


def _print_metrics(result):
    for name, m in {**result["metrics"], **result["reported"]}.items():
        note = ""
        if "percentile" in m:
            note = ", p%.1f" % m["percentile"]
        print("  %-44s %14.6g %-6s (n=%d%s)" % (name, m["value"], m["unit"],
                                                 m["samples"], note))
    for failure in result["failures"]:
        print("  FAILED " + failure)


def contract_line(result):
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                    for n, m in result["metrics"].items()},
    })


# ---------------------------------------------------------------------------
# --all, --compare, --record-digests


def run_all(seed, seconds, out_path):
    from workloads import WORKLOADS

    combined = {"context": context(), "seed": seed, "seconds": seconds,
                "layer_map": metrics.LAYER_MAP, "workloads": {}}
    for workload in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                            "--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", str(trace)],
                           cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
            with open(os.path.join(OUT, "result-%s-seed%d-trace%d.json"
                                   % (workload, seed, trace))) as fh:
                result = json.load(fh)
            entry["trace%d" % trace] = result
        combined["workloads"][workload] = entry
        for trace in (0, 1):
            result = entry["trace%d" % trace]
            print("%s, %s (%d jobs attempted, %d failed)" % (
                workload, "traced in-process" if trace else "CLI closed loop",
                result["attempted"], result["failed"]))
            _print_metrics(result)
    with open(out_path, "w") as fh:
        json.dump(combined, fh, indent=1)
    print("wrote " + out_path)


def compare(path_a, path_b):
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    for workload, entry in b["workloads"].items():
        base = a["workloads"].get(workload)
        if base is None:
            print("%s: not in %s" % (workload, path_a))
            continue
        print(workload)
        for trace in ("trace0", "trace1"):
            old, new = base[trace], entry[trace]
            for name, m in {**new["metrics"], **new["reported"]}.items():
                o = {**old["metrics"], **old["reported"]}.get(name)
                if o is None:
                    print("  %-44s %14.6g %-6s (new)" % (name, m["value"], m["unit"]))
                    continue
                delta = m["value"] - o["value"]
                rel = "%+.1f%%" % (100 * delta / o["value"]) if o["value"] else "n/a"
                print("  %-44s %14.6g -> %-14.6g %-6s %s" % (
                    name, o["value"], m["value"], m["unit"], rel))


def record_digests():
    from workloads import WORKLOADS, build_jobs

    signal.signal(signal.SIGALRM, _Child.on_alarm)
    os.makedirs(OUT, exist_ok=True)
    digests = {}
    with _workdir("digests") as workdir:
        for workload in WORKLOADS:
            digests[workload] = []
            for job in build_jobs(workload, 0, workdir):
                code, stdout, _ = run_cli_job(job, workdir)
                reason = _verdict(job, 0, code, stdout, None)
                if reason:
                    raise SystemExit("%s: %s" % (job.name, reason))
                digests[workload].append(hashlib.sha256(stdout.encode("utf-8")).hexdigest())
    with open(DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("search", "bigdegree", "facefan"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--out", default=os.path.join(OUT, "bench.json"))
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        compare(*args.compare)
        return 0
    if not os.path.isfile(os.path.join(SRC, "conewise", "cli.py")):
        sys.stderr.write("conewise sources not found under %s\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    if args.record_digests:
        record_digests()
    elif args.all:
        run_all(args.seed, args.seconds, args.out)
    elif args.workload:
        result = run_once(args.workload, args.seed, args.seconds, args.trace)
        _print_metrics(result)
        print(contract_line(result))
    else:
        parser.error("give --workload, --all, --compare or --record-digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
