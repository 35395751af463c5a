"""tropitheta benchmark: seeded CLI job workloads, checked and timed.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  The seed
generates every input, which is written as job files outside the timed
intervals: the first round before timing starts, each later round before
it runs.  Each workload is a closed loop: one process, one thread, one
tropitheta.cli.main(argv) call at a time, whole rounds of jobs until
--seconds have passed.  Every job's exit code and the
fields that carry the mathematics are checked outside the timed interval.
Set-up (a fresh import of the program and the first round's job files)
runs SETUP_REPEATS times and setup_s is its median; jobs_per_s is the
throughput of the median round.

--trace 0 reports the end-to-end metrics; --trace 1 imports the program
twice, installs spans around every public function of the second import
(tracing.py), runs each job of the first rounds on both imports in turn,
checks that both write byte-identical artifacts, and reports the per-layer
metrics.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the line before it is
a record with the seed, Python version, nproc, git commit and the metrics
that only some runs can give (job_tail_ms, fail_rate).
"""

import argparse
import contextlib
import filecmp
import gc
import importlib
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# set-ups per run; setup_s is their median
SETUP_REPEATS = 11

# rounds run by --trace 1 (each job once untraced, once traced)
TRACE_ROUNDS = {"plane_certify": 1, "elliptic_degrees": 1,
                "decompose_lift": 1, "fresh_small_jobs": 20}


def import_program():
    """Import tropitheta from ./src afresh, dropping earlier imports from
    sys.modules; return its cli module and the modules of this import."""
    def ours(name):
        return name == "tropitheta" or name.startswith("tropitheta.")
    for name in [n for n in sys.modules if ours(n)]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    importlib.invalidate_caches()
    package = importlib.import_module("tropitheta")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise ImportError("tropitheta resolved outside %s" % SRC)
    cli = importlib.import_module("tropitheta.cli")
    return cli, {n: m for n, m in sys.modules.items() if ours(n)}


def run_job(cli, job, out_dir):
    """One timed cli.main call, then the check; returns (seconds, error)."""
    argv = job.argv + ["--output", out_dir]
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:
        return time.perf_counter() - start, traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start
    return elapsed, job.check(code, out_dir)


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, -(-len(sorted_values) * q // 100) - 1)
    return sorted_values[int(k)]


def tail(times):
    """The highest of p99 / p90 with at least ten jobs beyond it."""
    for q in (99, 90):
        if len(times) * (100 - q) / 100 >= 10:
            return q, percentile(sorted(times), q)
    return None, None


def git_commit():
    """HEAD of the checkout holding the benchmark; None outside git."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def set_up(args, work, repeat):
    """Import the program afresh, then generate and write the first round of
    job files into a directory of this set-up's own; return the import, the
    rounds and the seconds this took."""
    start = time.perf_counter()
    program = import_program()
    job_dir = os.path.join(work, "jobs%d" % repeat)
    os.makedirs(job_dir)
    rng = random.Random("%s:%d" % (args.workload, args.seed))
    rounds = workloads.WORKLOADS[args.workload](rng, job_dir)
    rounds = itertools.chain([next(rounds)], rounds)
    return program, rounds, time.perf_counter() - start


def timed_phase(cli, rounds, seconds, out_root, errors):
    """Whole rounds until seconds have passed since the first job started;
    return the job times and the rounds' sums of them.  errors maps the job
    index to a message.  Drawing a round writes its input files, which
    happens between the timed intervals, as do the checks."""
    times, round_times = [], []
    end = time.perf_counter() + seconds
    for jobs in rounds:
        start = len(times)
        for job in jobs:
            out_dir = os.path.join(out_root, "job")
            elapsed, error = run_job(cli, job, out_dir)
            if error:
                errors[len(times)] = "%s %s: %s" % (job.kind, job.argv, error)
            times.append(elapsed)
            shutil.rmtree(out_dir, ignore_errors=True)
        round_times.append(sum(times[start:]))
        if time.perf_counter() >= end:
            break
    return times, round_times


def traced_phase(programs, tracer, rounds, out_root, errors):
    """Run each job on the plain and on the traced import of the program,
    alternating which goes first so that machine drift cancels, into
    separate trees, and compare the trees byte for byte; return the wall
    times of the two passes and the job count.  programs maps the pass to
    the (cli, modules) of its import; errors maps (pass, job index) to a
    message."""
    jobs = [job for r in rounds for job in r]
    walls = {"plain": 0.0, "traced": 0.0}
    for i, job in enumerate(jobs):
        tracer.job = i
        for label in (("plain", "traced") if i % 2 == 0
                      else ("traced", "plain")):
            cli, modules = programs[label]
            # imports made inside functions resolve to this pass's modules
            sys.modules.update(modules)
            elapsed, error = run_job(cli, job, os.path.join(
                out_root, label, "%05d" % i))
            walls[label] += elapsed
            if error:
                errors[label, i] = "%s %s: %s" % (job.kind, job.argv, error)
    for i, job in enumerate(jobs):
        plain = os.path.join(out_root, "plain", "%05d" % i)
        traced = os.path.join(out_root, "traced", "%05d" % i)
        names = sorted(os.listdir(plain)) if os.path.isdir(plain) else []
        other = sorted(os.listdir(traced)) if os.path.isdir(traced) else []
        _, differ, unreadable = filecmp.cmpfiles(plain, traced, names,
                                                 shallow=False)
        if names != other or differ or unreadable:
            errors.setdefault(("traced", i), "%s %s: tracing changed the "
                              "artifacts" % (job.kind, job.argv))
    return walls, len(jobs)


def measure(args, work):
    """Set up, run the timed or traced phase and return the record and the
    result line."""
    setup_runs_s = []
    for i in range(SETUP_REPEATS):
        # drop the previous set-up first, so that peak_rss_mb holds one
        program = rounds = None
        gc.collect()
        program, rounds, took = set_up(args, work, i)
        setup_runs_s.append(took)
    programs = {"plain": program}
    if args.trace:
        rounds = list(itertools.islice(rounds, TRACE_ROUNDS[args.workload]))
        programs["traced"] = import_program()
        tracer = Tracer()
        tracer.install(programs["traced"][1])
    # the benchmark's own objects (jobs, checks) stay out of the collector's
    # passes during jobs, so its memory does not add to the jobs' time
    gc.collect()
    gc.freeze()

    out_root = os.path.join(work, "out")
    errors = {}
    setup_s = statistics.median(setup_runs_s)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "git_commit": git_commit(), "setup_runs_s": setup_runs_s}
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        if args.trace:
            walls, jobs_run = traced_phase(programs, tracer, rounds,
                                           out_root, errors)
        else:
            times, round_times = timed_phase(programs["plain"][0], rounds,
                                             args.seconds, out_root, errors)
    if args.trace:
        layers = tracer.summary(jobs_run)
        layers["trace.overhead_share"] = (
            (walls["traced"] - walls["plain"]) / walls["plain"], "ratio")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        attempted = 2 * jobs_run
        spans = os.path.join(WORK, "spans-%s-%d.tsv" % (args.workload,
                                                       args.seed))
        tracer.write_spans(spans)
        record.update({"jobs": jobs_run, "untraced_wall_s": walls["plain"],
                       "traced_wall_s": walls["traced"],
                       "spans": len(tracer.spans),
                       "spans_file": os.path.relpath(spans, ROOT)})
    else:
        attempted = len(times)
        q, tail_s = tail(times)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "jobs_per_s": {"value": len(times) / len(round_times)
                           / statistics.median(round_times), "unit": "1/s"},
            "job_p50_ms": {"value": statistics.median(times) * 1e3,
                           "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
        record.update({
            "jobs": len(times),
            "rounds": len(round_times),
            "timed_s": sum(times),
            "fail_rate": {"value": len(errors) / len(times),
                          "unit": "ratio"},
            "job_tail_ms": None if q is None else {
                "value": tail_s * 1e3, "unit": "ms", "percentile": q,
                "jobs": len(times)}})
    record["errors"] = sorted(errors.values())[:20]
    return record, {"correct": not errors, "attempted": attempted,
                    "failed": len(errors), "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tropitheta", "__init__.py")):
        raise FileNotFoundError("no tropitheta package under %s" % SRC)
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=args.workload + "-", dir=WORK)
    try:
        record, result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (FileNotFoundError, ImportError) as exc:
        print("benchmark cannot run: %s" % exc, file=sys.stderr)
        sys.exit(2)
