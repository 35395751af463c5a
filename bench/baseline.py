"""Measure the benchmark's baseline and its own steadiness and determinism.

    python3 bench/baseline.py

For each of the seeds 1-10 and each workload of BENCHMARK.json, runs the
command of BENCHMARK.json untraced for run_seconds, one process at a time,
and reports every end-to-end metric's median, quartiles and quartile spread
as a share of the median, beside the bound.  Then runs each workload
traced twice with one seed: the per-layer counts (every *.calls,
embedding.cells, voronoi.pieces, nalift.coeffs, jsonio.bytes_written) must
agree exactly, and each traced run checks that tracing left every artifact
byte unchanged.  Writes the summary as JSON to bench/BASELINE.json and
exits 1 if a run failed a check or the counts differ.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def run(spec, workload, seed, trace):
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]),
                              "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError("%s failed (%d): %s" % (argv, done.returncode,
                                                   done.stderr[-2000:]))
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / statistics.median(values),
            "values": values}


def deterministic_counts(metrics):
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] in ("count", "B")}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    chosen = [w["name"] for w in spec["workloads"]]

    ok = True
    results = {w: {"runs": []} for w in chosen}
    record = None
    for seed in SEEDS:
        for w in chosen:
            record, out = run(spec, w, seed, 0)
            ok = ok and out["correct"]
            results[w]["runs"].append({"seed": seed, "result": out,
                                       "job_tail_ms": record["job_tail_ms"],
                                       "fail_rate": record["fail_rate"]})
            print("%s seed %d: %s" % (w, seed, json.dumps(out["metrics"])),
                  flush=True)
    for w in chosen:
        summary = {}
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"]
                      for r in results[w]["runs"]]
            summary[m["name"]] = dict(spread(values), unit=m["unit"],
                                      bound=m["bound"])
            print("%-18s %-12s median %12.4f %-5s spread %.3f (bound %.2f)"
                  % (w, m["name"], summary[m["name"]]["median"], m["unit"],
                     summary[m["name"]]["iqr_share"], m["bound"]))
        results[w]["end_to_end"] = summary
        traced = [run(spec, w, SEEDS[0], 1) for _ in range(2)]
        counts = [deterministic_counts(out["metrics"]) for _, out in traced]
        identical = counts[0] == counts[1]
        ok = ok and identical and all(out["correct"] for _, out in traced)
        results[w]["traced"] = {"seed": SEEDS[0],
                                "record": traced[0][0],
                                "result": traced[0][1],
                                "counts_identical": identical,
                                "correct": [out["correct"]
                                            for _, out in traced]}
        print("%-18s traced twice: counts identical %s, artifacts unchanged "
              "by tracing %s" % (w, identical,
                                 [out["correct"] for _, out in traced]))
    summary = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS),
               "python": record["python"], "nproc": record["nproc"],
               "git_commit": record["git_commit"], "workloads": results}
    with open(os.path.join(HERE, "BASELINE.json"), "w") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
