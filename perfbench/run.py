"""asymconv benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify_batch --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` makes one traced repetition
and reports the per-layer metrics.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The package is imported from ``src/`` next to this directory; without
it the benchmark exits with code 2 and prints no result.
"""

import os

# One BLAS/OpenMP thread per process, set before numpy is first imported,
# so ``verify --jobs <nproc>`` runs exactly nproc busy threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

#: Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 7


def setup_seconds(workload: str):
    """Median set-up time of fresh processes: (raw, speed-adjusted)."""
    raw, adjusted = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, SRC],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, factor = map(float, done.stdout.split())
        raw.append(seconds)
        adjusted.append(seconds * factor)
    return statistics.median(raw), statistics.median(adjusted)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "asymconv", "__init__.py")):
        sys.stderr.write("no asymconv package under %s; nothing to measure\n" % SRC)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write("unknown workload %r\n" % args.workload)
        return 2
    jobs = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    why = {w["name"]: w["why"] for w in declared["workloads"]}
    print("workload %s seed %d: %s" % (args.workload, args.seed, why[args.workload]))
    print("nproc %d, verify --jobs %d, BLAS threads %s"
          % (jobs, jobs, os.environ["OPENBLAS_NUM_THREADS"]))

    workdir = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, jobs)
        if args.trace:
            trace_path = os.path.join(WORK, "trace-%s-%d.jsonl" % (args.workload, args.seed))
            metrics, tally = workloads.traced(workload, jobs, trace_path)
            catalogue = declared["per_layer"]
            print("spans written to %s" % os.path.relpath(trace_path, ROOT))
        else:
            setup, metrics_setup = setup_seconds(args.workload)
            start = time.perf_counter()
            tally = workloads.measure(workload, args.seconds)
            print("measured %.1f s, %d timed operations, op_s_tail at the %.1fth percentile"
                  % (time.perf_counter() - start, len(tally.op_s),
                     100 * workloads.tail(tally.op_s)[1]))
            print("raw (unadjusted): setup_s %.6g, op_s_p50 %.6g, op_s_tail %.6g, "
                  "items_per_s %.6g" % (setup, statistics.median(tally.raw_s),
                                        workloads.tail(tally.raw_s)[0],
                                        statistics.median(tally.raw_rates)))
            metrics = workloads.end_to_end(tally)
            metrics["setup_s"] = metrics_setup
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            catalogue = declared["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if isinstance(workload, workloads.OracleSweep):
        print("sweep split: " + workload.split(tally))
    for problem in tally.problems:
        print("CHECK FAILED: " + problem)
    names = [m["name"] for m in catalogue]
    if sorted(names) != sorted(metrics):
        raise RuntimeError("metrics %s do not match BENCHMARK.json %s" % (sorted(metrics), names))
    for m in catalogue:
        print("  %-58s %16.6g %s" % (m["name"], metrics[m["name"]], m["unit"]))
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in catalogue},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
