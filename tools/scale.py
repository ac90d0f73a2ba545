"""Wall time, CPU time, peak RSS, exit status and failing checks of every
CLI verb at scale, each job one child process with one BLAS thread under a
3 GiB address-space limit; CPU time (user plus system) and peak RSS are the
child's ``ru_utime + ru_stime`` and ``ru_maxrss`` from ``wait4``.

    python tools/scale.py PATH LABEL=SRC [LABEL=SRC ...] [--slow]

runs the ``hopping`` jobs at ``beta = 1``, seed 0, region ``2,3``, against
the package in each source directory ``SRC``, and stores them under its
``LABEL`` in the JSON file ``PATH``, keeping the other labels there.  Each
job runs three times on every tree, the trees alternating in order from
one run to the next, so that drift on the machine falls on all of them
alike; a record keeps the median wall time, CPU time and peak with all
three of each.  The jobs are every verb at ``L = 8``, 9 and 10 (``lts`` with
``--samples 200``, its default), ``gibbs``, ``perturb``, ``entropy``,
``prop4``, ``remark2`` and ``ssb-probe`` at ``L = 11`` and 12, ``lts
--samples 0`` at ``L = 11`` and 12, and ``lts --samples 2`` at ``L = 11``, so
that a row holds a competitor's peak.  ``--slow`` adds ``lts --samples 1`` at
``L = 12``.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

VERBS = ("validate", "gibbs", "perturb", "entropy", "lts", "prop4",
         "ssb-probe", "remark2")
WHOLE_CHAIN = {"validate", "gibbs", "remark2"}    # verbs that take no region
# lts passes --samples explicitly, so its rows stay comparable when the
# default changes; at L = 11 and 12 it runs the bound alone, and with the
# fewest competitors that show one's peak
JOBS = ([(verb, n, ("--samples", "200") if verb == "lts" else ())
         for n in (8, 9, 10) for verb in VERBS]
        + [(verb, n, ()) for n in (11, 12)
           for verb in ("gibbs", "perturb", "entropy", "prop4", "remark2",
                        "ssb-probe")]
        + [("lts", n, ("--samples", "0")) for n in (11, 12)]
        + [("lts", 11, ("--samples", "2"))])
SLOW = [("lts", 12, ("--samples", "1"))]
LIMIT = 3 << 30
REPEATS = 3


def run(verb, length, extra, src):
    argv = [sys.executable, "-m", "fermichain", verb, "--length", str(length),
            *(() if verb in WHOLE_CHAIN else ("--region", "2,3")), *extra]
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (LIMIT, LIMIT))
    start = time.perf_counter()
    child = subprocess.Popen(argv, env=env, preexec_fn=cap, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    with child.stdout:
        report = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    return {"argv": argv[3:], "wall_s": round(time.perf_counter() - start, 3),
            "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
            "status": child.returncode,
            "failed": [r["check"] for r in map(json.loads, report.splitlines())
                       if not r["pass"]]}


def summarize(runs):
    """One record of a job's runs: the medians, every wall, CPU time and
    peak, the first nonzero exit status and every check that failed in any
    run."""
    walls = [r["wall_s"] for r in runs]
    cpus = [r["cpu_s"] for r in runs]
    peaks = [r["peak_rss_mb"] for r in runs]
    return {"argv": runs[0]["argv"], "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": statistics.median(peaks), "walls": walls,
            "cpus": cpus, "peaks": peaks,
            "status": next((r["status"] for r in runs if r["status"]), 0),
            "failed": sorted({c for r in runs for c in r["failed"]})}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("path")
    parser.add_argument("trees", nargs="+", metavar="LABEL=SRC")
    parser.add_argument("--slow", action="store_true")
    args = parser.parse_args()
    trees = []
    for pair in args.trees:
        label, sep, src = pair.partition("=")
        if not (label and sep and src):
            parser.error(f"expected LABEL=SRC, got {pair!r}")
        trees.append((label, os.path.abspath(src)))
    results = {}
    if os.path.exists(args.path):
        with open(args.path) as handle:
            results = json.load(handle)
    records = {label: [] for label, _ in trees}
    for job in JOBS + (SLOW if args.slow else []):
        runs = {label: [] for label, _ in trees}
        for repeat in range(REPEATS):
            for label, src in trees[::-1] if repeat % 2 else trees:
                runs[label].append(run(*job, src))
        for label, _ in trees:
            records[label].append(summarize(runs[label]))
    results.update(records)
    with open(args.path, "w") as handle:
        json.dump(results, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
