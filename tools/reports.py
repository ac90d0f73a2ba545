"""The report matrix: stdout, stderr and exit status of every CLI verb over
a grid of settings, compared across source trees.

    python tools/reports.py PATH LABEL=SRC [LABEL=SRC ...]

runs every verb at ``L`` = 1, 2, 4, 6 and 8 and ``beta`` = 0.5, 1 and 5, on
the ``hopping``, ``tv`` and ``raw-number`` models, the probing verbs on
regions ``0``, ``1`` and ``2,3`` (``lts`` with ``--samples 5``): 810 runs per
tree, seed 0.  A region that does not fit the chain is a usage error, and
its stderr and exit status are compared like any other run's.  Each run is
one child process with one BLAS thread, against the package in the source
directory ``SRC``, the trees alternating in order from one run to the next.
The SHA-256 of each run's stdout and stderr and its exit status are stored
under the tree's ``LABEL`` in the JSON file ``PATH``, keeping the other
labels there, so a tree measured once can be compared with later ones.
The tool prints every run whose record differs between the labels in the
file, and exits 1 if there is one: the README's promise is that a report
reproduces byte for byte.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

VERBS = ("validate", "gibbs", "perturb", "entropy", "lts", "prop4",
         "ssb-probe", "remark2")
WHOLE_CHAIN = {"validate", "gibbs", "remark2"}    # verbs that take no region
LENGTHS = (1, 2, 4, 6, 8)
BETAS = ("0.5", "1", "5")
MODELS = ("hopping", "tv", "raw-number")
REGIONS = ("0", "1", "2,3")
RUNS = [(verb, "--length", str(n), "--beta", beta, "--model", model, *extra)
        for n in LENGTHS for beta in BETAS for model in MODELS for verb in VERBS
        for extra in ([()] if verb in WHOLE_CHAIN else
                      [("--region", region,
                        *(("--samples", "5") if verb == "lts" else ()))
                       for region in REGIONS])]


def run(args, src):
    """The digests of one run's stdout and stderr, and its exit status."""
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    child = subprocess.run([sys.executable, "-m", "fermichain", *args],
                           env=env, capture_output=True)
    return {"stdout": hashlib.sha256(child.stdout).hexdigest(),
            "stderr": hashlib.sha256(child.stderr).hexdigest(),
            "status": child.returncode}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("path")
    parser.add_argument("trees", nargs="+", metavar="LABEL=SRC")
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
    records = {label: {} for label, _ in trees}
    for k, argv in enumerate(RUNS):
        for label, src in trees[::-1] if k % 2 else trees:
            records[label][" ".join(argv)] = run(argv, src)
    results.update(records)
    with open(args.path, "w") as handle:
        json.dump(results, handle, indent=1)
        handle.write("\n")

    keys = sorted({key for record in results.values() for key in record})
    differ = [key for key in keys
              if len({json.dumps(record.get(key), sort_keys=True)
                      for record in results.values()}) > 1]
    for key in differ:
        print(key, {label: record.get(key)
                    for label, record in results.items()})
    print(f"{len(keys)} runs, {len(differ)} differ across "
          f"{', '.join(results)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
