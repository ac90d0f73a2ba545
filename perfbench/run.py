"""The fermichain benchmark: fixed jobs of the CLI verbs, in four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from ``src/`` next to this
directory. One process runs the workload's jobs one at a time, each in its
own child process (a closed loop with one client), repeating the job list
until ``--seconds`` have passed. ``--seed`` is passed to every job as
``--seed`` (``thermal`` also uses seed + 1).

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median over passes
of the summed ``cli.main`` times), ``peak_rss_mb`` (largest child peak RSS)
and ``setup_s`` (median time from spawning a child to ``fermichain.cli``
being imported). ``--trace 1`` alternates traced and untraced passes and
prints the per-layer metrics of ``metrics.PER_LAYER``. The last line of
stdout is one JSON object: ``correct``, ``attempted`` and ``failed`` jobs,
and ``metrics``. Traced runs write every span to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
from harness import Job
from metrics import EXACT, PER_LAYER, UNITS, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Workload choice (wall_s per pass on a shared 2-core VM, pure-Python
# kernels, one BLAS thread):
# - thermal: dense work in ``states`` only (kms_residual einsums, the
#   panel's spectral norms); builds no monomial tables, so it is the
#   control for ``car``/``kernels`` changes. 4.5-8 s.
# - projection: the gather side of the monomial tables (expect_batch,
#   inner_batch, pair_expect) plus entropy and prop4_pipeline. Region 0
#   makes a 16384 x 256 complement table (about 100 MB computed); region
#   2,3 stays near 25 MB. 9-14 s.
# - probes: the scatter side of the same tables (random_element through
#   kernels.scatter). 12-17 s.
# - stability: the constrained maximizer and the feasible sampler; sets
#   the peak memory. 5-8 s.
# L = 9 and larger are left out: some of those jobs fail today on the
# table-size guard, and lts at L = 8 needs a 4 GiB array.
WORKLOADS = {
    "thermal": (Job("gibbs", 7), Job("gibbs", 7, seed_offset=1)),
    "projection": (
        *(Job(verb, 8, region) for region in ("2,3", "0")
          for verb in ("perturb", "entropy", "prop4")),
        Job("remark2", 8),
    ),
    "probes": (Job("ssb-probe", 8, "2,3"), Job("ssb-probe", 8, "0")),
    "stability": (Job("lts", 7, "2,3,4", samples=50),
                  Job("lts", 6, "2,3", samples=200)),
}

# spawns that only import the package, pooled with the jobs' own spawns
# for setup_s; one more before them fills the bytecode and page caches
SETUP_PROBES = 3
# no job starts after this, so a run ends within three minutes even when
# jobs hang
RUN_BUDGET_S = 165.0


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest() -> str:
    """SHA-256 over the package sources, names included."""
    digest = hashlib.sha256()
    package = SRC / "fermichain"
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(package)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def median(values):
    return statistics.median(values) if values else None


class Run:
    """Jobs run so far in this invocation, with the first digest per job."""

    def __init__(self, seed: int, deadline: float):
        self.seed = seed
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}

    def timeout(self) -> float:
        return min(harness.JOB_TIMEOUT_S, self.deadline - time.perf_counter())

    def job(self, job: Job, traced: bool) -> harness.Outcome:
        self.attempted += 1
        if self.timeout() < 1.0:
            outcome = harness.Outcome(job.label(), failure=(
                f"not started: the run's {RUN_BUDGET_S:.0f} s budget is used"))
        else:
            outcome = harness.run_job(SRC, job, self.seed, trace=traced,
                                      timeout=self.timeout())
        if outcome.failure is None:
            first = self.digests.setdefault(outcome.label, outcome.digest)
            if outcome.digest != first:
                outcome.failure = (f"report differs from this job's first "
                                   f"run (sha256 {first})")
        if outcome.failure is None:
            print(f"job {outcome.label}{' traced' if traced else ''}: ok "
                  f"wall={outcome.wall:.3f}s setup={outcome.setup:.3f}s "
                  f"rss={outcome.rss_mb:.1f}MB sha256={outcome.digest}")
        else:
            self.failed += 1
            print(f"job {outcome.label}{' traced' if traced else ''}: "
                  f"FAILED: {outcome.failure}")
        return outcome


def pass_wall(outcomes) -> float | None:
    if any(o.failure for o in outcomes):
        return None
    return sum(o.wall for o in outcomes)


def layer_results(passes, problems: list[str]) -> dict:
    """Per-layer metrics: medians of times, counts checked to repeat."""
    traced = [layer_metrics([o.spans for o in outcomes])
              for is_traced, outcomes in passes
              if is_traced and not any(o.failure for o in outcomes)]
    if not traced:
        problems.append("no traced pass completed")
        return {name: None for name, _, _ in PER_LAYER}
    out = {}
    for name in traced[0]:
        values = [t[name] for t in traced]
        if name in EXACT and len(set(values)) > 1:
            problems.append(f"count {name} differs between passes: {values}")
        out[name] = median(values)
    walls = {flag: [w for is_traced, outcomes in passes
                    if is_traced == flag
                    and (w := pass_wall(outcomes)) is not None]
             for flag in (True, False)}
    if walls[True] and walls[False]:
        out["trace_overhead_s"] = median(walls[True]) - median(walls[False])
    else:
        out["trace_overhead_s"] = None
    return out


def write_spans(path: Path, passes) -> None:
    """Every span of the traced passes, one JSON object per line."""
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for k, (_, outcomes) in enumerate(passes):
            for outcome in outcomes:
                for span in outcome.spans or ():
                    handle.write(json.dumps({
                        "job": f"{k}/{outcome.label}", "name": span[0],
                        "start": span[1], "end": span[2], "parent": span[3],
                        "attrs": span[4]}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fermichain" / "__init__.py").is_file():
        print(f"perfbench: no fermichain package under {SRC}",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    run = Run(args.seed, started + RUN_BUDGET_S)
    jobs = WORKLOADS[args.workload]
    problems: list[str] = []

    probes = [harness.run_job(SRC, None, args.seed, env=(i == 0),
                              timeout=max(run.timeout(), 1.0))
              for i in range(1 + SETUP_PROBES)]
    for probe in probes:
        if probe.failure:
            problems.append(f"setup probe failed: {probe.failure}")
    stamp = {**(probes[0].env or {}), "nproc": harness.nproc(),
             "git_commit": git_commit(), "source_sha256": source_digest(),
             "workload": args.workload, "seed": args.seed,
             "memory_cap_bytes": harness.MEMORY_CAP_BYTES,
             "job_timeout_s": harness.JOB_TIMEOUT_S}
    print("env " + json.dumps(stamp))

    # untraced: repeat the job list until --seconds have passed; traced:
    # alternate traced and untraced passes, at least two traced (so counts
    # can be compared) and one untraced (for trace_overhead_s)
    passes = []
    measure_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 0
        pass_start = time.perf_counter()
        passes.append((traced, [run.job(job, traced) for job in jobs]))
        now = time.perf_counter()
        enough = now - measure_start >= args.seconds
        if args.trace:
            enough = enough and len(passes) >= 3
        if enough or now + (now - pass_start) > run.deadline:
            break

    untraced = [outcomes for is_traced, outcomes in passes if not is_traced]
    walls = [w for outcomes in untraced
             if (w := pass_wall(outcomes)) is not None]
    setups = ([p.setup for p in probes[1:] if p.setup is not None]
              + [o.setup for outcomes in untraced for o in outcomes
                 if o.setup is not None])
    rss = [o.rss_mb for outcomes in untraced for o in outcomes
           if o.rss_mb is not None]
    end_to_end = {"wall_s": median(walls),
                  "peak_rss_mb": max(rss) if rss else None,
                  "setup_s": median(setups)}
    print(f"wall_s: {end_to_end['wall_s']} s (median of {len(walls)} "
          f"passes: {walls})")
    print(f"peak_rss_mb: {end_to_end['peak_rss_mb']} MB (largest of "
          f"{len(rss)} jobs)")
    print(f"setup_s: {end_to_end['setup_s']} s (median of {len(setups)} "
          f"spawns)")
    print(f"jobs_failed: {run.failed / max(run.attempted, 1)} "
          f"({run.failed} of {run.attempted} jobs)")

    if args.trace:
        values = layer_results(passes, problems)
        for name, value in values.items():
            print(f"layer {name}: {value} {UNITS[name]}")
        write_spans(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl",
                    passes)
    else:
        values = end_to_end
    if any(v is None for v in values.values()):
        problems.append("a metric could not be computed")
    for problem in problems:
        print(f"problem: {problem}")

    result = {
        "correct": run.failed == 0 and not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
