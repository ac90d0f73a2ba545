"""Runs ``fermichain`` jobs in contained child processes and checks them.

A job is one ``cli.main([...])`` call in a fresh interpreter (see
``child.py``), so it pays the imports and the cold ``monomial_basis``
cache a command-line user pays. The child runs under an address-space cap
(``RLIMIT_AS``) and a wall-clock timeout, so an out-of-memory error or a
hang becomes a failed :class:`Outcome` with its cause; nothing the child
does raises in the benchmark process.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

CHILD = Path(__file__).resolve().parent / "child.py"

# address-space cap per job; the heaviest job maps about 0.8 GB
MEMORY_CAP_BYTES = 3 * 1024 ** 3
JOB_TIMEOUT_S = 60.0
# One BLAS thread (at most nproc). With two on a 2-core machine, OpenBLAS
# workers spin between calls and contend with the single-threaded einsum
# loops: gibbs at L = 7 took 4.6-6.2 s with two, 3.4-4.0 s with one.
BLAS_THREADS = "1"

EXPECTED_CHECKS = {
    "gibbs": ("kms_residual", "evenness"),
    "perturb": ("decoupled_even", "product_property", "entropy_bound"),
    "entropy": ("relative_entropy", "conditional_entropy", "monotonicity"),
    "lts": ("feasible_residual", "margin_samples", "margin_maximizer"),
    "prop4": ("RESTIc", "HIzero", "ScIvpHI", "ScIpsi", "ScImin",
              "FpsiTheta", "gap_identity", "violate"),
    "ssb-probe": ("grading_asymmetry", "odd_correlation_real",
                  "cluster_decay", "odd_scan"),
    "remark2": ("restriction_residual", "odd_expectation",
                "vector_asymmetry"),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Job:
    """One ``fermichain`` command: model ``hopping``, ``beta = 1.0``."""

    verb: str
    length: int
    region: str | None = None
    samples: int | None = None
    seed_offset: int = 0

    def label(self) -> str:
        parts = [self.verb, f"L={self.length}"]
        if self.region is not None:
            parts.append(f"region={self.region}")
        if self.samples is not None:
            parts.append(f"samples={self.samples}")
        if self.seed_offset:
            parts.append(f"seed+{self.seed_offset}")
        return " ".join(parts)

    def argv(self, seed: int) -> list[str]:
        argv = [self.verb, "--length", str(self.length), "--model", "hopping",
                "--beta", "1.0", "--seed", str(seed + self.seed_offset)]
        if self.region is not None:
            argv += ["--region", self.region]
        if self.samples is not None:
            argv += ["--samples", str(self.samples)]
        return argv

    def region_label(self) -> str:
        if self.verb == "gibbs":
            return ",".join(str(s) for s in range(self.length))
        if self.verb == "remark2":
            return "0"
        return self.region


@dataclass
class Outcome:
    """What one child process did; ``failure`` is None when it passed."""

    label: str
    failure: str | None = None
    setup: float | None = None
    wall: float | None = None
    rss_mb: float | None = None
    digest: str | None = None
    spans: list | None = None
    env: dict | None = None


def check_report(job: Job, seed: int, text: str) -> list[str]:
    """Problems with a job's report; empty when every check passed."""
    problems = []
    records = []
    for line in text.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            problems.append(f"unparseable report line {line[:80]!r}")
    names = tuple(r.get("check") for r in records)
    if "error" in names:
        problems.append("report has an error record")
    failing = [r.get("check") for r in records if r.get("pass") is not True]
    if failing:
        problems.append(f"failing checks {failing}")
    if names != EXPECTED_CHECKS[job.verb]:
        problems.append(f"checks {list(names)}, expected "
                        f"{list(EXPECTED_CHECKS[job.verb])}")
    if any(r.get("seed") != seed + job.seed_offset
           or r.get("region") != job.region_label() for r in records):
        problems.append("a record carries the wrong seed or region")
    return problems


def child_env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src),
                OPENBLAS_NUM_THREADS=BLAS_THREADS,
                OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)


def spawn(spec: dict, cap_bytes: int, timeout: float):
    """Run the child: (returncode, stdout, stderr, spawn time, timed out)."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))

    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), json.dumps(spec)],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, errors="replace",
        env=child_env(Path(spec["src"])), preexec_fn=limit)
    try:
        out, err = proc.communicate(timeout=timeout)
        timed_out = False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        timed_out = True
    return proc.returncode, out, err, started, timed_out


def _exit_cause(returncode: int, err: str) -> str:
    if returncode < 0:
        number = -returncode
        status = f"killed by signal {number} ({signal.strsignal(number)})"
    else:
        status = f"exit status {returncode}"
    last = err.strip().splitlines()[-1:] or ["no stderr"]
    return f"{status}: {last[0]}"


def run_job(src: Path, job: Job | None, seed: int, *, trace: bool = False,
            env: bool = False, cap_bytes: int = MEMORY_CAP_BYTES,
            timeout: float = JOB_TIMEOUT_S) -> Outcome:
    """Run one job (or, with ``job=None``, only the imports) in a child."""
    spec = {"src": str(src), "argv": job.argv(seed) if job else None,
            "trace": trace, "env": env}
    returncode, out, err, started, timed_out = spawn(spec, cap_bytes, timeout)
    outcome = Outcome(job.label() if job else "setup")
    result = None
    lines = out.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass

    causes = []
    if timed_out:
        causes.append(f"timed out after {timeout:.0f} s and was killed")
    elif returncode != 0:
        causes.append(_exit_cause(returncode, err))
    elif "Traceback" in err:
        causes.append(f"traceback: {err.strip().splitlines()[-1]}")
    if result is None:
        causes.append("no result from the child")
    else:
        outcome.setup = result["ready"] - started
        outcome.rss_mb = result["maxrss_kb"] * 1024 / 1e6
        outcome.env = result.get("env")
        if job is not None:
            causes += check_report(job, seed, result["report"])
            outcome.wall = result["wall"]
            outcome.digest = hashlib.sha256(
                result["report"].encode()).hexdigest()
            outcome.spans = result.get("spans")
    outcome.failure = "; ".join(causes) or None
    return outcome
