"""Tests of the benchmark harness itself, at small chain lengths.

    python3 -m pytest perfbench/tests
"""

import json
from pathlib import Path

import harness
import metrics
import spans
from harness import Job

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


def span(name, start, end, parent=-1, attrs=None):
    return [name, start, end, parent, attrs]


def test_self_time_subtracts_only_direct_children():
    trace = [span("a", 0.0, 10.0),
             span("b", 1.0, 4.0, parent=0),
             span("c", 2.0, 3.0, parent=1),
             span("d", 5.0, 9.0, parent=0)]
    assert spans.self_times(trace) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_covered_time_once():
    # overlapping or overhanging children cover their union, clipped to
    # the parent's interval
    trace = [span("a", 0.0, 10.0),
             span("b", 1.0, 5.0, parent=0),
             span("c", 4.0, 6.0, parent=0),
             span("d", 9.0, 12.0, parent=0)]
    assert spans.self_times(trace)[0] == 10.0 - 5.0 - 1.0


def test_layer_metrics_sum_over_jobs():
    job1 = [span("car.monomial_basis", 0.0, 2.0, attrs={"hit": False,
                                                         "built": 64}),
            span("kernels.compose_batch", 0.5, 1.5, parent=0,
                 attrs={"entries": 16, "bytes": 384}),
            span("car.monomial_basis", 3.0, 3.5, attrs={"hit": True,
                                                         "built": 0})]
    job2 = [span("stability.lts_check", 0.0, 1.0, attrs={"iterations": 7})]
    out = metrics.layer_metrics([job1, job2])
    assert out["car.monomial_basis.self_s"] == 1.5
    assert out["car.monomial_basis.calls"] == 2
    assert out["car.monomial_basis.cache_hit_ratio"] == 0.5
    assert out["car.monomial_basis.entries_built"] == 64
    assert out["kernels.compose_batch.entries"] == 16
    assert out["kernels.bytes_computed"] == 384
    assert out["stability.maximizer_iterations"] == 7
    assert out["probes.grading_asymmetry.self_s"] == 0
    names = {name for name, _, _ in metrics.PER_LAYER}
    assert set(out) == names - {"trace_overhead_s"}


def record(check, passed=True, region="1,2", seed=3):
    return json.dumps({"check": check, "region": region, "beta": 1.0,
                       "value": 0.0, "tolerance": 1e-12, "pass": passed,
                       "seed": seed})


def test_checker_accepts_a_passing_report():
    job = Job("perturb", 4, "1,2")
    names = harness.EXPECTED_CHECKS["perturb"]
    text = "".join(record(n) + "\n" for n in names)
    assert harness.check_report(job, 3, text) == []


def test_checker_flags_a_failing_check():
    job = Job("perturb", 4, "1,2")
    names = harness.EXPECTED_CHECKS["perturb"]
    text = "".join(record(n, passed=(n != "entropy_bound")) + "\n"
                   for n in names)
    problems = harness.check_report(job, 3, text)
    assert problems == ["failing checks ['entropy_bound']"]


def test_checker_flags_an_error_record():
    job = Job("perturb", 4, "1,2")
    problems = harness.check_report(job, 3, record("error", passed=False))
    assert "report has an error record" in problems
    assert any(p.startswith("checks ['error']") for p in problems)


def test_checker_flags_a_wrong_seed():
    job = Job("gibbs", 3, seed_offset=1)
    names = harness.EXPECTED_CHECKS["gibbs"]
    text = "".join(record(n, region="0,1,2", seed=3) + "\n" for n in names)
    assert harness.check_report(job, 3, text) == [
        "a record carries the wrong seed or region"]
    assert harness.check_report(job, 2, text) == []


def test_passing_job_reports_its_digest_and_timings():
    outcome = harness.run_job(SRC, Job("perturb", 4, "1,2"), 0)
    assert outcome.failure is None
    assert outcome.wall > 0 and outcome.setup > 0 and outcome.rss_mb > 0
    assert len(outcome.digest) == 64
    assert outcome.spans is None


def test_job_over_the_memory_cap_is_recorded_not_raised():
    # perturb at L = 8 on region 0 maps about 0.5 GB; the imports alone
    # about 0.27 GB
    outcome = harness.run_job(SRC, Job("perturb", 8, "0"), 0,
                              cap_bytes=350 * 1024 ** 2)
    assert outcome.failure is not None
    assert "MemoryError" in outcome.failure
    assert outcome.wall is None


def test_job_over_the_timeout_is_recorded_not_raised():
    outcome = harness.run_job(SRC, Job("gibbs", 7), 0, timeout=0.5)
    assert outcome.failure.startswith("timed out after")


def test_traced_job_wraps_every_namespace_and_counts_repeat():
    job = Job("prop4", 4, "1,2")
    first = harness.run_job(SRC, job, 0, trace=True)
    second = harness.run_job(SRC, job, 0, trace=True)
    untraced = harness.run_job(SRC, job, 0)
    assert first.failure is None and second.failure is None
    assert first.digest == second.digest == untraced.digest
    names = {s[spans.NAME] for s in first.spans}
    # bound by name in cli, stability and states, and reached through
    # cli.DISPATCH
    assert {"cli.verb", "stability.prop4_pipeline", "states.restrict",
            "car.monomial_basis", "kernels.expect_batch",
            "reporting.emit_report"} <= names
    one = metrics.layer_metrics([first.spans])
    two = metrics.layer_metrics([second.spans])
    assert one["car.monomial_basis.calls"] > 0
    assert {k: one[k] for k in metrics.EXACT if k in one} == {
        k: two[k] for k in metrics.EXACT if k in two}


def test_benchmark_json_lists_the_printed_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == list(metrics.PER_LAYER)


def test_a_report_that_changes_between_repeats_fails(monkeypatch):
    import run

    digests = iter(["a" * 64, "a" * 64, "b" * 64])
    monkeypatch.setattr(harness, "run_job", lambda *a, **k: harness.Outcome(
        "gibbs L=3", wall=1.0, setup=0.1, rss_mb=1.0, digest=next(digests)))
    bench = run.Run(seed=0, deadline=float("inf"))
    outcomes = [bench.job(Job("gibbs", 3), traced=False) for _ in range(3)]
    assert [o.failure is None for o in outcomes] == [True, True, False]
    assert "differs" in outcomes[2].failure
    assert (bench.attempted, bench.failed) == (3, 1)
