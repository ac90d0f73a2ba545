"""Metric names, units and the per-layer aggregation of traced spans.

``BENCHMARK.json`` lists the same metrics; ``tests/test_harness.py`` keeps
the two in step.
"""

from __future__ import annotations

from spans import ATTRS, KERNELS, NAME, self_times

END_TO_END = (
    # name, unit, better
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

# (metric, unit, better). A metric named "<span>.self_s" or "<span>.calls"
# is the sum over the pass's jobs of that span's self time or call count.
PER_LAYER = (
    *((f"kernels.{k}.{m}", u, "lower") for k in KERNELS
      for m, u in (("self_s", "s"), ("calls", "count"), ("entries", "count"))),
    ("kernels.bytes_computed", "B", "lower"),
    ("car.monomial_basis.self_s", "s", "lower"),
    ("car.monomial_basis.calls", "count", "lower"),
    ("car.monomial_basis.cache_hit_ratio", "ratio", "higher"),
    ("car.monomial_basis.entries_built", "count", "lower"),
    ("car.conditional_expectation_matrix.self_s", "s", "lower"),
    ("car.conditional_expectation_matrix.calls", "count", "lower"),
    ("car.small_representation.self_s", "s", "lower"),
    ("car.random_element.self_s", "s", "lower"),
    ("car.random_element.calls", "count", "lower"),
    ("potentials.build_model.self_s", "s", "lower"),
    ("potentials.total_hamiltonian.self_s", "s", "lower"),
    ("potentials.local_hamiltonian.self_s", "s", "lower"),
    ("states.gibbs_state.self_s", "s", "lower"),
    ("states.gibbs_state.calls", "count", "lower"),
    *((f"states.{f}.self_s", "s", "lower")
      for f in ("random_pair_panel", "kms_residual", "perturbed_state",
                "restrict", "product_check", "noneven_perturbation",
                "remark2_construct")),
    ("entropy.relative_entropy_matrices.self_s", "s", "lower"),
    ("entropy.relative_entropy_matrices.calls", "count", "lower"),
    ("entropy.conditional_entropy.self_s", "s", "lower"),
    ("entropy.restricted_relative_entropy.self_s", "s", "lower"),
    ("stability.feasible_sampler.self_s", "s", "lower"),
    ("stability.prop4_pipeline.self_s", "s", "lower"),
    ("stability.free_energy.self_s", "s", "lower"),
    ("stability.free_energy.calls", "count", "lower"),
    ("stability.lts_check.self_s", "s", "lower"),
    ("stability.maximizer_iterations", "count", "lower"),
    *((f"probes.{f}.self_s", "s", "lower")
      for f in ("grading_asymmetry", "cluster_coefficient",
                "purely_imaginary_check", "scan_odd_correlations")),
    ("cli.verb.self_s", "s", "lower"),
    ("reporting.emit_report.self_s", "s", "lower"),
    ("trace_overhead_s", "s", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

# per-layer metrics that count work: they must repeat exactly between runs
# of the same jobs
EXACT = tuple(name for name, unit, _ in PER_LAYER
              if unit in ("count", "B", "ratio"))


def layer_totals(job_spans) -> dict:
    """Per span name: self time, calls and summed attributes over all jobs."""
    totals: dict[str, dict] = {}
    for spans in job_spans:
        for span, own in zip(spans, self_times(spans)):
            entry = totals.setdefault(span[NAME], {"self_s": 0.0, "calls": 0})
            entry["self_s"] += own
            entry["calls"] += 1
            for key, value in (span[ATTRS] or {}).items():
                entry[key] = entry.get(key, 0) + int(value)
    return totals


def layer_metrics(job_spans) -> dict:
    """Every per-layer metric except ``trace_overhead_s`` for one pass."""
    totals = layer_totals(job_spans)

    def get(span, key):
        return totals.get(span, {}).get(key, 0)

    basis = "car.monomial_basis"
    out = {}
    for name, _, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field in ("self_s", "calls", "entries"):
            out[name] = get(span, field)
    out["kernels.bytes_computed"] = sum(get(f"kernels.{k}", "bytes")
                                        for k in KERNELS)
    calls = get(basis, "calls")
    out[f"{basis}.cache_hit_ratio"] = (get(basis, "hit") / calls
                                       if calls else 0.0)
    out[f"{basis}.entries_built"] = get(basis, "built")
    out["stability.maximizer_iterations"] = get("stability.lts_check",
                                                "iterations")
    return out
