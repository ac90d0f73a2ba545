"""Span tracing around the public functions of each ``fermichain`` layer.

Used only by the traced benchmark run. :func:`install` replaces every
binding of the functions in :data:`TARGETS`, in every ``fermichain`` module
namespace that holds one, by a wrapper that records a span: layer name,
start, end, parent span and, for some layers, exact work counts. Spans stay
in memory in the job's process and go back to ``run.py`` when the job ends.

The untraced benchmark runs never import this module, so they carry no
wrappers.
"""

from __future__ import annotations

import functools
import re
import sys
import time

# span = [name, start, end, parent index (-1 at top level), attrs or None]
NAME, START, END, PARENT, ATTRS = range(5)

KERNELS = ("compose_batch", "expect_batch", "inner_batch", "scatter",
           "pair_expect")
_ITERATIONS = re.compile(r"maximizer .*?(\d+) iterations")


def _kernel_table(func, args, kwargs):
    """Column-map table entries a kernel call reads, and their bytes.

    ``bytes`` is computed from the table shapes (perm + val per entry), not
    measured.
    """
    perm, val = args[0], args[1]
    entries = perm.size
    if func.__name__ == "pair_expect":
        perm, val = args[2], args[3]
        entries = args[0].shape[0] * perm.size
    result = func(*args, **kwargs)
    return result, {"entries": int(entries),
                    "bytes": int(entries) * (perm.itemsize + val.itemsize)}


def _basis_cache(func, args, kwargs):
    """Whether ``monomial_basis`` hit its cache; the table size if not."""
    hits = func.cache_info().hits
    result = func(*args, **kwargs)
    hit = func.cache_info().hits > hits
    return result, {"hit": hit, "built": 0 if hit else int(result.P.size)}


def _maximizer_iterations(func, args, kwargs):
    """Maximizer iterations, read from the returned report's notes."""
    result = func(*args, **kwargs)
    found = [int(m.group(1)) for note in result.notes
             if (m := _ITERATIONS.search(note))]
    return result, {"iterations": sum(found)}


# (span name, defining module, attribute, measure hook or None); every
# function in ``cli.DISPATCH`` (the ``run_<verb>`` bodies) is also wrapped,
# as ``cli.verb``
TARGETS = (
    *((f"kernels.{k}", "fermichain.kernels", k, _kernel_table)
      for k in KERNELS),
    ("car.monomial_basis", "fermichain.car", "monomial_basis", _basis_cache),
    ("car.conditional_expectation_matrix", "fermichain.car",
     "conditional_expectation_matrix", None),
    ("car.small_representation", "fermichain.car", "small_representation",
     None),
    ("car.random_element", "fermichain.car", "random_element", None),
    *((f"potentials.{f}", "fermichain.potentials", f, None)
      for f in ("build_model", "total_hamiltonian", "local_hamiltonian")),
    *((f"states.{f}", "fermichain.states", f, None)
      for f in ("gibbs_state", "random_pair_panel", "kms_residual",
                "perturbed_state", "restrict", "product_check",
                "noneven_perturbation", "remark2_construct")),
    *((f"entropy.{f}", "fermichain.entropy", f, None)
      for f in ("relative_entropy_matrices", "conditional_entropy",
                "restricted_relative_entropy")),
    *((f"stability.{f}", "fermichain.stability", f, None)
      for f in ("feasible_sampler", "prop4_pipeline", "free_energy")),
    ("stability.lts_check", "fermichain.stability", "lts_check",
     _maximizer_iterations),
    *((f"probes.{f}", "fermichain.probes", f, None)
      for f in ("grading_asymmetry", "cluster_coefficient",
                "purely_imaginary_check", "scan_odd_correlations")),
    ("reporting.emit_report", "fermichain.reporting", "emit_report", None),
)


class Tracer:
    """Records nested spans of one job, in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, func, measure=None):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[START] = time.perf_counter()
            try:
                if measure is None:
                    return func(*args, **kwargs)
                result, span[ATTRS] = measure(func, args, kwargs)
                return result
            finally:
                span[END] = time.perf_counter()
                self._open.pop()
        return traced


def install(tracer: Tracer) -> int:
    """Wrap every binding of the target functions; return how many changed.

    Import ``fermichain.cli`` first: only modules already loaded are seen.
    """
    modules = [m for n, m in sys.modules.items()
               if n == "fermichain" or n.startswith("fermichain.")]
    dispatch = sys.modules["fermichain.cli"].DISPATCH
    targets = [(name, getattr(sys.modules[module], attr), measure)
               for name, module, attr, measure in TARGETS]
    targets += [("cli.verb", verb, None)
                for verb in dict.fromkeys(dispatch.values())]
    replaced = 0
    for name, original, measure in targets:
        wrapped = tracer.wrap(name, original, measure)
        for namespace in [vars(m) for m in modules] + [dispatch]:
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapped
                    replaced += 1
    return replaced


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span[START]
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span[END])
            if end > start:
                covered += end - start
                reach = end
        out.append(span[END] - span[START] - covered)
    return out
