"""One benchmark job, run in a fresh process by ``run.py``.

Usage: ``python3 perfbench/child.py SPEC`` where ``SPEC`` is a JSON object
with ``src`` (the ``src`` directory the package must come from), ``argv``
(the ``fermichain`` command line, or null to stop once the package is
imported), ``trace`` (wrap the layer functions and return spans) and
``env`` (return the environment stamp).

Prints one JSON line on stdout: ``ready`` (the ``time.perf_counter`` value,
a system-wide monotonic clock on Linux, once ``fermichain.cli`` is
imported), and for a job ``status``, ``wall`` (seconds inside
``cli.main``), ``report`` (the report text ``cli.main`` wrote) and, when
traced, ``spans``; always ``maxrss_kb``. Exits with the status
``cli.main`` returned. Exceptions are not caught: a traceback on stderr and
a nonzero exit tell ``run.py`` the job failed.
"""

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time


def environment() -> dict:
    import numpy
    import scipy

    import fermichain

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "backend": fermichain.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(spec: dict) -> int:
    import fermichain
    import fermichain.cli as cli

    ready = time.perf_counter()
    where = os.path.dirname(os.path.realpath(fermichain.__file__))
    if os.path.dirname(where) != os.path.realpath(spec["src"]):
        sys.exit(f"fermichain imported from {where}, not from {spec['src']}")
    result = {"ready": ready}
    if spec.get("env"):
        result["env"] = environment()
    status = 0
    if spec["argv"] is not None:
        tracer = None
        if spec.get("trace"):
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            start = time.perf_counter()
            status = cli.main(spec["argv"])
            wall = time.perf_counter() - start
        result.update(status=status, wall=wall, report=out.getvalue())
        if tracer is not None:
            result["spans"] = tracer.spans
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
