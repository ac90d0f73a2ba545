"""The traced benchmark wraps package functions by name.

``perfbench/spans.py`` lists them in ``TARGETS`` as ``(module, attribute)``
pairs and looks them up among the modules that importing ``fermichain.cli``
loads; ``perfbench/child.py`` stamps ``fermichain.BACKEND`` into its
environment record.  A name deleted from the package breaks both, so every
one must still resolve.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_and_backend_resolve():
    import fermichain
    import fermichain.cli  # noqa: F401  (loads every module the spans name)

    spans = load_spans()
    assert spans.TARGETS
    missing = [f"{module}.{attr}" for _, module, attr, _ in spans.TARGETS
               if module not in sys.modules
               or not hasattr(sys.modules[module], attr)]
    assert not missing, f"benchmark span targets no longer resolve: {missing}"
    assert hasattr(fermichain, "BACKEND")
