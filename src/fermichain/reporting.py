"""Deterministic JSON-lines reports for check results.

A check is a :class:`CheckRecord`: its name, measured value, tolerance and
verdict.  A report is a stream of lines, one per check, each carrying the
check's fields and the run's (the region label, ``beta`` and the seed) in
the fixed key order :data:`KEY_ORDER`.  Rerunning the same configuration
with the same seed must reproduce the output byte for byte, so fields are
reduced to plain Python scalars before serialization and the serializer is
pinned (no indentation choices, explicit separators, newline-terminated
lines).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

KEY_ORDER = ("check", "region", "beta", "value", "tolerance", "pass", "seed")


@dataclass
class CheckRecord:
    """One check outcome."""

    check: str
    value: float
    tolerance: float
    passed: bool


def emit_report(checks: Iterable[CheckRecord], region: str, beta: float,
                seed: int, path: str | None = None) -> str:
    """Serialize one line per check, stamped with the run's ``region``
    label (such as ``"2,3"``), ``beta`` and ``seed``; write the text to
    ``path`` when given.

    Returns the serialized text either way.  An empty check list yields an
    empty file.
    """
    lines = []
    for c in checks:
        fields = (str(c.check), str(region), float(beta), float(c.value),
                  float(c.tolerance), bool(c.passed), int(seed))
        lines.append(json.dumps(dict(zip(KEY_ORDER, fields)),
                                separators=(", ", ": ")) + "\n")
    text = "".join(lines)
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    return text
