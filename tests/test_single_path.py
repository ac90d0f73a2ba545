"""Guard: one way to compute a conditional expectation.

Restrictions, conditional expectations, commutant projections and random
elements all go through the mode reordering in :mod:`fermichain.car`.  The
monomial tables (``monomial_basis`` and the methods of ``MonomialBasis``)
cost ``4**|R| x 2**L`` entries and refuse large regions, so no package code
calls them, ``car`` included: only the bodies of ``MonomialBasis`` and
``monomial_basis``, which build and read the tables, may.  Tests use them
freely as an oracle.
"""

import ast
from pathlib import Path

import pytest

from fermichain import car

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fermichain"
SOURCES = sorted(PACKAGE.glob("*.py"))
TABLE_FUNCTIONS = {"monomial_basis"}
TABLE_METHODS = {name for name, value in vars(car.MonomialBasis).items()
                 if callable(value) and not name.startswith("_")}
# top-level definitions whose bodies may touch the tables
EXEMPT = {"MonomialBasis", "monomial_basis"}


def monomial_table_calls(source: str) -> list[int]:
    """Line numbers of calls to ``monomial_basis`` or to a method named like
    one of ``MonomialBasis``'s, outside the bodies of the two."""
    tree = ast.parse(source)
    exempt = [(node.lineno, node.end_lineno) for node in tree.body
              if isinstance(node, (ast.ClassDef, ast.FunctionDef))
              and node.name in EXEMPT]
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if any(first <= node.lineno <= last for first, last in exempt):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in TABLE_FUNCTIONS:
            lines.append(node.lineno)
        elif isinstance(func, ast.Attribute) and (
                func.attr in TABLE_FUNCTIONS or func.attr in TABLE_METHODS):
            lines.append(node.lineno)
    return lines


def test_table_methods_are_known():
    assert TABLE_METHODS == {"coefficients", "assemble", "project",
                             "expectations"}


@pytest.mark.parametrize("snippet, flagged", [
    ("car.monomial_basis(region)", True),
    ("monomial_basis(region)", True),
    ("basis.coefficients(x)", True),
    ("car.monomial_basis(comp).expectations(d)", True),
    ("family.project(x)", True),
    ("project(x)", False),
    ("omega.expectation(x)", False),
    ("car.conditional_expectation_matrix(x, region)", False),
    ("car.monomial_labels(region)", False),
    ("class MonomialBasis:\n    def project(self, x):\n"
     "        return self.assemble(self.coefficients(x))", False),
    ("def monomial_basis(region):\n    return monomial_basis(region)", False),
    ("def labels(region):\n    return monomial_basis(region).labels", True),
])
def test_guard_recognizes_table_calls(snippet, flagged):
    assert bool(monomial_table_calls(snippet)) is flagged


def test_only_car_touches_the_monomial_tables():
    assert SOURCES, "no package sources found"
    offenders = [f"{path.name}:{line}" for path in SOURCES
                 for line in monomial_table_calls(path.read_text("utf-8"))]
    assert not offenders, ("monomial tables used outside their own "
                           "definitions in car.py (use small_representation "
                           f"/ embed): {offenders}")
