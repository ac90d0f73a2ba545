"""Guard against naive multi-operand ``np.einsum`` contractions.

Without ``optimize=``, ``np.einsum`` evaluates a contraction of three or
more arrays as one nested C loop: ``"ij,jk,ki->"`` costs O(N^3) scalar
steps with no BLAS, tens of times slower than ``np.sum((a @ b) * c.T)``
at N in the hundreds.  Every such call in the package must either be
written with matmuls or state its contraction order through ``optimize``.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "fermichain").glob("*.py"))


def naive_einsum_calls(source: str) -> list[int]:
    """Line numbers of ``np.einsum`` / ``numpy.einsum`` calls with three or
    more array operands and no ``optimize=`` keyword."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "einsum"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")):
            continue
        if any(kw.arg == "optimize" for kw in node.keywords):
            continue
        args = node.args
        if any(isinstance(arg, ast.Starred) for arg in args):
            operands = None                 # unknown count: treat as naive
        elif args and isinstance(args[0], ast.Constant) \
                and isinstance(args[0].value, str):
            operands = len(args) - 1        # "subscripts", *operands
        else:
            operands = len(args) // 2       # op, sublist, ..., [out sublist]
        if operands is None or operands >= 3:
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("snippet, flagged", [
    ('np.einsum("ij,jk,ki->", a, b, c)', True),
    ('numpy.einsum("ij,jk,ki->i", a, b, c)', True),
    ("np.einsum(a, [0, 1], b, [1, 2], c, [2, 0])", True),
    ("np.einsum(spec, *ops)", True),
    ('np.einsum("ij,jk,ki->", a, b, c, optimize=True)', False),
    ('np.einsum("ij,ji->", a, b)', False),
    ("np.einsum(a, [0, 1], b, [1, 0])", False),
    ("np.einsum(a, [0, 1], b, [1, 2], [0, 2])", False),
    ("np.sum((a @ b) * c.T)", False),
])
def test_guard_recognizes_naive_contractions(snippet, flagged):
    assert bool(naive_einsum_calls(snippet)) is flagged


def test_package_has_no_naive_multi_operand_einsum():
    assert SOURCES, "no package sources found"
    offenders = [f"{path.name}:{line}" for path in SOURCES
                 for line in naive_einsum_calls(path.read_text("utf-8"))]
    assert not offenders, ("np.einsum with three or more operands and no "
                           f"optimize= (use matmuls): {offenders}")
