"""Guards: one way to compute a conditional expectation, one way to read
the grading, one place that decides how a state's log is known, one
measure of self-adjointness, one Hermitian part and one Gaussian draw.

Restrictions, conditional expectations and random elements all go through
the mode reordering in :mod:`fermichain.car`, and only ``car`` reads it:
every other module calls its maps (``small_representation``, ``embed``,
``conditional_expectation_matrix``, ``add_embedded``, ``local_times``), so
the constraint algebra of a stability check is the complement's, reached
the way every restriction is.  The
monomial tables (``monomial_basis`` and the methods of ``MonomialBasis``)
cost ``4**|R| x 2**L`` entries and refuse large regions, so no package code
calls them, ``car`` included: only the bodies of ``MonomialBasis`` and
``monomial_basis``, which build and read the tables, may.  Tests use them
freely as an oracle.

The grading is read off :func:`car.parity_order` alone, so no package code
calls a column-map encoding (``*_encoding``, ``encoding_dense``) either:
only the bodies of the monomial basis's own definitions may.

Whether a state's log comes in closed form (a Gibbs state's ``GibbsLog``)
or from a decomposition of its density is decided in
:mod:`fermichain.states` alone: the modules that need ``log D`` ask the
state (``trace_log``, ``log_matrix``, ``smallest_weight``), so they read no
``.log`` attribute and name no ``GibbsLog``.

Self-adjointness is measured by :func:`car.hermitian_defect` alone: no
package code forms ``X - X*`` outside its body.  The Hermitian part
``(X + X*) / 2`` is taken by :func:`car.hermitian_part` alone, and every
Gaussian draw, real or complex, is :func:`car.gaussian`'s: no package code
adds a matrix to its adjoint, or calls ``standard_normal``, outside their
bodies.
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


def nodes_outside(source: str, exempt_names, flagged) -> list[int]:
    """Line numbers of the nodes ``flagged`` accepts, outside the bodies of
    the top-level definitions named in ``exempt_names``."""
    tree = ast.parse(source)
    exempt = [(node.lineno, node.end_lineno) for node in tree.body
              if isinstance(node, (ast.ClassDef, ast.FunctionDef))
              and node.name in exempt_names]
    return [node.lineno for node in ast.walk(tree)
            if flagged(node) and not any(first <= node.lineno <= last
                                         for first, last in exempt)]


def calls_outside(source: str, exempt_names, flagged) -> list[int]:
    """Line numbers of the calls whose callee ``flagged`` accepts, outside
    the bodies of the top-level definitions named in ``exempt_names``."""
    return nodes_outside(source, exempt_names, lambda node: isinstance(
        node, ast.Call) and flagged(node.func))


def monomial_table_calls(source: str) -> list[int]:
    """Line numbers of calls to ``monomial_basis`` or to a method named like
    one of ``MonomialBasis``'s, outside the bodies of the two."""
    def flagged(func):
        if isinstance(func, ast.Name):
            return func.id in TABLE_FUNCTIONS
        return isinstance(func, ast.Attribute) and (
            func.attr in TABLE_FUNCTIONS or func.attr in TABLE_METHODS)
    return calls_outside(source, EXEMPT, flagged)


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


def reordering_calls(source: str) -> list[int]:
    """Line numbers of the calls to ``mode_reordering``."""
    def flagged(func):
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else "")
        return name == "mode_reordering"
    return calls_outside(source, (), flagged)


@pytest.mark.parametrize("snippet, flagged", [
    ("car.mode_reordering(region)", True),
    ("mode_reordering(region.complement())", True),
    ("index, sign = car.mode_reordering(outside)", True),
    ("def reordering(self):\n    return car.mode_reordering(self.region)",
     True),
    ("car.small_representation(x, region.complement())", False),
    ("car.embed(small, outside)", False),
    ("car.conditional_expectation_matrix(g, outside)", False),
    ("car.pair_gather(first, second)", False),
    ("table = car.mode_reordering", False),
])
def test_guard_recognizes_reordering_calls(snippet, flagged):
    assert bool(reordering_calls(snippet)) is flagged


def test_only_car_reads_a_mode_reordering():
    offenders = [f"{path.name}:{line}" for path in SOURCES
                 if path.name != "car.py"
                 for line in reordering_calls(path.read_text("utf-8"))]
    assert not offenders, ("mode reordering read outside car.py (call "
                           "car.small_representation / car.embed on the "
                           f"region): {offenders}")


# top-level definitions of the monomial oracle, which build its tables from
# the column-map encodings
ORACLE = {"_site_factor_encodings", "Monomial", "monomial_basis"}


def encoding_calls(source: str) -> list[int]:
    """Line numbers of calls to a column-map encoding outside the bodies of
    the monomial oracle's definitions."""
    def flagged(func):
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else "")
        return name.endswith("_encoding") or name == "encoding_dense"
    return calls_outside(source, ORACLE, flagged)


@pytest.mark.parametrize("snippet, flagged", [
    ("car.grading_encoding(region)", True),
    ("grading_encoding(Region.full(n))[1].real", True),
    ("encoding_dense(perm, val)", True),
    ("car.annihilator_encoding(0, 3)", True),
    ("car.parity_order(n)", False),
    ("car.parity_signs(n)", False),
    ("_site_factor_encodings(n)", False),
    ("class Monomial:\n    def dense(self):\n"
     "        return encoding_dense(self.perm, self.val)", False),
    ("def signs(n):\n    return grading_encoding(n)", True),
])
def test_guard_recognizes_encoding_calls(snippet, flagged):
    assert bool(encoding_calls(snippet)) is flagged


def test_no_package_code_reads_a_column_map_encoding():
    offenders = [f"{path.name}:{line}" for path in SOURCES
                 for line in encoding_calls(path.read_text("utf-8"))]
    assert not offenders, ("column-map encodings called outside the "
                           "monomial oracle (read the grading off "
                           f"car.parity_order): {offenders}")


# modules that ask a state for its log; math.log and np.log are functions
LOG_CLIENTS = ("entropy.py", "stability.py")
LOG_FUNCTION_MODULES = {"math", "np", "numpy", "cmath"}


def log_reads(source: str) -> list[int]:
    """Line numbers of reads of a ``.log`` attribute (other than the
    logarithm of a math module) and of every use of the name
    ``GibbsLog``."""
    def flagged(node):
        if isinstance(node, ast.Attribute):
            if node.attr == "GibbsLog":
                return True
            return node.attr == "log" and not (
                isinstance(node.value, ast.Name)
                and node.value.id in LOG_FUNCTION_MODULES)
        if isinstance(node, ast.Name):
            return node.id == "GibbsLog"
        return isinstance(node, ast.alias) and node.name == "GibbsLog"
    return [node.lineno for node in ast.walk(ast.parse(source))
            if flagged(node)]


@pytest.mark.parametrize("snippet, flagged", [
    ("omega.log", True),
    ("if omega.log is None:\n    pass", True),
    ("omega1.log.trace_log(omega2.density)", True),
    ("log_d = omega.log.matrix(n)", True),
    ("from .states import DensityState, GibbsLog", True),
    ("isinstance(x, GibbsLog)", True),
    ("states.GibbsLog", True),
    ("np.log(w)", False),
    ("math.log(z)", False),
    ("numpy.log(w)", False),
    ("omega.log_matrix()", False),
    ("omega1.trace_log(omega2.density)", False),
    ("omega.smallest_weight()", False),
])
def test_guard_recognizes_log_reads(snippet, flagged):
    assert bool(log_reads(snippet)) is flagged


def test_only_states_decides_how_a_log_is_known():
    offenders = [f"{name}:{line}" for name in LOG_CLIENTS
                 for line in log_reads((PACKAGE / name).read_text("utf-8"))]
    assert not offenders, ("a state's log read outside fermichain.states "
                           "(ask the state: trace_log, log_matrix, "
                           f"smallest_weight): {offenders}")


def adjoint_operand(node):
    """``X`` of an expression ``X.conj().T`` or ``X.T.conj()``, else None."""
    def operand(node, attr):
        if attr == "conj":      # a call with no arguments
            if not (isinstance(node, ast.Call) and not node.args):
                return None
            node = node.func
        if isinstance(node, ast.Attribute) and node.attr == attr:
            return node.value
        return None
    for outer, inner in (("T", "conj"), ("conj", "T")):
        x = operand(node, outer)
        x = None if x is None else operand(x, inner)
        if x is not None:
            return x
    return None


def adjoint_differences(source: str) -> list[int]:
    """Line numbers of the differences ``X - X*`` outside the body of
    ``hermitian_defect``."""
    def flagged(node):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
            return False
        x = adjoint_operand(node.right)
        return x is not None and ast.dump(x) == ast.dump(node.left)
    return nodes_outside(source, {"hermitian_defect"}, flagged)


@pytest.mark.parametrize("snippet, flagged", [
    ("x - x.conj().T", True),
    ("np.max(np.abs(small - small.conj().T))", True),
    ("term.small - term.small.conj().T", True),
    ("x - x.T.conj()", True),
    ("def is_self_adjoint(self):\n    return self.small - self.small.conj().T",
     True),
    ("def hermitian_defect(matrix):\n    diff = matrix - matrix.conj().T",
     False),
    ("car.hermitian_defect(small)", False),
    ("x + x.conj().T", False),
    ("y += y.conj().T", False),
    ("x - y.conj().T", False),
    ("x - x.T", False),
])
def test_guard_recognizes_adjoint_differences(snippet, flagged):
    assert bool(adjoint_differences(snippet)) is flagged


def test_self_adjointness_is_measured_by_hermitian_defect_alone():
    offenders = [f"{path.name}:{line}" for path in SOURCES
                 for line in adjoint_differences(path.read_text("utf-8"))]
    assert not offenders, ("X - X* formed outside car.hermitian_defect "
                           f"(call it instead): {offenders}")


def adjoint_sums(source: str) -> list[int]:
    """Line numbers of the sums ``X + X*``, ``X* + X`` and ``X += X*``
    outside the body of ``hermitian_part``; a target and an operand are
    compared as written, whether stored or loaded."""
    def adjoint_of(adjoint, x):
        operand = adjoint_operand(adjoint)
        return operand is not None and ast.unparse(operand) == ast.unparse(x)

    def flagged(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return (adjoint_of(node.right, node.left)
                    or adjoint_of(node.left, node.right))
        return (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add)
                and adjoint_of(node.value, node.target))
    return nodes_outside(source, {"hermitian_part"}, flagged)


@pytest.mark.parametrize("snippet, flagged", [
    ("x + x.conj().T", True),
    ("(matrix + matrix.conj().T) / 2.0", True),
    ("x.conj().T + x", True),
    ("x + x.T.conj()", True),
    ("y += y.conj().T", True),
    ("part += part.conj().T", True),
    ("def hermitian_part(x):\n    x += x.conj().T", False),
    ("car.hermitian_part(diff)", False),
    ("x - x.conj().T", False),
    ("x + y.conj().T", False),
    ("y += x.conj().T", False),
    ("x + x.T", False),
    ("h + h.dagger()", False),
])
def test_guard_recognizes_adjoint_sums(snippet, flagged):
    assert bool(adjoint_sums(snippet)) is flagged


def test_the_hermitian_part_is_taken_by_hermitian_part_alone():
    offenders = [f"{path.name}:{line}" for path in SOURCES
                 for line in adjoint_sums(path.read_text("utf-8"))]
    assert not offenders, ("X + X* formed outside car.hermitian_part (call "
                           f"it instead): {offenders}")


def gaussian_draws(source: str) -> list[int]:
    """Line numbers of the calls to ``standard_normal`` outside the body of
    ``gaussian``."""
    def flagged(func):
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else "")
        return name == "standard_normal"
    return calls_outside(source, {"gaussian"}, flagged)


@pytest.mark.parametrize("snippet, flagged", [
    ("rng.standard_normal((n, n))", True),
    ("y.real = rng.standard_normal((n, n))", True),
    ("a = rng.standard_normal(s) + 1j * rng.standard_normal(s)", True),
    ("np.random.default_rng(0).standard_normal(3)", True),
    ("standard_normal(3)", True),
    ("def draw(rng):\n    return rng.standard_normal(3)", True),
    ("def gaussian(shape, rng, dtype):\n"
     "    real = rng.standard_normal(shape)", False),
    ("def complex_gaussian(shape, rng):\n"
     "    out.real = rng.standard_normal(shape)", True),
    ("car.gaussian((n, n), rng, dtype)", False),
    ("rng.uniform(0.3, 1.0)", False),
    ("draw = rng.standard_normal", False),
])
def test_guard_recognizes_gaussian_draws(snippet, flagged):
    assert bool(gaussian_draws(snippet)) is flagged


def test_every_gaussian_draw_is_car_gaussian():
    offenders = [f"{path.name}:{line}" for path in SOURCES
                 for line in gaussian_draws(path.read_text("utf-8"))]
    assert not offenders, ("standard_normal called outside car.gaussian "
                           f"(call it instead): {offenders}")
