"""Closed-form Gibbs logs against the spectral route, and the decomposition
budget of each verb.

A Gibbs state records ``log D = -beta (H - E0) - log Z'`` with ``H`` in the
small representation of its region, so relative entropies against it, its
entropy and its smallest eigenvalue need no decomposition of ``D``; norms of
local elements come from the small representation of their support.  Each
closed form must agree with the dense spectral computation
(``relative_entropy_matrices``, ``eigvalsh``, ``np.linalg.norm(., 2)``) to
``1e-12 * max(1, |value|)``.
"""

import contextlib
import io
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from fermichain import car, cli
from fermichain.entropy import (conditional_entropy, relative_entropy,
                                relative_entropy_matrices,
                                restricted_relative_entropy)
from fermichain.potentials import (build_model, local_hamiltonian, prune,
                                   total_hamiltonian)
from fermichain.regions import Region
from fermichain.states import (DensityState, gibbs_state, odd_direction,
                               perturbed_state, restrict, spectral_entropy)


def close(got: float, want: float) -> bool:
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


def spectrum(state: DensityState) -> np.ndarray:
    return np.linalg.eigvalsh(state.density)


def check_closed_forms(lattice, model, beta, sites):
    region = Region.of(sites, lattice)
    potential = build_model(model, lattice)
    full = gibbs_state(total_hamiltonian(potential), beta)
    phi = perturbed_state(potential, beta, region)
    assert full.log is not None and phi.log is not None

    for first, second in ((full, phi), (phi, full)):
        got = relative_entropy(first, second)
        want = relative_entropy_matrices(first.density, second.density)
        assert math.isfinite(got) and math.isfinite(want)
        assert close(got, want), (got, want)

    for state in (full, phi):
        dense = spectrum(state)
        assert close(state.entropy(), spectral_entropy(dense))
        assert close(state.lambda_min(), float(np.min(dense)))
        assert np.max(np.abs(state.eigenvalues() - dense)) <= 1e-12

    comp = region.complement()
    got = restricted_relative_entropy(phi, full, comp)
    want = relative_entropy_matrices(restrict(phi, comp).density,
                                     restrict(full, comp).density)
    assert restrict(phi, comp).log is not None
    assert close(got, want), (got, want)

    for element in (local_hamiltonian(potential, region),
                    odd_direction(region)):
        assert close(element.norm(), float(np.linalg.norm(element.matrix, 2)))


@given(lattice=st.integers(min_value=1, max_value=6),
       model=st.sampled_from(["hopping", "tv"]),
       beta=st.floats(min_value=-2.0, max_value=2.0),
       data=st.data())
def test_closed_forms_match_the_spectral_route(lattice, model, beta, data):
    sites = data.draw(st.sets(st.integers(0, lattice - 1), min_size=1))
    check_closed_forms(lattice, model, beta, sorted(sites))


def test_closed_forms_match_the_spectral_route_at_seven_sites():
    check_closed_forms(7, "tv", -1.7, [2, 3])


def test_gibbs_state_takes_an_element_held_on_its_region():
    # only the small representation on the support is diagonalized, and the
    # log names the support as its region, or None for the whole chain
    lattice = 5
    region = Region.of([0, 1, 3], lattice)
    pruned = prune(build_model("tv", lattice), region.complement())
    held = total_hamiltonian(pruned, support=region)
    via_element = gibbs_state(held, 1.0)
    assert np.array_equal(via_element.log.h, held.small)
    assert via_element.log.region == region
    whole = gibbs_state(total_hamiltonian(pruned), 1.0)
    assert whole.log.region is None
    assert np.max(np.abs(via_element.density - whole.density)) <= 1e-15


def test_restriction_to_another_region_has_no_closed_form():
    lattice = 5
    region = Region.of([2], lattice)
    phi = perturbed_state(build_model("hopping", lattice), 1.0, region)
    assert restrict(phi, region.complement()).log is not None
    assert restrict(phi, Region.of([0, 1], lattice)).log is None
    assert restrict(phi, region).log is None


def test_generic_state_takes_its_spectrum_once(monkeypatch):
    rng = np.random.default_rng(5)
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    d = g @ g.conj().T
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(matrix, *args, **kwargs):
        calls.append(matrix.shape)
        return eigvalsh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    state = DensityState(d / np.trace(d).real)
    state.lambda_min()
    state.entropy()
    state.eigenvalues()
    assert calls == [(16, 16)]
    # the grading image is a different density and takes its own spectrum
    state.theta().entropy()
    assert calls == [(16, 16), (16, 16)]


def test_closed_form_logs_keep_low_temperature_entropies_finite():
    lattice, beta = 4, 50.0
    region = Region.of([1], lattice)
    potential = build_model("hopping", lattice)
    full = gibbs_state(total_hamiltonian(potential), beta)
    phi = perturbed_state(potential, beta, region)
    # the spectral route loses the kernel condition at this temperature
    assert relative_entropy_matrices(full.density, phi.density) == math.inf
    bound = 2.0 * beta * local_hamiltonian(potential, region).norm()
    for value in (relative_entropy(full, phi), relative_entropy(phi, full),
                  restricted_relative_entropy(phi, full, region.complement())):
        assert 0.0 <= value <= bound
    assert conditional_entropy(full, region) <= 1e-12


# ---------------------------------------------------------------------------
# decomposition budget
# ---------------------------------------------------------------------------

DECOMPOSITIONS = ("eigh", "eigvalsh", "svd")
# verb -> most N x N eigh / eigvalsh / svd calls at L = 6 on region 2,3.
# Every even operator is decomposed by its two N/2 x N/2 parity blocks
# (car.spectral_blocks), so perturb, entropy and gibbs take none, and
# remark2 takes one for the positivity check of its vector state.  prop4 is
# checked exactly, on its own (PROP4_CALLS).
BUDGET = {"perturb": 0, "entropy": 0, "gibbs": 0, "remark2": 1}
# prop4 builds no full-chain Gibbs state, so it takes no N/2 x N/2 block
# decomposition, and one N x N eigvalsh each for psi and theta(psi), which
# are real but not even (theta(psi) keeps its own spectrum so that
# FpsiTheta and ScImin compare independent numbers)
PROP4_CALLS = ["eigvalsh", "eigvalsh"]


def counting(monkeypatch, n, kinds=None):
    """Names of the decompositions of ``n x n`` matrices, in call order;
    with ``kinds``, the dtype kind of each such matrix is appended to it."""
    calls = []
    # numpy.linalg.norm reaches svd through the private module namespace
    modules = [np.linalg, scipy.linalg]
    if hasattr(np.linalg, "_linalg"):
        modules.append(np.linalg._linalg)
    for module in modules:
        for name in DECOMPOSITIONS:
            original = getattr(module, name)

            def counted(a, *args, _original=original, _name=name, **kwargs):
                if np.shape(a) == (n, n):
                    calls.append(_name)
                    if kinds is not None:
                        kinds.append(np.asarray(a).dtype.kind)
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("verb", sorted([*BUDGET, "prop4"]))
def test_each_verb_stays_within_its_decomposition_budget(verb, monkeypatch):
    lattice = 6
    n = car.dim(lattice)
    calls = counting(monkeypatch, n)
    blocks = counting(monkeypatch, n // 2)
    argv = [verb, "--length", str(lattice)]
    if verb not in ("gibbs", "remark2"):
        argv += ["--region", "2,3"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    if verb == "prop4":
        assert calls == PROP4_CALLS and blocks == [], (calls, blocks)
        return
    # every other verb builds the full Gibbs state from the blocks of H
    assert blocks, "the counter saw no block decomposition at all"
    assert len(calls) <= BUDGET[verb], calls


def test_gibbs_takes_four_real_block_eigh_and_nothing_else(monkeypatch):
    # eigh of both parity blocks of H in gibbs_state and again, on purpose,
    # in kms_residual, which checks the state against its own decomposition
    lattice = 6
    n = car.dim(lattice)
    calls = counting(monkeypatch, n)
    kinds = []
    blocks = counting(monkeypatch, n // 2, kinds)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gibbs", "--length", str(lattice)]) == 0
    assert calls == []
    assert blocks == ["eigh"] * 4
    assert kinds == ["f"] * 4


def test_the_counter_sees_numpy_norm_and_scipy(monkeypatch):
    calls = counting(monkeypatch, 4)
    a = np.eye(4)
    np.linalg.norm(a, 2)
    scipy.linalg.eigh(a)
    np.linalg.eigvalsh(a)
    np.linalg.eigvalsh(np.eye(2))
    assert calls == ["svd", "eigh", "eigvalsh"]
