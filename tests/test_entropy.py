import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given
from hypothesis import strategies as st

from fermichain import car
from fermichain.entropy import (compressed_conditional_entropy,
                                conditional_entropy, relative_entropy,
                                relative_entropy_matrices,
                                restricted_relative_entropy)
from fermichain.potentials import (build_model, hopping_model,
                                   local_hamiltonian, total_hamiltonian)
from fermichain.regions import Region
from fermichain.stability import free_energy
from fermichain.states import (DensityState, gibbs_state,
                               noneven_perturbation, perturbed_state,
                               restrict)


def random_density_matrix(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    d = g @ g.conj().T
    return d / np.trace(d).real


def random_state(lattice, rng):
    return DensityState(random_density_matrix(car.dim(lattice), rng))


# ---------------------------------------------------------------------------
# relative entropy
# ---------------------------------------------------------------------------


def test_relative_entropy_vanishes_on_the_diagonal():
    omega = random_state(3, np.random.default_rng(0))
    assert 0.0 <= relative_entropy(omega, omega) < 1e-13


def test_relative_entropy_pure_vs_tracial_oracle():
    lattice = 3
    n = car.dim(lattice)
    pure = np.zeros((n, n), dtype=complex)
    pure[0, 0] = 1.0
    # reference = normalized trace: S(tau, pure) = log(dim) = L log 2
    result = relative_entropy(DensityState(np.eye(n) / n), DensityState(pure))
    assert abs(result - lattice * math.log(2)) < 1e-12


def test_relative_entropy_detects_kernel_violation():
    n = 4
    pure = np.zeros((n, n), dtype=complex)
    pure[0, 0] = 1.0
    mixed = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    # a kernel leak is a plain float infinity, on every route to the value
    assert relative_entropy_matrices(pure, mixed) == math.inf
    pure_state, mixed_state = DensityState(pure), DensityState(mixed)
    assert relative_entropy(pure_state, mixed_state) == math.inf
    assert restricted_relative_entropy(pure_state, mixed_state,
                                       Region.full(2)) == math.inf
    # the opposite ordering is fine: the mixed reference dominates everything
    assert math.isfinite(relative_entropy_matrices(mixed, pure))


@given(st.integers(min_value=0, max_value=10_000))
def test_relative_entropy_is_nonnegative(seed):
    rng = np.random.default_rng(seed)
    a = random_density_matrix(8, rng)
    b = random_density_matrix(8, rng)
    assert 0.0 <= relative_entropy_matrices(a, b) < math.inf


def random_unitary(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(g)[0]


def density_with_spectrum(q, spectrum):
    return (q * (spectrum / np.sum(spectrum))) @ q.conj().T


def logm_terms(d1, d2):
    """Oracle: ``Tr(D2 logm D2)`` and ``Tr(D2 logm D1)``, with scipy's
    matrix logarithm; the relative entropy is their difference."""
    return tuple(float(np.real(np.trace(d2 @ scipy.linalg.logm(d))))
                 for d in (d2, d1))


def logm_relative_entropy(d1, d2):
    """Oracle: ``Tr(D2 (logm D2 - logm D1))``."""
    own, cross = logm_terms(d1, d2)
    return own - cross


# The densities below have spectra in [0.01, 1] before normalization.  The
# relative entropy's own condition number grows with 1 / lambda_min of the
# reference, so on nearly singular Wishart samples any floating-point
# evaluation (this one and logm alike) drifts past 1e-12 relative; bounding
# the spectrum keeps the comparison about the contraction, not conditioning.
# The value is a difference of the two terms S(D2) and Tr(D2 log D1), each
# carrying its own rounding, so it is compared at 1e-12 of their scale: two
# nearby states give a value far below them (3.5e-4 against terms near
# -0.69 at lattice=1, seed=1019, where the two routes differ by 3e-16 to
# 5e-16, more than 1e-12 of the value).

@given(lattice=st.integers(min_value=1, max_value=5),
       seed=st.integers(min_value=0, max_value=10_000))
@example(lattice=1, seed=1019)
def test_relative_entropy_matches_logm_oracle(lattice, seed):
    rng = np.random.default_rng(seed)
    n = car.dim(lattice)
    d1, d2 = (density_with_spectrum(random_unitary(n, rng),
                                    rng.uniform(0.01, 1.0, n))
              for _ in range(2))
    got = relative_entropy_matrices(d1, d2)
    own, cross = logm_terms(d1, d2)
    assert abs(got - (own - cross)) <= 1e-12 * max(abs(own), abs(cross))


@given(st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=10_000))
def test_relative_entropy_kernel_leak_oracle(lattice, seed):
    rng = np.random.default_rng(seed)
    n = car.dim(lattice)
    q = random_unitary(n, rng)
    kernel = max(1, int(rng.integers(0, n)))        # 1 <= kernel <= n - 1
    spectrum = rng.uniform(0.01, 1.0, n)
    spectrum[:kernel] = 0.0
    d1 = density_with_spectrum(q, spectrum)
    # weight on a kernel vector of the reference: infinite
    d2 = density_with_spectrum(random_unitary(n, rng),
                               rng.uniform(0.01, 1.0, n))
    assert relative_entropy_matrices(d1, d2) == math.inf
    # weight only on the reference's support: finite, and equal to the
    # oracle evaluated in a basis of that support
    support = q[:, kernel:]
    inner = density_with_spectrum(random_unitary(n - kernel, rng),
                                  rng.uniform(0.01, 1.0, n - kernel))
    d2 = support @ inner @ support.conj().T
    got = relative_entropy_matrices(d1, d2)
    want = logm_relative_entropy(support.conj().T @ d1 @ support, inner)
    # a one-dimensional support makes both states equal and the value 0
    assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


@pytest.mark.parametrize("model", ["tv", "hopping"])
@pytest.mark.parametrize("sites", [[0], [2, 3]])
@pytest.mark.parametrize("beta", [1.0, 2.0, 5.0, 10.0, 20.0, 50.0])
def test_small_eigenvalues_of_the_reference_are_not_its_kernel(
        model, sites, beta):
    # psi = phi (1 + X / 2) is faithful, yet at low temperature its smallest
    # eigenvalues lie far below its largest (2.8e-14 of it for tv, beta = 5
    # on site 0); log psi = log phi + log(1 + X / 2), so the relative
    # entropy of phi from psi is -tau(log(1 + X / 2)) = -log(1 - 1/4) / 2
    lattice = 6
    region = Region.of(sites, lattice)
    phi = perturbed_state(build_model(model, lattice), beta, region)
    psi = noneven_perturbation(phi, region)
    want = -0.5 * math.log(1.0 - 0.25)
    assert abs(relative_entropy(psi, phi) - want) <= 1e-11


def test_relative_entropy_takes_one_decomposition_of_the_reference(
        monkeypatch):
    # a non-Gibbs reference: one eigh of D1 and nothing else, as validation
    # already holds the spectrum of D2
    rng = np.random.default_rng(9)
    omega1, omega2 = random_state(3, rng), random_state(3, rng)
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(matrix, name=name, original=getattr(car, name)):
            calls.append((name, matrix is omega1.density))
            return original(matrix)
        monkeypatch.setattr(car, name, counted)
    got = relative_entropy(omega1, omega2)
    assert calls == [("eigh", True)]
    own, cross = logm_terms(omega1.density, omega2.density)
    assert abs(got - (own - cross)) <= 1e-12 * max(abs(own), abs(cross))


def test_relative_entropy_is_unitarily_invariant():
    rng = np.random.default_rng(5)
    a = random_density_matrix(8, rng)
    b = random_density_matrix(8, rng)
    u = np.linalg.qr(rng.standard_normal((8, 8))
                     + 1j * rng.standard_normal((8, 8)))[0]
    plain = relative_entropy_matrices(a, b)
    rotated = relative_entropy_matrices(u @ a @ u.conj().T,
                                        u @ b @ u.conj().T)
    assert abs(plain - rotated) < 1e-11


def test_relative_entropy_adds_over_independent_sites():
    rng = np.random.default_rng(6)
    a1, a2 = (random_density_matrix(2, rng) for _ in range(2))
    b1, b2 = (random_density_matrix(2, rng) for _ in range(2))
    # occupation-basis convention: site 0 is the least significant factor
    joint = relative_entropy_matrices(np.kron(b1, a1), np.kron(b2, a2))
    split = (relative_entropy_matrices(a1, a2)
             + relative_entropy_matrices(b1, b2))
    assert abs(joint - split) < 1e-11


# ---------------------------------------------------------------------------
# restriction monotonicity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_restriction_never_increases_relative_entropy(seed):
    lattice = 4
    rng = np.random.default_rng(200 + seed)
    omega1 = random_state(lattice, rng)
    omega2 = random_state(lattice, rng)
    full = relative_entropy(omega1, omega2)
    for region in (Region.of([0], lattice), Region.of([1, 2], lattice),
                   Region.of([0, 3], lattice)):
        part = restricted_relative_entropy(omega1, omega2, region)
        assert part <= full + 1e-10


def test_restriction_to_the_full_chain_changes_nothing():
    lattice = 3
    rng = np.random.default_rng(7)
    omega1 = random_state(lattice, rng)
    omega2 = random_state(lattice, rng)
    full = relative_entropy(omega1, omega2)
    again = restricted_relative_entropy(omega1, omega2,
                                        Region.full(lattice))
    assert abs(full - again) < 1e-10


# ---------------------------------------------------------------------------
# conditional entropy
# ---------------------------------------------------------------------------


def test_conditional_entropy_is_never_positive():
    lattice = 4
    region = Region.of([1, 2], lattice)
    for seed in range(8):
        omega = random_state(lattice, np.random.default_rng(300 + seed))
        assert conditional_entropy(omega, region) <= 1e-12


def test_conditional_entropy_vanishes_on_decoupled_states():
    lattice = 5
    region = Region.of([2], lattice)
    phi = perturbed_state(hopping_model(lattice), 1.0, region)
    assert abs(conditional_entropy(phi, region)) < 1e-12


def test_conditional_entropy_of_a_product_vector_state():
    lattice = 2
    n = car.dim(lattice)
    vacuum = np.zeros((n, n), dtype=complex)
    vacuum[0, 0] = 1.0
    omega = DensityState(vacuum)
    # the vacuum is pure on site 0, so decoupling it costs exactly log 2
    got = conditional_entropy(omega, Region.of([0], lattice))
    assert abs(got + math.log(2)) < 1e-12


def test_conditional_entropy_helper_rejects_non_densities():
    n, m = 16, 4
    # the maximally mixed density has no pure conditional expectation, so
    # S(D) - (N / m) S(small) = log N > 0 can only mean bad inputs
    pure = np.zeros((m, m))
    pure[0, 0] = 1.0
    mixed = DensityState(np.eye(n) / n, validate=False)
    with pytest.raises(RuntimeError):
        compressed_conditional_entropy(mixed, pure)
    # its true conditional expectation gives 0 up to rounding, clamped to <= 0
    got = compressed_conditional_entropy(mixed, np.eye(m) / n)
    assert -1e-15 <= got <= 0.0


def test_conditional_free_energy_matches_its_parts():
    lattice, beta = 4, 1.3
    region = Region.of([1, 2], lattice)
    pot = hopping_model(lattice)
    omega = gibbs_state(total_hamiltonian(pot), beta)
    h_i = local_hamiltonian(pot, region).matrix
    want = (conditional_entropy(omega, region)
            - beta * float(np.real(omega.expectation(h_i))))
    assert abs(free_energy(omega, pot, region, beta) - want) == 0.0


def test_conditional_free_energy_favors_the_gibbs_state():
    # among a handful of candidate states the Gibbs state has the largest F
    lattice, beta = 4, 1.0
    region = Region.of([1, 2], lattice)
    pot = hopping_model(lattice)
    best = free_energy(gibbs_state(total_hamiltonian(pot), beta), pot,
                       region, beta)
    for seed in range(5):
        omega = random_state(lattice, np.random.default_rng(400 + seed))
        assert free_energy(omega, pot, region, beta) <= best + 1e-10
