import math

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import example, given
from hypothesis import strategies as st

from fermichain import car
from fermichain.potentials import (hopping_model, prune, total_hamiltonian,
                                   tv_model)
from fermichain.regions import Region
from fermichain.states import (DensityState, FactorState, gibbs_state,
                               kms_residual,
                               noneven_perturbation, odd_direction,
                               perturbed_state, product_check,
                               random_pair_panel, remark2_construct, restrict,
                               spectral_entropy)


def number(site, lattice):
    """``a* a`` on one site."""
    a = car.annihilator(site, lattice)
    return a.dagger() @ a


def random_density(lattice, rng):
    n = car.dim(lattice)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    d = g @ g.conj().T
    return DensityState(d / np.trace(d).real)


# ---------------------------------------------------------------------------
# densities and Gibbs states
# ---------------------------------------------------------------------------


def test_density_validation_rejects_bad_inputs():
    n = car.dim(2)
    with pytest.raises(ValueError):
        DensityState(np.eye(n))                       # trace is 4, not 1
    with pytest.raises(ValueError):
        DensityState(1j * np.eye(n) / n)              # not self-adjoint
    spectrum = np.diag([1.5, -0.5, 0.0, 0.0])
    with pytest.raises(ValueError):
        DensityState(spectrum)                        # negative eigenvalue


def test_states_refuse_arrays_of_no_chain():
    # N = 0 is no chain's 2**L, and a 0-d array has no rows: each state
    # refuses them by its own shape check, before any reduction
    for bad in (np.zeros((0, 0)), np.array(1.0), np.zeros(4)):
        with pytest.raises(ValueError, match=r"density shape .* is not"):
            DensityState(bad)
    for bad in (np.zeros((0, 3)), np.array(1.0), np.zeros(4)):
        with pytest.raises(ValueError, match=r"factor shape .* is not"):
            FactorState(bad)


def test_single_site_gibbs_closed_form():
    beta, mu = 1.7, 0.9
    pot = hopping_model(1, t=0.0, mu=mu)
    got = gibbs_state(total_hamiltonian(pot), beta).density
    # occupation basis: index 0 empty, index 1 occupied; H = -mu n
    z = 1.0 + math.exp(beta * mu)
    want = np.diag([1.0 / z, math.exp(beta * mu) / z])
    assert np.max(np.abs(got - want)) < 1e-14


def test_gibbs_limits_and_invariance():
    pot = tv_model(4)
    h = total_hamiltonian(pot)
    assert np.max(np.abs(gibbs_state(h, 0.0).density
                         - np.eye(16) / 16)) < 1e-14
    g = gibbs_state(h, 1.3)
    assert np.max(np.abs(g.density @ h.matrix - h.matrix @ g.density)) < 1e-13
    assert car.grading_defect(g.density) <= 1e-12
    with pytest.raises(ValueError):
        gibbs_state(h, math.inf)
    skew = car.annihilator(0, 4)
    with pytest.raises(ValueError):
        gibbs_state(skew, 1.0)


def test_kms_condition_separates_gibbs_from_tracial():
    lattice, beta = 4, 1.1
    h = total_hamiltonian(hopping_model(lattice))
    assert kms_residual(gibbs_state(h, beta), h, beta) < 1e-10
    # the tracial state is the Gibbs state only at beta = 0
    tau = DensityState(np.eye(car.dim(lattice)) / car.dim(lattice))
    assert kms_residual(tau, h, 0.0) < 1e-12
    assert kms_residual(tau, h, beta) > 1e-3


def dense_gibbs_defect(density, h, beta):
    """``||D - e^(-beta H) / Tr e^(-beta H)||_F`` from a dense exponential,
    with no eigenbasis.  The exponent is shifted by the scalar ``E0``, the
    extreme eigenvalue of ``H`` (the smallest for ``beta >= 0``), so no
    weight exceeds one: unshifted, ``expm`` carries a rounding of the large
    weights that the normalization does not remove (1.1e-13 at
    ``L = 4``, ``beta = 1.84375``)."""
    eps = np.linalg.eigvalsh(h)
    e0 = eps[0] if beta >= 0 else eps[-1]
    weight = scipy.linalg.expm(-beta * (h - e0 * np.eye(h.shape[0])))
    return np.linalg.norm(density - weight / np.trace(weight))


@given(lattice=st.integers(min_value=1, max_value=5),
       beta=st.floats(min_value=-2.0, max_value=2.0),
       model=st.sampled_from([hopping_model, tv_model]),
       seed=st.integers(min_value=0, max_value=10_000))
@example(lattice=4, beta=1.84375, model=hopping_model, seed=0)
def test_kms_residual_matches_dense_oracle(lattice, beta, model, seed):
    h = total_hamiltonian(model(lattice))
    for omega in (random_density(lattice, np.random.default_rng(seed)),
                  gibbs_state(h, beta)):
        want = dense_gibbs_defect(omega.density, h.matrix, beta)
        got = kms_residual(omega, h, beta)
        assert abs(got - want) <= max(1e-12 * want, 1e-13)


def kms_controls(h, beta):
    """The exact Gibbs state at ``beta > 0`` and two states near it: the
    Gibbs state at ``beta (1 + 1e-6)``, and the Gibbs density with the
    eigenbasis entry between its two largest weights and its mirror moved
    by 1e-8."""
    exact = gibbs_state(h, beta)
    _, u = np.linalg.eigh(h.matrix)
    shift = np.outer(u[:, 0], u[:, 1].conj())
    moved = exact.density + 1e-8 * (shift + shift.conj().T)
    return (exact, gibbs_state(h, beta * (1 + 1e-6)),
            DensityState(moved))


@pytest.mark.parametrize("lattice", [4, 6, 8])
@pytest.mark.parametrize("beta", [0.5, 1.0, 5.0])
def test_kms_residual_fails_states_near_gibbs(lattice, beta):
    h = total_hamiltonian(hopping_model(lattice))
    exact, *controls = kms_controls(h, beta)
    assert kms_residual(exact, h, beta) <= 1e-12
    for control in controls:
        assert kms_residual(control, h, beta) >= 1e-8


def panel_kms_residual(omega, h, beta, pairs):
    """The KMS boundary condition by its definition: the worst
    ``|omega(A e^(-beta H) B e^(beta H)) - omega(B A)|`` over the pairs,
    read as matrices in the eigenbasis of ``H``, where conjugation by
    ``e^(-beta H)`` multiplies entry ``(k, l)`` by
    ``exp(-beta (eps_k - eps_l))``."""
    eps, u = np.linalg.eigh(h)
    d_t = u.conj().T @ omega.density @ u
    weight = np.exp(-beta * (eps[:, None] - eps[None, :]))
    return max(abs(np.sum((d_t @ a) * (b * weight).T)
                   - np.sum((d_t @ b) * a.T)) for a, b in pairs)


@pytest.mark.parametrize("lattice", [4, 6])
@pytest.mark.parametrize("beta", [0.5, 1.0])
def test_kms_residual_agrees_with_the_pair_panel(lattice, beta):
    # the panel is well conditioned at this size and temperature: its
    # weights stay below e^(beta * width of H)
    h = total_hamiltonian(hopping_model(lattice))
    rng = np.random.default_rng(lattice)
    pairs = list(random_pair_panel(lattice, 20, rng))
    states = kms_controls(h, beta)
    by_panel = [panel_kms_residual(omega, h.matrix, beta, pairs) <= 1e-10
                for omega in states]
    by_defect = [kms_residual(omega, h, beta) <= 1e-10 for omega in states]
    assert by_panel == by_defect == [True, False, False]


@given(st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=10_000))
def test_random_pair_panel_scales_a_direct_redraw(lattice, count, seed):
    panel = list(random_pair_panel(lattice, count, np.random.default_rng(seed)))
    assert len(panel) == count
    rng = np.random.default_rng(seed)
    n = car.dim(lattice)
    for pair in panel:
        for got in pair:
            real = rng.standard_normal((n, n))
            imag = rng.standard_normal((n, n))
            draw = real + 1j * imag
            want = draw / np.linalg.norm(draw, 2)
            assert np.max(np.abs(got - want)) <= 1e-13
            assert abs(np.linalg.norm(got, 2) - 1.0) <= 1e-13


def awkward_spectrum(n, rng):
    """A spectrum of length ``n`` in ``[0, 1]``, with exact zeros, rounding
    below zero and subnormal weights mixed in."""
    p = rng.uniform(size=n) ** 3
    k = np.arange(n)
    negative, subnormal = k % 7 == 2, k % 11 == 3
    p[k % 5 == 1] = 0.0
    p[negative] = -rng.uniform(0.0, 1e-15, size=np.count_nonzero(negative))
    p[subnormal] = rng.uniform(0.0, 2.2e-308, size=np.count_nonzero(subnormal))
    p[k % 13 == 4] = 5e-324
    return p


@pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 64, 255, 1000, 4096])
def test_spectral_entropy_matches_the_xlogy_oracle(n):
    rng = np.random.default_rng(n)
    awkward = awkward_spectrum(n, rng)
    for p in (awkward, awkward / awkward.sum(), np.full(n, 1.0 / n),
              np.zeros(n)):
        clipped = np.clip(p, 0.0, None)
        want = scipy.special.xlogy(clipped, clipped)
        # a spectrum of one entry gives that entry's term of the sum
        got = np.array([-spectral_entropy(p[i:i + 1]) for i in range(n)])
        np.testing.assert_array_max_ulp(got, want, maxulp=4)
        assert np.all(got[clipped == 0.0] == 0.0)
        assert spectral_entropy(p) == pytest.approx(-np.sum(want), rel=1e-14,
                                                    abs=0.0)


def test_spectral_entropy_keeps_a_nan():
    for spectrum in ([np.nan], [0.5, np.nan, 0.5], [np.nan, 0.0, -1e-17]):
        assert math.isnan(spectral_entropy(np.array(spectrum)))


def unitary_density(q, spectrum):
    """``q diag(spectrum) q*``, normalized to trace 1."""
    return (q * (spectrum / np.sum(spectrum))) @ q.conj().T


def random_unitary(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(g)[0]


@pytest.mark.parametrize("lattice", [1, 2, 3, 4])
def test_log_matrix_of_a_faithful_state_matches_logm(lattice):
    # a complex density with spectrum in [0.01, 1], whole, and a real even
    # one, the Gibbs density held with no closed form, by parity blocks
    rng = np.random.default_rng(40 + lattice)
    n = car.dim(lattice)
    gibbs = gibbs_state(total_hamiltonian(tv_model(lattice)), 0.7)
    for density in (unitary_density(random_unitary(n, rng),
                                    rng.uniform(0.01, 1.0, n)),
                    gibbs.density):
        state = DensityState(density)
        assert state.log is None
        got = state.log_matrix()
        want = scipy.linalg.logm(density)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    closed = gibbs.log_matrix()
    assert np.max(np.abs(got - closed)) <= 1e-12 * np.max(np.abs(closed))


@pytest.mark.parametrize("lattice", [1, 2, 3, 4])
def test_trace_log_off_the_support_is_minus_infinity(lattice):
    rng = np.random.default_rng(50 + lattice)
    n = car.dim(lattice)
    q = random_unitary(n, rng)
    kernel = max(1, n // 2 - 1)
    spectrum = rng.uniform(0.01, 1.0, n)
    spectrum[:kernel] = 0.0
    state = DensityState(unitary_density(q, spectrum))
    # weight on a kernel vector of D: -inf
    rho = unitary_density(random_unitary(n, rng), rng.uniform(0.01, 1.0, n))
    assert state.trace_log(rho) == -math.inf
    # weight only on the support: Tr(rho log D) in a basis of the support
    support = q[:, kernel:]
    inner = unitary_density(random_unitary(n - kernel, rng),
                            rng.uniform(0.01, 1.0, n - kernel))
    got = state.trace_log(support @ inner @ support.conj().T)
    log_d = scipy.linalg.logm(support.conj().T @ state.density @ support)
    want = float(np.real(np.trace(inner @ log_d)))
    assert math.isfinite(got)
    assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


# ---------------------------------------------------------------------------
# restrictions
# ---------------------------------------------------------------------------


def test_restriction_values_match_dense_traces():
    lattice = 4
    region = Region.of([1, 3], lattice)
    omega = random_density(lattice, np.random.default_rng(1))
    rest = restrict(omega, region)
    basis = car.monomial_basis(region)
    values = car.monomial_basis(Region.full(len(region))).expectations(rest.density)
    for k in range(len(basis)):
        want = np.trace(omega.density @ basis[k].dense())
        assert abs(values[k] - want) < 1e-12


def test_restriction_evaluate_and_errors():
    lattice = 3
    region = Region.of([0, 1], lattice)
    omega = random_density(lattice, np.random.default_rng(2))
    rest = restrict(omega, region)
    num = number(0, lattice)
    small_num = car.small_representation(num.matrix, region)
    assert abs(np.trace(rest.density @ small_num)
               - omega.expectation(num.matrix)) < 1e-12


@pytest.mark.parametrize("lattice, sites", [
    (1, (0,)), (3, (0, 2)), (4, (1, 2)), (5, (0, 3, 4)), (6, (2, 5)),
    (6, (0, 1, 2, 3, 4, 5))])
def test_restriction_commutes_with_the_grading_exactly(lattice, sites):
    # the parity signs are +-1, and on each block of the reordering those of
    # the traced-out modes cancel: restricting the grading image and
    # grading the restriction give equal entries, with no rounding
    omega = random_density(lattice, np.random.default_rng(lattice))
    assert car.grading_defect(omega.density) > 1e-3
    region = Region.of(sites, lattice)
    got = restrict(omega.theta(), region)
    want = restrict(omega, region).theta()
    assert got.lattice_size == len(region)
    assert np.array_equal(got.density, want.density)


def test_product_extension_factorizes_through_tau():
    lattice = 4
    region = Region.of([0, 1], lattice)
    omega = random_density(lattice, np.random.default_rng(3))
    ext = DensityState(car.conditional_expectation_matrix(omega.density,
                                                          region))
    # reproduces the restriction ...
    assert np.max(np.abs(restrict(ext, region).density
                         - restrict(omega, region).density)) < 1e-12
    # ... and factorizes against the complement
    assert product_check(ext, region.complement()) < 1e-12


def test_small_density_represents_the_restriction():
    lattice = 4
    region = Region.of([1, 2], lattice)
    omega = random_density(lattice, np.random.default_rng(4))
    small = restrict(omega, region).density
    m = car.dim(len(region))
    assert small.shape == (m, m)
    evals = np.linalg.eigvalsh(small)
    assert evals.min() > -1e-12 and abs(np.trace(small).real - 1.0) < 1e-12
    # expectation of a region element through the small copy
    num = number(1, lattice)
    small_num = car.small_representation(num.matrix, region)
    assert abs(np.trace(small @ small_num)
               - omega.expectation(num.matrix)) < 1e-12


# ---------------------------------------------------------------------------
# decoupled equilibrium states
# ---------------------------------------------------------------------------


def test_perturbed_state_has_exact_product_property():
    lattice, beta = 5, 1.0
    pot = hopping_model(lattice)
    region = Region.of([2], lattice)
    phi = perturbed_state(pot, beta, region)
    assert product_check(phi, region) < 1e-13
    assert car.grading_defect(phi.density) <= 1e-12
    # the density lies in the complement algebra
    comp = region.complement()
    assert np.max(np.abs(car.conditional_expectation_matrix(phi.density, comp)
                         - phi.density)) < 1e-13


def test_perturbed_state_is_gibbs_of_pruned_potential():
    lattice, beta = 4, 0.7
    pot = tv_model(lattice)
    region = Region.of([1], lattice)
    phi = perturbed_state(pot, beta, region)
    direct = gibbs_state(total_hamiltonian(prune(pot, region)), beta)
    assert np.max(np.abs(phi.density - direct.density)) < 1e-14


# ---------------------------------------------------------------------------
# noneven perturbations
# ---------------------------------------------------------------------------


def test_odd_direction_properties():
    lattice = 4
    region = Region.of([1, 2], lattice)
    x = odd_direction(region)
    assert car.hermitian_defect(x.small) <= 1e-12
    assert np.max(np.abs(car.theta(x).matrix + x.matrix)) == 0.0
    assert abs(x.norm() - 1.0) < 1e-12
    # invisible to the complement algebra
    comp = region.complement()
    assert np.max(np.abs(car.conditional_expectation_matrix(x.matrix,
                                                            comp))) == 0.0
    with pytest.raises(ValueError):
        odd_direction(Region.empty(lattice))


def test_perturbation_strength_keeps_the_state_faithful():
    # D (1 + lam X) >= (1 - lam ||X||) D for every lam in (0, 1 / ||X||),
    # whatever the smallest eigenvalue of D
    lattice = 3
    region = Region.of([0], lattice)
    phi = perturbed_state(hopping_model(lattice), 1.0, region)
    for lam in (0.5, 0.99):
        psi = noneven_perturbation(phi, region, strength=lam)
        assert psi.lambda_min() >= (1.0 - lam) * phi.lambda_min() - 1e-13
    # strengths outside the interval are refused rather than risked
    for lam in (1.0, 2.0, 0.0, -0.5):
        with pytest.raises(ValueError, match="outside"):
            noneven_perturbation(phi, region, strength=lam)
    zero = car.AlgebraElement(np.zeros((2, 2)), region)
    with pytest.raises(ValueError, match="zero direction"):
        noneven_perturbation(phi, region, direction=zero)
    # a density that does not commute with the direction gives no state
    gibbs = gibbs_state(total_hamiltonian(hopping_model(lattice)), 1.0)
    with pytest.raises(ValueError, match="not self-adjoint"):
        noneven_perturbation(gibbs, region)


def test_noneven_perturbation_is_invisible_outside():
    lattice, beta = 5, 1.0
    pot = hopping_model(lattice)
    region = Region.of([2, 3], lattice)
    phi = perturbed_state(pot, beta, region)
    psi = noneven_perturbation(phi, region)
    comp = region.complement()
    # exactly the same restriction outside ...
    assert np.max(np.abs(restrict(psi, comp).density
                         - restrict(phi, comp).density)) == 0.0
    # ... yet genuinely different and noneven
    assert np.max(np.abs(psi.density - phi.density)) > 1e-4
    assert car.grading_defect(psi.density) > 1e-4
    # the even average recovers the original state exactly
    averaged = 0.5 * (psi.density + psi.theta().density)
    assert np.max(np.abs(averaged - phi.density)) < 1e-15


def test_noneven_perturbation_validates_direction():
    lattice = 4
    pot = hopping_model(lattice)
    region = Region.of([1], lattice)
    phi = perturbed_state(pot, 1.0, region)
    even_dir = number(1, lattice)
    with pytest.raises(ValueError):
        noneven_perturbation(phi, region, direction=even_dir)
    not_sa = car.annihilator(1, lattice)
    with pytest.raises(ValueError):
        noneven_perturbation(phi, region, direction=not_sa)


# ---------------------------------------------------------------------------
# the single-site vector state
# ---------------------------------------------------------------------------


def test_remark2_vector_state():
    lattice = 4
    outer = gibbs_state(total_hamiltonian(hopping_model(lattice)), 1.0)
    state = remark2_construct(outer)
    site0 = Region.of([0], lattice)
    u = odd_direction(site0)
    # maximally noneven at site 0: expectation 1 on the odd unitary
    assert abs(state.expectation(u.matrix) - 1.0) < 1e-12
    # restriction outside site 0 is the even average of the input
    comp = site0.complement()
    target = 0.5 * (outer.density + outer.theta().density)
    expected = car.monomial_basis(comp).expectations(target)
    got = car.monomial_basis(Region.full(len(comp))).expectations(
        restrict(state, comp).density)
    assert np.max(np.abs(expected - got)) < 1e-10


def purified(outer, u):
    """The Remark 2 density by purification: ``Xi Xi* / ||Xi||_F**2`` for
    ``Xi = (1 + u) R / sqrt(2)``, ``R`` the square root, by ``eigh``, of
    the product extension of ``outer`` outside site 0."""
    comp = Region.of([0], outer.lattice_size).complement()
    extended = car.small_representation(outer.density, comp)
    evals, vecs = np.linalg.eigh((extended + extended.conj().T) / 2.0)
    root = car.embed((vecs * np.sqrt(np.clip(evals, 0.0, None)))
                     @ vecs.conj().T, comp)
    xi = (root + u.matrix @ root) / math.sqrt(2.0)
    return xi @ xi.conj().T / np.vdot(xi, xi).real


@pytest.mark.parametrize("outer_kind", ["gibbs", "random"])
@pytest.mark.parametrize("lattice", [2, 4, 6])
def test_remark2_matches_the_purification(lattice, outer_kind):
    # (1 + u) E (1 + u) / Tr is Xi Xi* / ||Xi||_F**2; the random outer state
    # is faithful and not even outside site 0, so its odd part must cancel
    if outer_kind == "gibbs":
        outer = gibbs_state(total_hamiltonian(hopping_model(lattice)), 1.0)
    else:
        outer = random_density(lattice, np.random.default_rng(lattice))
        comp = Region.of([0], lattice).complement()
        assert outer.lambda_min() > 0.0
        assert car.grading_defect(restrict(outer, comp).density) > 1e-3
    u = odd_direction(Region.of([0], lattice))
    oracle = purified(outer, u)
    got = remark2_construct(outer).density
    assert np.max(np.abs(got - oracle)) <= 1e-13 * np.max(np.abs(oracle))


def test_remark2_takes_no_eigh_and_one_eigvalsh(monkeypatch):
    # no square root is taken; the one spectrum is the validation's
    lattice = 5
    outer = gibbs_state(total_hamiltonian(tv_model(lattice)), 1.0)
    seen, eigvalsh = [], car.eigvalsh

    def spy(matrix):
        seen.append(matrix.shape)
        return eigvalsh(matrix)

    def refused(*args, **kwargs):
        raise AssertionError("eigh called")

    monkeypatch.setattr(car, "eigvalsh", spy)
    monkeypatch.setattr(car, "eigh", refused)
    monkeypatch.setattr(np.linalg, "eigh", refused)
    state = remark2_construct(outer)
    n = car.dim(lattice)
    assert seen == [(n, n)]
    assert state.lambda_min() >= -1e-12 and seen == [(n, n)]


def test_remark2_rejects_bad_unitaries():
    lattice = 3
    outer = gibbs_state(total_hamiltonian(hopping_model(lattice)), 1.0)
    site0 = Region.of([0], lattice)
    with pytest.raises(ValueError):
        remark2_construct(outer, u=car.annihilator(0, lattice))  # not s.a.
    with pytest.raises(ValueError):
        remark2_construct(outer, u=number(0, lattice))  # even
    odd_not_unitary = 0.5 * odd_direction(site0)
    with pytest.raises(ValueError):
        remark2_construct(outer, u=odd_not_unitary)


# ---------------------------------------------------------------------------
# state expectations, gradings
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10_000))
def test_theta_of_state_is_an_involution(seed):
    omega = random_density(3, np.random.default_rng(seed))
    twice = omega.theta().theta()
    assert np.max(np.abs(twice.density - omega.density)) == 0.0


def test_expectation_matches_trace():
    lattice = 3
    omega = random_density(lattice, np.random.default_rng(7))
    x = car.random_element(Region.full(lattice), np.random.default_rng(8))
    want = np.trace(omega.density @ x.matrix)
    assert abs(omega.expectation(x.matrix) - want) < 1e-13
