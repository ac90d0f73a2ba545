import math
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from fermichain import car, stability
from fermichain.entropy import (conditional_entropy, relative_entropy,
                                relative_entropy_matrices)
from fermichain.potentials import (Potential, build_model, hopping_model,
                                   local_hamiltonian, prune,
                                   total_hamiltonian, tv_model)
from fermichain.regions import Region
from fermichain.reporting import CheckRecord
from fermichain.stability import (StabilityReport, feasible_sampler,
                                  free_energy, lts_check, prop4_pipeline)
from fermichain.states import (DensityState, gibbs_state,
                               noneven_perturbation, perturbed_state)

# the constraint algebra of local thermal stability, the algebra of the
# probe region's complement, as the map from a probe region to the region
# whose algebra it is; each case it marks carries the id "lts"
LTS = pytest.mark.parametrize("constraint", [Region.complement], ids=["lts"])


def random_state(lattice, rng):
    n = car.dim(lattice)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    d = g @ g.conj().T
    return DensityState(d / np.trace(d).real)


# ---------------------------------------------------------------------------
# the free-energy functional
# ---------------------------------------------------------------------------


def test_free_energy_agrees_with_the_entropy_module():
    lattice, beta = 4, 1.2
    pot = hopping_model(lattice)
    region = Region.of([1, 2], lattice)
    h_i = local_hamiltonian(pot, region).matrix
    for seed in range(4):
        omega = random_state(lattice, np.random.default_rng(seed))
        a = free_energy(omega, pot, region, beta)
        b = (conditional_entropy(omega, region)
             - beta * float(np.real(omega.expectation(h_i))))
        assert abs(a - b) < 1e-12


@given(st.integers(min_value=1, max_value=6), st.data(),
       st.integers(0, 10_000))
def test_compress_is_adjoint_to_expand_and_composes_to_the_projection(
        lattice, data, seed):
    # compress and expand are the small representation and embedding of the
    # complement, the constraint algebra; expand o compress is the
    # projection onto it, held to the monomial oracle
    sites = data.draw(st.sets(st.integers(0, lattice - 1), min_size=1))
    outside = Region.of(sites, lattice).complement()
    rng = np.random.default_rng(seed)
    n, m = car.dim(lattice), car.dim(len(outside))
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    small = car.small_representation(g, outside)
    assert small.shape == (m, m)
    lhs = np.vdot(car.embed(x, outside), g)
    assert abs(lhs - (n / m) * np.vdot(x, small)) <= 1e-13 * n * m
    assert np.max(np.abs(car.small_representation(car.embed(x, outside),
                                                  outside) - x)) <= 1e-14
    want = car.monomial_basis(outside).project(g)
    assert np.max(np.abs(car.embed(small, outside) - want)) <= 1e-14


def hermitian(m, rng):
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return (a + a.conj().T) / 2.0


@st.composite
def probe_regions(draw, lattice):
    """Contiguous, scattered, boundary and whole-chain probe regions."""
    kind = draw(st.sampled_from(("contiguous", "scattered", "boundary", "whole")))
    if kind == "contiguous":
        start = draw(st.integers(0, lattice - 1))
        sites = range(start, draw(st.integers(start + 1, lattice)))
    elif kind == "scattered":
        sites = range(draw(st.integers(0, lattice - 1)), lattice,
                      draw(st.integers(2, 3)))
    elif kind == "boundary":
        width = draw(st.integers(1, lattice))
        sites = range(width) if draw(st.booleans()) else range(lattice - width,
                                                               lattice)
    else:
        sites = range(lattice)
    return Region.of(sites, lattice)


@given(st.integers(min_value=1, max_value=6), st.data(), st.booleans(),
       st.integers(0, 10_000))
def test_conditional_entropy_matches_the_relative_entropy_oracle(
        lattice, data, pure, seed):
    # Sc = S(D) - (N / m) S(compress(D)) against -S(E(D), D) with E(D)
    # formed densely; the spectra of full-rank densities are kept in
    # [0.01, 1] so that the comparison measures the identity, not the
    # conditioning of the reference
    region = data.draw(probe_regions(lattice))
    rng = np.random.default_rng(seed)
    n = car.dim(lattice)
    if pure:
        psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        density = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    else:
        q = np.linalg.qr(rng.standard_normal((n, n))
                         + 1j * rng.standard_normal((n, n)))[0]
        spectrum = rng.uniform(0.01, 1.0, n)
        density = (q * (spectrum / np.sum(spectrum))) @ q.conj().T
    omega = DensityState(density)
    projected = car.conditional_expectation_matrix(density, region.complement())
    oracle = -relative_entropy_matrices(projected, density)
    assert abs(conditional_entropy(omega, region) - oracle) <= 1e-12
    pot, beta = hopping_model(lattice), 0.7
    energy = float(np.real(omega.expectation(local_hamiltonian(pot, region).matrix)))
    got = free_energy(omega, pot, region, beta)
    assert abs(got - (oracle - beta * energy)) <= 1e-12


# ---------------------------------------------------------------------------
# feasible competitors
# ---------------------------------------------------------------------------


def parities(n):
    """The parity of each of ``n`` occupation states: its popcount mod 2."""
    return np.array([bin(s).count("1") % 2 for s in range(n)])


def gaussian(rng, k, dtype):
    """A ``k x k`` Gaussian matrix written out: real standard normal
    entries, and for a complex dtype imaginary ones drawn after them."""
    g = rng.standard_normal((k, k))
    if np.issubdtype(dtype, np.complexfloating):
        g = g + 1j * rng.standard_normal((k, k))
    return g


def is_even(density):
    """Whether every entry between states of different parity is zero."""
    parity = parities(density.shape[0])
    return not np.any(density[parity[:, None] != parity[None, :]])


def direction(rng, omega):
    """The sampler's Hermitian Gaussian direction written out, in the base's
    dtype: for an even base, the Hermitian parts of a Gaussian block on the
    even states and then of one on the odd states, zero between them; for
    any other base, the Hermitian part of a whole Gaussian matrix."""
    n, dtype = omega.density.shape[0], omega.density.dtype
    if not is_even(omega.density):
        g = gaussian(rng, n, dtype)
        return (g + g.conj().T) / 2.0
    parity = parities(n)
    y = np.zeros((n, n), dtype=dtype)
    for p in (0, 1):
        states = np.flatnonzero(parity == p)
        g = gaussian(rng, states.size, dtype)
        y[np.ix_(states, states)] = (g + g.conj().T) / 2.0
    return y


def redraw(omega, outside, count, seed):
    """The competitor densities drawn directly, in the sampler's RNG order:
    the direction, then ``t``, with the direction redrawn when its feasible
    part vanishes; ``outside`` is the region of the constraint algebra."""
    lam_half = 0.5 * omega.lambda_min()
    rng = np.random.default_rng(seed)
    densities = []
    while len(densities) < count:
        g = direction(rng, omega)
        y = g - car.conditional_expectation_matrix(g, outside)
        y = (y + y.conj().T) / 2.0
        nrm = car.hermitian_norm(y)
        if nrm < 1e-12:
            continue
        t = float(rng.uniform(0.3, 1.0)) * lam_half
        densities.append(omega.density + (t / nrm) * y)
    return densities


@LTS
def test_feasible_sampler_streams_the_direct_draws(constraint):
    # an even real base: the directions are even and real
    lattice = 4
    region = Region.of([1, 2], lattice)
    omega = gibbs_state(total_hamiltonian(hopping_model(lattice)), 1.0)
    stream = feasible_sampler(omega, region, 6, seed=7)
    got = [member.density for member in stream]
    want = redraw(omega, constraint(region), 6, seed=7)
    assert len(got) == len(want) == 6
    assert all(a.dtype == np.float64 for a in got)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("base", ["gibbs", "random"])
@pytest.mark.parametrize("lattice, sites", [(3, [0]), (4, [1]), (5, [2, 3]),
                                            (6, [0, 1]), (6, [1, 3, 4])])
def test_feasible_sampler_is_bit_identical_to_the_written_out_draw(
        lattice, sites, base):
    # the competitor written out as whole-matrix expressions: the direction
    # in the base's dtype and grading (even and real for the tv Gibbs base,
    # whole and complex Ginibre for the random one), less the embedding of
    # its compression onto the constraint algebra, scaled and added to D
    region = Region.of(sites, lattice)
    outside = region.complement()
    if base == "gibbs":
        omega = gibbs_state(total_hamiltonian(tv_model(lattice)), 0.8)
    else:
        omega = random_state(lattice, np.random.default_rng(lattice))
    assert is_even(omega.density) == (base == "gibbs")
    lam_half = 0.5 * omega.smallest_weight()
    for seed in (0, 5, 19):
        rng = np.random.default_rng(seed)
        got = feasible_sampler(omega, region, 3, seed=seed)
        for k in range(3):
            g = direction(rng, omega)
            y = g - car.embed(car.small_representation(g, outside), outside)
            nrm = car.hermitian_norm(y)
            t = float(rng.uniform(0.3, 1.0)) * lam_half
            want = omega.density + (t / nrm) * y
            member = next(got)
            # bytes, so that signed zeros count too
            assert member.density.tobytes() == want.tobytes(), (seed, k)
        assert next(got, None) is None


def test_complex_base_competitors_keep_the_complex_ginibre_law():
    # a complex base's competitors are complex128, drawn as before real
    # directions were: the Hermitian part of a complex Ginibre matrix,
    # real parts first, less the embedding of its compression
    lattice = 5
    region = Region.of([1, 2], lattice)
    outside = region.complement()
    omega = random_state(lattice, np.random.default_rng(9))
    assert omega.density.dtype == np.complex128
    lam_half = 0.5 * omega.smallest_weight()
    n = car.dim(lattice)
    rng = np.random.default_rng(4)
    for member in feasible_sampler(omega, region, 4, seed=4):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g = (g + g.conj().T) / 2.0
        y = g - car.embed(car.small_representation(g, outside), outside)
        t = float(rng.uniform(0.3, 1.0)) * lam_half
        want = omega.density + (t / car.hermitian_norm(y)) * y
        assert member.density.dtype == np.complex128
        assert member.density.tobytes() == want.tobytes()


def whole_draw(omega, outside, rng):
    """A competitor of a real base by the whole-matrix law, which any base
    but an even one keeps: the Hermitian part of a whole real Gaussian
    matrix, less the embedding of its compression, scaled by ``t`` uniform
    on ``[0.3, 1)`` times half the smallest weight over its norm."""
    n = omega.density.shape[0]
    g = rng.standard_normal((n, n))
    g = (g + g.T) / 2.0
    y = g - car.embed(car.small_representation(g, outside), outside)
    t = float(rng.uniform(0.3, 1.0)) * 0.5 * omega.smallest_weight()
    return omega.density + (t / car.hermitian_norm(y)) * y


def test_noneven_real_base_keeps_the_whole_draw():
    # the noneven perturbation is real and has parity-changing entries, so
    # its competitors are drawn whole, byte for byte as before
    lattice = 5
    region = Region.of([1, 2], lattice)
    psi = noneven_perturbation(
        perturbed_state(hopping_model(lattice), 1.0, region), region)
    assert psi.density.dtype == np.float64
    assert car.grading_defect(psi.density) > 0.01
    rng = np.random.default_rng(3)
    for member in feasible_sampler(psi, region, 4, seed=3):
        want = whole_draw(psi, region.complement(), rng)
        assert member.density.tobytes() == want.tobytes()
        assert car.grading_defect(member.density) > 0.0


@pytest.mark.parametrize("model", ["hopping", "tv", "raw-number"])
@pytest.mark.parametrize("lattice, sites", [(5, [1, 2]), (6, [0]),
                                            (6, [2, 3, 4])])
def test_even_base_competitors_are_even_and_take_half_size_spectra(
        model, lattice, sites, monkeypatch):
    # every competitor of an even real Gibbs base is even, feasible and
    # positive, and lts_check takes no N x N spectrum: two N/2 x N/2 ones
    # for the bound's K and four for each competitor (its direction's and
    # its own), besides those of the m x m compressions
    beta, samples = 1.0, 6
    pot = build_model(model, lattice)
    region = Region.of(sites, lattice)
    outside = region.complement()
    omega = gibbs_state(total_hamiltonian(pot), beta)
    assert car.grading_defect(omega.density) == 0.0
    n, m = car.dim(lattice), car.dim(len(outside))
    for member in feasible_sampler(omega, region, samples, seed=2):
        assert member.density.dtype == np.float64
        assert car.grading_defect(member.density) == 0.0
        residual = np.max(np.abs(car.small_representation(
            member.density - omega.density, outside)))
        assert residual < 1e-12
        assert np.linalg.eigvalsh(member.density)[0] > 0.0
        assert np.max(np.abs(member.density - omega.density)) > 0.0

    seen, eigvalsh = [], np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        seen.append((a.shape[0], a.dtype.kind))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    report = lts_check(omega, pot, region, beta, samples=samples, seed=2)
    assert report.passed
    assert set(seen) == {(n // 2, "f"), (m // 2, "f")}
    assert seen.count((n // 2, "f")) == 2 + 4 * samples


@pytest.mark.parametrize("lattice, site", [(1, 0), (2, 0), (2, 1), (3, 1),
                                           (4, 0), (4, 3)])
def test_even_draws_end_on_one_site_regions(lattice, site):
    # on a one-site probe, even at L = 1 where the constraint algebra is the
    # scalars, every even direction has a nonzero feasible part: each
    # competitor is t away from the base, t in [0.3, 1) times lambda_min / 2
    region = Region.of([site], lattice)
    omega = gibbs_state(total_hamiltonian(hopping_model(lattice)), 1.0)
    lam_half = 0.5 * omega.smallest_weight()
    members = list(feasible_sampler(omega, region, 8, seed=lattice + site))
    assert len(members) == 8
    for member in members:
        assert car.grading_defect(member.density) == 0.0
        away = car.hermitian_norm(member.density - omega.density)
        assert 0.3 * lam_half * (1 - 1e-12) <= away <= lam_half


@pytest.mark.parametrize("model", ["hopping", "tv", "raw-number"])
@pytest.mark.parametrize("lattice, sites", [(2, [0]), (4, [1, 2]),
                                            (6, [2, 3])])
def test_even_part_of_a_competitor_does_at_least_as_well(model, lattice,
                                                         sites):
    # the grading maps the competitors of an even base onto themselves and
    # keeps F, which is concave: the even part (rho + theta rho) / 2 of a
    # competitor drawn whole is a competitor with F no lower, so the best
    # competitor can be taken even
    beta = 1.0
    pot = build_model(model, lattice)
    region = Region.of(sites, lattice)
    outside = region.complement()
    omega = gibbs_state(total_hamiltonian(pot), beta)
    rng = np.random.default_rng(lattice)
    for _ in range(4):
        rho = whole_draw(omega, outside, rng)
        theta_rho = car.theta_matrix(rho, lattice)
        even_part = (rho + theta_rho) / 2.0
        assert car.grading_defect(even_part) == 0.0
        assert np.max(np.abs(car.small_representation(
            even_part - omega.density, outside))) < 1e-12
        f_rho, f_theta, f_even = (
            free_energy(DensityState(d, validate=False), pot, region, beta)
            for d in (rho, theta_rho, even_part))
        assert abs(f_theta - f_rho) <= 1e-12
        assert f_even >= f_rho - 1e-13


@LTS
def test_feasible_sampler_produces_genuine_competitors(constraint):
    lattice, beta = 4, 1.0
    region = Region.of([1, 2], lattice)
    omega = gibbs_state(total_hamiltonian(hopping_model(lattice)), beta)
    outside = constraint(region)
    members = list(feasible_sampler(omega, region, 25, seed=7))
    assert len(members) == 25
    residual = max(float(np.max(np.abs(car.small_representation(
        m.density - omega.density, outside)))) for m in members)
    assert residual < 1e-12
    for member in members:
        evals = np.linalg.eigvalsh(member.density)
        assert evals.min() > -1e-12
        assert abs(np.trace(member.density).real - 1.0) < 1e-12
        # competitors genuinely differ from the base inside the region
    worst = max(float(np.max(np.abs(m.density - omega.density)))
                for m in members)
    assert worst > 1e-4


def test_feasible_sampler_requires_a_faithful_base():
    lattice = 3
    n = car.dim(lattice)
    pure = np.zeros((n, n), dtype=complex)
    pure[0, 0] = 1.0
    with pytest.raises(ValueError):
        feasible_sampler(DensityState(pure), Region.of([0], lattice), 5)


def test_margin_equals_relative_entropy_for_gibbs_base():
    # for any competitor with the Gibbs state's constrained expectations the
    # free-energy loss is exactly the relative entropy from the Gibbs state
    lattice, beta = 5, 1.0
    pot = hopping_model(lattice)
    region = Region.of([1, 2], lattice)
    gibbs = gibbs_state(total_hamiltonian(pot), beta)
    f_gibbs = free_energy(gibbs, pot, region, beta)
    for member in feasible_sampler(gibbs, region, 10, seed=11):
        loss = f_gibbs - free_energy(member, pot, region, beta)
        rel = relative_entropy(gibbs, member)
        assert abs(loss - rel) < 1e-10
        assert loss >= 0.0


# ---------------------------------------------------------------------------
# the Gibbs variational bound
# ---------------------------------------------------------------------------


def bound_parts(omega, pot, region, beta, constraint=Region.complement):
    """The constraint region, ``compress(D)``, ``H(I)`` and ``M0`` of
    ``lts_check``."""
    outside = constraint(region)
    h_i = local_hamiltonian(pot, region)
    m0 = stability._base_multiplier(omega, outside, h_i, beta)
    return (outside, car.small_representation(omega.density, outside), h_i,
            m0)


def exponent_state(outside, h_i, beta, multiplier):
    """``e^K / Tr e^K`` for ``K = expand(M) - beta H(I)``, by ``expm``."""
    weight = scipy.linalg.expm(car.embed(multiplier, outside)
                               - beta * h_i.matrix)
    return weight / np.trace(weight).real


def raw_coupling(lattice, phase):
    """Hopping plus the raw coupling ``n_2 (phase a_3* a_4 + h.c.)``, which
    is not standard: its conditional expectation off site 2 is half the
    hop, so ``compress(H(I))`` is nonzero for the probe ``1,2``."""
    a = [car.annihilator(k, 3) for k in range(3)]
    hop = (a[1].dagger() @ a[2]) * phase
    term = (a[0].dagger() @ a[0]) @ (hop + hop.dagger())
    return Potential(lattice, {**hopping_model(lattice).terms,
                               Region.of([2, 3, 4], lattice): term.small})


@LTS
@pytest.mark.parametrize("base, phase", [("gibbs", 1.0), ("random", 1.0),
                                         ("gibbs", 1j)])
def test_base_multiplier_matches_the_dense_sum(base, phase, constraint):
    # M0 = compress(log D) + beta compress(H(I)) with log D by eigh and H(I)
    # dense; the complex coupling on a real Gibbs base needs complex
    # arithmetic, or the imaginary part of beta H(I) would be lost
    lattice, beta = 5, 1.3
    pot = raw_coupling(lattice, phase)
    region = Region.of([1, 2], lattice)
    if base == "gibbs":
        omega = gibbs_state(total_hamiltonian(hopping_model(lattice)), beta)
    else:
        omega = random_state(lattice, np.random.default_rng(5))
    outside = constraint(region)
    h_i = local_hamiltonian(pot, region)
    w, v = np.linalg.eigh(omega.density)
    oracle = (car.small_representation((v * np.log(w)) @ v.conj().T, outside)
              + beta * car.small_representation(h_i.matrix, outside))
    m0 = stability._base_multiplier(omega, outside, h_i, beta)
    assert np.max(np.abs(m0 - oracle)) <= 1e-12 * np.max(np.abs(oracle))
    if phase == 1j:
        assert np.max(np.abs(m0.imag)) > 0.1


@LTS
@pytest.mark.parametrize("lattice", [3, 4, 6])
def test_weak_duality_at_random_multipliers(lattice, constraint):
    # F(D) <= f_dual(M) for every state of the slice and every Hermitian M,
    # and M0 is the minimum: a traceless step away from it raises the bound
    beta = 1.0
    pot = hopping_model(lattice)
    region = Region.of([1, 2], lattice)
    gibbs = gibbs_state(total_hamiltonian(pot), beta)
    outside, small, h_i, m0 = bound_parts(gibbs, pot, region, beta,
                                          constraint)
    m = m0.shape[0]
    rng = np.random.default_rng(lattice)
    at_m0 = stability._dual_bound(outside, small, h_i, beta, m0)
    members = [free_energy(member, pot, region, beta)
               for member in feasible_sampler(gibbs, region, 10, seed=1)]
    for _ in range(3):
        step = hermitian(m, rng)
        step -= np.trace(step) / m * np.eye(m)
        for multiplier in (hermitian(m, rng), m0 + 1e-2 * step, m0 + step):
            bound = stability._dual_bound(outside, small, h_i, beta, multiplier)
            assert max(members) <= bound
            assert bound > at_m0
    assert max(members) <= at_m0 + 1e-12


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 3.0])
def test_maximizer_recovers_the_gibbs_state(beta):
    # the bound's state e^K(M0) / Tr e^K(M0) is the Gibbs state itself, and
    # the bound is its free energy
    lattice = 4
    pot = hopping_model(lattice)
    region = Region.of([1, 2], lattice)
    gibbs = gibbs_state(total_hamiltonian(pot), beta)
    outside, small, h_i, m0 = bound_parts(gibbs, pot, region, beta)
    state = exponent_state(outside, h_i, beta, m0)
    assert np.max(np.abs(state - gibbs.density)) < 1e-11
    bound = stability._dual_bound(outside, small, h_i, beta, m0)
    assert abs(bound - free_energy(gibbs, pot, region, beta)) < 1e-12


def test_maximum_matches_the_onsite_closed_form():
    # with hopping switched off the chain decouples site by site and the
    # constrained maximum has the explicit value |I| log cosh(beta mu / 2)
    lattice, beta, mu = 5, 1.3, 0.8
    pot = hopping_model(lattice, t=0.0, mu=mu)
    region = Region.of([1, 2], lattice)
    gibbs = gibbs_state(total_hamiltonian(pot), beta)
    report = lts_check(gibbs, pot, region, beta, samples=0)
    oracle = len(region) * math.log(math.cosh(beta * mu / 2.0))
    assert report.passed
    assert abs(report.free_energies["maximizer"] - oracle) < 1e-12


# at L = 8, beta = 5 on sites 0 and 1 the slice's smallest weights fall below
# 1e-13 (4.6e-17 and 6.5e-16); the bound takes no log of them
@pytest.mark.parametrize("beta,sites", [
    (5.0, Region.of([0], 6)), (5.0, Region.of([1], 6)),
    (5.0, Region.of([1, 2], 6)), (10.0, Region.of([1, 2], 6)),
    (5.0, Region.of([0], 8)), (5.0, Region.of([1], 8))])
def test_maximizer_certifies_at_low_temperature(beta, sites):
    pot = hopping_model(sites.lattice_size)
    gibbs = gibbs_state(total_hamiltonian(pot), beta)
    report = lts_check(gibbs, pot, sites, beta, samples=5)
    by_name = {c.check: c for c in report.checks}
    assert report.passed
    assert abs(by_name["margin_maximizer"].value) <= 1e-13


@LTS
def test_a_maximizer_that_is_no_gibbs_state_passes(constraint):
    # sigma = exp(-beta H(I) + expand(X)) / Z is the constrained maximizer of
    # its own slice for every Hermitian X; it carries no closed-form log, so
    # M0 comes from one decomposition of its density.  The raw coupling
    # n_2 n_4 is not standard: its conditional expectation n_4 / 2 onto the
    # constraint algebra is no multiple of the identity, so M0 needs its
    # beta H(I) part, which vanishes for a standard potential
    lattice, beta = 5, 1.0
    pot = Potential(lattice, {**hopping_model(lattice).terms,
                              Region.of([2, 4], lattice): np.diag([0.0, 0.0,
                                                                   0.0, 1.0])})
    region = Region.of([1, 2], lattice)
    outside = constraint(region)
    h_i = local_hamiltonian(pot, region)
    x = 0.5 * hermitian(car.dim(len(outside)), np.random.default_rng(8))
    sigma = DensityState(exponent_state(outside, h_i, beta, x))
    assert sigma.log is None
    report = lts_check(sigma, pot, region, beta, samples=20, seed=2)
    by_name = {c.check: c for c in report.checks}
    assert report.passed
    assert abs(by_name["margin_maximizer"].value) <= 1e-12


def test_noneven_margin_is_its_relative_entropy_from_the_bound():
    # F(psi) - f_dual(M0) = -S(psi || sigma0), sigma0 = e^K(M0) / Tr e^K(M0),
    # against logm; the bound dominates the decoupled state of psi's slice,
    # so the margin is at most minus the prop4 gap
    lattice, beta = 5, 1.0
    pot = hopping_model(lattice)
    region = Region.of([2], lattice)
    gap = prop4_pipeline(pot, beta, region).margin
    psi = noneven_perturbation(perturbed_state(pot, beta, region), region)
    outside, _, h_i, m0 = bound_parts(psi, pot, region, beta)
    sigma0 = exponent_state(outside, h_i, beta, m0)
    oracle = float(np.real(np.trace(psi.density @ (
        scipy.linalg.logm(psi.density) - scipy.linalg.logm(sigma0)))))
    report = lts_check(psi, pot, region, beta, samples=0)
    margin = next(c.value for c in report.checks
                  if c.check == "margin_maximizer")
    assert abs(margin + oracle) <= 1e-12 * oracle
    assert margin <= -gap


def test_maximizer_requires_a_faithful_constraint():
    # the bound takes the log of a base that is not a Gibbs state, so it
    # refuses an unfaithful one, with no samples to draw too
    lattice = 3
    n = car.dim(lattice)
    pure = np.zeros((n, n), dtype=complex)
    pure[0, 0] = 1.0
    with pytest.raises(ValueError, match="faithful"):
        lts_check(DensityState(pure), hopping_model(lattice),
                  Region.of([2], lattice), 1.0, samples=0)


@LTS
def test_bound_alone_takes_no_smallest_eigenvalue(constraint, monkeypatch):
    # a Gibbs base whose smallest weight underflows: with no competitor to
    # draw, the check asks for no smallest eigenvalue, and the bound holds
    lattice, beta = 4, 200.0
    pot = hopping_model(lattice)
    region = Region.of([1], lattice)
    omega = gibbs_state(total_hamiltonian(pot), beta)
    assert omega.lambda_min() == 0.0

    def refuse(self):
        raise AssertionError("lambda_min asked for with no samples")

    with monkeypatch.context() as patch:
        patch.setattr(DensityState, "lambda_min", refuse)
        report = lts_check(omega, pot, region, beta, samples=0)
    assert report.passed
    assert [c.check for c in report.checks] == ["feasible_residual",
                                                "margin_maximizer"]


def test_sampler_names_an_underflowing_gibbs_base():
    lattice, beta = 4, 200.0
    omega = gibbs_state(total_hamiltonian(hopping_model(lattice)), beta)
    region = Region.of([1], lattice)
    with pytest.raises(ValueError, match="underflows to 0.0 at beta = 200"):
        feasible_sampler(omega, region, 1)
    # with nothing to draw there is nothing to refuse
    assert list(feasible_sampler(omega, region, 0)) == []


@LTS
def test_maximizer_memory_is_a_few_dense_matrices(constraint):
    # the multiplier lives in the 2**|I^c| small representation, and the
    # bound takes one spectrum of K: a few N x N arrays at its peak
    lattice, beta = 7, 1.0
    pot = hopping_model(lattice)
    region = Region.of([2, 3, 4], lattice)
    gibbs = gibbs_state(total_hamiltonian(pot), beta)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = lts_check(gibbs, pot, region, beta, samples=0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    n = car.dim(lattice)
    assert report.passed
    assert abs(report.margin) <= 1e-13
    assert peak < 4 * n * n * 8


@LTS
@pytest.mark.parametrize("base", ["gibbs", "random"])
def test_check_forms_no_dense_element(base, constraint, monkeypatch):
    # H(I) and every other element enter lts_check by their small
    # representations: the dense view is never read
    lattice, beta = 5, 1.0
    pot = raw_coupling(lattice, 1j)
    region = Region.of([1, 2], lattice)
    if base == "gibbs":
        omega = gibbs_state(total_hamiltonian(hopping_model(lattice)), beta)
    else:
        omega = random_state(lattice, np.random.default_rng(6))

    def refused(self):
        raise AssertionError("AlgebraElement.matrix read")

    monkeypatch.setattr(car.AlgebraElement, "matrix", property(refused))
    report = lts_check(omega, pot, region, beta, samples=3)
    assert [c.check for c in report.checks] == [
        "feasible_residual", "margin_samples", "margin_maximizer"]


@LTS
def test_maximizer_decomposes_only_real_parity_blocks(constraint, monkeypatch):
    # a Gibbs base and its K are even and real, so car.eigvalsh splits each
    # spectrum into its two real parity blocks: nothing N x N, nothing
    # complex, and no eigenvectors at all
    lattice, beta = 6, 1.0
    pot = hopping_model(lattice)
    region = Region.of([2, 3], lattice)
    gibbs = gibbs_state(total_hamiltonian(pot), beta)
    seen, eigvalsh = [], np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        seen.append((a.shape[0], a.dtype.kind))
        return eigvalsh(a, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("eigh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    monkeypatch.setattr(np.linalg, "eigh", refused)
    report = lts_check(gibbs, pot, region, beta, samples=0)
    assert report.passed
    n, m = car.dim(lattice), car.dim(len(constraint(region)))
    assert set(seen) == {(n // 2, "f"), (m // 2, "f")}


def test_maximizer_rejects_an_empty_probe_region():
    lattice = 3
    pot = hopping_model(lattice)
    gibbs = gibbs_state(total_hamiltonian(pot), 1.0)
    empty = Region.empty(lattice)
    # the constraints would fix the whole state: the sampler would find no
    # direction to draw from
    for refused in (lambda: free_energy(gibbs, pot, empty, 1.0),
                    lambda: feasible_sampler(gibbs, empty, 5),
                    lambda: lts_check(gibbs, pot, empty, 1.0, samples=5)):
        with pytest.raises(ValueError, match="empty probe region"):
            refused()


# ---------------------------------------------------------------------------
# the stability check
# ---------------------------------------------------------------------------


def test_gibbs_state_passes_at_strong_coupling():
    lattice = 4
    pot = tv_model(lattice)
    region = Region.of([1, 2], lattice)
    for beta in (2.0, 3.0):
        gibbs = gibbs_state(total_hamiltonian(pot), beta)
        report = lts_check(gibbs, pot, region, beta, samples=60, seed=1)
        assert report.passed
        assert report.margin >= -1e-9


def test_noneven_state_fails_the_check_by_at_least_the_gap():
    lattice, beta = 5, 1.0
    pot = hopping_model(lattice)
    region = Region.of([2], lattice)
    gap = prop4_pipeline(pot, beta, region).margin
    psi = noneven_perturbation(perturbed_state(pot, beta, region), region)
    report = lts_check(psi, pot, region, beta, samples=50, seed=3)
    assert not report.passed
    assert report.margin <= -gap + 1e-9


def test_pruned_potential_attains_zero_free_energy():
    lattice, beta = 5, 1.0
    region = Region.of([2], lattice)
    pot = hopping_model(lattice)
    pruned = prune(pot, region)
    phi = perturbed_state(pot, beta, region)
    report = lts_check(phi, pruned, region, beta, samples=50, seed=5)
    assert report.passed
    assert abs(report.free_energies["base"]) < 1e-10
    assert abs(report.free_energies["maximizer"]) < 1e-6


def test_check_builds_its_local_hamiltonian_once(monkeypatch):
    lattice, beta = 4, 1.0
    pot = hopping_model(lattice)
    region = Region.of([1, 2], lattice)
    gibbs = gibbs_state(total_hamiltonian(pot), beta)
    calls = []

    def counted(potential, probe):
        calls.append(probe)
        return local_hamiltonian(potential, probe)

    monkeypatch.setattr(stability, "local_hamiltonian", counted)
    report = lts_check(gibbs, pot, region, beta, samples=20, seed=0)
    assert report.passed
    assert calls == [region]


def test_nan_competitor_fails_the_feasible_residual(monkeypatch):
    # the residual is a running maximum over the stream, and a NaN must
    # survive it where max(0.0, nan) would return 0.0
    lattice, beta = 3, 1.0
    pot = hopping_model(lattice)
    region = Region.of([1], lattice)
    gibbs = gibbs_state(total_hamiltonian(pot), beta)
    sampler = stability.feasible_sampler
    conditional = stability.compressed_conditional_entropy

    def broken(omega, region, count, seed):
        competitors = sampler(omega, region, count, seed)
        yield next(competitors)
        yield DensityState(np.full_like(omega.density, np.nan), validate=False)
        yield from competitors

    def scored(omega, small):
        # the spectrum of a NaN density does not converge; score it as NaN
        if np.isnan(omega.density).any():
            return math.nan
        return conditional(omega, small)

    monkeypatch.setattr(stability, "feasible_sampler", broken)
    monkeypatch.setattr(stability, "compressed_conditional_entropy", scored)
    report = lts_check(gibbs, pot, region, beta, samples=3, seed=3)
    record = next(c for c in report.checks if c.check == "feasible_residual")
    assert math.isnan(record.value)
    assert not record.passed
    assert not report.passed


def test_nan_compression_of_theta_psi_fails_restic(monkeypatch):
    # RESTIc is the worst disagreement of psi and theta psi with the
    # decoupled state, and a NaN that comes second must survive it where
    # max([0.0, nan]) would return 0.0
    lattice, beta = 4, 1.0
    pot = hopping_model(lattice)
    region = Region.of([1], lattice)
    images, theta = [], DensityState.theta
    compress = car.small_representation
    conditional = stability.compressed_conditional_entropy

    def recorded(self):
        images.append(theta(self))
        return images[-1]

    def compressed(matrix, region):
        # only the compression that stability itself takes: the expectations
        # of H(I) restrict theta psi through the same map
        small = compress(matrix, region)
        if (sys._getframe(1).f_globals["__name__"] == stability.__name__
                and any(matrix is image.density for image in images)):
            small = np.full_like(small, np.nan)
        return small

    def scored(omega, small):
        # theta psi's entropy stays finite: it is taken on its compression
        if np.isnan(small).any():
            small = compress(omega.density, region.complement())
        return conditional(omega, small)

    monkeypatch.setattr(DensityState, "theta", recorded)
    monkeypatch.setattr(car, "small_representation", compressed)
    monkeypatch.setattr(stability, "compressed_conditional_entropy", scored)
    report = prop4_pipeline(pot, beta, region)
    assert len(images) == 1
    by_name = {c.check: c for c in report.checks}
    assert math.isnan(by_name["RESTIc"].value)
    assert not by_name["RESTIc"].passed
    assert all(c.passed for c in report.checks if c.check != "RESTIc")


def stability_compressions(monkeypatch) -> list:
    """The calls of :func:`car.small_representation` that the code of
    :mod:`fermichain.stability` makes, as (calling function, matrix)."""
    calls, compress = [], car.small_representation

    def recorded(matrix, region):
        caller = sys._getframe(1)
        if caller.f_globals["__name__"] == stability.__name__:
            calls.append((caller.f_code.co_name, matrix))
        return compress(matrix, region)

    monkeypatch.setattr(car, "small_representation", recorded)
    return calls


def test_lts_check_compresses_each_state_once(monkeypatch):
    lattice, beta = 4, 1.0
    pot = hopping_model(lattice)
    region = Region.of([1], lattice)
    gibbs = gibbs_state(total_hamiltonian(pot), beta)
    members, sampler = [], stability.feasible_sampler

    def kept(omega, region, count, seed):
        for member in sampler(omega, region, count, seed):
            members.append(member)
            yield member

    monkeypatch.setattr(stability, "feasible_sampler", kept)
    calls = stability_compressions(monkeypatch)
    lts_check(gibbs, pot, region, beta, samples=3)
    # the sampler compresses each draw before it becomes a competitor
    scored = [matrix for caller, matrix in calls if caller != "draw"]
    assert len(members) == 3
    assert [sum(matrix is state.density for matrix in scored)
            for state in [gibbs, *members]] == [1, 1, 1, 1]
    # the one other compression is the bound's multiplier
    assert len(scored) == 5


def test_prop4_compresses_each_state_once(monkeypatch):
    lattice, beta = 4, 1.0
    region = Region.of([1], lattice)
    states = []

    def kept(build):
        def built(*args, **kwargs):
            states.append(build(*args, **kwargs))
            return states[-1]
        return built

    monkeypatch.setattr(stability, "perturbed_state",
                        kept(stability.perturbed_state))
    monkeypatch.setattr(stability, "noneven_perturbation",
                        kept(stability.noneven_perturbation))
    monkeypatch.setattr(DensityState, "theta", kept(DensityState.theta))
    calls = stability_compressions(monkeypatch)
    assert prop4_pipeline(hopping_model(lattice), beta, region).passed
    assert len(states) == 3     # phi_p, psi and theta psi
    assert [sum(matrix is state.density for _, matrix in calls)
            for state in states] == [1, 1, 1]
    assert len(calls) == 3


@pytest.mark.parametrize("drawn_for", ["region", "base"])
def test_feasible_residual_fails_a_competitor_drawn_for_another_probe(
        monkeypatch, drawn_for):
    lattice, beta = 4, 1.0
    pot = hopping_model(lattice)
    region = Region.of([1], lattice)
    gibbs = gibbs_state(total_hamiltonian(pot), beta)
    base, probe = gibbs, region
    if drawn_for == "region":
        probe = Region.of([2], lattice)
    if drawn_for == "base":
        base = gibbs_state(total_hamiltonian(pot), 2.0)
    sampler = stability.feasible_sampler
    monkeypatch.setattr(stability, "feasible_sampler",
                        lambda omega, region, count, seed:
                        sampler(base, probe, count, seed))
    report = lts_check(gibbs, pot, region, beta, samples=20, seed=2)
    record = next(c for c in report.checks if c.check == "feasible_residual")
    assert record.value > 1e-6
    assert not record.passed
    assert not report.passed


def test_check_holds_one_competitor_at_a_time():
    # each competitor is scored as it is drawn and then dropped, so 200 of
    # them at L = 7 cost a few N x N arrays, not 200
    lattice, beta = 7, 1.0
    pot = hopping_model(lattice)
    region = Region.of([2, 3], lattice)
    gibbs = gibbs_state(total_hamiltonian(pot), beta)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = lts_check(gibbs, pot, region, beta, samples=200, seed=0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    n = car.dim(lattice)
    assert report.passed
    assert peak < 32 * n * n * 16


def test_competitor_is_one_array_built_in_place():
    # each competitor is drawn into one N x N array of the base's dtype,
    # real here, and dropped before the next is drawn: three samples peak
    # where one does, below 2.0 such arrays (the competitor and the
    # half-size parity blocks of one spectrum)
    lattice, beta = 8, 1.0
    pot = hopping_model(lattice)
    region = Region.of([2, 3], lattice)
    gibbs = gibbs_state(total_hamiltonian(pot), beta)
    assert gibbs.density.dtype == np.float64
    unit = car.dim(lattice) ** 2 * 8
    peaks = []
    for samples in (1, 3):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = lts_check(gibbs, pot, region, beta, samples=samples)
            peaks.append((tracemalloc.get_traced_memory()[1] - before) / unit)
        finally:
            tracemalloc.stop()
        assert report.passed
    one, three = peaks
    assert abs(three - one) <= 0.25, peaks
    assert max(peaks) < 2.0, peaks


# ---------------------------------------------------------------------------
# the noneven free-energy comparison
# ---------------------------------------------------------------------------


def test_prop4_pipeline_on_a_small_chain():
    report = prop4_pipeline(hopping_model(5), 1.0, Region.of([1, 2], 5))
    assert isinstance(report, StabilityReport)
    by_name = {c.check: c for c in report.checks}
    assert set(by_name) == {"RESTIc", "HIzero", "ScIvpHI", "ScIpsi",
                            "ScImin", "FpsiTheta", "gap_identity", "violate"}
    assert report.passed
    assert by_name["violate"].value > 1e-6
    assert by_name["gap_identity"].value <= 1e-10
    # both structural notes are part of the report
    assert any("locally thermally stable" in n for n in report.notes)
    assert any("trivial center" in n for n in report.notes)


def test_prop4_pipeline_respects_a_weaker_perturbation():
    pot = hopping_model(5)
    region = Region.of([2], 5)
    full = prop4_pipeline(pot, 1.0, region)
    psi = noneven_perturbation(perturbed_state(pot, 1.0, region), region)
    lam = float(np.max(np.abs(psi.density
                              - perturbed_state(pot, 1.0, region).density)))
    weak = prop4_pipeline(pot, 1.0, region, strength=0.5 * lam)
    assert weak.passed
    assert 0.0 < weak.margin < full.margin


def closed_form_gap(lam):
    """``S(psi, phi_p)`` for ``psi = phi_p (1 + lam X)`` with ``X`` of
    eigenvalues ``+-1``: the relative entropy of ``tau(. (1 + lam X))``
    from ``tau`` on the region, whatever the chain, beta or model."""
    return 0.5 * ((1.0 + lam) * math.log1p(lam)
                  + (1.0 - lam) * math.log1p(-lam))


@pytest.mark.parametrize("lattice", [4, 6, 8, 10,
                                     pytest.param(12, marks=pytest.mark.slow)])
@pytest.mark.parametrize("beta", [0.5, 1.0, 5.0])
@pytest.mark.parametrize("sites", [[0], [1], [2, 3]])
def test_prop4_gap_has_its_closed_form(lattice, beta, sites):
    # the default direction a_i + a_i* at strength 1/2: the gap does not
    # shrink with the decoupled state's smallest eigenvalue
    report = prop4_pipeline(hopping_model(lattice), beta,
                            Region.of(sites, lattice))
    want = closed_form_gap(0.5)
    assert report.passed, [c for c in report.checks if not c.passed]
    assert abs(report.margin - want) <= 1e-12 * want
    by_name = {c.check: c for c in report.checks}
    assert by_name["violate"].value == report.margin


def test_prop4_gap_follows_the_strength():
    for lam in (0.1, 0.9):
        report = prop4_pipeline(tv_model(6), 2.0, Region.of([1], 6),
                                strength=lam)
        assert report.passed
        assert abs(report.margin - closed_form_gap(lam)) \
            <= 1e-12 * closed_form_gap(lam)


def test_violate_fails_when_psi_is_the_decoupled_state(monkeypatch):
    # negative control: with psi = phi_p itself the gap is zero, and the
    # check that the noneven state loses free energy must fail
    lattice, beta = 6, 1.0
    pot = hopping_model(lattice)
    region = Region.of([2, 3], lattice)
    phi_p = perturbed_state(pot, beta, region)
    monkeypatch.setattr(stability, "noneven_perturbation",
                        lambda omega, region, strength=None: phi_p)
    report = prop4_pipeline(pot, beta, region)
    by_name = {c.check: c for c in report.checks}
    assert abs(by_name["violate"].value) <= 1e-12
    assert not by_name["violate"].passed
    assert not report.passed
