import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fermichain import car, stability
from fermichain.entropy import (conditional_entropy, relative_entropy,
                                relative_entropy_matrices)
from fermichain.potentials import (hopping_model, local_hamiltonian, prune,
                                   total_hamiltonian, tv_model)
from fermichain.regions import Region
from fermichain.reporting import CheckRecord
from fermichain.stability import (MaximizerInfo, StabilityReport,
                                  constraint_family, feasible_sampler,
                                  free_energy, lts_check, prop4_pipeline)
from fermichain.states import (DensityState, gibbs_state,
                               noneven_perturbation, perturbed_state)


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
        a = free_energy(omega, pot, region, beta, mode="lts")
        b = (conditional_entropy(omega, region)
             - beta * float(np.real(omega.expectation(h_i))))
        assert abs(a - b) < 1e-12


def test_both_modes_agree_on_even_states():
    # the commutant and complement algebras share their even part, and on an
    # even state the odd coefficients vanish, so the two projections coincide
    lattice, beta = 4, 1.0
    pot = hopping_model(lattice)
    region = Region.of([1], lattice)
    for seed in range(6):
        rng = np.random.default_rng(100 + seed)
        raw = random_state(lattice, rng).density
        even = DensityState(0.5 * (raw + car.theta_matrix(raw, lattice)))
        f = free_energy(even, pot, region, beta, mode="lts")
        f_prime = free_energy(even, pot, region, beta, mode="lts_prime")
        assert abs(f - f_prime) < 1e-12


def fixed_monomials(project, lattice):
    """The monomials of the whole chain that a projection leaves unchanged."""
    return [m for m in car.monomial_basis(Region.full(lattice)).monomials
            if np.max(np.abs(project(m.dense()) - m.dense())) < 1e-14]


def test_constraint_family_modes():
    lattice = 4
    region = Region.of([1], lattice)
    lts = fixed_monomials(constraint_family(region, "lts"), lattice)
    prime = fixed_monomials(constraint_family(region, "lts_prime"), lattice)
    # same count, different span: half the commutant monomials thread the
    # probed region through its parity operator
    assert len(lts) == 4 ** (lattice - 1)
    assert len(prime) == len(lts)
    touching = [m for m in prime if set(m.sites) & set(region.sites)]
    assert len(touching) == len(prime) // 2
    assert not any(set(m.sites) & set(region.sites) for m in lts)
    with pytest.raises(ValueError):
        constraint_family(region, "global")


def commutant_oracle(matrix, region):
    """``E_{R^c}(A_even) + v_R E_{R^c}(v_R A_odd)``, spelled out."""
    comp = region.complement()
    graded = car.theta_matrix(matrix, region.lattice_size)
    v = np.diag(car.grading_encoding(region)[1])
    even = car.conditional_expectation_matrix((matrix + graded) / 2.0, comp)
    odd = car.conditional_expectation_matrix(v @ (matrix - graded) / 2.0, comp)
    return even + v @ odd


@given(st.integers(min_value=1, max_value=6), st.data(),
       st.sampled_from(stability.MODES), st.integers(0, 10_000))
def test_compress_is_adjoint_to_expand_and_composes_to_the_projection(
        lattice, data, mode, seed):
    sites = data.draw(st.sets(st.integers(0, lattice - 1), min_size=1))
    region = Region.of(sites, lattice)
    project = constraint_family(region, mode)
    rng = np.random.default_rng(seed)
    n, m = car.dim(lattice), car.dim(lattice - len(region))
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    small = project.compress(g)
    assert small.shape == (m, m)
    lhs = np.vdot(project.expand(x), g)
    assert abs(lhs - (n / m) * np.vdot(x, small)) <= 1e-13 * n * m
    assert np.max(np.abs(project.compress(project.expand(x)) - x)) <= 1e-14
    if mode == "lts":
        want = car.conditional_expectation_matrix(g, region.complement())
    else:
        want = commutant_oracle(g, region)
    assert np.max(np.abs(project(g) - want)) <= 1e-14


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


@given(st.integers(min_value=1, max_value=6), st.data(),
       st.sampled_from(stability.MODES), st.booleans(), st.integers(0, 10_000))
def test_conditional_entropy_matches_the_relative_entropy_oracle(
        lattice, data, mode, pure, seed):
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
    if mode == "lts":
        projected = car.conditional_expectation_matrix(density, region.complement())
    else:
        projected = commutant_oracle(density, region)
    oracle = -relative_entropy_matrices(projected, density).value
    if mode == "lts":
        assert abs(conditional_entropy(omega, region) - oracle) <= 1e-12
    pot, beta = hopping_model(lattice), 0.7
    energy = float(np.real(omega.expectation(local_hamiltonian(pot, region).matrix)))
    got = free_energy(omega, pot, region, beta, mode)
    assert abs(got - (oracle - beta * energy)) <= 1e-12


@pytest.mark.parametrize("mode", stability.MODES)
def test_dual_gradient_matches_finite_differences_of_the_value(mode):
    lattice, beta = 5, 1.0
    pot = hopping_model(lattice)
    region = Region.of([1, 2], lattice)
    project = constraint_family(region, mode)
    anchor = project.compress(random_state(lattice, np.random.default_rng(3)).density)
    dual = stability._Dual(project, anchor, local_hamiltonian(pot, region).matrix,
                           beta)
    rng = np.random.default_rng(4)
    m = car.dim(lattice - len(region))
    x = 0.3 * hermitian(m, rng)
    delta = hermitian(m, rng)
    delta -= np.trace(delta) / m * np.eye(m)
    point = dual.point(x)
    h = 1e-5
    plus, minus = dual.point(x + h * delta), dual.point(x - h * delta)
    # the gradient is that of the dual value in the metric expand induces
    slope = (plus.value - minus.value) / (2.0 * h)
    assert abs(slope - dual.multiplicity * np.real(np.vdot(point.grad, delta))) \
        <= 1e-8 * abs(slope)


@pytest.mark.parametrize("mode", stability.MODES)
def test_maximizer_memory_is_a_few_dense_matrices(mode):
    # the dual multiplier lives in the 2**|I^c| small representation, so
    # nothing of size (number of constraints) x N**2 is ever formed
    lattice, beta = 7, 1.0
    pot = hopping_model(lattice)
    region = Region.of([2, 3, 4], lattice)
    project = constraint_family(region, mode)
    gibbs = gibbs_state(total_hamiltonian(pot), beta)
    anchor = project.compress(gibbs.density)
    h_i = local_hamiltonian(pot, region).matrix
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        density, info = stability._maximize(project, anchor, h_i, beta)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    n = car.dim(lattice)
    assert info.converged
    assert info.iterations <= 25
    assert np.max(np.abs(density - gibbs.density)) < 1e-11
    assert peak < 64 * n * n * 16


@pytest.mark.parametrize("mode", stability.MODES)
def test_maximizer_decomposes_only_real_parity_blocks(mode, monkeypatch):
    # the anchor and the exponent are even and real, so car.eigh splits
    # each into its two real parity blocks: nothing N x N, nothing complex
    lattice, beta = 6, 1.0
    pot = hopping_model(lattice)
    region = Region.of([2, 3], lattice)
    project = constraint_family(region, mode)
    gibbs = gibbs_state(total_hamiltonian(pot), beta)
    anchor = project.compress(gibbs.density)
    h_i = local_hamiltonian(pot, region).matrix
    seen, eigh = [], np.linalg.eigh

    def spy(a, *args, **kwargs):
        seen.append((a.shape[0], a.dtype.kind))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    _, info = stability._maximize(project, anchor, h_i, beta)
    assert info.converged
    n, m = car.dim(lattice), car.dim(lattice - len(region))
    assert set(seen) == {(n // 2, "f"), (m // 2, "f")}


@pytest.mark.parametrize("mode", stability.MODES)
def test_maximizer_takes_one_step_on_a_product_anchor(mode):
    # without hopping the Gibbs state is a product and already of maximizing
    # form at the zero multiplier, so the first step lands on rounding
    lattice, beta = 5, 1.0
    pot = hopping_model(lattice, t=0.0)
    region = Region.of([1, 2], lattice)
    project = constraint_family(region, mode)
    gibbs = gibbs_state(total_hamiltonian(pot), beta)
    _, info = stability._maximize(project, project.compress(gibbs.density),
                                  local_hamiltonian(pot, region).matrix, beta)
    assert info.converged
    assert info.iterations == 1
    assert info.gradient_norm <= 1e-15


# ---------------------------------------------------------------------------
# feasible competitors
# ---------------------------------------------------------------------------


def redraw(omega, region, mode, count, seed):
    """The competitor densities drawn directly, in the sampler's RNG order:
    ``g``, then ``t``, with ``g`` redrawn when its feasible part vanishes."""
    project = constraint_family(region, mode)
    lam_half = 0.5 * omega.lambda_min()
    n = omega.density.shape[0]
    rng = np.random.default_rng(seed)
    densities = []
    while len(densities) < count:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g = (g + g.conj().T) / 2.0
        y = g - project(g)
        y = (y + y.conj().T) / 2.0
        nrm = car.hermitian_norm(y)
        if nrm < 1e-12:
            continue
        t = float(rng.uniform(0.3, 1.0)) * lam_half
        densities.append(omega.density + (t / nrm) * y)
    return densities


@pytest.mark.parametrize("mode", stability.MODES)
def test_feasible_sampler_streams_the_direct_draws(mode):
    lattice = 4
    region = Region.of([1, 2], lattice)
    omega = gibbs_state(total_hamiltonian(hopping_model(lattice)), 1.0)
    stream = feasible_sampler(omega, region, mode, 6, seed=7)
    got = [member.density for member in stream]
    want = redraw(omega, region, mode, 6, seed=7)
    assert len(got) == len(want) == 6
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("mode", ["lts", "lts_prime"])
def test_feasible_sampler_produces_genuine_competitors(mode):
    lattice, beta = 4, 1.0
    region = Region.of([1, 2], lattice)
    omega = gibbs_state(total_hamiltonian(hopping_model(lattice)), beta)
    project = constraint_family(region, mode)
    members = list(feasible_sampler(omega, region, mode, 25, seed=7))
    assert len(members) == 25
    residual = max(float(np.max(np.abs(
        project.compress(m.density - omega.density)))) for m in members)
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
        feasible_sampler(DensityState(pure), Region.of([0], lattice), "lts", 5)


def test_margin_equals_relative_entropy_for_gibbs_base():
    # for any competitor with the Gibbs state's constrained expectations the
    # free-energy loss is exactly the relative entropy from the Gibbs state
    lattice, beta = 5, 1.0
    pot = hopping_model(lattice)
    region = Region.of([1, 2], lattice)
    gibbs = gibbs_state(total_hamiltonian(pot), beta)
    f_gibbs = free_energy(gibbs, pot, region, beta)
    for member in feasible_sampler(gibbs, region, "lts", 10, seed=11):
        loss = f_gibbs - free_energy(member, pot, region, beta)
        rel = relative_entropy(gibbs, member).value
        assert abs(loss - rel) < 1e-10
        assert loss >= 0.0


# ---------------------------------------------------------------------------
# the constrained maximizer
# ---------------------------------------------------------------------------


def maximize(pot, region, omega, beta):
    """The constrained maximizer of ``lts_check``, anchored at ``omega``."""
    project = constraint_family(region, "lts")
    h_i = local_hamiltonian(pot, region).matrix
    density, info = stability._maximize(project, project.compress(omega.density),
                                        h_i, beta)
    return DensityState(density), info


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 3.0])
def test_maximizer_recovers_the_gibbs_state(beta):
    lattice = 4
    pot = hopping_model(lattice)
    region = Region.of([1, 2], lattice)
    gibbs = gibbs_state(total_hamiltonian(pot), beta)
    state, info = maximize(pot, region, gibbs, beta)
    assert info.converged
    assert np.max(np.abs(state.density - gibbs.density)) < 1e-11
    assert abs(free_energy(state, pot, region, beta)
               - free_energy(gibbs, pot, region, beta)) < 1e-9


def test_maximum_matches_the_onsite_closed_form():
    # with hopping switched off the chain decouples site by site and the
    # constrained maximum has the explicit value |I| log cosh(beta mu / 2)
    lattice, beta, mu = 5, 1.3, 0.8
    pot = hopping_model(lattice, t=0.0, mu=mu)
    region = Region.of([1, 2], lattice)
    gibbs = gibbs_state(total_hamiltonian(pot), beta)
    state, _ = maximize(pot, region, gibbs, beta)
    oracle = len(region) * math.log(math.cosh(beta * mu / 2.0))
    assert abs(free_energy(state, pot, region, beta) - oracle) < 1e-9


@pytest.mark.parametrize("beta,sites", [(5.0, [0]), (5.0, [1]), (5.0, [1, 2]),
                                        (10.0, [1, 2])])
def test_maximizer_certifies_at_low_temperature(beta, sites):
    lattice = 6
    pot = hopping_model(lattice)
    gibbs = gibbs_state(total_hamiltonian(pot), beta)
    report = lts_check(gibbs, pot, Region.of(sites, lattice), beta, samples=5)
    by_name = {c.check: c for c in report.checks}
    assert report.passed
    assert abs(by_name["margin_maximizer"].value) <= 1e-13


def test_maximizer_requires_a_faithful_constraint():
    lattice = 3
    n = car.dim(lattice)
    pure = np.zeros((n, n), dtype=complex)
    pure[0, 0] = 1.0
    with pytest.raises(ValueError):
        maximize(hopping_model(lattice), Region.of([2], lattice),
                 DensityState(pure), 1.0)


def test_maximizer_rejects_an_empty_probe_region():
    lattice = 3
    pot = hopping_model(lattice)
    gibbs = gibbs_state(total_hamiltonian(pot), 1.0)
    empty = Region.empty(lattice)
    with pytest.raises(ValueError):
        constraint_family(empty, "lts")
    # the sampler would find no direction to draw from
    with pytest.raises(ValueError):
        lts_check(gibbs, pot, empty, 1.0, samples=5)


# ---------------------------------------------------------------------------
# the stability check
# ---------------------------------------------------------------------------


def test_gibbs_state_passes_the_check_in_both_modes():
    lattice, beta = 5, 1.0
    pot = hopping_model(lattice)
    region = Region.of([2], lattice)
    gibbs = gibbs_state(total_hamiltonian(pot), beta)
    for mode in ("lts", "lts_prime"):
        report = lts_check(gibbs, pot, region, beta, mode=mode,
                           samples=100, seed=0)
        assert report.passed
        assert report.margin >= -1e-9
        assert "maximizer" in report.free_energies


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
    sampler, energy = stability.feasible_sampler, stability._free_energy

    def broken(omega, region, mode, count, seed):
        competitors = sampler(omega, region, mode, count, seed)
        yield next(competitors)
        yield DensityState(np.full_like(omega.density, np.nan), validate=False)
        yield from competitors

    def scored(omega, project, h_i, beta):
        # the spectrum of a NaN density does not converge; score it as NaN
        if np.isnan(omega.density).any():
            return math.nan
        return energy(omega, project, h_i, beta)

    monkeypatch.setattr(stability, "feasible_sampler", broken)
    monkeypatch.setattr(stability, "_free_energy", scored)
    report = lts_check(gibbs, pot, region, beta, samples=3, seed=3)
    record = next(c for c in report.checks if c.check == "feasible_residual")
    assert math.isnan(record.value)
    assert not record.passed
    assert not report.passed


@pytest.mark.parametrize("drawn_for", ["region", "mode", "base"])
def test_feasible_residual_fails_a_competitor_drawn_for_another_probe(
        monkeypatch, drawn_for):
    lattice, beta = 4, 1.0
    pot = hopping_model(lattice)
    region = Region.of([1], lattice)
    gibbs = gibbs_state(total_hamiltonian(pot), beta)
    # lts competitors are orthogonal to the complement's algebra only, so
    # they move the grading-twisted odd constraints that lts_prime adds
    mode = "lts_prime" if drawn_for == "mode" else "lts"
    base, probe = gibbs, region
    if drawn_for == "region":
        probe = Region.of([2], lattice)
    if drawn_for == "base":
        base = gibbs_state(total_hamiltonian(pot), 2.0)
    sampler = stability.feasible_sampler
    monkeypatch.setattr(stability, "feasible_sampler",
                        lambda omega, region, mode, count, seed:
                        sampler(base, probe, "lts", count, seed))
    report = lts_check(gibbs, pot, region, beta, mode=mode, samples=20, seed=2)
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


def test_check_survives_a_nonconverging_maximizer(monkeypatch):
    lattice, beta = 4, 1.0
    pot = hopping_model(lattice)
    region = Region.of([1], lattice)
    gibbs = gibbs_state(total_hamiltonian(pot), beta)

    def stalled(project, anchor, h_i, beta):
        info = MaximizerInfo(converged=False, iterations=17,
                             certificate_spread=1.0, gradient_norm=1.0)
        return gibbs.density, info

    monkeypatch.setattr(stability, "_maximize", stalled)
    report = lts_check(gibbs, pot, region, beta, samples=30, seed=4)
    # the samples still certify; the maximizer fails its own check, with
    # its final gradient norm, instead of contributing a margin
    by_name = {c.check: c for c in report.checks}
    assert "margin_maximizer" not in by_name
    assert by_name["margin_samples"].passed
    assert by_name["maximizer_certified"] == CheckRecord(
        "maximizer_certified", 1.0, 1e-10, False)
    assert any("did not certify" in note for note in report.notes)
    assert not report.passed


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
