"""End-to-end acceptance suite: one test per headline guarantee.

Each test is self-contained, pins its own tolerances, and finishes with a
single printed verdict line, so ``pytest -v`` gives exactly one pass/fail
line per guarantee and the captured output states the measured margins.
"""

import json
import math
import time

import numpy as np

from fermichain import car, cli, kernels
from fermichain.entropy import relative_entropy, restricted_relative_entropy
from fermichain.potentials import (hopping_model, local_hamiltonian, prune,
                                   random_standard_potential,
                                   total_hamiltonian)
from fermichain.probes import purely_imaginary_check, scan_odd_correlations
from fermichain.regions import Region
from fermichain.stability import lts_check, prop4_pipeline
from fermichain.states import (DensityState, gibbs_state, kms_residual,
                               odd_direction, perturbed_state, product_check,
                               remark2_construct, restrict)


def _random_density(lattice, rng, even=False):
    n = car.dim(lattice)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    d = g @ g.conj().T
    d /= np.trace(d).real
    if even:
        d = 0.5 * (d + car.theta_matrix(d, lattice))
    return DensityState(d, validate=False)


def _odd_unit(region, rng):
    x = car.random_element(region, rng, parity=1, hermitian=True)
    return (1.0 / x.norm()) * x


def _anticommutator_residual(enc_a, enc_b, delta):
    """Residual of ``{A, B} = delta * 1`` for two column-map encodings.

    Both products of column maps are column maps, so the anticommutator
    sends each basis column to at most two weighted columns; the residual
    is the worst per-column deviation from ``delta`` on the diagonal and
    ``0`` elsewhere.  Dead columns carry permutation ``-1`` and weight ``0``.
    """
    (pa,), (va,) = kernels.compose_batch(enc_a[0][None], enc_a[1][None],
                                         enc_b[0], enc_b[1])
    (pb,), (vb,) = kernels.compose_batch(enc_b[0][None], enc_b[1][None],
                                         enc_a[0], enc_a[1])
    idx = np.arange(pa.shape[0])
    same = pa == pb
    tot = va + vb
    res_same = np.maximum(
        np.abs(np.where(pa == idx, tot - delta, tot)),
        np.where((pa != idx) & (abs(delta) > 0), abs(delta), 0.0))
    res_a = np.abs(np.where(pa == idx, va - delta, va))
    res_b = np.abs(np.where(pb == idx, vb - delta, vb))
    covered = (pa == idx) | (pb == idx)
    res_diff = np.maximum(np.maximum(res_a, res_b),
                          np.where(~covered & (abs(delta) > 0),
                                   abs(delta), 0.0))
    return float(np.max(np.where(same, res_same, res_diff)))


def test_criterion_1_graded_car_algebra():
    start = time.perf_counter()
    lattice = 10

    # canonical anticommutation relations, all generator pairs, L = 10
    lower = [car.annihilator_encoding(i, lattice) for i in range(lattice)]
    raise_ = [car.creator_encoding(i, lattice) for i in range(lattice)]
    worst_car = 0.0
    for i in range(lattice):
        for j in range(lattice):
            worst_car = max(worst_car,
                            _anticommutator_residual(lower[i], lower[j], 0.0))
            delta = 1.0 if i == j else 0.0
            worst_car = max(worst_car,
                            _anticommutator_residual(lower[i], raise_[j], delta))
    assert worst_car <= 1e-12

    # adjoint convention: the raising encoding really is the dagger
    for i in (0, lattice // 2, lattice - 1):
        dense = car.annihilator(i, lattice).matrix
        assert np.array_equal(dense.conj().T,
                              car.annihilator(i, lattice).dagger().matrix)

    # grading: involutive automorphism negating every generator
    for i in (0, 3, lattice - 1):
        a = car.annihilator(i, lattice)
        assert np.max(np.abs(car.theta(a).matrix + a.matrix)) == 0.0
    rng = np.random.default_rng(1)
    small = 7
    x = car.random_element(Region.full(small), rng)
    y = car.random_element(Region.full(small), rng)
    assert np.max(np.abs(car.theta(car.theta(x)).matrix - x.matrix)) == 0.0
    autom = car.theta(car.AlgebraElement(x.matrix @ y.matrix,
                                         Region.full(small))).matrix \
        - car.theta(x).matrix @ car.theta(y).matrix
    assert np.max(np.abs(autom)) <= 1e-12

    # even/odd decomposition: exact, unique, correctly graded
    even = 0.5 * (x + car.theta(x))
    odd = 0.5 * (x - car.theta(x))
    assert np.max(np.abs(even.matrix + odd.matrix - x.matrix)) <= 1e-12
    assert np.max(np.abs(car.theta(even).matrix - even.matrix)) == 0.0
    assert np.max(np.abs(car.theta(odd).matrix + odd.matrix)) == 0.0

    # graded locality on disjoint regions: even elements are transparent,
    # odd pairs anticommute
    left, right = Region.of([0, 1, 2], small), Region.of([4, 5, 6], small)
    worst_loc = 0.0
    for seed in range(5):
        rloc = np.random.default_rng(100 + seed)
        for pa, pb, sign in ((0, 0, -1), (0, 1, -1), (1, 0, -1), (1, 1, +1)):
            a = car.random_element(left, rloc, parity=pa)
            b = car.random_element(right, rloc, parity=pb)
            scale = max(1.0, a.norm() * b.norm())
            resid = np.max(np.abs(a.matrix @ b.matrix
                                  + sign * b.matrix @ a.matrix)) / scale
            worst_loc = max(worst_loc, float(resid))
    assert worst_loc <= 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 1 (graded CAR algebra): PASS — car {worst_car:.2e}, "
          f"locality {worst_loc:.2e}, {elapsed:.2f}s")


def test_criterion_2_product_property_panel():
    start = time.perf_counter()
    lattice = 6
    rng = np.random.default_rng(2)
    interiors = [(1,), (2,), (3,), (4,), (1, 2), (2, 3), (3, 4), (1, 3),
                 (2, 4), (1, 4)]
    betas = (0.5, 1.0, 2.0)
    worst = 0.0
    for k in range(20):
        potential = random_standard_potential(lattice, rng)
        region = Region.of(interiors[k % len(interiors)], lattice)
        beta = betas[k % len(betas)]
        phi = perturbed_state(potential, beta, region)
        worst = max(worst, product_check(phi, region))
    assert worst <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 2 (decoupled product property): PASS — worst residual "
          f"{worst:.2e} over 20 potentials, {elapsed:.2f}s")


def test_criterion_3_entropy_bound_and_monotonicity():
    lattice = 5
    potential = hopping_model(lattice)
    h_full = total_hamiltonian(potential)

    # two-sided bound: both relative entropies between the equilibrium state
    # and its decoupled version stay below twice the local energy scale
    worst_slack = math.inf
    for beta in (0.5, 1.0, 2.0):
        gibbs = gibbs_state(h_full, beta)
        for sites in ((2,), (1, 2)):
            region = Region.of(sites, lattice)
            phi = perturbed_state(potential, beta, region)
            bound = 2.0 * abs(beta) * float(np.linalg.norm(
                local_hamiltonian(potential, region).matrix, 2))
            for first, second in ((gibbs, phi), (phi, gibbs)):
                value = relative_entropy(first, second)
                worst_slack = min(worst_slack, bound - value)
    assert worst_slack >= 0.0

    # monotonicity under restriction, 100 random pairs
    rng = np.random.default_rng(3)
    regions = [Region.of(s, lattice) for s in
               ((0,), (2,), (4,), (1, 2), (0, 4), (1, 3), (0, 1, 2))]
    worst_gap = math.inf
    for k in range(100):
        omega1 = _random_density(lattice, rng)
        omega2 = _random_density(lattice, rng)
        full = relative_entropy(omega1, omega2)
        part = restricted_relative_entropy(omega1, omega2,
                                           regions[k % len(regions)])
        worst_gap = min(worst_gap, full - part)
    assert worst_gap >= -1e-10
    print(f"criterion 3 (entropy bound / monotonicity): PASS — slack "
          f"{worst_slack:.3e}, worst restriction gap {worst_gap:.3e}")


def test_criterion_4_noneven_states_lose_free_energy():
    start = time.perf_counter()
    report = prop4_pipeline(hopping_model(6), 1.0, Region.of([2, 3], 6))
    tolerances = {"RESTIc": 1e-12, "HIzero": 1e-12, "ScIvpHI": 1e-10,
                  "ScIpsi": 1e-10, "ScImin": 1e-10, "FpsiTheta": 1e-10,
                  "gap_identity": 1e-10, "violate": 1e-6}
    by_name = {c.check: c for c in report.checks}
    assert set(by_name) == set(tolerances)
    for name, tol in tolerances.items():
        record = by_name[name]
        assert record.tolerance == tol
        if name == "violate":
            assert record.value > tol          # strict free-energy loss
        else:
            assert record.value <= tol
        assert record.passed
    assert report.passed
    # the report must say why this cannot be dodged at finite size
    assert any("trivial center" in note for note in report.notes)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 4 (noneven free-energy loss): PASS — gap "
          f"{by_name['violate'].value:.3e}, {elapsed:.2f}s")


def test_criterion_5_odd_correlations_are_imaginary():
    lattice = 5
    rng = np.random.default_rng(5)
    splits = [((0,), (1,)), ((0,), (2, 3)), ((0, 1), (3, 4)), ((2,), (4,)),
              ((1, 2), (3,)), ((0,), (4,)), ((3,), (0, 1)), ((2, 3), (0,))]
    cases = []
    worst = 0.0
    for k in range(1000):
        left_sites, right_sites = splits[k % len(splits)]
        left = Region.of(left_sites, lattice)
        right = Region.of(right_sites, lattice)
        omega = _random_density(lattice, rng, even=True)
        a = _odd_unit(left, rng)
        b = _odd_unit(right, rng)
        worst = max(worst, purely_imaginary_check(omega, a, b))
        cases.append((omega, a, b))
    assert worst <= 1e-12
    scan = scan_odd_correlations(cases)
    assert scan["cases"] == 1000
    assert scan["violations"] == 0
    print(f"criterion 5 (odd correlations purely imaginary): PASS — worst "
          f"real part {worst:.2e} over 1000 triples, 0 violations")


def test_criterion_6_kms_and_pruned_commutation():
    lattice, beta = 6, 1.0
    potential = hopping_model(lattice)
    h_full = total_hamiltonian(potential)
    gibbs = gibbs_state(h_full, beta)
    kms = kms_residual(gibbs, h_full, beta)
    assert kms <= 1e-10

    region = Region.of([2, 3], lattice)
    h_pruned = total_hamiltonian(prune(potential, region)).matrix
    worst_comm = 0.0
    for monomial in car.monomial_basis(region).monomials:
        dense = monomial.dense()
        comm = h_pruned @ dense - dense @ h_pruned
        worst_comm = max(worst_comm, float(np.linalg.norm(comm, 2)))
    assert worst_comm <= 1e-12
    print(f"criterion 6 (KMS / pruned commutation): PASS — kms {kms:.2e}, "
          f"worst commutator {worst_comm:.2e}")


def test_criterion_7_gibbs_is_locally_thermally_stable():
    lattice, beta = 5, 1.0
    potential = hopping_model(lattice)
    region = Region.of([2], lattice)
    gibbs = gibbs_state(total_hamiltonian(potential), beta)
    report = lts_check(gibbs, potential, region, beta, samples=500, seed=0)
    assert report.passed
    assert report.margin >= -1e-9
    # the Gibbs variational bound contributed a margin
    assert any(c.check == "margin_maximizer" for c in report.checks)

    pruned = prune(potential, region)
    phi = perturbed_state(potential, beta, region)
    decoupled = lts_check(phi, pruned, region, beta, samples=100, seed=0)
    assert decoupled.passed
    assert abs(decoupled.free_energies["maximizer"]) <= 1e-6
    print(f"criterion 7 (local thermal stability): PASS — margin "
          f"{report.margin:.3e} over 500 samples, pruned maximum "
          f"{decoupled.free_energies['maximizer']:.2e}")


def test_criterion_8_single_site_vector_state():
    lattice = 4
    outer = gibbs_state(total_hamiltonian(hopping_model(lattice)), 1.0)
    state = remark2_construct(outer)
    site0 = Region.of([0], lattice)
    comp = site0.complement()

    target = 0.5 * (outer.density + car.theta_matrix(outer.density, lattice))
    expected = car.monomial_basis(comp).expectations(target)
    got = car.monomial_basis(Region.full(len(comp))).expectations(
        restrict(state, comp).density)
    defect = float(np.max(np.abs(expected - got)))
    assert defect <= 1e-10

    u = odd_direction(site0)
    odd_expectation = complex(state.expectation(u.matrix))
    assert abs(odd_expectation - 1.0) <= 1e-10
    print(f"criterion 8 (vector state at one site): PASS — restriction "
          f"defect {defect:.2e}, odd expectation error "
          f"{abs(odd_expectation - 1.0):.2e}")


def test_criterion_9_reports_are_deterministic(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[run]\ncommand = prop4\nlength = 5\nregion = 2,3\n"
                      "seed = 11\nbeta = 1.0\n")
    outputs = []
    for name in ("first.jsonl", "second.jsonl"):
        out = tmp_path / name
        assert cli.main(["--config", str(config), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] and outputs[0]

    # a second verb with its own randomized panel, same story
    argv = ["lts", "--length", "4", "--region", "1", "--samples", "50",
            "--seed", "7"]
    reruns = []
    for name in ("third.jsonl", "fourth.jsonl"):
        out = tmp_path / name
        assert cli.main(argv + ["--out", str(out)]) == 0
        reruns.append(out.read_bytes())
    assert reruns[0] == reruns[1]

    records = [json.loads(line) for line in outputs[0].decode().splitlines()]
    assert all(rec["seed"] == 11 for rec in records)
    print("criterion 9 (deterministic reports): PASS — byte-identical "
          f"reruns, {len(records)} + "
          f"{len(reruns[0].decode().splitlines())} records")
