import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fermichain import car
from fermichain.potentials import hopping_model, total_hamiltonian
from fermichain.probes import (ProbeResult, cluster_coefficient,
                               grading_asymmetry, purely_imaginary_check,
                               scan_odd_correlations)
from fermichain.regions import Region
from fermichain.states import (DensityState, FactorState, gibbs_state,
                               noneven_perturbation, odd_direction,
                               perturbed_state, remark2_construct)


def number(site, lattice):
    """``a* a`` on one site."""
    a = car.annihilator(site, lattice)
    return a.dagger() @ a


def random_even_state(lattice, rng):
    n = car.dim(lattice)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    d = g @ g.conj().T
    d /= np.trace(d).real
    sym = 0.5 * (d + car.theta_matrix(d, lattice))
    return DensityState(sym, label="even-random")


def odd_hermitian(region, rng):
    # parity bit 1 selects the odd monomials
    x = car.random_element(region, rng, parity=1, hermitian=True)
    nrm = x.norm()
    assert nrm > 1e-6, "odd draw must be nontrivial"
    return (1.0 / nrm) * x


# ---------------------------------------------------------------------------
# grading asymmetry
# ---------------------------------------------------------------------------


def test_even_states_have_no_grading_asymmetry():
    lattice = 4
    region = Region.of([1, 2], lattice)
    for seed in range(5):
        omega = random_even_state(lattice, np.random.default_rng(seed))
        assert grading_asymmetry(omega, region).quantity < 1e-12
    gibbs = gibbs_state(total_hamiltonian(hopping_model(lattice)), 1.0)
    assert grading_asymmetry(gibbs, region).quantity < 1e-12


def test_asymmetry_witness_is_odd_selfadjoint_and_attaining():
    lattice = 5
    region = Region.of([2], lattice)
    phi = perturbed_state(hopping_model(lattice), 1.0, region)
    psi = noneven_perturbation(phi, region)
    result = grading_asymmetry(psi, region)
    assert result.quantity > 1e-4
    w = result.witness
    assert w is not None
    assert w.support.is_subregion(region)
    assert w.is_self_adjoint()
    assert np.max(np.abs(car.theta(w).matrix + w.matrix)) < 1e-12
    assert w.norm() <= 1.0 + 1e-12
    # the witness actually realizes the supremum
    assert abs(abs(psi.expectation(w.matrix)) - result.quantity) < 1e-10


def test_remark2_state_is_maximally_asymmetric_at_site_zero():
    lattice = 4
    outer = gibbs_state(total_hamiltonian(hopping_model(lattice)), 1.0)
    state = remark2_construct(outer)
    result = grading_asymmetry(state, Region.of([0], lattice))
    assert abs(result.quantity - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------


def test_cluster_coefficient_vanishes_for_product_states():
    lattice = 6
    rng = np.random.default_rng(10)
    n = car.dim(lattice)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    d = g @ g.conj().T
    d /= np.trace(d).real
    inside = Region.of([0, 1], lattice)
    ext = DensityState(car.conditional_expectation_matrix(d, inside))
    obs = car.AlgebraElement.from_matrix(number(0, lattice).matrix,
                                         inside)
    result = cluster_coefficient(ext, obs, Region.of([4, 5], lattice))
    assert result.quantity < 1e-12


def test_cluster_coefficient_decays_for_local_gibbs_states():
    lattice = 6
    gibbs = gibbs_state(total_hamiltonian(hopping_model(lattice)), 1.0)
    n0 = number(0, lattice)
    centered = car.AlgebraElement(n0.small - n0.tau() * np.eye(2), n0.support)
    near = cluster_coefficient(gibbs, centered, Region.of([1], lattice)).quantity
    mid = cluster_coefficient(gibbs, centered, Region.of([3], lattice)).quantity
    far = cluster_coefficient(gibbs, centered, Region.of([5], lattice)).quantity
    assert near > mid > far >= 0.0
    assert far < 1e-3 * near


def test_cluster_coefficient_requires_disjoint_supports():
    lattice = 4
    gibbs = gibbs_state(total_hamiltonian(hopping_model(lattice)), 1.0)
    obs = number(1, lattice)
    with pytest.raises(ValueError):
        cluster_coefficient(gibbs, obs, Region.of([1, 2], lattice))


# ---------------------------------------------------------------------------
# purely imaginary odd correlations
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10_000))
def test_odd_correlations_have_no_real_part(seed):
    lattice = 4
    rng = np.random.default_rng(seed)
    omega = random_even_state(lattice, rng)
    a = odd_hermitian(Region.of([0, 1], lattice), rng)
    b = odd_hermitian(Region.of([2, 3], lattice), rng)
    assert purely_imaginary_check(omega, a, b) < 1e-12


def test_the_imaginary_part_is_genuinely_nonzero():
    # the vanishing real part is not for lack of correlation: for the hopping
    # chain the cross term of the two odd quadratures is visibly imaginary
    lattice = 5
    gibbs = gibbs_state(total_hamiltonian(hopping_model(lattice)), 1.0)
    a = odd_direction(Region.of([0], lattice))
    ann = car.annihilator(1, lattice)
    b = 1j * (ann - ann.dagger())
    assert purely_imaginary_check(gibbs, a, b) < 1e-13
    corr = gibbs.expectation(a.matrix @ b.matrix)
    assert abs(corr.imag) > 0.4


def test_purely_imaginary_check_validates_inputs():
    lattice = 4
    gibbs = gibbs_state(total_hamiltonian(hopping_model(lattice)), 1.0)
    a = odd_direction(Region.of([0], lattice))
    with pytest.raises(ValueError):        # overlapping supports
        purely_imaginary_check(gibbs, a, odd_direction(Region.of([0, 1], lattice)))
    with pytest.raises(ValueError):        # not self-adjoint
        purely_imaginary_check(gibbs, a, car.annihilator(2, lattice))
    even = number(2, lattice)
    with pytest.raises(ValueError):        # not odd
        purely_imaginary_check(gibbs, a, even)


# ---------------------------------------------------------------------------
# the correlation scan
# ---------------------------------------------------------------------------


def test_scan_reports_zero_violations_for_honest_panels():
    lattice = 4
    rng = np.random.default_rng(42)
    cases = []
    for _ in range(40):
        omega = random_even_state(lattice, rng)
        a = odd_hermitian(Region.of([0], lattice), rng)
        b = odd_hermitian(Region.of([2, 3], lattice), rng)
        cases.append((omega, a, b))
    report = scan_odd_correlations(cases)
    assert report["cases"] == 40
    assert report["violations"] == 0
    assert report["worst_real_part"] < 1e-13
    assert report["worst_cauchy_schwarz_excess"] <= 1e-12


def test_scan_counts_fabricated_violations():
    # a fake functional that reports a real correlation of 1 while keeping a
    # tight Cauchy-Schwarz envelope must be flagged
    class BrokenFunctional:
        def expectation(self, matrix):
            return 1.0

        def odd_pair(self, a, b):
            return 1.0, 1.0, 1.0

    lattice = 3
    a = odd_direction(Region.of([0], lattice))
    b = odd_direction(Region.of([2], lattice))
    report = scan_odd_correlations([(BrokenFunctional(), a, b)])
    assert report["violations"] == 1
    assert report["worst_real_part"] == 1.0


def test_scan_counts_nan_cases_as_violations():
    class NaNFunctional:
        def expectation(self, matrix):
            return complex(np.nan, np.nan)

        def odd_pair(self, a, b):
            return (complex(np.nan, np.nan),) * 3

    lattice = 3
    gibbs = gibbs_state(total_hamiltonian(hopping_model(lattice)), 1.0)
    a = odd_direction(Region.of([0], lattice))
    b = odd_direction(Region.of([2], lattice))
    report = scan_odd_correlations([(gibbs, a, b), (NaNFunctional(), a, b),
                                    (gibbs, a, b)])
    assert report["violations"] == 1
    assert np.isnan(report["worst_real_part"])
    assert np.isnan(report["worst_cauchy_schwarz_excess"])


def test_scan_refuses_overlapping_supports():
    lattice = 3
    gibbs = gibbs_state(total_hamiltonian(hopping_model(lattice)), 1.0)
    a = odd_direction(Region.of([0], lattice))
    b = odd_direction(Region.of([0, 1], lattice))
    with pytest.raises(ValueError):
        scan_odd_correlations([(gibbs, a, b)])


def test_probe_result_carries_its_region():
    lattice = 4
    region = Region.of([3], lattice)
    gibbs = gibbs_state(total_hamiltonian(hopping_model(lattice)), 1.0)
    obs = number(0, lattice)
    result = cluster_coefficient(gibbs, obs, region)
    assert isinstance(result, ProbeResult)
    assert result.region == region
    assert result.witness is None


# ---------------------------------------------------------------------------
# products with local factors, against the dense products
# ---------------------------------------------------------------------------


class Recording:
    """Passes every ``odd_pair`` on to ``omega`` and keeps its three
    values: ``omega(A B)``, ``omega(A* A)`` and ``omega(B* B)``."""

    def __init__(self, omega):
        self.omega = omega
        self.values = []

    def odd_pair(self, a, b):
        values = self.omega.odd_pair(a, b)
        self.values.extend(values)
        return values


@st.composite
def disjoint_odd_pair(draw, max_lattice=6):
    """Random odd self-adjoint elements on disjoint nonempty regions of a
    chain of at most ``max_lattice`` sites, with a random even state."""
    lattice = draw(st.integers(min_value=2, max_value=max_lattice))
    first, second = draw(st.lists(st.integers(min_value=0,
                                              max_value=lattice - 1),
                                  min_size=2, max_size=2, unique=True))
    others = draw(st.lists(st.sampled_from("abn"), min_size=lattice,
                           max_size=lattice))
    others[first], others[second] = "a", "b"
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    omega = random_even_state(lattice, rng)
    a = odd_hermitian(Region.of([s for s, k in enumerate(others) if k == "a"],
                                lattice), rng)
    b = odd_hermitian(Region.of([s for s, k in enumerate(others) if k == "b"],
                                lattice), rng)
    return omega, a, b


def assert_relative(got, want, tol=1e-12):
    assert abs(got - want) <= tol * abs(want), (got, want)


@given(disjoint_odd_pair())
def test_scan_expectations_match_the_dense_products(case):
    omega, a, b = case
    recorder = Recording(omega)
    report = scan_odd_correlations([(recorder, a, b)])
    assert report["violations"] == 0
    corr, norm_a, norm_b = recorder.values
    assert_relative(corr, omega.expectation(a.matrix @ b.matrix))
    assert_relative(norm_a, omega.expectation(a.matrix.conj().T @ a.matrix))
    assert_relative(norm_b, omega.expectation(b.matrix.conj().T @ b.matrix))


@given(disjoint_odd_pair())
def test_purely_imaginary_check_takes_the_dense_correlation(case):
    omega, a, b = case
    recorder = Recording(omega)
    purely_imaginary_check(recorder, a, b)
    corr, _, _ = recorder.values
    assert_relative(corr, omega.expectation(a.matrix @ b.matrix))


@given(disjoint_odd_pair())
def test_cluster_coefficient_matches_the_dense_product(case):
    omega, a, b = case
    n, m = car.dim(omega.lattice_size), car.dim(len(b.support))
    mean = omega.expectation(a.matrix)
    hand = omega.density @ a.matrix - mean * omega.density
    small = car.small_representation(hand, b.support)
    want = (n / m) * np.sum(np.linalg.svd(small, compute_uv=False))
    assert_relative(cluster_coefficient(omega, a, b.support).quantity, want)


def test_scan_counts_the_cases_of_a_generator():
    lattice = 4
    rng = np.random.default_rng(3)

    def cases():
        for _ in range(7):
            yield (random_even_state(lattice, rng),
                   odd_hermitian(Region.of([3], lattice), rng),
                   odd_hermitian(Region.of([0, 1], lattice), rng))

    report = scan_odd_correlations(cases())
    assert report["cases"] == 7
    assert report["violations"] == 0
    assert scan_odd_correlations(iter([]))["cases"] == 0


def test_an_element_outside_its_declared_support_cannot_be_built():
    # a_1 + a_1* labelled as living on site 0: every product the probes form
    # through the declared support would be wrong, so the checked
    # constructor refuses it before any probe sees it
    lattice = 4
    dense = odd_direction(Region.of([1], lattice)).matrix
    with pytest.raises(ValueError, match=r"support \(0,\)"):
        car.AlgebraElement.from_matrix(dense, Region.of([0], lattice))
    honest = car.AlgebraElement.from_matrix(dense, Region.of([0, 1], lattice))
    assert np.array_equal(honest.matrix, dense)


# ---------------------------------------------------------------------------
# the factor state against the density it stands for
# ---------------------------------------------------------------------------


def factor_and_density(lattice, rng):
    """A Gaussian factor state and the ``DensityState`` of the
    grading-symmetrized ``G G* / Tr(G G*)`` it stands for."""
    factor = FactorState.gaussian(lattice, rng)
    g = factor.factor
    d = g @ g.conj().T
    d /= np.trace(d).real
    sym = 0.5 * (d + car.theta_matrix(d, lattice))
    return factor, DensityState(sym, label="factor-oracle")


def draw_region(data, lattice):
    sites = data.draw(st.sets(st.integers(0, lattice - 1), min_size=1,
                              max_size=lattice))
    return Region.of(sites, lattice)


def assert_within(got, want, scale, tol=1e-13):
    assert abs(got - want) <= tol * scale, (got, want, scale)


@given(st.integers(min_value=1, max_value=6), st.data())
def test_factor_state_expectations_match_the_symmetrized_density(lattice,
                                                                 data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    factor, density = factor_and_density(lattice, rng)
    for parity in (0, 1, None):
        x = car.random_element(draw_region(data, lattice), rng, parity=parity,
                               hermitian=data.draw(st.booleans()))
        # |omega(X)| <= ||X||, so the norm is the scale of the values
        scale = x.norm()
        assert_within(factor.expectation(x), density.expectation(x), scale)
        if parity == 1:
            assert factor.expectation(x) == 0.0


@given(st.integers(min_value=2, max_value=6), st.data())
def test_factor_state_pair_values_match_the_symmetrized_density(lattice, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    first = draw_region(data, lattice)
    rest = first.complement()
    if rest.is_empty:
        first, rest = (Region.of(first.sites[:-1], lattice),
                       Region.of(first.sites[-1:], lattice))
    sites = data.draw(st.sets(st.sampled_from(rest.sites), min_size=1))
    second = Region.of(sites, lattice)
    factor, density = factor_and_density(lattice, rng)
    a = car.random_element(first, rng, parity=1, hermitian=True)
    b = car.random_element(second, rng, parity=1, hermitian=True)
    got = factor.odd_pair(a, b)
    want = density.odd_pair(a, b)
    scales = (a.norm() * b.norm(), a.norm() ** 2, b.norm() ** 2)
    for g, w, scale in zip(got, want, scales):
        assert_within(g, w, scale)
    # |omega(AB)| <= ||A|| ||B||, which is the scale of the value: relative
    # to |omega(AB)| itself, rounding fails a value that is exactly zero
    assert_within(got[0], density.expectation(a.matrix @ b.matrix), scales[0])


def test_factor_state_pair_refuses_elements_that_are_not_odd_self_adjoint():
    lattice = 4
    factor = FactorState.gaussian(lattice, np.random.default_rng(0))
    a = odd_direction(Region.of([0], lattice))
    b = odd_direction(Region.of([2], lattice))
    not_adjoint = car.annihilator(2, lattice)
    even = number(2, lattice)
    for bad, reason in ((not_adjoint, "not self-adjoint"), (even, "not odd")):
        with pytest.raises(ValueError, match=reason):
            factor.odd_pair(a, bad)
        with pytest.raises(ValueError, match=reason):
            factor.odd_pair(bad, b)


def test_scan_and_check_take_factor_states():
    lattice = 5
    rng = np.random.default_rng(7)
    region, outside = Region.of([1, 2], lattice), Region.of([0, 3, 4], lattice)
    cases = [(FactorState.gaussian(lattice, rng),
              odd_hermitian(region, rng), odd_hermitian(outside, rng))
             for _ in range(10)]
    report = scan_odd_correlations(cases)
    assert report["cases"] == 10
    assert report["violations"] == 0
    assert report["worst_real_part"] < 1e-14
    omega, a, b = cases[0]
    assert purely_imaginary_check(omega, a, b) < 1e-14


def test_factor_state_draws_real_parts_first():
    # the order of the draws is the law of the ssb-probe scan: the factor
    # is the complex Ginibre matrix re + 1j * im, re drawn first
    lattice = 3
    n = car.dim(lattice)
    rng = np.random.default_rng(11)
    want = rng.standard_normal((n, n))
    want = want + 1j * rng.standard_normal((n, n))
    got = FactorState.gaussian(lattice, np.random.default_rng(11)).factor
    assert got.tobytes() == want.tobytes()
