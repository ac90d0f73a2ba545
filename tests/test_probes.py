import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fermichain import car
from fermichain.potentials import hopping_model, total_hamiltonian
from fermichain.probes import (cluster_coefficient, grading_asymmetry,
                               purely_imaginary_check, scan_odd_correlations)
from fermichain.regions import Region
from fermichain.states import (DensityState, FactorState, gibbs_state,
                               noneven_perturbation, odd_direction,
                               perturbed_state, remark2_construct, restrict)


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
    return DensityState(sym)


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
        assert grading_asymmetry(omega, region) < 1e-12
    gibbs = gibbs_state(total_hamiltonian(hopping_model(lattice)), 1.0)
    assert grading_asymmetry(gibbs, region) < 1e-12


def test_asymmetry_witness_is_odd_selfadjoint_and_attaining():
    # the witness W is built here, from the m x m eigendecomposition of
    # rho - theta(rho) on the restriction: the signs of its eigenvalues,
    # reduced to their odd self-adjoint part, which even elements cannot see
    lattice = 5
    region = Region.of([2], lattice)
    phi = perturbed_state(hopping_model(lattice), 1.0, region)
    psi = noneven_perturbation(phi, region)
    asymmetry = grading_asymmetry(psi, region)
    assert asymmetry > 1e-4
    rho = restrict(psi, region)
    evals, vecs = np.linalg.eigh(rho.density - rho.theta().density)
    signs = np.where(evals >= 0.0, 1.0, -1.0)
    opt = car.AlgebraElement((vecs * signs) @ vecs.conj().T, region)
    odd = 0.5 * (opt - car.theta(opt))
    w = 0.5 * (odd + odd.dagger())
    assert car.hermitian_defect(w.small) <= 1e-12
    assert np.max(np.abs(car.theta(w).matrix + w.matrix)) < 1e-12
    assert w.norm() <= 1.0 + 1e-12
    # the witness realizes the supremum
    assert abs(abs(psi.expectation(w.matrix)) - asymmetry) < 1e-10


def test_remark2_state_is_maximally_asymmetric_at_site_zero():
    lattice = 4
    outer = gibbs_state(total_hamiltonian(hopping_model(lattice)), 1.0)
    state = remark2_construct(outer)
    asymmetry = grading_asymmetry(state, Region.of([0], lattice))
    assert abs(asymmetry - 1.0) < 1e-10


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
    assert cluster_coefficient(ext, obs, Region.of([4, 5], lattice)) < 1e-12


def test_cluster_coefficient_decays_for_local_gibbs_states():
    lattice = 6
    gibbs = gibbs_state(total_hamiltonian(hopping_model(lattice)), 1.0)
    n0 = number(0, lattice)
    centered = car.AlgebraElement(n0.small - n0.tau() * np.eye(2), n0.support)
    near = cluster_coefficient(gibbs, centered, Region.of([1], lattice))
    mid = cluster_coefficient(gibbs, centered, Region.of([3], lattice))
    far = cluster_coefficient(gibbs, centered, Region.of([5], lattice))
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
    assert_relative(cluster_coefficient(omega, a, b.support), want)


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


def factor_and_density(lattice, rng, columns=None):
    """A Gaussian factor state, ``FactorState.gaussian``'s or one of
    ``columns`` complex Ginibre columns, and the ``DensityState`` of the
    grading-symmetrized ``G G* / Tr(G G*)`` it stands for."""
    if columns is None:
        factor = FactorState.gaussian(lattice, rng)
    else:
        shape = (car.dim(lattice), columns)
        factor = FactorState(rng.standard_normal(shape)
                             + 1j * rng.standard_normal(shape))
    g = factor.factor
    d = g @ g.conj().T
    d /= np.trace(d).real
    sym = 0.5 * (d + car.theta_matrix(d, lattice))
    return factor, DensityState(sym)


def draw_region(data, lattice):
    sites = data.draw(st.sets(st.integers(0, lattice - 1), min_size=1,
                              max_size=lattice))
    return Region.of(sites, lattice)


def assert_within(got, want, scale, tol=1e-13):
    assert abs(got - want) <= tol * scale, (got, want, scale)


def draw_disjoint_regions(data, lattice):
    """Two disjoint nonempty regions of the chain."""
    first = draw_region(data, lattice)
    rest = first.complement()
    if rest.is_empty:
        first, rest = (Region.of(first.sites[:-1], lattice),
                       Region.of(first.sites[-1:], lattice))
    sites = data.draw(st.sets(st.sampled_from(rest.sites), min_size=1))
    return first, Region.of(sites, lattice)


def assert_pair_values_match(factor, density, first, second, rng):
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


@given(st.integers(min_value=2, max_value=6), st.data())
def test_factor_state_pair_values_match_the_symmetrized_density(lattice, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    first, second = draw_disjoint_regions(data, lattice)
    factor, density = factor_and_density(lattice, rng)
    assert_pair_values_match(factor, density, first, second, rng)


@given(st.integers(min_value=2, max_value=6), st.booleans(), st.data())
def test_factor_state_pair_values_on_wide_factors(lattice, square, data):
    # factors of N x 200 columns, and square N x N ones: more columns than
    # the N x 64 factor the scan draws, held to the same oracle and scale
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    first, second = draw_disjoint_regions(data, lattice)
    columns = car.dim(lattice) if square else 200
    factor, density = factor_and_density(lattice, rng, columns)
    assert factor.factor.shape == (car.dim(lattice), columns)
    assert_pair_values_match(factor, density, first, second, rng)


def test_factor_state_pair_refuses_elements_that_are_not_odd_self_adjoint():
    # the factor state and the density state answer odd_pair through one
    # validator, so both refuse the same inputs
    lattice = 4
    a = odd_direction(Region.of([0], lattice))
    b = odd_direction(Region.of([2], lattice))
    not_adjoint = car.annihilator(2, lattice)
    even = number(2, lattice)
    overlapping = odd_direction(Region.of([0, 1], lattice))
    for omega in factor_and_density(lattice, np.random.default_rng(0)):
        for bad, reason in ((not_adjoint, "not self-adjoint"),
                            (even, "not odd")):
            with pytest.raises(ValueError, match=reason):
                omega.odd_pair(a, bad)
            with pytest.raises(ValueError, match=reason):
                omega.odd_pair(bad, b)
        with pytest.raises(ValueError, match="overlap"):
            omega.odd_pair(a, overlapping)


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
    # is the N x 64 complex Ginibre matrix re + 1j * im, re drawn first,
    # with more columns than rows on short chains
    for lattice in (3, 8):
        shape = (car.dim(lattice), 64)
        rng = np.random.default_rng(11)
        want = rng.standard_normal(shape)
        want = want + 1j * rng.standard_normal(shape)
        got = FactorState.gaussian(lattice, np.random.default_rng(11)).factor
        assert got.tobytes() == want.tobytes()
