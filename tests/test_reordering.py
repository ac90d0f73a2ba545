"""The mode reordering and the maps built on it, against independent oracles.

Conditional expectations, small representations and embeddings are all
computed through :func:`car.mode_reordering`.  Here they are compared with
the monomial-table route (projection through ``4**|R| x 2**L`` column-map
tables) and with the Kronecker construction of ``conftest.py``, on
contiguous, scattered, boundary and complement regions of chains up to
seven sites.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fermichain import car, kernels
from fermichain.potentials import hopping_model, total_hamiltonian
from fermichain.regions import Region
from fermichain.states import (DensityState, gibbs_state, perturbed_state,
                               product_check, restrict)

from conftest import oracle_annihilator

TOL = 1e-14


@st.composite
def regions(draw, max_lattice=7, nonempty=False):
    lattice = draw(st.integers(min_value=1, max_value=max_lattice))
    kind = draw(st.sampled_from(["contiguous", "scattered", "boundary",
                                 "complement"]))
    if kind == "contiguous":
        start = draw(st.integers(min_value=0, max_value=lattice - 1))
        stop = draw(st.integers(min_value=start + 1, max_value=lattice))
        sites = range(start, stop)
    elif kind == "scattered":
        sites = draw(st.sets(st.integers(min_value=0, max_value=lattice - 1),
                             min_size=1 if nonempty else 0))
    elif kind == "boundary":
        sites = draw(st.sampled_from([(0,), (lattice - 1,), (0, lattice - 1)]))
    else:
        inner = draw(st.sets(st.integers(min_value=0, max_value=lattice - 1),
                             min_size=1, max_size=2))
        sites = [s for s in range(lattice) if s not in inner]
        if nonempty and not sites:
            sites = [0]
    return Region.of(set(sites), lattice)


seeds = st.integers(min_value=0, max_value=10_000)


def unit_matrix(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


@pytest.fixture(autouse=True)
def drop_monomial_tables():
    # tables at L = 7 run to tens of MB each; do not let the cache keep
    # one per drawn region
    yield
    car.monomial_basis.cache_clear()


def monomial_small_representation(matrix, region):
    """The table route: region coefficients reassembled on a fresh chain."""
    coeffs = car.monomial_basis(region).coefficients(matrix)
    return car.monomial_basis(Region.full(len(region))).assemble(coeffs)


def monomial_embedding(small, region):
    coeffs = car.monomial_basis(Region.full(len(region))).coefficients(small)
    return car.monomial_basis(region).assemble(coeffs)


# ---------------------------------------------------------------------------
# the reordering itself
# ---------------------------------------------------------------------------


@given(regions())
def test_reordering_is_a_signed_permutation(region):
    index, sign = car.mode_reordering(region)
    r = len(region)
    assert index.shape == (car.dim(region.lattice_size - r), car.dim(r))
    assert np.array_equal(np.sort(index.ravel()),
                          np.arange(car.dim(region.lattice_size)))
    assert set(np.unique(sign)) <= {-1.0, 1.0}
    # the region's sites spell the column, the complement's the row
    for y, x in itertools.product(range(index.shape[0]), range(index.shape[1])):
        s = int(index[y, x])
        assert sum(((s >> q) & 1) << j for j, q in enumerate(region.sites)) == x
        assert sum(((s >> c) & 1) << j
                   for j, c in enumerate(region.complement().sites)) == y


@given(regions())
def test_reordering_carries_annihilators_to_a_fresh_chain(region):
    # the j-th region site becomes site j of an |R|-site chain, exactly
    lattice, r = region.lattice_size, len(region)
    for j, site in enumerate(region.sites):
        big = oracle_annihilator(site, lattice)
        small = oracle_annihilator(j, r)
        assert np.array_equal(car.small_representation(big, region), small)
        assert np.array_equal(car.embed(small, region), big)


# ---------------------------------------------------------------------------
# E, the small representation and the embedding against the table route
# ---------------------------------------------------------------------------


@given(regions(), seeds)
def test_conditional_expectation_matches_monomial_oracle(region, seed):
    a = unit_matrix(car.dim(region.lattice_size), np.random.default_rng(seed))
    want = car.monomial_basis(region).project(a)
    assert np.max(np.abs(car.conditional_expectation_matrix(a, region)
                         - want)) <= TOL


@given(regions(), seeds)
def test_small_representation_matches_monomial_oracle(region, seed):
    a = unit_matrix(car.dim(region.lattice_size), np.random.default_rng(seed))
    got = car.small_representation(a, region)
    if region.is_empty:
        want = np.array([[car.tau(a)]])
    else:
        want = monomial_small_representation(a, region)
    assert np.max(np.abs(got - want)) <= TOL


@given(regions(nonempty=True), seeds)
def test_embedding_matches_monomial_oracle_and_inverts(region, seed):
    small = unit_matrix(car.dim(len(region)), np.random.default_rng(seed))
    big = car.embed(small, region)
    assert np.max(np.abs(big - monomial_embedding(small, region))) <= TOL
    assert np.max(np.abs(car.small_representation(big, region) - small)) <= TOL


def test_embedding_rejects_a_wrong_size():
    with pytest.raises(ValueError):
        car.embed(np.eye(2), Region.of([0, 1], 3))


@given(regions(nonempty=True), seeds)
@example(Region((3,), 5), 0)
@example(Region((3, 0, 1), 5), 1)       # sites given out of order
@example(Region.of([0, 2, 5], 6), 2)    # interleaved with the complement
@example(Region.full(7), 3)
@example(Region.of([0, 1], 6), 4)       # a prefix, gathered with no signs
def test_local_times_is_the_product_with_the_embedding(region, seed):
    # local_times takes odd elements only, which an empty region has none of
    rng = np.random.default_rng(seed)
    small = car.random_element(region, rng, parity=1).small
    matrix = unit_matrix(car.dim(region.lattice_size), rng)
    want = car.embed(small, region) @ matrix
    assert np.max(np.abs(car.local_times(small, region, matrix) - want)) <= 1e-12
    # a block of columns, and a real matrix, are multiplied the same way
    assert np.max(np.abs(car.local_times(small, region, matrix[:, :3])
                         - want[:, :3])) <= 1e-12
    want_real = car.embed(small, region) @ matrix.real
    assert np.max(np.abs(car.local_times(small, region, matrix.real)
                         - want_real)) <= 1e-12


@pytest.mark.parametrize("sites, signed", [([0], False), ([0, 1], False),
                                           ([0, 1, 2], False), ([1], True),
                                           ([2, 3], True), ([0, 2], True)])
def test_gather_of_a_prefix_region_has_no_signs(sites, signed):
    # only a prefix 0, ..., r - 1 keeps every mode in its place, and there
    # local_times skips both sign passes
    region = Region.of(sites, 5)
    _, sign = car.mode_reordering(region)
    assert bool(np.any(sign < 0)) == signed
    assert (car._parity_gather(region)[1] is not None) == signed


def test_local_times_refuses_a_small_that_is_not_odd():
    region = Region.of([0, 2], 3)
    rng = np.random.default_rng(0)
    matrix = unit_matrix(car.dim(3), rng)
    odd = car.random_element(region, rng, parity=1).small
    even = car.random_element(region, rng, parity=0).small
    for small in (even, odd + 1e-9 * even, np.eye(4)):
        with pytest.raises(ValueError, match="not odd"):
            car.local_times(small, region, matrix)
    # an even part below 1e-12 of the largest entry is rounding
    want = car.embed(odd, region) @ matrix
    got = car.local_times(odd + 1e-15 * even, region, matrix)
    assert np.max(np.abs(got - want)) <= 1e-12
    # the empty region's one odd element is 0, and its identity is even
    empty = Region.of([], 3)
    assert not np.any(car.local_times(np.zeros((1, 1)), empty, matrix))
    with pytest.raises(ValueError, match="not odd"):
        car.local_times(np.ones((1, 1)), empty, matrix)


def test_local_times_rejects_mismatched_shapes():
    region = Region.of([0, 1], 3)
    with pytest.raises(ValueError):
        car.local_times(np.eye(2), region, np.eye(8))
    with pytest.raises(ValueError):
        car.local_times(np.eye(4), region, np.eye(4))


@given(regions(), seeds)
def test_restriction_values_and_labels_match_the_tables(region, seed):
    n = car.dim(region.lattice_size)
    g = unit_matrix(n, np.random.default_rng(seed))
    omega = DensityState(g @ g.conj().T / np.trace(g @ g.conj().T).real,
                         validate=False)
    rest = restrict(omega, region)
    basis = car.monomial_basis(region)
    # the small density of an empty region is the 1 x 1 matrix of Tr(D)
    values = (car.monomial_basis(Region.full(len(region))).expectations(rest.density)
              if len(region) else rest.density[0])
    assert np.max(np.abs(values - basis.expectations(omega.density))) <= TOL


# ---------------------------------------------------------------------------
# random elements
# ---------------------------------------------------------------------------


class UnitDraws:
    """Stands in for a generator whose normal draws are all one."""

    def standard_normal(self, shape):
        return np.ones(shape)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("parity", [None, 0, 1])
def test_random_element_has_the_monomial_coefficient_law(r, parity):
    # coefficients c_k over the monomials, independent with E|c_k|^2 = 2,
    # give vec(M) the covariance 2 * sum_k vec(m_k) vec(m_k)^*; it must be
    # diagonal, with the entry variances the sampler uses
    basis = car.monomial_basis(Region.full(r))
    m = car.dim(r)
    cov = np.zeros((m * m, m * m), dtype=np.complex128)
    for mono in basis.monomials:
        if parity is None or mono.parity == parity:
            vec = mono.dense().ravel()
            cov += 2.0 * np.outer(vec, vec.conj())
    assert np.max(np.abs(cov - np.diag(np.diag(cov)))) == 0.0

    lattice = r + 2
    region = Region.of(range(1, r + 1), lattice)
    drawn = car.random_element(region, UnitDraws(), parity=parity)
    small = car.small_representation(drawn.matrix, region)
    # each unit draw is 1 + 1j, of modulus squared 2
    assert np.max(np.abs(np.abs(small.ravel()) ** 2 - np.diag(cov).real)) <= 1e-12


# ---------------------------------------------------------------------------
# the product certificate
# ---------------------------------------------------------------------------


def pair_panel(omega, region):
    """Worst ``|omega(A B) - tau(A) omega(B)|`` over monomial pairs."""
    inner = car.monomial_basis(region)
    outer = car.monomial_basis(region.complement())
    density = np.ascontiguousarray(omega.density)
    cross = kernels.pair_expect(inner.P, inner.V, outer.P, outer.V, density)
    taus = np.zeros(len(inner))
    taus[0] = 1.0                         # only the identity has tau != 0
    return float(np.max(np.abs(cross - np.outer(taus,
                                                outer.expectations(density)))))


@given(regions(max_lattice=6, nonempty=True), seeds)
def test_product_check_bounds_the_pair_panel(region, seed):
    n = car.dim(region.lattice_size)
    g = unit_matrix(n, np.random.default_rng(seed))
    omega = DensityState(g @ g.conj().T / np.trace(g @ g.conj().T).real,
                         validate=False)
    assert product_check(omega, region) >= pair_panel(omega, region) - 1e-14


@given(st.integers(min_value=2, max_value=6), st.data())
def test_product_check_vanishes_on_decoupled_states(lattice, data):
    sites = data.draw(st.sets(st.integers(min_value=0, max_value=lattice - 1),
                              min_size=1, max_size=lattice - 1))
    region = Region.of(sites, lattice)
    beta = data.draw(st.sampled_from([0.5, 1.0, 2.0]))
    phi = perturbed_state(hopping_model(lattice), beta, region)
    assert product_check(phi, region) <= 1e-12


def test_product_check_fails_on_a_correlated_state():
    lattice = 5
    region = Region.of([2], lattice)
    gibbs = gibbs_state(total_hamiltonian(hopping_model(lattice)), 1.0)
    value = product_check(gibbs, region)
    assert value > 1e-3
    assert value >= pair_panel(gibbs, region) > 1e-3
