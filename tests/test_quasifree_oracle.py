"""The Gibbs state of the ``hopping`` model at L = 10 against its quasi-free
closed form (``tests/quasifree_oracle.py``): the two-point matrix, the
entropies of restrictions and the conditional entropy, each to
``1e-12 * max(1, |value|)``; and the relative entropies of the ``perturb``
and ``entropy`` verbs, to ``1e-12`` of the largest of the closed form's
three terms.  This reaches the parity-block decompositions at a size the
Kronecker and monomial oracles cannot.  The relative entropies are also
compared at L = 12, on ``2,3`` at beta = 1 (marked slow).
"""

import math

import numpy as np
import pytest

import quasifree_oracle as oracle
from fermichain import car
from fermichain.entropy import (conditional_entropy, relative_entropy,
                                restricted_relative_entropy)
from fermichain.potentials import hopping_model, total_hamiltonian
from fermichain.regions import Region
from fermichain.states import (gibbs_state, perturbed_state, restrict,
                               spectral_entropy)

LATTICE = 10
# (region, beta): the regions of the verbs, one of them not contiguous
CASES = [((2, 3), 1.0), ((0,), 5.0), ((1, 4, 7), 2.0)]


def close(got: float, want: float) -> bool:
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.fixture(scope="module", params=CASES, ids=lambda case: str(case))
def case(request):
    sites, beta = request.param
    state = gibbs_state(total_hamiltonian(hopping_model(LATTICE)), beta)
    c = oracle.two_point(oracle.hopping_one_body(LATTICE), beta)
    return Region.of(sites, LATTICE), beta, state, c


def test_gibbs_two_point_matrix(case):
    _, _, state, c = case
    a = [car.annihilator(i, LATTICE) for i in range(LATTICE)]
    got = np.array([[state.expectation(a[i].dagger() @ a[j])
                     for j in range(LATTICE)] for i in range(LATTICE)])
    assert np.max(np.abs(got - c)) <= 1e-12


def test_entropies_of_restrictions(case):
    region, _, state, c = case
    for part in (region, region.complement()):
        rho = restrict(state, part).density
        got = spectral_entropy(car.eigvalsh(rho))
        want = oracle.entropy(oracle.restricted(c, part.sites))
        assert close(got, want), (part.sites, got, want)


def test_conditional_entropy(case):
    region, _, state, c = case
    got = conditional_entropy(state, region)
    want = oracle.conditional_entropy(c, region.sites)
    assert close(got, want), (got, want)
    assert close(state.entropy(), oracle.entropy(c))


def test_relative_entropies_of_the_decoupled_state(case):
    # the forward and backward values perturb bounds, and the restricted
    # one entropy subtracts; each is a sum of terms that largely cancel
    # (3.9e-3 from terms between 4 and 9 on 2,3), so each is compared at
    # the scale of its terms
    region, beta, state, c = case
    lattice = region.lattice_size
    phi = perturbed_state(hopping_model(lattice), beta, region)
    h = oracle.hopping_one_body(lattice)
    h_phi = oracle.pruned(h, region.sites)
    outside = region.complement().sites
    pairs = [
        (relative_entropy(state, phi),
         oracle.relative_entropy_terms(h, oracle.two_point(h_phi, beta), beta)),
        (relative_entropy(phi, state),
         oracle.relative_entropy_terms(h_phi, c, beta)),
        (restricted_relative_entropy(phi, state, region.complement()),
         oracle.relative_entropy_terms(oracle.restricted(h_phi, outside),
                                       oracle.restricted(c, outside), beta)),
    ]
    for got, terms in pairs:
        want = math.fsum(terms)
        assert abs(got - want) <= 1e-12 * max(1.0, *map(abs, terms)), \
            (got, want, terms)


@pytest.mark.slow
def test_relative_entropies_of_the_decoupled_state_at_12():
    lattice, beta = 12, 1.0
    region = Region.of((2, 3), lattice)
    state = gibbs_state(total_hamiltonian(hopping_model(lattice)), beta)
    c = oracle.two_point(oracle.hopping_one_body(lattice), beta)
    test_relative_entropies_of_the_decoupled_state((region, beta, state, c))
