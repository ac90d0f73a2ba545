"""Guard: the paths of local elements form no ``2**L x 2**L`` array.

An element is held on its support ``S`` as a ``2**|S|``-square matrix, so
building one, reading its norm and taking its expectation in a state cost
at most ``O(N 2**|S|)`` memory.  At L = 10 a single N x N complex128 array
takes 16 MiB; the peak traced allocation of each path must stay below it.

Three paths hold an N x N array by design and are bounded by a count of
them: the Gibbs state of the whole chain and the decoupled state, whose
density is one, and a case of the ``ssb-probe`` scan, whose even state is
held by its N x N Gaussian factor.
"""

import tracemalloc

import numpy as np

from fermichain import car
from fermichain.potentials import (hopping_model, local_hamiltonian, prune,
                                   total_hamiltonian)
from fermichain.probes import scan_odd_correlations
from fermichain.regions import Region
from fermichain.states import (FactorState, gibbs_state,
                               max_perturbation_strength, odd_direction,
                               perturbed_state)

LATTICE = 10
DENSE_BYTES = car.dim(LATTICE) ** 2 * np.dtype(np.complex128).itemsize


def peak_bytes(path) -> int:
    tracemalloc.start()
    try:
        path()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_element_paths_stay_below_one_dense_array():
    pot = hopping_model(LATTICE)
    region = Region.of([2, 3], LATTICE)
    # the decoupled state: its spectrum is known from its 2**|I^c| Hamiltonian
    phi = gibbs_state(total_hamiltonian(prune(pot, region)), 1.0,
                      region=region.complement())
    element = car.random_element(region, np.random.default_rng(1), parity=1,
                                 hermitian=True)
    paths = {
        "local_hamiltonian norm": lambda: local_hamiltonian(pot, region).norm(),
        "odd_direction": lambda: odd_direction(region),
        "random_element": lambda: car.random_element(
            region, np.random.default_rng(0), parity=1, hermitian=True),
        "max_perturbation_strength": lambda: max_perturbation_strength(
            phi, odd_direction(region)),
        "expectation": lambda: phi.expectation(element),
    }
    peaks = {name: peak_bytes(path) for name, path in paths.items()}
    assert all(peak < DENSE_BYTES for peak in peaks.values()), peaks


def test_gibbs_state_holds_three_dense_arrays():
    # at most three at a time: the eigenvectors U, U diag(w) and their
    # product, then the density and its adjoint for the symmetrization
    lattice = 8
    dense = car.dim(lattice) ** 2 * np.dtype(np.complex128).itemsize
    h = total_hamiltonian(hopping_model(lattice))
    peak = peak_bytes(lambda: gibbs_state(h, 1.0))
    assert peak <= 3.2 * dense, peak / dense


def test_decoupled_state_holds_one_dense_density():
    # the pruned terms are summed on the complement's chain: the density and
    # the temporaries of its embedding stay below two N x N arrays, where a
    # dense remainder, its embedding check and the density took three
    pot = hopping_model(LATTICE)
    region = Region.of([2, 3], LATTICE)
    peak = peak_bytes(lambda: perturbed_state(pot, 1.0, region))
    assert peak < 2 * DENSE_BYTES, peak


def test_scan_case_holds_its_factor_and_column_blocks():
    # one case of the ssb-probe scan at L = 9, drawn as the command draws
    # it: the factor G is one N x N array and its real-part draw half of
    # one, AG and BG are formed in blocks of columns, and no density,
    # grading image or embedded B is formed (that path held five arrays)
    lattice = 9
    dense = car.dim(lattice) ** 2 * np.dtype(np.complex128).itemsize
    for sites in ([2, 3], [0]):
        region = Region.of(sites, lattice)
        rng = np.random.default_rng(0)

        def case():
            omega = FactorState.gaussian(lattice, rng, label="scan-even")
            a = car.random_element(region, rng, parity=1, hermitian=True)
            b = car.random_element(region.complement(), rng, parity=1,
                                   hermitian=True)
            return scan_odd_correlations([(omega, a, b)])

        peak = peak_bytes(case)
        assert peak < 2.5 * dense, (sites, peak)
