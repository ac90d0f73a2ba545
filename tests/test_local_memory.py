"""Guard: the paths of local elements form no ``2**L x 2**L`` array.

An element is held on its support ``S`` as a ``2**|S|``-square matrix, so
building one, reading its norm and taking its expectation in a state cost
at most ``O(N 2**|S|)`` memory.  At L = 10 a single N x N complex128 array
takes 16 MiB; the peak traced allocation of each path must stay below it.
"""

import tracemalloc

import numpy as np

from fermichain import car
from fermichain.potentials import (hopping_model, local_hamiltonian, prune,
                                   total_hamiltonian)
from fermichain.regions import Region
from fermichain.states import (gibbs_state, max_perturbation_strength,
                               odd_direction)

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
