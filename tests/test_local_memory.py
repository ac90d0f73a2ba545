"""Guard: the paths of local elements form no ``2**L x 2**L`` array.

An element is held on its support ``S`` as a ``2**|S|``-square matrix, so
building one, reading its norm and taking its expectation in a state cost
at most ``O(N 2**|S|)`` memory.  Every bound is a count of N x N arrays in
the dtype of the data: float64 for the preset's real Hamiltonian and its
Gibbs and decoupled states (8 MiB at L = 10), complex128 for the complex
Gaussian factor of an ``ssb-probe`` case.  The peak traced allocation of
each element path must stay below one array.

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
from fermichain.states import (FactorState, gibbs_state, odd_direction,
                               perturbed_state)

LATTICE = 10


def dense_bytes(lattice: int, dtype) -> int:
    """The bytes of one N x N array of ``dtype``."""
    return car.dim(lattice) ** 2 * np.dtype(dtype).itemsize


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
    assert phi.density.dtype == np.float64
    element = car.random_element(region, np.random.default_rng(1), parity=1,
                                 hermitian=True)
    paths = {
        "local_hamiltonian norm": lambda: local_hamiltonian(pot, region).norm(),
        "odd_direction": lambda: odd_direction(region),
        "random_element": lambda: car.random_element(
            region, np.random.default_rng(0), parity=1, hermitian=True),
        "expectation": lambda: phi.expectation(element),
    }
    peaks = {name: peak_bytes(path) for name, path in paths.items()}
    dense = dense_bytes(LATTICE, np.float64)
    assert all(peak < dense for peak in peaks.values()), peaks


def test_gibbs_state_holds_three_dense_arrays():
    # the Hamiltonian and the density are real: the self-adjointness check
    # of H forms two N x N temporaries, and the density is assembled from
    # its half-size parity blocks, so the peak stays below two and a half
    # real N x N arrays (it was about four and a quarter when the density
    # was complex)
    lattice = 8
    h = total_hamiltonian(hopping_model(lattice))
    state = gibbs_state(h, 1.0)
    assert state.density.dtype == np.float64
    dense = dense_bytes(lattice, np.float64)
    peak = peak_bytes(lambda: gibbs_state(h, 1.0))
    assert peak <= 2.5 * dense, peak / dense


def test_decoupled_state_holds_one_dense_density():
    # the pruned terms are summed on the complement's chain, and the signs
    # of the embedding are multiplied into its blocks in place: the real
    # density and a quarter-size array of those blocks stay below one and a
    # half real N x N arrays (three with a complex density)
    pot = hopping_model(LATTICE)
    region = Region.of([2, 3], LATTICE)
    assert perturbed_state(pot, 1.0, region).density.dtype == np.float64
    dense = dense_bytes(LATTICE, np.float64)
    peak = peak_bytes(lambda: perturbed_state(pot, 1.0, region))
    assert peak < 1.5 * dense, peak / dense


def test_scan_case_holds_its_factor_and_column_blocks():
    # one case of the ssb-probe scan at L = 9, drawn as the command draws
    # it: the factor G is one N x N array and its real-part draw half of
    # one, AG and BG are formed in blocks of columns, and no density,
    # grading image or embedded B is formed (that path held five arrays)
    lattice = 9
    dense = dense_bytes(lattice, np.complex128)
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
