"""The grading read one way: the parity table and the helpers built on it.

``car.parity_order`` is the one parity table.  ``car.parity_signs`` reads
its signs off it, ``car.parity_blocks`` gathers the blocks of one parity in
its order, and ``car.grading_defect`` measures how far a matrix is from a
parity as twice the largest entry of the blocks of the other parity.  Each is held here to the construction it
replaced: the grading unitary's column-map encoding, and ``theta(X)``
formed and subtracted.
"""

import inspect
import math
import tracemalloc

import numpy as np
import pytest

from fermichain import car, cli
from fermichain.potentials import (hopping_model, standardize,
                                   total_hamiltonian, validate_potential)
from fermichain.regions import Region
from fermichain.states import gibbs_state, odd_direction

from conftest import oracle_parity


def theta_and_subtract(matrix, parity):
    """``max |X - (-1)**parity theta(X)|`` with ``theta(X)`` formed."""
    lattice = matrix.shape[0].bit_length() - 1
    graded = car.theta_matrix(matrix, lattice)
    return float(np.max(np.abs(matrix - (-1) ** parity * graded)))


def random_matrix(lattice, rng, complex_):
    n = car.dim(lattice)
    a = rng.standard_normal((n, n))
    if complex_:
        a = a + 1j * rng.standard_normal((n, n))
    return a


def same(got, want):
    return got == want or (math.isnan(got) and math.isnan(want))


@pytest.mark.parametrize("lattice", range(7))
@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("parity", [0, 1])
def test_grading_defect_is_theta_and_subtract(lattice, complex_, parity):
    rng = np.random.default_rng(lattice)
    a = random_matrix(lattice, rng, complex_)
    # doubling is exact, so the values are bit-identical
    assert car.grading_defect(a, parity) == theta_and_subtract(a, parity)
    # a matrix of the parity reads 0.0 both ways; so does every matrix of
    # the empty chain, which is even
    signs = car.parity_signs(lattice)
    outside = np.outer(signs, signs) < 0 if parity == 0 else \
        np.outer(signs, signs) > 0
    graded = a.copy()
    graded[outside] = 0.0
    assert car.grading_defect(graded, parity) == 0.0
    assert theta_and_subtract(graded, parity) == 0.0
    if lattice == 0:
        assert car.grading_defect(a, 0) == 0.0
    # a NaN among the entries of the other parity gives NaN both ways
    if outside.any():
        rows, cols = np.nonzero(outside)
        a[rows[-1], cols[-1]] = np.nan
        assert math.isnan(car.grading_defect(a, parity))
        assert same(car.grading_defect(a, parity),
                    theta_and_subtract(a, parity))


def test_grading_defect_keeps_the_data():
    rng = np.random.default_rng(7)
    for complex_ in (False, True):
        a = random_matrix(4, rng, complex_)
        kept = a.copy()
        car.grading_defect(a, 0)
        car.grading_defect(a, 1)
        assert np.array_equal(a, kept)


@pytest.mark.parametrize("lattice", range(1, 8))
def test_parity_signs_match_the_grading_unitary(lattice):
    signs = car.parity_signs(lattice)
    want = car.grading_encoding(Region.full(lattice))[1].real
    assert np.array_equal(signs, want)
    assert np.array_equal(np.diag(signs), oracle_parity(lattice))
    assert not signs.flags.writeable


def test_parity_signs_of_the_empty_chain():
    assert np.array_equal(car.parity_signs(0), [1.0])


@pytest.mark.parametrize("lattice", range(6))
@pytest.mark.parametrize("parity", [0, 1])
def test_parity_blocks_are_the_gathers_of_the_parity_order(lattice, parity):
    a = random_matrix(lattice, np.random.default_rng(3), complex_=True)
    even, odd = car.parity_order(lattice)
    blocks = car.parity_blocks(a, parity)
    # a generator: one block is gathered per step
    assert inspect.isgenerator(blocks)
    pairs = [(even, even), (odd, odd)] if parity == 0 else \
        [(even, odd), (odd, even)]
    got = list(blocks)
    assert len(got) == 2
    for block, (rows, cols) in zip(got, pairs):
        assert np.array_equal(block, a[np.ix_(rows, cols)])


def test_evenness_of_a_density_holds_one_gathered_block():
    # the defect reads the two parity-changing quarter blocks one at a time,
    # taking their moduli in place (a gather peaks near half an N x N
    # array); theta(D) and the difference formed and subtracted held about
    # two N x N arrays beyond the density
    lattice = 8
    state = gibbs_state(total_hamiltonian(hopping_model(lattice)), 1.0)
    assert state.density.dtype == np.float64
    dense = car.dim(lattice) ** 2 * state.density.itemsize
    car.grading_defect(state.density)     # the parity table is cached
    tracemalloc.start()
    try:
        car.grading_defect(state.density)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.6 * dense, peak / dense


def test_no_defect_site_forms_theta(monkeypatch):
    # the evenness checks of gibbs and perturb, the standard form and its
    # validation, and the odd-element validator
    lattice = 5
    region = Region.of([1, 2], lattice)
    raw = {region: car.random_element(region, np.random.default_rng(0),
                                      parity=0, hermitian=True)}
    direction = odd_direction(Region.of([0], lattice))

    def refuse(*args, **kwargs):
        raise AssertionError("theta_matrix called by a defect site")

    monkeypatch.setattr(car, "theta_matrix", refuse)
    for verb, sites in (("gibbs", None), ("perturb", (2, 3))):
        cfg = cli.RunConfig(verb, lattice_size=lattice, region_sites=sites)
        records = {r.check: r for r in cli.DISPATCH[verb](cfg)}
        even = records["evenness" if verb == "gibbs" else "decoupled_even"]
        assert even.passed and even.value <= 1e-12
    potential = standardize(raw)
    assert validate_potential(potential)["even"] <= 1e-12
    assert all(v <= 1e-12
               for v in validate_potential(hopping_model(lattice)).values())
    car.require_odd_self_adjoint(direction, "direction")
    with pytest.raises(ValueError, match="not odd"):
        car.require_odd_self_adjoint(direction @ direction, "square")


def test_an_odd_term_is_refused_and_odd_entries_are_read():
    lattice = 4
    rng = np.random.default_rng(5)
    region = Region.of([1, 2], lattice)
    odd = car.random_element(region, rng, parity=1, hermitian=True)
    with pytest.raises(ValueError, match="not even"):
        standardize({region: odd})
    # states 0 and 1 differ in parity, so the entries between them are odd
    density = np.diag([0.4, 0.3, 0.2, 0.1])
    density[0, 1] = density[1, 0] = 0.05
    assert car.grading_defect(density) == 0.1
