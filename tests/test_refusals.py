"""One refusal rule: every check that refuses an input for a defect
measured against the input's scale goes through :func:`car.require`, which
compares ``defect <= bound`` and so refuses a NaN defect as it does a large
one.  A NaN in any input a check reads is refused with ``ValueError``."""

import numpy as np
import pytest

from fermichain import car
from fermichain.car import AlgebraElement
from fermichain.potentials import hopping_model, standardize, total_hamiltonian
from fermichain.regions import Region
from fermichain.states import (DensityState, FactorState, gibbs_state,
                               noneven_perturbation, remark2_construct)

LATTICE = 3


def nan_at(element: AlgebraElement, row: int, col: int) -> AlgebraElement:
    small = element.small.copy()
    small[row, col] = np.nan
    return AlgebraElement(small, element.support)


def site_direction(site: int) -> AlgebraElement:
    """``a + a*`` at ``site``: odd, self-adjoint and unitary; entry (0, 0)
    of its one-site small representation is an even-parity entry."""
    a = car.annihilator(site, LATTICE)
    return a + a.dagger()


def gibbs():
    return gibbs_state(total_hamiltonian(hopping_model(LATTICE)), 1.0)


def raw_term():
    region, term = next(iter(hopping_model(LATTICE).terms.items()))
    return {region: nan_at(AlgebraElement(term, region), 0, 0)}


# each case's input and the refusal it must meet
NAN_CASES = {
    "DensityState": (lambda: DensityState(np.full((2, 2), np.nan)),
                     "density is not self-adjoint"),
    "gibbs_state": (lambda: gibbs_state(nan_at(
        total_hamiltonian(hopping_model(LATTICE)), 1, 1), 1.0),
                    "Hamiltonian is not self-adjoint"),
    "from_matrix": (lambda: AlgebraElement.from_matrix(
        np.full((4, 4), np.nan), Region.full(2)),
                    "does not lie in the algebra"),
    "require_odd": (lambda: car.require_odd(
        nan_at(site_direction(1), 0, 0).small, "x"), "x is not odd"),
    "standardize": (lambda: standardize(raw_term()), "is not self-adjoint"),
    "remark2_construct": (lambda: remark2_construct(
        gibbs(), u=nan_at(site_direction(0), 0, 1)), "u is not self-adjoint"),
    "noneven_perturbation": (lambda: noneven_perturbation(
        gibbs(), Region.of([1], LATTICE),
        direction=nan_at(site_direction(1), 1, 0)),
                             "direction is not self-adjoint"),
    "FactorState": (lambda: FactorState(np.full((4, 2), np.nan)),
                    "factor is zero or not finite"),
}


@pytest.mark.parametrize("case", list(NAN_CASES))
def test_a_nan_input_is_refused(case):
    build, message = NAN_CASES[case]
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("largest, tol", [(2.0, 1e-12), (0.5, 1e-12),
                                          (3.0, 1e-11)])
@pytest.mark.parametrize("phase", [1.0, -1.0, 1j])
def test_require_passes_its_bound_and_refuses_the_next_float(largest, tol,
                                                             phase):
    # the largest modulus sits on a positive, a negative or an imaginary
    # entry; the scale is never below 1
    matrix = np.array([[0.25, 0.0], [0.0, phase * largest]])
    bound = tol * max(1.0, largest)
    car.require(bound, matrix, "too large", tol)
    with pytest.raises(ValueError, match="^too large$"):
        car.require(np.nextafter(bound, np.inf), matrix, "too large", tol)
    with pytest.raises(ValueError, match="^too large$"):
        car.require(np.nan, matrix, "too large", tol)
