"""Relative entropy and conditional entropy.

Conventions.  For two states the relative entropy is ordered so that the
*first* argument is the reference:

    S(omega1, omega2) = Tr( D2 (log D2 - log D1) ),

finite exactly when the kernel of ``D1`` sits inside the kernel of ``D2``
(equivalently, the support of ``D2`` inside that of ``D1``); otherwise the
value is ``+inf``; every relative entropy is a plain float.  It is jointly
convex, vanishes only at equal states, and can only shrink under
restriction to a subregion.

The conditional entropy of a state on a region ``I`` measures how far the
state is from factorizing through the normalized trace on ``I``:

    Sc_I(omega) = -S(omega o E_c, omega)  <=  0,

where ``E_c`` is the conditional expectation onto the complement algebra.
It vanishes exactly on states that are such products.  Subtracting the
energy of the region gives the local free energy

    F(omega) = Sc_I(omega) - beta * omega(H(I)),

the functional whose constrained maximizers are the thermally stable states;
:func:`fermichain.stability.free_energy` computes it.

The state supplies ``Tr(D2 log D1)`` (:meth:`DensityState.trace_log`):
in closed form from ``log D1 = -beta (H - E0) - log Z'`` when the
reference is a Gibbs state, which is faithful, so the kernel condition
holds with no spectral cutoff; from one decomposition of ``D1`` otherwise,
``-inf`` when the kernel condition fails.  ``Tr(D2 log D2)`` is
``-S(omega2)``, which a Gibbs state also knows in closed form and any other
state reads from its one eigenvalue computation.
"""

from __future__ import annotations

import numpy as np

from . import car
from .regions import Region
from .states import DensityState, restrict, spectral_entropy

# Magnitude of negative computed values still attributable to rounding.
_NEGATIVE_SLACK = 1e-9


def relative_entropy_matrices(d1: np.ndarray, d2: np.ndarray) -> float:
    """Relative entropy from raw ``2**L x 2**L`` density matrices (first
    argument = reference): :func:`relative_entropy` of the two as
    unvalidated :class:`DensityState` s, ``inf`` when the kernel condition
    fails.  Raw matrices carry no closed-form log: this is the spectral
    route, the tests' oracle for the closed forms."""
    return relative_entropy(DensityState(d1, validate=False),
                            DensityState(d2, validate=False))


def _clipped(value: float, what: str, sign: int) -> float:
    """A computed ``value`` whose sign is ``sign`` (``1`` or ``-1``), with
    rounding of the other sign clipped away."""
    if sign * value < 0.0:
        if sign * value < -_NEGATIVE_SLACK:
            raise RuntimeError(f"{what} came out {value:.3e} {'<>'[sign < 0]} "
                               "0; inputs are not valid densities")
        value = 0.0
    return value


def relative_entropy(omega1: DensityState, omega2: DensityState) -> float:
    """``S(omega1, omega2) = -S(D2) - Tr(D2 log D1)``, each term the state's
    own; finite only if ``omega2`` lives on the support of ``omega1``,
    which holds whenever ``omega1`` is a Gibbs state."""
    return _clipped(-omega2.entropy() - omega1.trace_log(omega2.density),
                    "relative entropy", 1)


def restricted_relative_entropy(omega1: DensityState, omega2: DensityState,
                                region: Region) -> float:
    """Relative entropy of the two restrictions to a region, each a state of
    the region's own chain (:func:`states.restrict`); monotonicity
    guarantees the result never exceeds the global relative entropy.  A
    Gibbs state restricted to the region its Hamiltonian lies in keeps its
    closed-form log."""
    return relative_entropy(restrict(omega1, region), restrict(omega2, region))


def matrix_entropy(matrix: np.ndarray) -> float:
    """Von Neumann entropy ``-Tr(x log x)`` of a positive matrix, read off
    the spectrum of its Hermitian part, taken on a copy: the callers'
    compressions are read again after it."""
    return spectral_entropy(car.eigvalsh(car.hermitian_part(matrix.copy())))


def compressed_conditional_entropy(omega: DensityState, small: np.ndarray) -> float:
    """``Sc = -S(E(D), D) <= 0`` from ``omega`` and the ``m x m`` matrix
    ``small`` that stands for ``E(D)`` in a unital copy of ``M_m``.

    ``E(D)`` is ``N / m`` copies of ``small`` in a reordered basis, and
    ``Tr(D log E(D)) = Tr(E(D) log E(D))`` because ``log E(D)`` lies in the
    algebra ``E`` projects onto, so

        Sc = S(D) - (N / m) S(small),

    with ``S`` the von Neumann entropy: ``S(D)`` is the state's own (closed
    form for a Gibbs state, its one spectrum otherwise), ``S(small)`` one
    ``m x m`` eigenvalue problem.
    """
    multiplicity = omega.density.shape[0] / small.shape[0]
    return _clipped(omega.entropy() - multiplicity * matrix_entropy(small),
                    "conditional entropy", -1)


def conditional_entropy(omega: DensityState, region: Region) -> float:
    """``Sc_I(omega) <= 0``: minus the relative entropy to the state rebuilt
    from the complement restriction (density = conditional expectation of the
    density onto the complement algebra)."""
    small = car.small_representation(omega.density, region.complement())
    return compressed_conditional_entropy(omega, small)
