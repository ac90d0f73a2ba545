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

When the reference is a Gibbs state its log is known in closed form,
``log D1 = -beta (H - E0) - log Z'`` (:class:`fermichain.states.GibbsLog`),
so ``Tr(D2 log D1)`` is a trace against ``H`` and needs no decomposition of
``D1``; a Gibbs state is faithful, so the kernel condition holds and no
spectral cutoff is involved.  ``Tr(D2 log D2)`` is ``-S(omega2)``, which a
Gibbs state also knows in closed form and any other state reads from its
one eigenvalue computation.  :func:`relative_entropy_matrices` is the
spectral route for references with no closed-form log.
"""

from __future__ import annotations

import math

import numpy as np

from . import car
from .regions import Region
from .states import DensityState, restrict, spectral_entropy

# Relative spectral cutoff separating genuine kernel directions from dust.
_KERNEL_CUTOFF = 1e-12

# Magnitude of negative computed values still attributable to rounding.
_NEGATIVE_SLACK = 1e-9


def relative_entropy_matrices(d1: np.ndarray, d2: np.ndarray) -> float:
    """Relative entropy from raw density matrices (first argument = reference),
    ``inf`` when the kernel condition fails.

    Values are computed entirely on the support of the reference: the
    entropic terms use every positive eigenvalue (the function ``x log x``
    extends continuously by zero, so spectral dust is harmless), while the
    kernel condition is decided with a relative cutoff on the spectrum.

    ``D1`` is decomposed by :func:`car.eigh`, so for an even ``D1`` its
    eigenbasis is block diagonal in the parity order and the kernel leak
    and the diagonal of ``U1* D2 U1`` read only the diagonal blocks of
    ``D2``.
    """
    decomposition = car.eigh((d1 + d1.conj().T) / 2.0)
    lam1 = np.concatenate([lam for _, lam, _ in decomposition])
    lam2 = car.eigvalsh((d2 + d2.conj().T) / 2.0)
    cut1 = _KERNEL_CUTOFF * max(float(np.max(lam1)), _KERNEL_CUTOFF)

    leak, cross = 0.0, 0.0
    for states, lam, u1 in decomposition:
        block2 = car.diagonal_block(d2, states)
        support1 = lam > cut1
        if not np.all(support1):
            kernel_vecs = u1[:, ~support1]
            leak += float(np.real(np.vdot(kernel_vecs, block2 @ kernel_vecs)))
        # diagonal of u1* d2 u1: column i is sum_j conj(u1_ji) (d2 u1)_ji
        diag2 = np.real(np.sum(u1.conj() * (block2 @ u1), axis=0))
        cross += float(np.sum(np.log(lam[support1]) * diag2[support1]))
    if leak > _KERNEL_CUTOFF * max(1.0, float(np.abs(np.trace(d2)))):
        return math.inf

    ent2 = -spectral_entropy(lam2)
    return _nonnegative(ent2 - cross)


def _nonnegative(value: float) -> float:
    """A computed relative entropy, with rounding below zero clipped away."""
    if value < 0.0:
        if value < -_NEGATIVE_SLACK:
            raise RuntimeError(f"relative entropy came out {value:.3e} < 0; "
                               "inputs are not valid densities")
        value = 0.0
    return value


def relative_entropy(omega1: DensityState, omega2: DensityState) -> float:
    """``S(omega1, omega2)``; finite only if ``omega2`` lives on the support
    of ``omega1``, which holds whenever ``omega1`` is a Gibbs state: then
    ``S = -S(D2) - Tr(D2 log D1)`` from the closed-form log, and the
    kernel condition holds with no spectral cutoff."""
    if omega1.log is None:
        return relative_entropy_matrices(omega1.density, omega2.density)
    return _nonnegative(-omega2.entropy() - omega1.log.trace_log(omega2.density))


def restricted_relative_entropy(omega1: DensityState, omega2: DensityState,
                                region: Region) -> float:
    """Relative entropy of the two restrictions to a region, each a state of
    the region's own chain (:func:`states.restrict`); monotonicity
    guarantees the result never exceeds the global relative entropy.  A
    Gibbs state restricted to the region its Hamiltonian lies in keeps its
    closed-form log."""
    return relative_entropy(restrict(omega1, region), restrict(omega2, region))


def _entropy(matrix: np.ndarray) -> float:
    """Von Neumann entropy ``-Tr(x log x)`` of a positive matrix."""
    return spectral_entropy(car.eigvalsh((matrix + matrix.conj().T) / 2.0))


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
    n = omega.density.shape[0]
    value = omega.entropy() - n / small.shape[0] * _entropy(small)
    if value > 0.0:
        if value > _NEGATIVE_SLACK:
            raise RuntimeError(f"conditional entropy came out {value:.3e} > 0; "
                               "inputs are not valid densities")
        value = 0.0
    return value


def conditional_entropy(omega: DensityState, region: Region) -> float:
    """``Sc_I(omega) <= 0``: minus the relative entropy to the state rebuilt
    from the complement restriction (density = conditional expectation of the
    density onto the complement algebra)."""
    small = car.small_representation(omega.density, region.complement())
    return compressed_conditional_entropy(omega, small)
