"""Quasi-free states of the ``hopping`` model, computed without a 2**L array.

The ``hopping`` preset is quadratic in the chain's CAR generators,

    H = sum_ij h_ij a_i* a_j + const,   h_{i,i+1} = h_{i+1,i} = -t,  h_ii = -mu,

so its Gibbs state is quasi-free (Araki, Publ. RIMS 6, 385 (1970/71)): it
is fixed by its ``L x L`` two-point matrix

    C_ij = omega(a_i* a_j) = [(1 + e^(beta h))^-1]_ij,

and so is its restriction to any region ``R``, by ``C`` restricted to the
rows and columns of ``R``.  Its entropy follows from the eigenvalues ``nu``
of that matrix (Peschel, J. Phys. A 36, L205 (2003)):

    S = -sum_k [nu_k log nu_k + (1 - nu_k) log(1 - nu_k)].

The relative entropy of a state ``omega2`` from the Gibbs state ``omega1``
of a one-body matrix ``h1`` (Peschel, as above) is

    S(omega2 || omega1) = -S(C2) + beta Tr(h1 C2)
                          + sum_k log(1 + e^(-beta eps_k(h1))),

the package's ``relative_entropy(omega1, omega2)``.  The decoupled state of
a region ``I`` is the Gibbs state of ``h`` with the rows and columns of
``I`` zeroed: pruning removes every hop and number term that meets ``I``.

The conditional entropy of a region ``I`` is
``S(omega) - S(omega|I^c) - |I| log 2``: the package's
``S(D) - (N / m) S(small)``, with ``small`` the normalized partial trace of
``D`` onto ``I^c`` and ``m = 2**|I^c|``.  Everything here costs an
``L x L`` ``eigh``, so it reaches chains where the Kronecker and monomial
oracles cannot.
"""

import math

import numpy as np


def hopping_one_body(lattice: int, t: float = 1.0, mu: float = 0.5) -> np.ndarray:
    """The one-body matrix ``h`` of ``hopping_model(lattice, t, mu)``."""
    h = -mu * np.eye(lattice)
    for i in range(lattice - 1):
        h[i, i + 1] = h[i + 1, i] = -t
    return h


def two_point(h: np.ndarray, beta: float) -> np.ndarray:
    """``C = (1 + e^(beta h))^-1``, from the spectrum of ``h``."""
    eps, v = np.linalg.eigh(h)
    return (v / (1.0 + np.exp(beta * eps))) @ v.T


def entropy(c: np.ndarray) -> float:
    """Von Neumann entropy of the quasi-free state with two-point matrix ``c``."""
    nu = np.clip(np.linalg.eigvalsh(c), 0.0, 1.0)
    terms = [x * math.log(x) for x in np.concatenate([nu, 1.0 - nu]) if x > 0.0]
    return -math.fsum(terms)


def restricted(c: np.ndarray, sites) -> np.ndarray:
    """The two-point matrix of the restriction to ``sites``."""
    sites = list(sites)
    return c[np.ix_(sites, sites)]


def conditional_entropy(c: np.ndarray, region_sites) -> float:
    """``Sc_I = S(omega) - S(omega|I^c) - |I| log 2``."""
    outside = [s for s in range(c.shape[0]) if s not in set(region_sites)]
    return (entropy(c) - entropy(restricted(c, outside))
            - len(region_sites) * math.log(2.0))


def pruned(h: np.ndarray, region_sites) -> np.ndarray:
    """The one-body matrix of the decoupled state of ``region_sites``:
    ``h`` with their rows and columns zeroed."""
    out = h.copy()
    sites = list(region_sites)
    out[sites, :] = 0.0
    out[:, sites] = 0.0
    return out


def relative_entropy_terms(h1: np.ndarray, c2: np.ndarray,
                           beta: float) -> tuple[float, float, float]:
    """The three terms of ``S(omega2 || omega1)``, whose sum it is:
    ``-S(C2)``, ``beta Tr(h1 C2)`` and ``log Z1 = sum_k log(1 + e^(-beta
    eps_k))``."""
    eps = np.linalg.eigvalsh(h1)
    return (-entropy(c2), beta * float(np.sum(h1 * c2)),
            math.fsum(np.logaddexp(0.0, -beta * eps)))
