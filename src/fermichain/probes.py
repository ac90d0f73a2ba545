"""Probes for symmetry breaking: clustering, grading asymmetry, odd correlations.

Spontaneous breaking of the fermion grading would require a state with a
nonzero odd expectation; these probes quantify how close a state comes.

Every probe asks about a few sites ``U`` and is answered on the
restriction of the state to them (:func:`states.restrict`), a state of
``U``'s own chain with a ``2**|U| x 2**|U|`` density read from the block
diagonal in ``O(N 2**|U|)``: no probe forms an ``N x N`` array.  An element
held on ``S`` inside ``U`` (:class:`car.AlgebraElement`, whose type
guarantees the support claim) acts on the restriction as the element on
``S.positions_in(U)``.  A functional on the algebra of a region ``R``,
written as ``B -> Tr(K B)`` with ``K`` a ``2**|U|``-square matrix on
``U``'s chain, ``R`` inside ``U``, has operator-norm dual

    sup { |Tr(K B)| : B in A_R, ||B|| <= 1 }
        = (2**|U| / m) * (trace norm of the small representation of K),

where ``m = 2**|R|`` and ``2**|U| / m`` is the multiplicity of the
embedding.  The small representation is the normalized partial trace, so
it compresses any ``K`` onto the region's algebra on its own: no separate
conditional expectation is needed.  :func:`grading_asymmetry` is half the
dual norm of ``K = rho - theta(rho)`` on ``U = R``; the grading commutes
with the restriction exactly, so ``theta(rho)`` is the restriction of the
grading image.  :func:`cluster_coefficient` takes ``U = supp A | R``.

Odd self-adjoint elements supported on disjoint regions can only be
correlated imaginarily: they anticommute, so their product is
skew-adjoint and the real part of its expectation vanishes for every
state.  The scan in :func:`scan_odd_correlations` confirms this together
with the Cauchy-Schwarz envelope; a genuine violation would mean a
functional outside the graded framework altogether.

The two odd-correlation probes take any functional with one method,
``odd_pair(a, b)``, returning ``(omega(A B), omega(A* A), omega(B* B))``
for odd self-adjoint ``A`` and ``B`` on disjoint supports and refusing
anything else through one validator, :func:`car.require_odd_pair`; it is
their one spelling of ``omega(A B)``.  A :class:`states.DensityState` reads
each of the three on the restriction to its product's support, a
:class:`states.FactorState` off ``A G`` and ``B G``, each one
:func:`car.local_times` of its factor ``G``.
"""

from __future__ import annotations

import numpy as np

from . import car
from .car import AlgebraElement
from .regions import Region
from .states import DensityState, FactorState, restrict

# Bound on |Re omega(A B)| and on the Cauchy-Schwarz excess in the odd scan
_REAL_TOL = 1e-12


def _trace_norm(matrix: np.ndarray) -> float:
    return float(np.sum(np.linalg.svd(matrix, compute_uv=False)))


def cluster_coefficient(omega: DensityState, observable: AlgebraElement,
                        region: Region) -> float:
    """``sup |omega(A B) - omega(A) omega(B)|`` over ``B`` in the region's
    algebra of unit norm.

    For a Gibbs state of a local potential this decays as the region recedes
    from the support of ``A``; a floor persisting at all distances signals
    long-range order.  Both ``A`` and every ``B`` lie in the algebra of
    ``U = supp A | R``, so the functional is ``B -> Tr(K B)`` on the
    restriction ``rho_U`` with ``K = rho_U (A - omega(A))``, and its norm
    is the dual norm of the module docstring on ``U``'s chain.
    """
    if not observable.support.is_orthogonal(region):
        raise ValueError("cluster probe region must be disjoint from the observable")
    union = observable.support.union(region)
    rest = restrict(omega, union)
    local = observable.small_on(union)
    hand = rest.density @ local - rest.expectation(local) * rest.density
    small = car.small_representation(hand, region.positions_in(union))
    return car.dim(len(union)) / car.dim(len(region)) * _trace_norm(small)


def grading_asymmetry(omega: DensityState, region: Region) -> float:
    """``sup |omega(W)|`` over odd self-adjoint ``W`` in the region's algebra
    of unit norm.

    Equals half the trace-norm distance ``||rho - theta(rho)||_1 / 2``
    between the restriction ``rho`` to the region and its grading image,
    hence lies in ``[0, 1]``; it vanishes iff the state is even there.
    Even elements cannot see the difference of a state and its grading
    image, so the odd part of an element attaining the dual norm attains
    the supremum.
    """
    rest = restrict(omega, region)
    diff = rest.density - rest.theta().density
    return 0.5 * car.hermitian_norm(car.hermitian_part(diff), trace=True)


def purely_imaginary_check(omega: DensityState | FactorState,
                           a: AlgebraElement, b: AlgebraElement) -> float:
    """``|Re omega(A B)|`` for odd self-adjoint elements on disjoint regions.

    Zero identically: the adjoint of the product is ``B A = -A B``, so the
    expectation equals minus its own conjugate and its real part vanishes
    for every state — the correlation of disjoint odd observables can only
    be imaginary.  ``omega.odd_pair`` refuses other inputs
    (:func:`car.require_odd_pair`); the return value is the raw residual.
    """
    corr, _, _ = omega.odd_pair(a, b)
    return float(abs(np.real(corr)))


def scan_odd_correlations(cases) -> dict:
    """Check every (even state, odd A, odd B) case for impossible correlations.

    A case is a violation if the real part of ``omega(AB)`` exceeds
    ``_REAL_TOL``, if ``|omega(AB)|`` breaks the Cauchy-Schwarz envelope
    ``sqrt(omega(A*A) omega(B*B))``, or if either value is NaN.  Returns the
    violation count and the worst observed values (NaN if any case gave
    NaN); a nonzero count would exhibit a state outside the even-state
    framework the probes assume.  The bound on the real part holds only for
    odd self-adjoint elements on disjoint supports, so ``omega.odd_pair``
    refuses any other case (:func:`car.require_odd_pair`).  ``cases`` may
    be any iterable, a generator included; the count of cases scanned is
    reported.

    The three values of a case come from one call, ``omega.odd_pair(a, b)``
    (the module's functional protocol), which a :class:`states.FactorState`
    answers through its ``N x k`` factor, ``O(N k m)`` instead of
    ``O(N**3)``.
    """
    count = 0
    violations = 0
    worst_real = 0.0
    worst_excess = -np.inf
    for omega, a, b in cases:
        count += 1
        corr, aa, bb = omega.odd_pair(a, b)
        # the next case is drawn before the loop rebinds omega: drop this
        # state first, so a generator's cases are held one at a time
        del omega
        envelope = np.sqrt(max(np.real(aa), 0.0) * max(np.real(bb), 0.0))
        real_part = abs(np.real(corr))
        excess = abs(corr) - envelope
        # np.maximum keeps a NaN, where max(0.0, nan) would return 0.0
        worst_real = np.maximum(worst_real, real_part)
        worst_excess = np.maximum(worst_excess, excess)
        if not (real_part <= _REAL_TOL and excess <= _REAL_TOL):
            violations += 1
    return {
        "cases": count,
        "violations": violations,
        "worst_real_part": float(worst_real),
        "worst_cauchy_schwarz_excess": float(worst_excess),
    }
