"""States of the chain: Gibbs, KMS checks, perturbations, restrictions.

States are positive normalized functionals, held as density matrices for the
unnormalized trace: ``omega(A) = Tr(D A)``.  The Gibbs state of a Hamiltonian
``H`` at inverse temperature ``beta`` is ``e^(-beta H) / Z``; on a finite
chain it is the unique state satisfying the KMS boundary condition

    omega(A e^(-beta H) B e^(beta H)) = omega(B A)

(Haag, Hugenholtz & Winnink, Commun. Math. Phys. 5, 215 (1967); Bratteli &
Robinson, *Operator Algebras and Quantum Statistical Mechanics 2*, §5.3).
So :func:`kms_residual` checks a state by its Gibbs defect
``||D - e^(-beta H) / Z||_F``, with no exponential weight at any ``beta``.
:func:`random_pair_panel` draws the random pairs with which the tests
evaluate the boundary condition itself.

Removing from a potential every term that meets a region ``I`` and taking
the Gibbs state of the remainder yields the *decoupled* equilibrium state:
it is even, lies in the algebra of the complement, and factorizes exactly as

    omega(A B) = tau(A) omega(B),   A supported in I, B in the complement,

with ``tau`` the normalized trace (:func:`product_check` measures this).
Multiplying its density by ``1 + lam X`` for an odd self-adjoint ``X``
supported in ``I`` (:func:`noneven_perturbation`) produces a noneven state
with the *same* restriction to the complement — the two are
indistinguishable outside ``I`` yet differ globally, which is the engine
behind the free-energy comparisons in :mod:`fermichain.stability`.

Every spectrum is taken once.  A Gibbs state carries its logarithm in closed
form (:class:`GibbsLog`),

    log D = -beta (H - E0) - log Z',

with ``H`` held in the small representation of the region it lies in: the
whole chain for the Gibbs state of the potential, the complement of ``I``
for the decoupled state, whose ``2**|I^c|``-dimensional Hamiltonian is all
that gets diagonalized.  Its entropy, smallest eigenvalue and every trace
``Tr(rho log D)`` then follow from the exact weights and one trace against
``H``, without decomposing ``D``.  Any other state computes its eigenvalues
once, on first use (by :func:`car.spectral_blocks`), and validation,
``lambda_min`` and its entropy all read that computation.  Only this module
decides between the two (:meth:`DensityState.trace_log`, ``log_matrix`` and
``smallest_weight``).  Densities are ``N x N`` arrays in the dtype of their
data (:func:`car.as_float`): float64 for the Gibbs, decoupled, perturbed and
site-0 vector states of every preset and the ``lts`` competitors of a real
base, complex128 only where complex data enters, as in the Gaussian factor
of a :class:`FactorState`.
Local elements are held on their support (:class:`car.AlgebraElement`):
``omega(A)`` reads the state's block diagonal there, and a noneven direction
is checked on its small representation and applied through it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from . import car
from .car import AlgebraElement
from .potentials import Potential, prune, total_hamiltonian
from .regions import Region

_HERM_TOL = 1e-11
_TRACE_TOL = 1e-9
_PSD_TOL = 1e-11

# Columns of FactorState.gaussian's factor
_FACTOR_COLUMNS = 64


def spectral_entropy(eigenvalues: np.ndarray) -> float:
    """Von Neumann entropy ``-sum p log p`` of a spectrum; rounding below
    zero is clipped away."""
    p = np.clip(eigenvalues, 0.0, None)
    return -float(np.sum(p * np.log(p, out=np.zeros_like(p), where=p > 0.0)))


class WeightUnderflow(ValueError):
    """The smallest weight of a Gibbs state, positive in exact arithmetic,
    is 0.0 in floating point (:meth:`DensityState.smallest_weight`)."""


@dataclass(frozen=True)
class GibbsLog:
    """The logarithm of a Gibbs density in closed form,

        log D = -beta (H - E0) - log Z',

    with ``H`` in the algebra of ``region`` and held as its small
    representation ``h`` (``m x m``, ``m = 2**|region|``).  ``region`` is
    ``None`` when ``h`` is ``H`` itself: for the Gibbs state of a whole
    chain, and for the restriction of a decoupled state to its region,
    which is the small Gibbs density.  An ``N x N`` density with this log
    is ``car.embed(e^(-beta h) / Z) * m / N``: its eigenvalues are the
    ``m`` exact weights ``exp(log_weights) * m / N``, each ``N / m`` times
    and all positive, and ``log Z' = log_z + log(N / m)``.
    """

    h: np.ndarray
    region: Region | None
    beta: float
    shift: float                # E0, the extreme eigenvalue of h
    log_z: float                # log of sum_k exp(-beta (eps_k - E0))
    log_weights: np.ndarray     # -beta (eps_k - E0) - log_z, summing to 1

    def multiplicity(self, n: int) -> float:
        return n / self.h.shape[0]

    def eigenvalues(self, n: int) -> np.ndarray:
        """The spectrum of the ``n x n`` density, ascending."""
        weights = np.sort(np.exp(self.log_weights)) / self.multiplicity(n)
        return np.repeat(weights, n // self.h.shape[0])

    def matrix(self, n: int) -> np.ndarray:
        """``log D`` as an ``n x n`` matrix, from ``h`` with no
        decomposition."""
        small = -self.beta * self.h
        small[np.diag_indices_from(small)] += (
            self.beta * self.shift - self.log_z - math.log(self.multiplicity(n)))
        return small if self.region is None else car.embed(small, self.region)

    def entropy(self, n: int) -> float:
        """``-Tr(D log D)`` from the exact weights and their logs."""
        return (-float(np.sum(np.exp(self.log_weights) * self.log_weights))
                + math.log(self.multiplicity(n)))

    def trace_log(self, density: np.ndarray) -> float:
        """``Tr(rho log D) = -beta (Tr(rho H) - E0 Tr(rho)) - log Z' Tr(rho)``.

        ``Tr(rho H)`` is ``(N / m) Tr(compress(rho) h)``, read from the
        region's block diagonal in the reordered basis, or a plain trace
        when ``h`` acts on ``rho``'s space: ``O(N m)`` work and no
        decomposition.  ``h`` is self-adjoint, so ``Tr(S h)`` is
        ``vdot(h, S)``.
        """
        small = (density if self.region is None
                 else car.small_representation(density, self.region))
        mult = self.multiplicity(density.shape[0])
        energy = mult * float(np.real(np.vdot(self.h, small)))
        trace = float(np.real(np.trace(density)))
        return (-self.beta * (energy - self.shift * trace)
                - (self.log_z + math.log(mult)) * trace)


@dataclass
class DensityState:
    """A state, as a density matrix for the unnormalized trace.

    ``log`` is set on Gibbs states (see :func:`gibbs_state`); for any other
    state the eigenvalues are computed once, by validation or on first use.
    """

    density: np.ndarray
    validate: bool = field(default=True, repr=False)
    log: GibbsLog | None = field(default=None, repr=False)
    _spectrum: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.density = car.as_float(self.density)
        shape = self.density.shape
        n = shape[0] if shape else 0
        if shape != (n, n) or n < 1 or n & (n - 1):
            raise ValueError(f"density shape {shape} is not (2**L, 2**L)")
        if self.validate:
            car.require(car.hermitian_defect(self.density), self.density,
                        "density is not self-adjoint", _HERM_TOL)
            trace = np.trace(self.density)
            if not (abs(trace.real - 1.0) <= _TRACE_TOL
                    and abs(trace.imag) <= _TRACE_TOL):
                raise ValueError(f"density has trace {trace}")
            if not -self.lambda_min() <= _PSD_TOL:
                raise ValueError("density is not positive semidefinite")

    @property
    def lattice_size(self) -> int:
        return int(self.density.shape[0]).bit_length() - 1

    def expectation(self, op) -> complex:
        """``Tr(D A)``.  For an element held on its support ``S`` this is
        ``(N / m) Tr(small(D) small(A))``, ``m = 2**|S|``: ``O(N m)`` work
        on the support's block diagonal, with no ``N x N`` matrix formed."""
        if isinstance(op, AlgebraElement):
            compressed = car.small_representation(self.density, op.support)
            mult = self.density.shape[0] / op.small.shape[0]
            return complex(np.einsum("ij,ji->", compressed, op.small)) * mult
        return complex(np.einsum("ij,ji->", self.density, np.asarray(op)))

    def odd_pair(self, a: AlgebraElement,
                 b: AlgebraElement) -> tuple[complex, complex, complex]:
        """``omega(A B)``, ``omega(A* A)`` and ``omega(B* B)`` for odd
        self-adjoint ``A`` and ``B`` on disjoint supports (anything else is
        refused by :func:`car.require_odd_pair`), each read on the
        restriction to its product's support (:meth:`expectation`):
        ``O(N 2**|U|)`` for ``U = supp A | supp B``, with no ``N x N``
        array formed."""
        car.require_odd_pair(a, b)
        return (self.expectation(a @ b),
                self.expectation(a.dagger() @ a),
                self.expectation(b.dagger() @ b))

    def eigenvalues(self) -> np.ndarray:
        """The spectrum of the density, ascending: exact for a Gibbs state,
        otherwise one :func:`car.eigvalsh`, kept for every later call."""
        if self.log is not None:
            return self.log.eigenvalues(self.density.shape[0])
        if self._spectrum is None:
            self._spectrum = car.eigvalsh(self.density)
            self._spectrum.flags.writeable = False
        return self._spectrum

    def lambda_min(self) -> float:
        return float(np.min(self.eigenvalues()))

    def entropy(self) -> float:
        """Von Neumann entropy ``-Tr(D log D)``."""
        if self.log is not None:
            return self.log.entropy(self.density.shape[0])
        return spectral_entropy(self.eigenvalues())

    def smallest_weight(self) -> float:
        """The smallest eigenvalue of a faithful state; ``ValueError`` if it
        is not positive, :class:`WeightUnderflow` for a Gibbs state, whose
        weights are positive and can only underflow."""
        lam = self.lambda_min()
        if lam > 0.0:
            return lam
        if self.log is not None:
            raise WeightUnderflow(
                "the smallest eigenvalue of the Gibbs base underflows to 0.0 "
                f"at beta = {self.log.beta:g}")
        raise ValueError("base state must be faithful (strictly positive "
                         "density)")

    def log_matrix(self) -> np.ndarray:
        """``log D`` as an ``N x N`` matrix: a Gibbs state's closed form
        (:meth:`GibbsLog.matrix`), otherwise one :func:`car.eigh` of a
        faithful density (:meth:`smallest_weight` refuses any other)."""
        if self.log is not None:
            return self.log.matrix(self.density.shape[0])
        self.smallest_weight()
        decomposition = car.eigh(self.density)
        return car.spectral_map(decomposition,
                                [np.log(w) for _, w, _ in decomposition])

    def trace_log(self, rho: np.ndarray) -> float:
        """``Tr(rho log D)``, ``-inf`` when ``rho`` has weight on the kernel
        of ``D``: a Gibbs state's closed form (:meth:`GibbsLog.trace_log`),
        otherwise :func:`car.trace_log` of ``D``, from one decomposition."""
        if self.log is not None:
            return self.log.trace_log(rho)
        return car.trace_log(self.density, rho)

    def theta(self) -> "DensityState":
        """The composed state ``omega o theta`` (its density is the grading image)."""
        return DensityState(car.theta_matrix(self.density, self.lattice_size),
                            validate=False)


@dataclass
class FactorState:
    """An even state held by a factor ``G`` (``N x k``, ``N = 2**L``): the
    even part of ``G G* / ||G||_F**2``, whose density is never formed.

    With ``D = G G*``, ``Tr(theta(D) X) = Tr(D theta(X))``, so the even
    part of ``D`` gives ``X`` the value ``D`` gives
    ``X_even = (X + theta(X)) / 2``:

        omega(X) = Tr(G* X_even G) / ||G||_F**2 = <G, X_even G> / ||G||_F**2,

    exactly, for every ``X``.  For odd self-adjoint ``A`` and ``B`` the
    products ``A B``, ``A* A = A**2`` and ``B* B`` are even, which gives
    ``omega(A B) = <A G, B G> / ||G||**2`` and the squared norms of ``A G``
    and ``B G`` for the other two (:meth:`odd_pair`).  A local factor acts
    on ``G`` through its small representation (:func:`car.local_times`):
    ``O(N k m)`` for a support of ``m = 2**|S|`` states, with no ``N x N``
    product and no grading of an ``N x N`` matrix.
    """

    factor: np.ndarray

    def __post_init__(self) -> None:
        self.factor = np.asarray(self.factor, dtype=np.complex128)
        shape = self.factor.shape
        n = shape[0] if shape else 0
        if len(shape) != 2 or n < 1 or n & (n - 1):
            raise ValueError(f"factor shape {shape} is not (2**L, k)")
        self._weight = float(np.vdot(self.factor, self.factor).real)
        if not self._weight > 0.0:
            raise ValueError("factor is zero or not finite")

    @classmethod
    def gaussian(cls, lattice_size: int,
                 rng: np.random.Generator) -> "FactorState":
        """The state of an ``N x 64`` complex Ginibre factor
        (:data:`_FACTOR_COLUMNS`) drawn by :func:`car.gaussian`.
        Its density ``G G*`` is complex Wishart with 64 degrees of freedom,
        of rank ``min(N, 64)``.  The even part of ``G G*`` is a state at any
        rank, and the facts the scan tests (``Re omega(A B) = 0`` and the
        Cauchy-Schwarz envelope) hold for every state."""
        return cls(car.gaussian((car.dim(lattice_size), _FACTOR_COLUMNS),
                                rng, np.complex128))

    @property
    def lattice_size(self) -> int:
        return int(self.factor.shape[0]).bit_length() - 1

    def odd_pair(self, a: AlgebraElement,
                 b: AlgebraElement) -> tuple[complex, complex, complex]:
        """``omega(A B)``, ``omega(A* A)`` and ``omega(B* B)`` from ``A G``
        and ``B G``, each one :func:`car.local_times`.  The identities need
        ``A`` and ``B`` odd and self-adjoint on disjoint supports, so
        anything else is refused by :func:`car.require_odd_pair`."""
        car.require_odd_pair(a, b)
        ag = car.local_times(a.small, a.support, self.factor)
        bg = car.local_times(b.small, b.support, self.factor)
        return tuple(complex(value / self._weight) for value in
                     (np.vdot(ag, bg), np.vdot(ag, ag), np.vdot(bg, bg)))


# ---------------------------------------------------------------------------
# Gibbs states and the KMS condition
# ---------------------------------------------------------------------------


def gibbs_state(hamiltonian: AlgebraElement, beta: float) -> DensityState:
    """``e^(-beta H) / Z``, computed from the eigendecomposition of ``H``.

    Only the small representation ``h`` of ``H`` on its support is
    diagonalized, and the density is ``car.embed(e^(-beta h)) / Z`` there,
    or ``e^(-beta h) / Z`` itself when the support is the whole chain.  The
    state records its log in closed form (:class:`GibbsLog`), whose region
    is the support, or ``None`` for the whole chain.

    ``h`` is decomposed by :func:`car.eigh`: an even real ``h`` as its two
    real parity blocks.  The shift ``E0``, ``Z`` and the log come from the
    two block spectra together, and the density is assembled block by block
    into an output of the blocks' dtype, real for a real ``h``, so besides
    it only a few half-size real arrays are held.
    """
    h, support = hamiltonian.small, hamiltonian.support
    region = None if len(support) == support.lattice_size else support
    car.require(car.hermitian_defect(h), h, "Hamiltonian is not self-adjoint")
    if not np.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    decomposition = car.eigh(h)
    eps = np.concatenate([block_eps for _, block_eps, _ in decomposition])
    # shift the spectrum so the largest weight is 1 before normalizing
    shift = float(np.min(eps) if beta >= 0 else np.max(eps))
    exponents = [-beta * (block_eps - shift) for _, block_eps, _ in decomposition]
    exponent = np.concatenate(exponents)
    total = float(np.sum(np.exp(exponent)))
    density = car.spectral_map(decomposition,
                               [np.exp(block) / total for block in exponents])
    log = GibbsLog(h, region, float(beta), shift, math.log(total),
                   exponent - math.log(total))
    if region is not None:
        density = car.embed(density, region)
        density /= log.multiplicity(density.shape[0])
    return DensityState(density, validate=False, log=log)


def random_pair_panel(lattice_size: int, count: int,
                      rng: np.random.Generator) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Random operator pairs of unit spectral norm, drawn one at a time as
    the panel is consumed (``list`` it to reuse it): the tests' oracle for
    the KMS boundary condition that :func:`kms_residual` checks.

    Each matrix is complex Ginibre (:func:`car.gaussian`, ``a``
    drawn before ``b``) scaled by its :func:`car.spectral_norm`.  The
    Ginibre law and the spectral norm are unitarily invariant, so the pairs
    may be read as matrices in any orthonormal basis, the eigenbasis of
    ``H`` among them.
    """
    n = car.dim(lattice_size)
    for _ in range(count):
        a = car.gaussian((n, n), rng, np.complex128)
        b = car.gaussian((n, n), rng, np.complex128)
        yield a / car.spectral_norm(a), b / car.spectral_norm(b)


def kms_residual(omega: DensityState, hamiltonian: AlgebraElement,
                 beta: float) -> float:
    """The Gibbs defect ``||U* D U - diag(w)||_F`` of ``omega``.

    On a finite chain the ``(tau, beta)``-KMS state is unique and equals the
    Gibbs state, so the departure from the KMS condition is measured
    directly.  ``(eps, U)`` come from this function's own decomposition of
    ``H``, kept apart from the one in :func:`gibbs_state` so that the
    weights, their normalization and the assembly of the density are
    checked independently; ``w = e^(-beta (eps - E0)) / sum`` with ``E0`` the
    smallest eigenvalue for ``beta >= 0`` and the largest otherwise, so no
    exponent is positive.  The Frobenius norm is unitarily invariant, so
    the defect is ``||D - e^(-beta H) / Z||_F`` in every basis: whatever
    basis ``eigh`` picks in a degenerate eigenspace, where the Gibbs
    density is a multiple of the identity, gives the same value.  A NaN
    entry of ``D`` gives NaN.

    For an even ``H`` the eigenbasis is ``diag(U_+, U_-)`` in the parity
    order, so the blocks of ``D`` of parity 1 (:func:`car.parity_blocks`),
    zero for the Gibbs density, add their squares as they are.
    """
    decomposition = car.eigh(hamiltonian.matrix)
    eps = np.concatenate([block_eps for _, block_eps, _ in decomposition])
    shift = np.min(eps) if beta >= 0 else np.max(eps)
    total = np.sum(np.exp(-beta * (eps - shift)))
    density = omega.density
    squares = 0.0
    for states, block_eps, u in decomposition:
        defect = u.conj().T @ car.diagonal_block(density, states) @ u
        weights = np.exp(-beta * (block_eps - shift)) / total
        defect[np.diag_indices_from(defect)] -= weights
        squares += np.vdot(defect, defect).real
    if len(decomposition) == 2:
        for off in car.parity_blocks(density, 1):
            squares += np.vdot(off, off).real
    return float(np.sqrt(squares))


def perturbed_state(potential: Potential, beta: float,
                    region: Region) -> DensityState:
    """Gibbs state of the potential with every term meeting ``region`` removed.

    The result is even and lies in the algebra of the complement, so it
    factorizes against the region as ``omega(AB) = tau(A) omega(B)``; its
    Hamiltonian is diagonalized in the complement's small representation.
    The pruned terms are summed on the complement's own chain, so no
    ``N x N`` Hamiltonian is formed.  It is a Gibbs state, so relative
    entropies against it come from its closed-form log; the ``perturb``
    verb checks both of them against the bound ``2 |beta| ||H(region)||``.
    """
    complement = region.complement()
    remainder = total_hamiltonian(prune(potential, region), support=complement)
    return gibbs_state(remainder, beta)


# ---------------------------------------------------------------------------
# restrictions and product structure
# ---------------------------------------------------------------------------


def restrict(omega: DensityState, region: Region) -> DensityState:
    """The restriction of ``omega`` to ``region``, as a state of the
    region's own chain (site ``k`` is ``region.sites[k]``).

    Its density is the normalized fermionic partial trace of ``omega``'s
    over the complement times ``2**(L - |R|)`` (Friis, Lee & Bruschi, Phys.
    Rev. A 87, 022338 (2013)), so ``omega(B) = Tr(rho S)`` for every ``B``
    in the region's algebra with small representation ``S``: an element
    held on ``S`` inside the region is read on the restriction as the
    element on ``S.positions_in(region)``.  It is read from the block
    diagonal in the region's reordering, ``O(N 2**|R|)``.  The restriction
    of a Gibbs state to the region its Hamiltonian lies in is the small
    Gibbs density and keeps the closed-form log.  The grading commutes with
    it exactly: the parity signs are ``+-1`` and, on each block, those of
    the traced-out modes cancel, so ``restrict(omega.theta(), R)`` equals
    ``restrict(omega, R).theta()``.
    """
    multiplicity = car.dim(omega.lattice_size - len(region))
    rho = multiplicity * car.small_representation(omega.density, region)
    log = None
    if omega.log is not None and omega.log.region == region:
        log = replace(omega.log, region=None)
    return DensityState(rho, validate=False, log=log)


def product_check(omega: DensityState, region: Region) -> float:
    """Trace norm of ``D - E_{I^c}(D)``: how far ``omega`` is from the product
    ``omega(A B) = tau(A) omega(B)``, ``A`` in the region, ``B`` outside.

    For such ``A`` and ``B``, ``omega(A B) - tau(A) omega(B)`` equals
    ``Tr((D - E_{I^c}(D)) A B)``, so this value bounds the product defect of
    every pair of norm at most one, monomial pairs included.  It is zero
    exactly on product states.  ``E_{I^c}(D)`` is subtracted in place on
    the entries its embedding fills, so no second ``N x N`` array is formed.
    """
    complement = region.complement()
    diff = omega.density.copy()
    car.add_embedded(diff, -car.small_representation(diff, complement),
                     complement)
    return car.hermitian_norm(diff, trace=True)


# ---------------------------------------------------------------------------
# noneven perturbations of decoupled states
# ---------------------------------------------------------------------------


def odd_direction(region: Region) -> AlgebraElement:
    """Default odd self-adjoint direction in the region: ``a_i + a_i*`` at its
    first site.  Unit norm, traceless, orthogonal to the complement algebra."""
    if region.is_empty:
        raise ValueError("need a nonempty region for the odd direction")
    a = car.annihilator(min(region.sites), region.lattice_size)
    return a + a.dagger()


def noneven_perturbation(omega: DensityState, region: Region,
                         direction: AlgebraElement | None = None,
                         strength: float | None = None) -> DensityState:
    """The noneven state ``D (1 + lam X)`` for an odd direction ``X``
    supported in ``region``.

    The direction must be self-adjoint and odd (both checked on its small
    representation); the default is ``a_i + a_i*`` at the region's first
    site.  For a density ``D`` that is even and lies in the complement's
    algebra, as the decoupled state's does, ``D`` and ``X`` commute by
    graded locality, so

        D (1 + lam X) = D**(1/2) (1 + lam X) D**(1/2) >= (1 - lam ||X||) D,

    a faithful density for every ``lam`` in ``(0, 1/||X||)``, whatever the
    smallest eigenvalue of ``D``; the default is ``1/(2 ||X||)``.  It is the
    product of the noneven state ``tau(. (1 + lam X))`` on the region with
    ``omega`` outside it, so it restricts to the complement exactly as
    ``omega`` does (``E_{I^c}(D X) = tau(X) D = 0``), its even part is
    ``omega`` itself, and its relative entropy from ``omega`` is
    ``tau((1 + lam X) log(1 + lam X))``: for a direction with eigenvalues
    ``+-1``, ``((1 + lam) log(1 + lam) + (1 - lam) log(1 - lam)) / 2``.
    ``X D`` is one :func:`car.local_times`, with no ``N x N`` product; a
    density that does not commute with ``X`` gives a product that is not
    self-adjoint, which validation refuses (``ValueError``).
    """
    x = odd_direction(region) if direction is None else direction
    if x.support.lattice_size != omega.lattice_size:
        raise ValueError("direction lives on a different chain")
    if not x.support.is_subregion(region):
        raise ValueError(f"direction supported on {x.support.sites}, not inside "
                         f"{region.sites}")
    car.require_odd_self_adjoint(x, "direction")
    nrm = x.norm()
    if nrm == 0.0:
        raise ValueError("zero direction")
    lam = 0.5 / nrm if strength is None else float(strength)
    if not 0.0 < lam * nrm < 1.0:
        raise ValueError(f"strength {lam} outside (0, {1.0 / nrm})")
    density = car.local_times(lam * x.small, x.support, omega.density)
    density += omega.density
    return DensityState(density, validate=True)


# ---------------------------------------------------------------------------
# vector states implementing the grading breakdown at a single site
# ---------------------------------------------------------------------------


def remark2_construct(outer: DensityState, u: AlgebraElement | None = None) -> DensityState:
    """Vector state whose restriction outside site 0 is the even average of a
    given state there, yet which assigns expectation 1 to an odd unitary.

    The given state is first extended from the complement of site 0 as a
    product with the normalized trace, of density ``E``; the vector is its
    purification over the chain algebra itself, read as ``A -> Tr(Xi* A
    Xi)``: ``Xi = (1 + u) R / sqrt(2)`` with ``R = E**(1/2)`` and the odd
    self-adjoint unitary ``u = a_0 + a_0*``.  ``R`` and ``u`` are
    self-adjoint, so ``Xi Xi* = (1 + u) E (1 + u) / 2``, formed by two
    products with ``u`` and divided by its trace, with no root taken.  The
    odd part of ``E`` cancels in the sum, as ``E + u E u`` is twice its even
    part (``u**2 = 1``); that the state restricts outside site 0 to the
    even average of the input is measured by
    :func:`remark2_restriction_defect`, which the ``remark2`` verb reports.
    """
    site0 = Region((0,), outer.lattice_size)
    comp = site0.complement()
    if u is None:
        u = odd_direction(site0)
    car.require_odd_self_adjoint(u, "u")
    car.require(np.max(np.abs(u.small @ u.small - np.eye(u.small.shape[0]))),
                u.small, "u is not unitary")

    extended = car.embed(car.small_representation(outer.density, comp), comp)
    left = car.local_times(u.small, u.support, extended)
    left += extended                               # (1 + u) E
    del extended
    # E (1 + u), the adjoint of (1 + u) E, as E and u are self-adjoint
    right = np.conjugate(left, out=left).T
    density = car.local_times(u.small, u.support, right)
    density += right                               # (1 + u) E (1 + u)
    del left, right   # validation holds the density and its temporaries only
    density /= float(np.trace(density).real)
    return DensityState(density, validate=True)


def remark2_restriction_defect(outer: DensityState, state: DensityState) -> float:
    """Largest entry of the difference between the restriction of ``state``
    outside site 0 and the even average ``(rho + theta(rho)) / 2`` of the
    restriction ``rho`` of ``outer`` there.  The grading commutes with the
    restriction (:func:`restrict`), so this is the restriction of the even
    average of ``outer``, with no ``N x N`` average formed."""
    comp = Region((0,), outer.lattice_size).complement()
    rho = restrict(outer, comp)
    target = 0.5 * (rho.density + rho.theta().density)
    return float(np.max(np.abs(restrict(state, comp).density - target)))
