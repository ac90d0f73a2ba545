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
once, on first use, and validation, ``lambda_min`` and its entropy all read
that computation.  Every decomposition goes through
:func:`car.spectral_blocks`: an even real ``H`` (every preset) is
diagonalized as its two real parity blocks, and so are the even real
densities built from it; a noneven or complex matrix is decomposed whole.
Densities are ``N x N`` arrays in the dtype of their data
(:func:`car.as_float`, which reads the dtype only): float64 for the Gibbs,
decoupled, perturbed and site-0 vector states of every preset, complex128
only where complex data enters, as in the ``lts`` competitors and the
Gaussian factor of a :class:`FactorState`.
Local elements are held on their support (:class:`car.AlgebraElement`):
``omega(A)`` reads the state's block diagonal there, and a noneven direction
is checked on its small representation and applied through it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import car
from .car import AlgebraElement
from .potentials import Potential, prune, total_hamiltonian
from .regions import Region

_HERM_TOL = 1e-11
_TRACE_TOL = 1e-9
_PSD_TOL = 1e-11

# Columns of a state's factor taken per block by FactorState.odd_pair: at
# L = 10 a block is 1 MiB, and blocks of 32 to 256 columns ran fastest (about
# 25% faster than the whole factor, one BLAS thread on a 2-core Xeon VM)
_FACTOR_COLUMNS = 64


def _as_matrix(op) -> np.ndarray:
    return op.matrix if isinstance(op, AlgebraElement) else car.as_float(op)


def spectral_entropy(eigenvalues: np.ndarray) -> float:
    """Von Neumann entropy ``-sum p log p`` of a spectrum; rounding below
    zero is clipped away."""
    p = np.clip(eigenvalues, 0.0, None)
    return -float(np.sum(p * np.log(p, out=np.zeros_like(p), where=p > 0.0)))


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
    label: str = "state"
    validate: bool = field(default=True, repr=False)
    log: GibbsLog | None = field(default=None, repr=False)
    _spectrum: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.density = car.as_float(self.density)
        n = self.density.shape[0]
        if self.density.shape != (n, n) or n & (n - 1):
            raise ValueError(f"density shape {self.density.shape} is not (2**L, 2**L)")
        if self.validate:
            scale = max(1.0, float(np.max(np.abs(self.density))))
            if car.hermitian_defect(self.density) > _HERM_TOL * scale:
                raise ValueError(f"density of {self.label!r} is not self-adjoint")
            if abs(np.trace(self.density).real - 1.0) > _TRACE_TOL or \
                    abs(np.trace(self.density).imag) > _TRACE_TOL:
                raise ValueError(f"density of {self.label!r} has trace {np.trace(self.density)}")
            if self.lambda_min() < -_PSD_TOL:
                raise ValueError(f"density of {self.label!r} is not positive semidefinite")

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
        """``omega(A B)``, ``omega(A* A)`` and ``omega(B* B)`` for ``A`` and
        ``B`` on disjoint supports.  ``A`` acts on the dense ``B`` through
        its small representation (:func:`car.local_times`), ``O(N**2 m)``
        for ``m = 2**|supp A|``; the squares are read on their supports."""
        product = car.local_times(a.small, a.support, b.matrix)
        return (self.expectation(product),
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

    def theta(self) -> "DensityState":
        """The composed state ``omega o theta`` (its density is the grading image)."""
        return DensityState(car.theta_matrix(self.density, self.lattice_size),
                            label=f"{self.label}.theta", validate=False)

    def evenness_defect(self) -> float:
        """Largest entry of ``D - theta(D)``; zero exactly for even states."""
        return float(np.max(np.abs(self.density -
                                   car.theta_matrix(self.density, self.lattice_size))))


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
    on ``G`` through its small representation: ``O(N k m)`` for a support
    of ``m = 2**|S|`` states, with no ``N x N`` product and no grading of
    an ``N x N`` matrix.  :meth:`odd_pair` gathers ``G`` once per block of
    :data:`_FACTOR_COLUMNS` columns into the modes of both supports, so
    besides ``G`` it holds a few ``N x 64`` arrays.
    """

    factor: np.ndarray
    label: str = "factor-state"

    def __post_init__(self) -> None:
        self.factor = np.asarray(self.factor, dtype=np.complex128)
        n = self.factor.shape[0]
        if self.factor.ndim != 2 or n & (n - 1):
            raise ValueError(f"factor shape {self.factor.shape} is not "
                             "(2**L, k)")
        self._weight = float(np.vdot(self.factor, self.factor).real)
        if not self._weight > 0.0:
            raise ValueError(f"factor of {self.label!r} is zero or not finite")

    @classmethod
    def gaussian(cls, lattice_size: int, rng: np.random.Generator,
                 label: str = "factor-state") -> "FactorState":
        """The state of a square complex Ginibre factor: real parts drawn
        first, then imaginary parts, each standard normal in row-major
        order.  Its density ``G G*`` is complex Wishart."""
        shape = (car.dim(lattice_size),) * 2
        factor = np.empty(shape, dtype=np.complex128)
        factor.real = rng.standard_normal(shape)
        factor.imag = rng.standard_normal(shape)
        return cls(factor, label)

    @property
    def lattice_size(self) -> int:
        return int(self.factor.shape[0]).bit_length() - 1

    def expectation(self, op: AlgebraElement) -> complex:
        """``omega(X) = <G, X_even G> / ||G||**2``, with ``X_even`` acting
        on ``G`` through its small representation."""
        even = 0.5 * (op + car.theta(op))
        image = car.local_times(even.small, even.support, self.factor)
        return complex(np.vdot(self.factor, image)) / self._weight

    def odd_pair(self, a: AlgebraElement,
                 b: AlgebraElement) -> tuple[complex, complex, complex]:
        """``omega(A B)``, ``omega(A* A)`` and ``omega(B* B)`` from ``A G``
        and ``B G``, each formed once.  The identities need ``A`` and ``B``
        odd and self-adjoint on disjoint supports, so anything else is
        refused (``ValueError``).

        The three values are inner products, which a signed permutation of
        the rows keeps, so each column block of ``G`` is gathered once by
        :func:`_pair_gather` into modes ordered ``supp A``, ``supp B``, the
        rest, and ``A G`` and ``B G`` are formed there with no scatter.  In
        the parity order an odd element is off-diagonal, so each acts by
        its two off-diagonal blocks, half the flops of the whole.  ``B``'s
        modes follow ``A``'s, so its Jordan-Wigner strings cross them: the
        product with the odd ``B`` carries ``supp A``'s grading sign
        ``(-1)**(|A| - popcount(x))`` on row ``x``.
        """
        car.require_odd_self_adjoint(a, "first element")
        car.require_odd_self_adjoint(b, "second element")
        if not a.support.is_orthogonal(b.support):
            raise ValueError("elements must have disjoint supports")
        index, sign = _pair_gather(a.support, b.support)
        (a_eo, a_oe), (b_eo, b_oe) = _odd_blocks(a), _odd_blocks(b)
        ha, hb = a_eo.shape[0], b_eo.shape[0]
        grading = (-1.0) ** len(a.support)    # on even x; -grading on odd x
        sums = np.zeros(3, dtype=np.complex128)
        for start in range(0, self.factor.shape[1], _FACTOR_COLUMNS):
            g = self.factor[:, start:start + _FACTOR_COLUMNS][index]
            g *= sign[..., None]
            g = g.reshape(index.shape[0], index.shape[1], -1)
            ag = np.empty((g.shape[0], g[0].size),
                          dtype=np.result_type(a.small, g))
            np.matmul(a_eo, g[ha:].reshape(ha, -1), out=ag[:ha])
            np.matmul(a_oe, g[:ha].reshape(ha, -1), out=ag[ha:])
            bg = np.empty(g.shape, dtype=np.result_type(b.small, g))
            np.matmul(b_eo, g[:, hb:], out=bg[:, :hb])
            np.matmul(b_oe, g[:, :hb], out=bg[:, hb:])
            bg[:ha] *= grading
            bg[ha:] *= -grading
            sums += (np.vdot(ag, bg), np.vdot(ag, ag), np.vdot(bg, bg))
        corr, aa, bb = sums / self._weight
        return complex(corr), complex(aa), complex(bb)


def _odd_blocks(element: AlgebraElement) -> tuple[np.ndarray, np.ndarray]:
    """The blocks of an odd element's small representation with even rows
    and odd columns, and with odd rows and even columns, in the
    :func:`car.parity_order`; its two diagonal blocks are zero."""
    even, odd = car.parity_order(len(element.support))
    return element.small[np.ix_(even, odd)], element.small[np.ix_(odd, even)]


@lru_cache(maxsize=64)
def _pair_gather(first: Region,
                 second: Region) -> tuple[np.ndarray, np.ndarray]:
    """The signed gather of the rows of a chain's matrix into the modes
    ordered ``first``, ``second`` (disjoint from it), then the rest, with
    the states of each support in the :func:`car.parity_order`.

    Returns ``(index, sign)`` of shape ``(2**|first|, 2**|second|,
    2**(L - |first| - |second|))``: row ``[x, w, z]`` of the gathered matrix
    is ``sign[x, w, z]`` times row ``index[x, w, z]``.  It composes two
    :func:`car.mode_reordering` tables: ``first``'s, and on the chain of
    ``first``'s complement that of ``second``'s positions there, which
    renumbers only the modes after ``first``'s.
    """
    index_a, sign_a = car.mode_reordering(first)            # [y, x]
    index_b, sign_b = car.mode_reordering(
        second.positions_in(first.complement()))            # [z, w] -> y
    order_a = np.concatenate(car.parity_order(len(first)))[:, None, None]
    order_b = np.concatenate(car.parity_order(len(second)))
    y = index_b[:, order_b].T[None]                          # [., w, z]
    index = index_a[y, order_a]
    sign = sign_a[y, order_a] * sign_b[:, order_b].T[None]
    index.flags.writeable = sign.flags.writeable = False
    return index, sign


# ---------------------------------------------------------------------------
# Gibbs states and the KMS condition
# ---------------------------------------------------------------------------


def gibbs_state(hamiltonian, beta: float, label: str | None = None,
                region: Region | None = None) -> DensityState:
    """``e^(-beta H) / Z``, computed from the eigendecomposition of ``H``.

    With ``region``, ``H`` must lie in the region's algebra: only its
    ``2**|region|``-dimensional small representation ``h`` is diagonalized,
    and the density is ``car.embed(e^(-beta h)) / Z``.  An
    :class:`car.AlgebraElement` held on a support inside the region gives
    ``h`` through ``small_on``, and its type guarantees the claim; any other
    ``H`` is made dense, compressed and checked against its compression.
    The state records its log in closed form (:class:`GibbsLog`).

    ``h`` is decomposed by :func:`car.eigh`: an even real ``h`` as its two
    real parity blocks.  The shift ``E0``, ``Z`` and the log come from the
    two block spectra together, and the density is assembled block by block
    into an output of the blocks' dtype, real for a real ``h``, so besides
    it only a few half-size real arrays are held.
    """
    dense = not (region is not None
                 and isinstance(hamiltonian, AlgebraElement)
                 and hamiltonian.support.is_subregion(region))
    h = _as_matrix(hamiltonian) if dense else hamiltonian.small_on(region)
    scale = max(1.0, float(np.max(np.abs(h))))
    if car.hermitian_defect(h) > 1e-12 * scale:
        raise ValueError("Hamiltonian is not self-adjoint")
    if not np.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    if region is not None and dense:
        full = h
        h = car.small_representation(full, region)
        if np.max(np.abs(car.embed(h, region) - full)) > 1e-12 * scale:
            raise ValueError("Hamiltonian does not lie in the algebra of "
                             f"region {region.sites}")
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
    return DensityState(density, label=label or f"gibbs(beta={beta:g})",
                        validate=False, log=log)


def random_pair_panel(lattice_size: int, count: int,
                      rng: np.random.Generator) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Random operator pairs of unit spectral norm, drawn one at a time as
    the panel is consumed (``list`` it to reuse it): the tests' oracle for
    the KMS boundary condition that :func:`kms_residual` checks.

    Each matrix is complex Ginibre (real and imaginary parts standard
    normal, drawn in the order Re a, Im a, Re b, Im b) scaled by its
    :func:`car.spectral_norm`.  The Ginibre law and the spectral norm are
    unitarily invariant, so the pairs may be read as matrices in any
    orthonormal basis, the eigenbasis of ``H`` among them.
    """
    n = car.dim(lattice_size)
    for _ in range(count):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        yield a / car.spectral_norm(a), b / car.spectral_norm(b)


def kms_residual(omega: DensityState, hamiltonian, beta: float) -> float:
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

    The decomposition is :func:`car.eigh`'s: for an even ``H`` the eigenbasis
    is block diagonal in the parity order, ``U = diag(U_+, U_-)``, and the
    defect squared is

        sum_b ||U_b* D_bb U_b - diag(w_b)||_F**2 + ||D_+-||_F**2 + ||D_-+||_F**2,

    so the parity-changing blocks of ``D``, which the Gibbs density has
    zero, enter as they are and a noneven ``D`` still shows.
    """
    decomposition = car.eigh(_as_matrix(hamiltonian))
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
        (even, _, _), (odd, _, _) = decomposition
        for rows, cols in ((even, odd), (odd, even)):
            off = density[np.ix_(rows, cols)]
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
    return gibbs_state(remainder, beta,
                       label=f"perturbed(beta={beta:g}, I={region.label()})",
                       region=complement)


# ---------------------------------------------------------------------------
# restrictions and product structure
# ---------------------------------------------------------------------------


@dataclass
class RestrictedState:
    """A state restricted to a region, held as its small density.

    ``rho`` is the ``2**|R|``-dimensional density of the restriction on the
    standard copy of the region's algebra (see :func:`car.small_representation`):
    ``omega(B) = Tr(rho S)`` for every ``B`` in the region's algebra with
    small representation ``S``.  The restriction of a Gibbs state to the
    region its Hamiltonian lies in is the small Gibbs density, and ``log``
    then holds its closed-form log.
    """

    region: Region
    rho: np.ndarray
    log: GibbsLog | None = None

    def max_difference(self, other: "RestrictedState") -> float:
        """Largest entry of the difference of the two small densities."""
        if other.region != self.region:
            raise ValueError("restrictions live on different regions")
        return float(np.max(np.abs(self.rho - other.rho)))


def restrict(omega: DensityState, region: Region) -> RestrictedState:
    """The restriction of ``omega`` to ``region``: the fermionic partial
    trace of its density over the complement."""
    multiplicity = car.dim(omega.lattice_size - len(region))
    rho = multiplicity * car.small_representation(omega.density, region)
    log = None
    if omega.log is not None and omega.log.region == region:
        log = replace(omega.log, region=None)
    return RestrictedState(region=region, rho=rho, log=log)


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
    return DensityState(density, label=f"{omega.label}*(1+{lam:.3e}*odd)",
                        validate=True)


# ---------------------------------------------------------------------------
# vector states implementing the grading breakdown at a single site
# ---------------------------------------------------------------------------


def remark2_construct(outer: DensityState, u: AlgebraElement | None = None) -> DensityState:
    """Vector state whose restriction outside site 0 is the even average of a
    given state there, yet which assigns expectation 1 to an odd unitary.

    The given state is first extended from the complement of site 0 as a
    product with the normalized trace; the vector is built from the square
    root of that extension's density (a standard purification over the chain
    algebra itself, with the state read as ``A -> Tr(Xi* A Xi)``) by applying
    ``(1 + u)/sqrt(2)`` with the odd self-adjoint unitary ``u = a_0 + a_0*``.
    Its density is ``Xi Xi* / ||Xi||_F**2``, with ``Xi Xi*`` formed once.
    That it restricts outside site 0 to the even average of the input is
    measured by :func:`remark2_restriction_defect`, which the ``remark2``
    verb reports.
    """
    site0 = Region((0,), outer.lattice_size)
    comp = site0.complement()
    if u is None:
        u = odd_direction(site0)
    car.require_odd_self_adjoint(u, "u")
    scale = max(1.0, float(np.max(np.abs(u.small))))
    if np.max(np.abs(u.small @ u.small - np.eye(u.small.shape[0]))) > 1e-12 * scale:
        raise ValueError("u is not unitary")

    # the extension lies in A_comp, so its square root is the embedded
    # square root of its 2**(L-1)-dimensional small representation
    extended = car.small_representation(outer.density, comp)
    extended = (extended + extended.conj().T) / 2.0
    decomposition = car.eigh(extended)
    roots = [np.sqrt(np.clip(evals, 0.0, None)) for _, evals, _ in decomposition]
    root = car.embed(car.spectral_map(decomposition, roots),
                     comp)  # Hilbert-Schmidt vector
    xi = car.local_times(u.small, u.support, root)
    xi += root
    xi /= np.sqrt(2.0)
    del root
    density = xi @ xi.conj().T
    density /= float(np.vdot(xi, xi).real)   # Tr(Xi Xi*) = ||Xi||_F**2
    del xi   # validation holds the density and its temporaries only
    return DensityState(density, label="site0-vector-state", validate=True)


def remark2_restriction_defect(outer: DensityState, state: DensityState) -> float:
    """Largest entry of the difference between the restriction of ``state``
    outside site 0 and that of the even average of ``outer``."""
    comp = Region((0,), outer.lattice_size).complement()
    target = DensityState(0.5 * (outer.density + outer.theta().density),
                          label="even-average", validate=False)
    return restrict(state, comp).max_difference(restrict(target, comp))
