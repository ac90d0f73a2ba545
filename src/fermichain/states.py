"""States of the chain: Gibbs, KMS checks, perturbations, restrictions.

States are positive normalized functionals, held as density matrices for the
unnormalized trace: ``omega(A) = Tr(D A)``.  The Gibbs state of a Hamiltonian
``H`` at inverse temperature ``beta`` is ``e^(-beta H) / Z``; on a finite
chain it is the unique state satisfying the KMS boundary condition

    omega(A e^(-beta H) B e^(beta H)) = omega(B A),

which :func:`kms_residual` checks directly in the eigenbasis of ``H``.

Removing from a potential every term that meets a region ``I`` and taking
the Gibbs state of the remainder yields the *decoupled* equilibrium state:
it is even, lies in the algebra of the complement, and factorizes exactly as

    omega(A B) = tau(A) omega(B),   A supported in I, B in the complement,

with ``tau`` the normalized trace (:func:`product_check` measures this).
Adding to its density a small odd direction supported in ``I``
(:func:`noneven_perturbation`) produces a noneven state with the *same*
restriction to the complement — the two are indistinguishable outside ``I``
yet differ globally, which is the engine behind the free-energy comparisons
in :mod:`fermichain.stability`.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import car
from .car import AlgebraElement
from .potentials import Potential, local_hamiltonian, prune, total_hamiltonian
from .regions import Region

_HERM_TOL = 1e-11
_TRACE_TOL = 1e-9
_PSD_TOL = 1e-11


def _as_matrix(op) -> np.ndarray:
    return op.matrix if isinstance(op, AlgebraElement) else np.asarray(op, dtype=np.complex128)


@dataclass
class DensityState:
    """A state, as a density matrix for the unnormalized trace."""

    density: np.ndarray
    label: str = "state"
    validate: bool = field(default=True, repr=False)

    def __post_init__(self) -> None:
        self.density = np.asarray(self.density, dtype=np.complex128)
        n = self.density.shape[0]
        if self.density.shape != (n, n) or n & (n - 1):
            raise ValueError(f"density shape {self.density.shape} is not (2**L, 2**L)")
        if self.validate:
            scale = max(1.0, float(np.max(np.abs(self.density))))
            if np.max(np.abs(self.density - self.density.conj().T)) > _HERM_TOL * scale:
                raise ValueError(f"density of {self.label!r} is not self-adjoint")
            if abs(np.trace(self.density).real - 1.0) > _TRACE_TOL or \
                    abs(np.trace(self.density).imag) > _TRACE_TOL:
                raise ValueError(f"density of {self.label!r} has trace {np.trace(self.density)}")
            if float(np.min(np.linalg.eigvalsh(self.density))) < -_PSD_TOL:
                raise ValueError(f"density of {self.label!r} is not positive semidefinite")

    @property
    def lattice_size(self) -> int:
        return int(self.density.shape[0]).bit_length() - 1

    def expectation(self, op) -> complex:
        mat = _as_matrix(op)
        return complex(np.einsum("ij,ji->", self.density, mat))

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.density)

    def lambda_min(self) -> float:
        return float(np.min(self.eigenvalues()))

    def theta(self) -> "DensityState":
        """The composed state ``omega o theta`` (its density is the grading image)."""
        return DensityState(car.theta_matrix(self.density, self.lattice_size),
                            label=f"{self.label}.theta", validate=False)

    def evenness_defect(self) -> float:
        """Largest entry of ``D - theta(D)``; zero exactly for even states."""
        return float(np.max(np.abs(self.density -
                                   car.theta_matrix(self.density, self.lattice_size))))

    def is_even(self, tol: float = 1e-12) -> bool:
        return self.evenness_defect() <= tol


def tracial_state(lattice_size: int) -> DensityState:
    n = car.dim(lattice_size)
    return DensityState(np.eye(n, dtype=np.complex128) / n, label="tau", validate=False)


# ---------------------------------------------------------------------------
# Gibbs states and the KMS condition
# ---------------------------------------------------------------------------


def gibbs_state(hamiltonian, beta: float, label: str | None = None) -> DensityState:
    """``e^(-beta H) / Z``, computed from the eigendecomposition of ``H``."""
    h = _as_matrix(hamiltonian)
    scale = max(1.0, float(np.max(np.abs(h))))
    if np.max(np.abs(h - h.conj().T)) > 1e-12 * scale:
        raise ValueError("Hamiltonian is not self-adjoint")
    if not np.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    eps, u = np.linalg.eigh(h)
    # shift the spectrum so the largest weight is 1 before normalizing
    w = np.exp(-beta * (eps - (np.min(eps) if beta >= 0 else np.max(eps))))
    w /= np.sum(w)
    density = (u * w[None, :]) @ u.conj().T
    density = (density + density.conj().T) / 2.0
    return DensityState(density, label=label or f"gibbs(beta={beta:g})", validate=False)


def random_pair_panel(lattice_size: int, count: int,
                      rng: np.random.Generator) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Random operator pairs of unit spectral norm, for KMS residual panels,
    drawn one at a time as the panel is consumed (``list`` it to reuse it)."""
    n = car.dim(lattice_size)
    for _ in range(count):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        yield a / np.linalg.norm(a, 2), b / np.linalg.norm(b, 2)


def kms_residual(omega: DensityState, hamiltonian, beta: float, pairs) -> float:
    """Worst deviation from the KMS boundary condition over the given pairs.

    Both sides are evaluated in the eigenbasis of ``H``, where the analytic
    continuation of the dynamics is entrywise multiplication by
    ``exp(-beta (eps_k - eps_l))``; no inverse of ``e^(-beta H)`` is formed.
    Each trace ``Tr(X Y Z)`` is the elementwise product of the matmul
    ``X @ Y`` with ``Z.T``, summed: O(N^3) per pair, all of it in BLAS.
    """
    h = _as_matrix(hamiltonian)
    eps, u = np.linalg.eigh(h)
    u_h = u.conj().T
    d_t = u_h @ omega.density @ u
    weight = np.exp(-beta * (eps[:, None] - eps[None, :]))
    worst = 0.0
    for a, b in pairs:
        a_t = u_h @ _as_matrix(a) @ u
        b_t = u_h @ _as_matrix(b) @ u
        lhs = np.sum((d_t @ a_t) * (b_t * weight).T)
        rhs = np.sum((d_t @ b_t) * a_t.T)
        # np.maximum keeps a NaN, where max(0.0, nan) would return 0.0
        worst = np.maximum(worst, abs(lhs - rhs))
    return float(worst)


def perturbed_state(potential: Potential, beta: float, region: Region,
                    validate: bool = True) -> DensityState:
    """Gibbs state of the potential with every term meeting ``region`` removed.

    The result is even and lies in the algebra of the complement, so it
    factorizes against the region as ``omega(AB) = tau(A) omega(B)``.  When
    ``validate`` is set, its relative-entropy distance to the full Gibbs
    state is checked against the analytic bound ``2 * |beta| * ||H(region)||``
    in both orderings.
    """
    remainder = total_hamiltonian(prune(potential, region))
    state = gibbs_state(remainder, beta,
                        label=f"perturbed(beta={beta:g}, I={region.label()})")
    if validate:
        from . import entropy  # deferred: entropy builds on states

        full = gibbs_state(total_hamiltonian(potential), beta)
        bound = 2.0 * abs(beta) * car.hermitian_norm(
            local_hamiltonian(potential, region).matrix)
        slack = 1e-8
        fwd = entropy.relative_entropy(full, state)
        bwd = entropy.relative_entropy(state, full)
        if not (fwd.finite and bwd.finite):
            raise ValueError(
                "perturbed state: the relative entropies to the full Gibbs "
                "state fail the kernel condition at working precision (the "
                "smallest eigenvalues of the densities fall below the relative "
                f"cutoff {entropy._KERNEL_CUTOFF:g}); the bound cannot be checked"
            )
        if not (fwd.value <= bound + slack and bwd.value <= bound + slack):
            raise ValueError(
                f"perturbed state failed the entropy bound: {fwd.value:.3e} / "
                f"{bwd.value:.3e} vs {bound:.3e}"
            )
    return state


# ---------------------------------------------------------------------------
# restrictions and product structure
# ---------------------------------------------------------------------------


@dataclass
class RestrictedState:
    """A state restricted to a region, held as its small density.

    ``rho`` is the ``2**|R|``-dimensional density of the restriction on the
    standard copy of the region's algebra (see :func:`car.small_representation`):
    ``omega(B) = Tr(rho S)`` for every ``B`` in the region's algebra with
    small representation ``S``.
    """

    region: Region
    rho: np.ndarray

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
    return RestrictedState(region=region, rho=rho)


def product_check(omega: DensityState, region: Region) -> float:
    """Trace norm of ``D - E_{I^c}(D)``: how far ``omega`` is from the product
    ``omega(A B) = tau(A) omega(B)``, ``A`` in the region, ``B`` outside.

    For such ``A`` and ``B``, ``omega(A B) - tau(A) omega(B)`` equals
    ``Tr((D - E_{I^c}(D)) A B)``, so this value bounds the product defect of
    every pair of norm at most one, monomial pairs included.  It is zero
    exactly on product states.
    """
    diff = omega.density - car.conditional_expectation_matrix(omega.density,
                                                              region.complement())
    return car.hermitian_norm(diff, trace=True)


# ---------------------------------------------------------------------------
# noneven perturbations of decoupled states
# ---------------------------------------------------------------------------


def odd_direction(region: Region) -> AlgebraElement:
    """Default odd self-adjoint direction in the region: ``a_i + a_i*`` at its
    first site.  Unit norm, traceless, orthogonal to the complement algebra."""
    if region.is_empty:
        raise ValueError("need a nonempty region for the odd direction")
    site = min(region.sites)
    a = car.annihilator(site, region.lattice_size)
    return AlgebraElement(a.matrix + a.matrix.conj().T, Region((site,), region.lattice_size))


def max_perturbation_strength(omega: DensityState, direction: AlgebraElement) -> float:
    """Largest coefficient keeping ``D + lam X`` positive by the spectral bound
    ``lam <= lambda_min(D) / (2 ||X||)``."""
    nrm = direction.norm()
    if nrm == 0.0:
        raise ValueError("zero direction")
    return 0.5 * omega.lambda_min() / nrm


def noneven_perturbation(omega: DensityState, region: Region,
                         direction: AlgebraElement | None = None,
                         strength: float | None = None) -> DensityState:
    """Add an odd direction supported in ``region`` to the density of ``omega``.

    The direction must be self-adjoint, odd, and orthogonal to the algebra of
    the complement; the default is ``a_i + a_i*`` at the region's first site.
    The strength defaults to its largest safe value, half of
    ``lambda_min / ||X||``.  The result restricts to the complement exactly as
    ``omega`` does, its even part is ``omega`` itself, and it is noneven.
    """
    x = odd_direction(region) if direction is None else direction
    lattice = omega.lattice_size
    if x.support.lattice_size != lattice:
        raise ValueError("direction lives on a different chain")
    if not x.support.is_subregion(region):
        raise ValueError(f"direction supported on {x.support.sites}, not inside "
                         f"{region.sites}")
    scale = max(1.0, float(np.max(np.abs(x.matrix))))
    if not x.is_self_adjoint(1e-12 * scale):
        raise ValueError("direction is not self-adjoint")
    if np.max(np.abs(x.matrix + car.theta_matrix(x.matrix, lattice))) > 1e-12 * scale:
        raise ValueError("direction is not odd")
    comp = region.complement()
    overlap = float(np.max(np.abs(car.conditional_expectation_matrix(x.matrix, comp))))
    if overlap > 1e-12 * scale:
        raise ValueError("direction is not orthogonal to the complement algebra")

    lam_max = max_perturbation_strength(omega, x)
    lam = lam_max if strength is None else float(strength)
    if not 0.0 < lam <= lam_max * (1.0 + 1e-12):
        raise ValueError(f"strength {lam} outside (0, {lam_max}]")
    density = omega.density + lam * x.matrix
    return DensityState(density, label=f"{omega.label}+{lam:.3e}*odd", validate=True)


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
    The construction checks that the result restricts outside site 0 to the
    even average of the input and raises otherwise.
    """
    lattice = outer.lattice_size
    site0 = Region((0,), lattice)
    comp = site0.complement()
    if u is None:
        a0 = car.annihilator(0, lattice)
        u = AlgebraElement(a0.matrix + a0.matrix.conj().T, site0)
    n = car.dim(lattice)
    scale = max(1.0, float(np.max(np.abs(u.matrix))))
    if not u.is_self_adjoint(1e-12 * scale):
        raise ValueError("u is not self-adjoint")
    if np.max(np.abs(u.matrix + car.theta_matrix(u.matrix, lattice))) > 1e-12 * scale:
        raise ValueError("u is not odd")
    if np.max(np.abs(u.matrix @ u.matrix - np.eye(n))) > 1e-12 * scale:
        raise ValueError("u is not unitary")

    extended = car.conditional_expectation_matrix(outer.density, comp)
    extended = (extended + extended.conj().T) / 2.0
    evals, vecs = np.linalg.eigh(extended)
    evals = np.clip(evals, 0.0, None)
    root = (vecs * np.sqrt(evals)[None, :]) @ vecs.conj().T  # Hilbert-Schmidt vector
    xi = (root + u.matrix @ root) / np.sqrt(2.0)
    weight = float(np.trace(xi @ xi.conj().T).real)
    density = (xi @ xi.conj().T) / weight
    state = DensityState(density, label="site0-vector-state", validate=True)

    defect = remark2_restriction_defect(outer, state)
    if defect > 1e-10:
        raise RuntimeError(f"vector state restriction defect {defect:.3e}")
    return state


def remark2_restriction_defect(outer: DensityState, state: DensityState) -> float:
    """Largest entry of the difference between the restriction of ``state``
    outside site 0 and that of the even average of ``outer``."""
    comp = Region((0,), outer.lattice_size).complement()
    target = DensityState(0.5 * (outer.density + outer.theta().density),
                          label="even-average", validate=False)
    return restrict(state, comp).max_difference(restrict(target, comp))
