"""Local thermal stability of states, tested variationally.

A state ``phi`` is locally thermally stable for a region ``I`` at inverse
temperature ``beta`` when it maximizes the local free energy

    F(omega) = Sc_I(omega) - beta * omega(H(I))

among all states that agree with ``phi`` on the constraint algebra: the
algebra of the complement (mode ``"lts"``) or the full commutant of the
region's algebra (mode ``"lts_prime"``), which is strictly larger by the
grading-twisted odd elements.

Two independent tests are provided.  :func:`feasible_sampler` draws random
density perturbations orthogonal to the constraint algebra — these change
nothing any constrained observable can see — and :func:`lts_check` compares
free energies across the family.  :func:`lts_maximizer` instead solves for
the exact constrained maximizer through the convex dual of the slice problem
(exponential-family form, quasi-Newton plus a Newton polish); for a Gibbs
state of the generating potential both must come back nonpositive: on a
finite chain the Gibbs state is the exact constrained maximizer, with margin
equal to the relative entropy of the competitor from it.

:func:`prop4_pipeline` runs the free-energy comparison that kills noneven
states: the decoupled state and its odd perturbations agree on everything
outside ``I``, yet the noneven ones lose free energy by exactly their
relative entropy from the even one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import car
from .entropy import relative_entropy, relative_entropy_matrices
from .potentials import Potential, local_hamiltonian, prune, total_hamiltonian
from .regions import Region
from .states import (DensityState, RestrictedState, noneven_perturbation,
                     perturbed_state, restrict)

MODES = ("lts", "lts_prime")


@dataclass(frozen=True)
class ConstraintProjection:
    """Tau-preserving conditional expectation onto the constraint algebra of
    a probe, called on dense matrices."""

    region: Region
    mode: str

    def __call__(self, matrix: np.ndarray) -> np.ndarray:
        if self.mode == "lts":
            return car.conditional_expectation_matrix(matrix, self.region.complement())
        return car.commutant_expectation_matrix(matrix, self.region)

    def hermitian_basis(self) -> np.ndarray:
        """Orthonormal Hermitian basis (Hilbert-Schmidt) of the constraint algebra.

        The complement's algebra is the embedded ``M_m``, ``m = 2**|I^c|``,
        so the embedded Hermitian matrix units ``E_ii``,
        ``(E_ij + E_ji)/sqrt 2`` and ``i (E_ij - E_ji)/sqrt 2`` span it; the
        embedding multiplies Hilbert-Schmidt norms by ``sqrt(N / m)``.  The
        unit ``E_ij`` has parity ``popcount(i ^ j) mod 2``; for
        ``lts_prime`` the odd units are multiplied by ``v_I``, which keeps
        them Hermitian and orthonormal and spans the commutant instead.
        """
        comp = self.region.complement()
        m = car.dim(len(comp))
        n = car.dim(self.region.lattice_size)
        twist = car.grading_encoding(self.region)[1].real[:, None]
        out = np.empty((m * m, n, n), dtype=np.complex128)
        pos = 0
        for i, j in itertools.combinations_with_replacement(range(m), 2):
            entries = [(1.0, 1.0)] if i == j else [(1.0, 1.0), (1j, -1j)]
            for upper, lower in entries:
                unit = np.zeros((m, m), dtype=np.complex128)
                unit[i, j], unit[j, i] = upper, lower
                out[pos] = car.embed(unit, comp) * math.sqrt(m / n / len(entries))
                if self.mode == "lts_prime" and bin(i ^ j).count("1") % 2:
                    out[pos] *= twist
                pos += 1
        return out


def constraint_family(region: Region, mode: str) -> ConstraintProjection:
    """The projection onto the constraint algebra of the given mode."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    return ConstraintProjection(region, mode)


def free_energy(omega: DensityState, potential: Potential, region: Region,
                beta: float, mode: str = "lts") -> float:
    """``Sc_I(omega) - beta omega(H(I))`` with the conditional entropy taken
    against the constraint algebra of the chosen mode."""
    projected = constraint_family(region, mode)(omega.density)
    projected = (projected + projected.conj().T) / 2.0
    ent = relative_entropy_matrices(projected, omega.density)
    sc = -ent.value if ent.kernel_ok else -math.inf
    h_i = local_hamiltonian(potential, region).matrix
    return sc - beta * float(np.real(omega.expectation(h_i)))


# ---------------------------------------------------------------------------
# feasible families
# ---------------------------------------------------------------------------


@dataclass
class FeasibleFamily:
    """A base state plus density perturbations invisible to the constraints."""

    base: DensityState
    region: Region
    mode: str
    members: list[DensityState]
    seed: int | None = None

    def constraint_residual(self) -> float:
        """Worst disagreement with the base on the constraint algebra: the
        largest entry of the projected density difference."""
        project = constraint_family(self.region, self.mode)
        worst = 0.0
        for member in self.members:
            worst = max(worst, float(np.max(np.abs(
                project(member.density - self.base.density)))))
        return worst


def feasible_sampler(omega: DensityState, region: Region, mode: str,
                     count: int, seed: int | None = 0) -> FeasibleFamily:
    """Random feasible competitors of a faithful base state.

    Each member is ``D + Y`` with ``Y`` self-adjoint, traceless, orthogonal
    to the constraint algebra, and of spectral norm below half the smallest
    eigenvalue of ``D`` — so every member is a genuine density with exactly
    the base state's constrained expectations.
    """
    project = constraint_family(region, mode)
    lam_half = 0.5 * omega.lambda_min()
    if lam_half <= 0.0:
        raise ValueError("base state must be faithful (strictly positive density)")
    n = omega.density.shape[0]
    rng = np.random.default_rng(seed)
    members: list[DensityState] = []
    while len(members) < count:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g = (g + g.conj().T) / 2.0
        y = g - project(g)
        y = (y + y.conj().T) / 2.0
        nrm = float(np.linalg.norm(y, 2))
        if nrm < 1e-12:
            continue
        t = float(rng.uniform(0.3, 1.0)) * lam_half
        density = omega.density + (t / nrm) * y
        members.append(DensityState(density, label=f"feasible-{len(members)}",
                                    validate=False))
    return FeasibleFamily(base=omega, region=region, mode=mode,
                          members=members, seed=seed)


# ---------------------------------------------------------------------------
# constrained maximization
# ---------------------------------------------------------------------------


@dataclass
class MaximizerInfo:
    converged: bool
    iterations: int
    f_value: float
    certificate_spread: float   # spread of the last (up to) 10 accepted values
    gradient_norm: float


class MaximizerDidNotConverge(RuntimeError):
    def __init__(self, info: MaximizerInfo):
        super().__init__(
            f"free-energy ascent did not certify convergence after "
            f"{info.iterations} iterations (spread {info.certificate_spread:.3e})"
        )
        self.info = info


def _newton_polish(project: ConstraintProjection, herm: np.ndarray,
                   anchor: np.ndarray, drive: np.ndarray, lam: np.ndarray,
                   target: float = 2e-13,
                   max_steps: int = 8) -> tuple[np.ndarray, float, list[float]]:
    """Newton refinement of the dual multiplier.

    A quasi-Newton pass stalls once dual-value differences fall below
    machine epsilon, around gradient norms of 1e-9 — but the gradient (the
    feasibility mismatch of the current density) is still computable to full
    precision, and the dual Hessian has a closed form in the eigenbasis of
    the exponent (divided differences of exp, minus the rank-one mean term).
    A few Newton steps therefore push the residual to the 1e-13 level, where
    the free energy of the maximizer is trustworthy at every temperature.
    """
    n = anchor.shape[0]
    count = herm.shape[0]
    flat = herm.reshape(count, n * n)

    def stats(lam_at: np.ndarray):
        w, u = np.linalg.eigh(drive + lam_at)
        w_max = float(np.max(w))
        p = np.exp(w - w_max)
        z = float(np.sum(p))
        dens = (u * (p / z)[None, :]) @ u.conj().T
        gap = dens - anchor
        gap = project((gap + gap.conj().T) / 2.0)
        gap = (gap + gap.conj().T) / 2.0
        res = float(np.max(np.abs(gap)))
        dual = w_max + math.log(z) - float(np.real(np.einsum("ij,ji->",
                                                             lam_at, anchor)))
        return w, u, p, z, dens, gap, res, dual

    w, u, p, z, dens, gap, res, dual = stats(lam)
    best_lam, best_res = lam, res
    duals = [dual]
    for _ in range(max_steps):
        if res <= target:
            break
        grad = np.real(flat.conj() @ gap.ravel())
        # divided differences of exp: phi_pq = (e^wp - e^wq)/(wp - wq),
        # normalized by the partition sum; stable in symmetric sinh form
        w_max = float(np.max(w))
        avg = (w[:, None] + w[None, :]) / 2.0 - w_max
        half = (w[:, None] - w[None, :]) / 2.0
        ratio = np.ones_like(half)
        off = half != 0.0
        ratio[off] = np.sinh(half[off]) / half[off]
        phi = np.exp(avg) * ratio / z
        tilted = (u.conj().T[None] @ herm) @ u
        weighted = (tilted * np.sqrt(phi)[None]).reshape(count, n * n)
        lin = np.real(flat.conj() @ dens.ravel())
        hess = np.real(weighted.conj() @ weighted.T) - np.outer(lin, lin)
        evals, evecs = np.linalg.eigh((hess + hess.T) / 2.0)
        cut = float(evals[-1]) * 1e-14
        inv = np.where(evals > cut, 1.0 / np.maximum(evals, cut), 0.0)
        delta = -(evecs * inv[None, :]) @ (evecs.T @ grad)
        step = 1.0
        improved = False
        for _ in range(8):
            lam_try = lam + np.tensordot(step * delta, herm, axes=1)
            lam_try = (lam_try + lam_try.conj().T) / 2.0
            trial = stats(lam_try)
            if trial[6] < res:
                w, u, p, z, dens, gap, res, dual = trial
                lam = lam_try
                duals.append(dual)
                if res < best_res:
                    best_lam, best_res = lam, res
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return best_lam, best_res, duals


def _maximize(project: ConstraintProjection, anchor: np.ndarray, h_i: np.ndarray,
              beta: float, max_iter: int = 2000) -> tuple[np.ndarray, MaximizerInfo]:
    """Maximize the free energy over a constrained slice via its dual problem.

    On the slice of states with the given constraint expectations, the free
    energy is strictly concave and its maximizer has the closed form

        D = exp(log rho0 - beta H_I + Lam) / Z,     Lam in the constraint span,

    with ``rho0`` the anchor of the slice: the projection of any state of
    the slice onto the constraint algebra, which is itself in the slice.
    Finding ``Lam`` is the smooth convex dual problem

        minimize  log Tr exp(log rho0 - beta H_I + Lam) - Tr(Lam rho0),

    whose gradient is the projected constraint mismatch of the current
    ``D``; it is solved with L-BFGS.  Every iterate is a strictly positive
    density, and at a vanishing dual gradient the state is exactly feasible
    and exactly of maximizing form, so the dual gradient norm doubles as a
    convergence certificate.
    """
    anchor = (anchor + anchor.conj().T) / 2.0
    ev0, u0 = np.linalg.eigh(anchor)
    if float(np.min(ev0)) <= 1e-13:
        raise ValueError("constraint values must come from a faithful state")
    log_anchor = (u0 * np.log(ev0)[None, :]) @ u0.conj().T
    drive = log_anchor - beta * h_i
    n = anchor.shape[0]

    def unpack(x: np.ndarray) -> np.ndarray:
        mat = x[:n * n].reshape(n, n) + 1j * x[n * n:].reshape(n, n)
        herm = (mat + mat.conj().T) / 2.0
        lam = project(herm)
        return (lam + lam.conj().T) / 2.0

    def pack(mat: np.ndarray) -> np.ndarray:
        return np.concatenate([np.real(mat).ravel(), np.imag(mat).ravel()])

    def density_of(lam: np.ndarray) -> np.ndarray:
        w, u = np.linalg.eigh(drive + lam)
        w = w - np.max(w)
        p = np.exp(w)
        p /= np.sum(p)
        return (u * p[None, :]) @ u.conj().T

    def dual_value(x: np.ndarray) -> float:
        lam = unpack(x)
        w = np.linalg.eigvalsh(drive + lam)
        shift = float(np.max(w))
        log_z = shift + math.log(float(np.sum(np.exp(w - shift))))
        return log_z - float(np.real(np.einsum("ij,ji->", lam, anchor)))

    def objective(x: np.ndarray):
        lam = unpack(x)
        gval = dual_value(x)
        d = density_of(lam)
        gap = d - anchor
        gap = project((gap + gap.conj().T) / 2.0)
        gap = (gap + gap.conj().T) / 2.0
        return gval, pack(gap)

    from scipy.optimize import minimize

    def residual_of(lam: np.ndarray) -> float:
        gap = density_of(lam) - anchor
        gap = project((gap + gap.conj().T) / 2.0)
        return float(np.max(np.abs(gap)))

    history: list[float] = []  # dual values at accepted iterates only

    # L-BFGS with a few restarts: each restart resets the curvature memory,
    # which reliably squeezes the dual gradient by further orders of magnitude
    x = np.zeros(2 * n * n)
    iterations = 0
    history.append(dual_value(x))
    for _ in range(4):
        result = minimize(objective, x, jac=True, method="L-BFGS-B",
                          callback=lambda xk: history.append(dual_value(xk)),
                          options={"maxiter": max_iter, "ftol": 1e-18,
                                   "gtol": 1e-12})
        x = result.x
        iterations += int(result.nit)
        if residual_of(unpack(x)) <= 1e-11:
            break

    lam_star = unpack(x)
    if residual_of(lam_star) > 1e-12:
        herm = project.hermitian_basis()
        lam_star, _, duals = _newton_polish(project, herm, anchor, drive, lam_star)
        iterations += len(duals) - 1
        history.extend(duals)
    density = density_of(lam_star)
    density = (density + density.conj().T) / 2.0

    gnorm = residual_of(lam_star)
    tail = history[-10:]
    spread = float(max(tail) - min(tail))
    rel = relative_entropy_matrices(anchor, density)
    f_val = -rel.value - beta * float(np.real(np.einsum("ij,ji->", density, h_i)))
    # the dual is smooth and strictly convex with an exact gradient, so a
    # tight gradient norm certifies on its own; a looser one additionally
    # needs the accepted dual values to have stopped moving
    converged = gnorm <= 1e-10 or (gnorm <= 1e-8 and spread <= 1e-8)
    info = MaximizerInfo(converged=converged,
                         iterations=iterations, f_value=f_val,
                         certificate_spread=spread, gradient_norm=gnorm)
    return density, info


def lts_maximizer(constraint: RestrictedState, potential: Potential, beta: float,
                  max_iter: int = 4000, return_info: bool = False):
    """Maximize the local free energy over states with the given complement
    restriction.

    ``constraint`` is a restriction to the complement of the probed region;
    the probed region is recovered as its complement.  Non-convergence is
    not silent: without ``return_info`` it raises, with it the partial result
    comes back alongside the certificate.
    """
    region = constraint.region.complement()
    if region.is_empty:
        raise ValueError("constraint covers the whole chain; nothing to maximize")
    project = constraint_family(region, "lts")
    anchor = constraint.product_extension().density
    h_i = local_hamiltonian(potential, region).matrix
    density, info = _maximize(project, anchor, h_i, beta, max_iter=max_iter)
    state = DensityState(density, label=f"lts-maximizer(I={region.label()})",
                         validate=True)
    if not info.converged and not return_info:
        raise MaximizerDidNotConverge(info)
    return (state, info) if return_info else state


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class CheckRecord:
    check: str
    value: float
    tolerance: float
    passed: bool


@dataclass
class StabilityReport:
    mode: str
    region: Region
    beta: float
    free_energies: dict[str, float]
    margin: float
    verdict: str                      # "pass" | "fail"
    checks: list[CheckRecord] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def lts_check(omega: DensityState, potential: Potential, region: Region,
              beta: float, mode: str = "lts", samples=200, seed: int = 0,
              tolerance: float = 1e-9, use_maximizer: bool = True) -> StabilityReport:
    """Variational stability test of a state against feasible competitors.

    ``samples`` is either a prebuilt :class:`FeasibleFamily` or a count to
    draw afresh.  The margin is the base free energy minus the best
    competitor (samples and, when it certifies convergence, the constrained
    maximizer); the verdict passes when the margin is no worse than
    ``-tolerance``.
    """
    if isinstance(samples, FeasibleFamily):
        family = samples
        if family.region != region or family.mode != mode:
            raise ValueError("feasible family was built for a different probe")
        if float(np.max(np.abs(family.base.density - omega.density))) > 1e-12:
            raise ValueError("feasible family was built for a different base state")
    else:
        family = feasible_sampler(omega, region, mode, int(samples), seed)

    f_base = free_energy(omega, potential, region, beta, mode)
    checks: list[CheckRecord] = []
    notes: list[str] = []
    free_energies = {"base": f_base}

    feas = family.constraint_residual()
    checks.append(CheckRecord("feasible_residual", feas, 1e-10, feas <= 1e-10))

    margins = []
    if family.members:
        f_members = [free_energy(m, potential, region, beta, mode)
                     for m in family.members]
        best = max(f_members)
        free_energies["best_sample"] = best
        margin_samples = f_base - best
        margins.append(margin_samples)
        checks.append(CheckRecord("margin_samples", margin_samples, tolerance,
                                  margin_samples >= -tolerance))

    if use_maximizer:
        project = constraint_family(region, mode)
        h_i = local_hamiltonian(potential, region).matrix
        try:
            density, info = _maximize(project, project(omega.density), h_i, beta)
        except ValueError as exc:
            notes.append(f"maximizer skipped: {exc}")
        else:
            f_max = free_energy(DensityState(density, label="maximizer",
                                             validate=False),
                                potential, region, beta, mode)
            free_energies["maximizer"] = f_max
            if info.converged:
                margin_max = f_base - f_max
                margins.append(margin_max)
                checks.append(CheckRecord("margin_maximizer", margin_max, tolerance,
                                          margin_max >= -tolerance))
                notes.append(
                    f"maximizer certified after {info.iterations} iterations "
                    f"(spread {info.certificate_spread:.2e})"
                )
            else:
                notes.append(
                    f"maximizer did not certify convergence "
                    f"({info.iterations} iterations, spread "
                    f"{info.certificate_spread:.2e}); margin uses samples only"
                )

    margin = min(margins) if margins else math.inf
    verdict = "pass" if all(c.passed for c in checks) else "fail"
    return StabilityReport(mode=mode, region=region, beta=beta,
                           free_energies=free_energies, margin=margin,
                           verdict=verdict, checks=checks, notes=notes)


def prop4_pipeline(potential: Potential, beta: float, region: Region,
                   strength: float | None = None) -> StabilityReport:
    """Free-energy comparison ruling out noneven locally-stable states.

    Builds the decoupled equilibrium state for the region, its odd
    perturbation, and the grading image of the latter; verifies that all
    three agree outside the region, that the decoupled state has vanishing
    conditional entropy and local energy, and that the noneven states lose
    the free-energy comparison by exactly their relative entropy from the
    even one — strictly, so neither can be locally thermally stable.

    The strict loss is a finite-chain fact with no infinite-volume escape
    hatch here: the mechanism that would rescue a noneven equilibrium state
    in infinite volume — an odd element in the center of the algebra at
    infinity — cannot exist at finite size, where the center is trivial.
    """
    phi_p = perturbed_state(potential, beta, region)
    psi = noneven_perturbation(phi_p, region, strength=strength)
    psi_t = psi.theta()
    comp = region.complement()

    rest_ref = restrict(phi_p, comp)
    rest_defect = max(restrict(psi, comp).max_difference(rest_ref),
                      restrict(psi_t, comp).max_difference(rest_ref))

    pruned = prune(potential, region)
    h_tilde_i = local_hamiltonian(pruned, region).matrix
    hi_defect = float(np.linalg.norm(h_tilde_i, 2))
    for state in (phi_p, psi, psi_t):
        hi_defect = max(hi_defect, abs(state.expectation(h_tilde_i)))

    f_p = free_energy(phi_p, potential, region, beta)
    f_psi = free_energy(psi, potential, region, beta)
    f_psi_t = free_energy(psi_t, potential, region, beta)
    gap = f_p - f_psi
    rel = relative_entropy(phi_p, psi).value

    h_i = local_hamiltonian(potential, region).matrix
    sc_p = f_p + beta * float(np.real(phi_p.expectation(h_i)))
    sc_psi = f_psi + beta * float(np.real(psi.expectation(h_i)))
    sc_psi_t = f_psi_t + beta * float(np.real(psi_t.expectation(h_i)))

    checks = [
        CheckRecord("RESTIc", rest_defect, 1e-12, rest_defect <= 1e-12),
        CheckRecord("HIzero", hi_defect, 1e-12, hi_defect <= 1e-12),
        CheckRecord("ScIvpHI", abs(sc_p), 1e-10, abs(sc_p) <= 1e-10),
        CheckRecord("ScIpsi", abs(sc_psi + rel), 1e-10, abs(sc_psi + rel) <= 1e-10),
        CheckRecord("ScImin", abs(sc_psi_t - sc_psi), 1e-10,
                    abs(sc_psi_t - sc_psi) <= 1e-10),
        CheckRecord("FpsiTheta", abs(f_psi - f_psi_t), 1e-10,
                    abs(f_psi - f_psi_t) <= 1e-10),
        CheckRecord("gap_identity", abs(gap - rel), 1e-10, abs(gap - rel) <= 1e-10),
        CheckRecord("violate", gap, 1e-6, gap > 1e-6),
    ]
    verdict = "pass" if all(c.passed for c in checks) else "fail"
    notes = [
        "The noneven perturbations agree with the decoupled state on every "
        "observable outside the region, yet their local free energy is "
        "strictly smaller (by their relative entropy from it), so no noneven "
        "state of this kind is locally thermally stable.",
        "No finite chain can reproduce the infinite-volume loophole: a "
        "noneven equilibrium state would need an odd element in the center "
        "of the observable algebra at infinity, and finite matrix algebras "
        "have trivial center.",
    ]
    return StabilityReport(mode="lts", region=region, beta=beta,
                           free_energies={"perturbed": f_p, "noneven": f_psi,
                                          "noneven_theta": f_psi_t},
                           margin=gap, verdict=verdict, checks=checks, notes=notes)
