"""Local thermal stability of states, tested variationally.

A state ``phi`` is locally thermally stable for a region ``I`` at inverse
temperature ``beta`` when it maximizes the local free energy

    F(omega) = Sc_I(omega) - beta * omega(H(I))

among all states that agree with ``phi`` on the constraint algebra: the
algebra of the complement (mode ``"lts"``) or the full commutant of the
region's algebra (mode ``"lts_prime"``), which is strictly larger by the
grading-twisted odd elements.

:func:`lts_check` runs two independent tests.  It compares the free energy
against the competitors :func:`feasible_sampler` draws, random density
perturbations orthogonal to the constraint algebra that change nothing any
constrained observable can see, each scored as it is drawn and then
dropped; and against the exact constrained maximizer, solved for through
the convex dual of the slice problem (exponential-family form, iterative
scaling in the small representation of the constraint algebra).  For a
Gibbs state of the generating potential both margins must come back
nonnegative: on a finite chain the Gibbs state is the exact constrained
maximizer, and each competitor loses by its relative entropy from it.

:func:`prop4_pipeline` runs the free-energy comparison that kills noneven
states: the decoupled state and its odd perturbations agree on everything
outside ``I``, yet the noneven ones lose free energy by exactly their
relative entropy from the even one.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import car
from .entropy import compressed_conditional_entropy, relative_entropy
from .potentials import Potential, local_hamiltonian, prune
from .regions import Region
from .reporting import CheckRecord
from .states import (DensityState, noneven_perturbation, perturbed_state,
                     restrict)

MODES = ("lts", "lts_prime")


@dataclass(frozen=True)
class ConstraintProjection:
    """Tau-preserving conditional expectation onto the constraint algebra of
    a probe, called on dense matrices.

    The constraint algebra is a copy of ``M_m``, ``m = 2**|I^c|``:
    :meth:`expand` is the unital *-isomorphism onto it (:func:`car.embed`
    on the complement, with the odd part multiplied by ``v_I`` for
    ``lts_prime``) and :meth:`compress` is its inverse composed with the
    projection.  They are Hilbert-Schmidt adjoint up to the multiplicity:
    ``<expand(X), G> = (N / m) <X, compress(G)>``.
    """

    region: Region
    mode: str

    @cached_property
    def reordering(self) -> tuple[np.ndarray, np.ndarray]:
        """The signed reordering ``(index, sign)`` in which
        ``expand(X) = 1 (x) X``: :func:`car.mode_reordering` of the
        complement, or :func:`car.commutant_reordering` of the region."""
        if self.mode == "lts":
            return car.mode_reordering(self.region.complement())
        return car.commutant_reordering(self.region)

    def compress(self, matrix: np.ndarray) -> np.ndarray:
        return car.block_average(matrix, self.reordering)

    def expand(self, small: np.ndarray) -> np.ndarray:
        return car.block_embed(small, self.reordering)

    def __call__(self, matrix: np.ndarray) -> np.ndarray:
        return self.expand(self.compress(matrix))


def constraint_family(region: Region, mode: str) -> ConstraintProjection:
    """The projection onto the constraint algebra of the given mode."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if region.is_empty:
        raise ValueError("empty probe region: the constraints fix the whole "
                         "state, so there is nothing to vary")
    return ConstraintProjection(region, mode)


def free_energy(omega: DensityState, potential: Potential, region: Region,
                beta: float, mode: str = "lts") -> float:
    """``Sc_I(omega) - beta omega(H(I))`` with the conditional entropy taken
    against the constraint algebra of the chosen mode."""
    project = constraint_family(region, mode)
    sc, energy = _entropy_and_energy(omega, project.compress(omega.density),
                                     local_hamiltonian(potential, region))
    return sc - beta * energy


def _entropy_and_energy(omega: DensityState, small: np.ndarray,
                        h_i: car.AlgebraElement) -> tuple[float, float]:
    """``Sc_I(omega)``, from ``small``, the compression of ``omega``'s
    density onto the constraint algebra, and ``omega(H(I))``, read on the
    support of ``H(I)`` (:meth:`DensityState.expectation`)."""
    return (compressed_conditional_entropy(omega, small),
            float(np.real(omega.expectation(h_i))))


# ---------------------------------------------------------------------------
# feasible competitors
# ---------------------------------------------------------------------------


def feasible_sampler(omega: DensityState, region: Region, mode: str,
                     count: int, seed: int | None = 0) -> Iterator[DensityState]:
    """Random feasible competitors of a faithful base state, drawn one at a
    time as they are consumed, so only the one in use is held.

    Each competitor is ``D + Y`` with ``Y`` self-adjoint, traceless,
    orthogonal to the constraint algebra, and of spectral norm below half
    the smallest eigenvalue of ``D`` — so every one is a genuine density
    with exactly the base state's constrained expectations.  The probe and
    the base are checked when the sampler is called, before any draw.
    """
    project = constraint_family(region, mode)
    lam_half = 0.5 * omega.lambda_min()
    if lam_half <= 0.0:
        raise ValueError("base state must be faithful (strictly positive density)")
    n = omega.density.shape[0]
    rng = np.random.default_rng(seed)

    def draw(k: int) -> DensityState:
        nrm = 0.0
        while nrm < 1e-12:
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            g = (g + g.conj().T) / 2.0
            # g and its projection are exactly Hermitian, and so is y
            y = g - project(g)
            nrm = car.hermitian_norm(y)
        t = float(rng.uniform(0.3, 1.0)) * lam_half
        return DensityState(omega.density + (t / nrm) * y,
                            label=f"feasible-{k}", validate=False)
    return (draw(k) for k in range(count))


# ---------------------------------------------------------------------------
# constrained maximization
# ---------------------------------------------------------------------------


@dataclass
class MaximizerInfo:
    converged: bool
    iterations: int
    gradient_norm: float


# iterative scaling converges linearly: about 20 steps at beta = 1, 150 at
# beta = 5 and 320 at beta = 10; the cap only bounds a stalled run
_STEPS = 500

# The residual's entries are those of two unit-trace-bounded matrices, so
# below _FLOOR a full step that fails to shrink it has hit rounding.  Above
# it, at slow rates (about 0.92 per step at beta = 10) rounding can hide one
# step's progress, and only _STALL steps in a row without a new best
# residual stop the loop.
_FLOOR = 4.0 * np.finfo(float).eps
_STALL = 10

# the dual is smooth and strictly convex with an exact gradient, so a
# gradient norm at most this certifies the maximizer on its own; the
# maximizer_certified record reports the norm against it
_CERTIFIED = 1e-10


class _DualPoint(NamedTuple):
    x: np.ndarray
    value: float
    grad: np.ndarray
    residual: float       # largest entry of grad
    density: np.ndarray
    scale: float          # largest eigenvalue modulus of the exponent


def _hermitian(matrix: np.ndarray) -> np.ndarray:
    return (matrix + matrix.conj().T) / 2.0


def _traceless(matrix: np.ndarray) -> np.ndarray:
    """Drop the identity component, the one direction the dual ignores."""
    return matrix - np.trace(matrix) / matrix.shape[0] * np.eye(matrix.shape[0])


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.real(np.vdot(a, b)))


def _log(decomposition) -> np.ndarray:
    """The logarithm of a positive definite matrix from its
    :func:`car.eigh`, which it spends."""
    return car.spectral_map(decomposition,
                            [np.log(w) for _, w, _ in decomposition])


class _Dual:
    """The convex dual of the free-energy maximization on one slice,

        g(X) = log Tr exp(K) - Tr(Lam rho0),   K = log rho0 - beta H_I + Lam,

    over Hermitian ``m x m`` matrices ``X``, ``Lam = expand(X)``.  The
    anchor is given by its small representation ``compress(rho0)``, so
    ``Tr(Lam rho0)`` is ``multiplicity * <X, compress(rho0)>``.  In the
    metric ``expand`` induces (``multiplicity`` times Hilbert-Schmidt) the
    gradient is ``compress(D - rho0)``, ``D = exp(K) / Tr exp(K)``, and it
    vanishes where ``compress(D) = compress(rho0)``: :meth:`step` moves
    ``X`` by the difference of the logs of the two sides.
    """

    def __init__(self, project: ConstraintProjection, small_anchor: np.ndarray,
                 h_i: np.ndarray, beta: float):
        self.project = project
        self.small_anchor = _hermitian(small_anchor)
        decomposition = car.eigh(self.small_anchor)
        smallest = min(float(np.min(w)) for _, w, _ in decomposition)
        if smallest <= 1e-13:
            raise ValueError("constraint values must come from a faithful "
                             f"state: the anchor's smallest eigenvalue "
                             f"{smallest:.3e} is not above 1e-13")
        self.log_anchor = _log(decomposition)
        self.drive = project.expand(self.log_anchor) - beta * h_i
        # Tr(expand(Y) G) = multiplicity * <Y, compress(G)>
        self.multiplicity = h_i.shape[0] / small_anchor.shape[0]

    def point(self, x: np.ndarray) -> _DualPoint:
        decomposition = car.eigh(self.drive + self.project.expand(x))
        spectrum = np.concatenate([w for _, w, _ in decomposition])
        top = float(np.max(spectrum))
        weights = [np.exp(w - top) for _, w, _ in decomposition]
        z = float(sum(np.sum(part) for part in weights))
        density = car.spectral_map(decomposition, [part / z for part in weights])
        grad = self.project.compress(density) - self.small_anchor
        value = top + math.log(z) - self.multiplicity * _inner(x, self.small_anchor)
        return _DualPoint(x, value, grad, float(np.max(np.abs(grad))),
                          density, float(np.max(np.abs(spectrum))))

    def step(self, point: _DualPoint) -> np.ndarray:
        """The iterative-scaling step ``log compress(rho0) - log compress(D)``
        (Csiszar, Ann. Probab. 3, 146 (1975)), traceless: a descent
        direction by the operator monotonicity of the logarithm, and to
        first order the gradient preconditioned by the inverse BKM metric
        (Petz & Toth, Lett. Math. Phys. 27, 205 (1993))."""
        small_density = point.grad + self.small_anchor
        return _traceless(self.log_anchor - _log(car.eigh(small_density)))


def _maximize(project: ConstraintProjection, small_anchor: np.ndarray,
              h_i: np.ndarray, beta: float) -> tuple[np.ndarray, MaximizerInfo]:
    """Maximize the free energy over a constrained slice via its dual problem.

    On the slice of states with the given constraint expectations, the free
    energy is strictly concave and its maximizer has the closed form

        D = exp(log rho0 - beta H_I + Lam) / Z,     Lam in the constraint algebra,

    with ``rho0`` the anchor of the slice: the projection of any state of
    the slice onto the constraint algebra, which is itself in the slice,
    given as its ``m x m`` small representation ``compress(rho0)``.
    ``h_i`` is ``H(I)`` as a dense ``N x N`` matrix.
    Finding ``Lam`` is the smooth convex dual problem of :class:`_Dual`,
    solved by iterative scaling: each step adds ``log compress(rho0) -
    log compress(D)`` to the multiplier, backtracked on the dual value, at
    one decomposition of the exponent and one of ``compress(D)``, both by
    :func:`car.eigh` (by real parity blocks when even and real).  Every
    iterate is a strictly positive density, and at a vanishing dual
    gradient the state is exactly feasible and exactly of maximizing form,
    so the gradient's largest entry is the convergence certificate: the
    maximizer is certified when it is at most ``_CERTIFIED``.
    """
    dual = _Dual(project, small_anchor, h_i, beta)
    current = best = dual.point(np.zeros_like(dual.small_anchor))
    iterations = best_iteration = 0
    while iterations < _STEPS:
        step = dual.step(current)
        slope = dual.multiplicity * _inner(current.grad, step)
        # near the optimum the dual moves by less than its rounding, which
        # is that of the exponent's eigenvalues it is summed from
        slack = 4.0 * np.finfo(float).eps * max(1.0, abs(current.value),
                                                current.scale)
        t = 1.0
        while t > 1e-12:
            trial = dual.point(current.x + t * step)
            if trial.value <= current.value + 1e-4 * t * slope + slack:
                break
            t /= 2.0
        else:
            break
        previous, current = current, trial
        iterations += 1
        if current.residual < best.residual:
            best, best_iteration = current, iterations
        at_rounding = (t == 1.0 and current.residual >= previous.residual
                       and current.residual <= _FLOOR)
        if at_rounding or iterations - best_iteration >= _STALL:
            break

    info = MaximizerInfo(converged=best.residual <= _CERTIFIED,
                         iterations=iterations, gradient_norm=best.residual)
    return best.density, info


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class StabilityReport:
    """The checks of a stability test, with its free energies, margin and
    notes; it passes when every check does."""

    free_energies: dict[str, float]
    margin: float
    checks: list[CheckRecord] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


# how far a competitor or the maximizer may beat the base before its margin
# fails
_MARGIN_TOL = 1e-9


def _score(competitors: Iterator[DensityState], small_base: np.ndarray,
           project: ConstraintProjection, h_i: car.AlgebraElement,
           beta: float) -> tuple[float, list[float]]:
    """The worst disagreement of the competitors with the base on the
    constraint algebra (the largest entry of the difference of their small
    representations, the base's given as ``small_base``), and their free
    energies, each competitor compressed once for both.  A function of its
    own so that no competitor outlives its scoring: a loop variable of
    :func:`lts_check` would hold the last one through the maximizer."""
    worst, energies = 0.0, []
    for member in competitors:
        small = project.compress(member.density)
        # np.maximum keeps a NaN, where max(0.0, nan) would return 0.0
        worst = np.maximum(worst, np.max(np.abs(small - small_base)))
        sc, energy = _entropy_and_energy(member, small, h_i)
        energies.append(sc - beta * energy)
    return float(worst), energies


def lts_check(omega: DensityState, potential: Potential, region: Region,
              beta: float, mode: str = "lts", samples: int = 200,
              seed: int = 0) -> StabilityReport:
    """Variational stability test of a state against feasible competitors.

    ``samples`` competitors are drawn by :func:`feasible_sampler` and scored
    in one pass as they are drawn (their ``feasible_residual`` and free
    energy), so no more than one is held.  The margin is the base free
    energy minus the best competitor (samples and the constrained
    maximizer); the report passes when every check does, each margin no
    worse than ``-1e-9``.  A maximizer that does not certify convergence
    fails ``maximizer_certified``, with its final gradient norm as value;
    an anchor the maximizer refuses (not faithful to ``1e-13``) raises
    ``ValueError``, which the command reports as an ``error`` record.
    """
    competitors = feasible_sampler(omega, region, mode, int(samples), seed)
    project = constraint_family(region, mode)
    h_i = local_hamiltonian(potential, region)
    small_base = project.compress(omega.density)
    sc_base, e_base = _entropy_and_energy(omega, small_base, h_i)
    f_base = sc_base - beta * e_base
    checks: list[CheckRecord] = []
    notes: list[str] = []
    free_energies = {"base": f_base}

    feas, f_members = _score(competitors, small_base, project, h_i, beta)
    checks.append(CheckRecord("feasible_residual", feas, 1e-10, feas <= 1e-10))

    margins = []
    if f_members:
        best = max(f_members)
        free_energies["best_sample"] = best
        margin_samples = f_base - best
        margins.append(margin_samples)
        checks.append(CheckRecord("margin_samples", margin_samples, _MARGIN_TOL,
                                  margin_samples >= -_MARGIN_TOL))

    density, info = _maximize(project, small_base, h_i.matrix, beta)
    maximizer = DensityState(density, label="maximizer", validate=False)
    sc_max, e_max = _entropy_and_energy(maximizer, project.compress(density),
                                        h_i)
    f_max = sc_max - beta * e_max
    free_energies["maximizer"] = f_max
    if info.converged:
        margin_max = f_base - f_max
        margins.append(margin_max)
        checks.append(CheckRecord("margin_maximizer", margin_max,
                                  _MARGIN_TOL, margin_max >= -_MARGIN_TOL))
        notes.append(
            f"maximizer certified after {info.iterations} iterations "
            f"(gradient norm {info.gradient_norm:.2e})"
        )
    else:
        checks.append(CheckRecord("maximizer_certified", info.gradient_norm,
                                  _CERTIFIED, False))
        notes.append(
            f"maximizer did not certify convergence "
            f"({info.iterations} iterations, gradient norm "
            f"{info.gradient_norm:.2e}); margin uses samples only"
        )

    margin = min(margins) if margins else math.inf
    return StabilityReport(free_energies=free_energies, margin=margin,
                           checks=checks, notes=notes)


def prop4_pipeline(potential: Potential, beta: float, region: Region,
                   strength: float | None = None) -> StabilityReport:
    """Free-energy comparison ruling out noneven locally-stable states.

    Builds the decoupled equilibrium state for the region, its odd
    perturbation, and the grading image of the latter; verifies that all
    three agree outside the region, that the decoupled state has vanishing
    conditional entropy and local energy, and that the noneven states lose
    the free-energy comparison by exactly their relative entropy from the
    even one — strictly, so neither can be locally thermally stable.  The
    full-chain Gibbs state is never built.  Each state's conditional
    entropy ``Sc`` and local energy ``E = omega(H(I))`` are taken once, the
    energy on the support of ``H(I)``, and its free energy is
    ``Sc - beta E``.

    The strict loss is a finite-chain fact with no infinite-volume escape
    hatch here: the mechanism that would rescue a noneven equilibrium state
    in infinite volume — an odd element in the center of the algebra at
    infinity — cannot exist at finite size, where the center is trivial.
    """
    phi_p = perturbed_state(potential, beta, region)
    psi = noneven_perturbation(phi_p, region, strength=strength)
    psi_t = psi.theta()
    comp = region.complement()

    rest_ref = restrict(phi_p, comp).density
    rest_defect = max(
        float(np.max(np.abs(restrict(state, comp).density - rest_ref)))
        for state in (psi, psi_t))

    h_tilde_i = local_hamiltonian(prune(potential, region), region)
    hi_defect = h_tilde_i.norm()
    for state in (phi_p, psi, psi_t):
        # np.maximum keeps a NaN, where max(0.0, nan) would return 0.0
        hi_defect = np.maximum(hi_defect, abs(state.expectation(h_tilde_i)))

    project = constraint_family(region, "lts")
    h_i = local_hamiltonian(potential, region)
    (sc_p, e_p), (sc_psi, e_psi), (sc_psi_t, e_psi_t) = (
        _entropy_and_energy(state, project.compress(state.density), h_i)
        for state in (phi_p, psi, psi_t))
    f_p = sc_p - beta * e_p
    f_psi = sc_psi - beta * e_psi
    f_psi_t = sc_psi_t - beta * e_psi_t
    gap = f_p - f_psi
    rel = relative_entropy(phi_p, psi)

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
    return StabilityReport(free_energies={"perturbed": f_p, "noneven": f_psi,
                                          "noneven_theta": f_psi_t},
                           margin=gap, checks=checks, notes=notes)
