"""Local thermal stability of states, tested variationally.

A state ``phi`` is locally thermally stable for a region ``I`` at inverse
temperature ``beta`` when it maximizes the local free energy

    F(omega) = Sc_I(omega) - beta * omega(H(I))

among all states that agree with ``phi`` on the constraint algebra: the
algebra of the complement ``I^c``, the paper's "complementary outside
system" of the region.  It is a copy of ``M_m``, ``m = 2**|I^c|``, reached
through the maps of :mod:`fermichain.car` on the complement:
``compress`` is :func:`car.small_representation`, ``expand`` is
:func:`car.embed`, and they are Hilbert-Schmidt adjoint up to the
multiplicity, ``<expand(X), G> = (N / m) <X, compress(G)>``.

:func:`lts_check` runs two independent tests.  It compares the free energy
against the competitors :func:`feasible_sampler` draws, random density
perturbations orthogonal to the constraint algebra that change nothing any
constrained observable can see, each scored as it is drawn and then
dropped; and against the Gibbs variational bound on every state of the
slice, evaluated in closed form at the base's own multiplier
``M0 = compress(log D + beta H(I))``.  This is the Araki-Sewell argument
that KMS implies LTS (Araki & Sewell, Commun. Math. Phys. 52, 267
(1977)): for a Gibbs state of the generating potential ``log D + beta
H(I)`` lies in the constraint algebra, so the bound is attained at ``M0``
and both margins come back nonnegative, each competitor losing by its
relative entropy from the base.  A base that is not the constrained
maximizer falls short of the bound at every multiplier.

The competitors of an even base are drawn even.  The grading ``theta``
maps the states that agree with an even base outside ``I`` onto
themselves and keeps ``F``: the entropy, the compression's entropy and
``omega(H(I))`` are ``theta``-invariant, ``H(I)`` being even.  ``F`` is
concave, so ``F((rho + theta(rho)) / 2) >= F(rho)``: the best competitor
of an even base is even, which is the paper's own statement that noneven
states lose to the even state they come from.

:func:`prop4_pipeline` runs the free-energy comparison that kills noneven
states: the decoupled state and its odd perturbations agree on everything
outside ``I``, yet the noneven ones lose free energy by exactly their
relative entropy from the even one.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import car
from .entropy import (compressed_conditional_entropy, matrix_entropy,
                      relative_entropy)
from .potentials import Potential, local_hamiltonian, prune
from .regions import Region
from .reporting import CheckRecord
from .states import (DensityState, WeightUnderflow, noneven_perturbation,
                     perturbed_state)


def _outside(region: Region) -> Region:
    """The complement of a probe region, whose algebra is the constraint
    algebra; an empty probe region is refused (``ValueError``)."""
    if region.is_empty:
        raise ValueError("empty probe region: the constraints fix the whole "
                         "state, so there is nothing to vary")
    return region.complement()


def free_energy(omega: DensityState, potential: Potential, region: Region,
                beta: float) -> float:
    """``Sc_I(omega) - beta omega(H(I))`` with the conditional entropy taken
    against the constraint algebra."""
    _, _, [(sc, energy)] = _score(omega, (), _outside(region),
                                  local_hamiltonian(potential, region))
    return sc - beta * energy


def _score(base: DensityState, others: Iterable[DensityState],
           outside: Region, h_i: car.AlgebraElement
           ) -> tuple[np.ndarray, float, list[tuple[float, float]]]:
    """Every state compressed onto the constraint algebra once, for all that
    is read off it: the base's compression; the worst disagreement of the
    others with the base there (the largest entry modulus of the difference
    of their compressions, NaN if any is NaN); and each state's ``Sc_I``,
    with ``omega(H(I))`` read on the support of ``H(I)``
    (:meth:`DensityState.expectation`), the base's pair first.  Each other
    state and its compression are dropped before the next is drawn, so one
    is alive at a time.  A function of its own so that the last one does
    not outlive its scoring either: a loop variable of :func:`lts_check`
    would hold it through the bound."""
    small_base, worst, parts = None, 0.0, []
    for state in chain((base,), others):
        small = car.small_representation(state.density, outside)
        if small_base is None:
            small_base = small
        else:
            # np.maximum keeps a NaN, where max(0.0, nan) would return 0.0
            worst = np.maximum(worst, np.max(np.abs(small - small_base)))
        parts.append((compressed_conditional_entropy(state, small),
                      float(np.real(state.expectation(h_i)))))
        del state, small        # before the next state is drawn
    return small_base, float(worst), parts


# ---------------------------------------------------------------------------
# feasible competitors
# ---------------------------------------------------------------------------


def feasible_sampler(omega: DensityState, region: Region, count: int,
                     seed: int | None = 0) -> Iterator[DensityState]:
    """Random feasible competitors of a faithful base state, drawn one at a
    time as they are consumed.

    Each competitor is ``D + Y`` with ``Y`` self-adjoint, traceless,
    orthogonal to the constraint algebra, and of spectral norm below half
    the smallest eigenvalue of ``D`` — so every one is a genuine density
    with exactly the base state's constrained expectations.  ``Y`` is drawn
    in the base's dtype (:func:`car.gaussian`), real for a real base and
    complex Ginibre for a complex one, and in its grading: for an even base,
    whose parity-changing blocks (:func:`car.parity_blocks`) are exactly
    zero, ``Y`` is even, its two diagonal parity blocks the Hermitian parts
    of Gaussian blocks, the even block drawn first; for any other base it is
    the Hermitian part of a whole Gaussian matrix.  The embedding of its
    compression is subtracted, which keeps an even ``Y`` even, and it is
    scaled to its norm.

    Even directions lose no competitor that matters: the even part
    ``(rho + theta(rho)) / 2`` of any competitor ``rho`` of an even base is
    a competitor whose free energy is no lower (see the module docstring).
    Of a real even base, each competitor's spectrum and its direction's
    split into two real ``N/2 x N/2`` parity blocks
    (:func:`car.spectral_blocks`).

    The whole competitor is built in place in one ``N x N`` array of the
    base's dtype, so a consumer that drops each one before asking for the
    next holds one at a time.  The probe, and the base if there is a
    competitor to draw, are checked at the call.
    """
    outside = _outside(region)
    lam_half = 0.5 * omega.smallest_weight() if count > 0 else 0.0
    n, dtype = omega.density.shape[0], omega.density.dtype
    # the occupation states of the diagonal parity blocks an even base's
    # directions are drawn in, even first; None for any other base
    blocks = (car.parity_order(omega.lattice_size)
              if count > 0 and car.grading_defect(omega.density) == 0.0
              else None)
    rng = np.random.default_rng(seed)

    def direction() -> np.ndarray:
        if blocks is None:
            return car.hermitian_part(car.gaussian((n, n), rng, dtype))
        y = np.zeros((n, n), dtype)
        for states in blocks:
            y[np.ix_(states, states)] = car.hermitian_part(
                car.gaussian((states.size, states.size), rng, dtype))
        return y

    def draw() -> DensityState:
        nrm = 0.0
        while nrm < 1e-12:
            y = direction()
            # y and its compression are exactly Hermitian, and so is y less
            # the compression's embedding
            car.add_embedded(y, -car.small_representation(y, outside),
                             outside)
            nrm = car.hermitian_norm(y)
        t = float(rng.uniform(0.3, 1.0)) * lam_half
        y *= t / nrm
        y += omega.density
        return DensityState(y, validate=False)
    return (draw() for _ in range(count))


# ---------------------------------------------------------------------------
# the Gibbs variational bound
# ---------------------------------------------------------------------------


def _base_multiplier(omega: DensityState, outside: Region,
                     h_i: car.AlgebraElement, beta: float) -> np.ndarray:
    """``M0 = compress(log D + beta H(I))``, the multiplier at which the
    bound of :func:`_dual_bound` is attained when ``omega`` is a faithful
    constrained maximizer: there ``log D + beta H(I)`` lies in the
    constraint algebra, so ``K(M0) = log D``.  ``log D`` is the state's
    own (:meth:`DensityState.log_matrix`); ``beta H(I)`` is added into it in
    place from its small representation, in complex arithmetic when
    ``H(I)`` is complex."""
    log_d = omega.log_matrix()
    log_d = log_d.astype(np.result_type(log_d, h_i.small), copy=False)
    car.add_embedded(log_d, beta * h_i.small, h_i.support)
    return car.small_representation(log_d, outside)


def _dual_bound(outside: Region, small_base: np.ndarray,
                h_i: car.AlgebraElement, beta: float,
                multiplier: np.ndarray) -> float:
    """The Gibbs variational bound on the free energy of the slice
    ``compress(D) = small_base`` at the Hermitian ``m x m`` multiplier
    ``M``,

        f_dual(M) = log Tr e^K(M) - (N / m) <M, small_base>
                    - (N / m) S(small_base),   K(M) = expand(M) - beta H(I).

    Every ``D`` on the slice has ``Tr(D expand(M)) = (N / m) <M,
    small_base>``, so the Gibbs variational inequality ``S(D) + Tr(D K) <=
    log Tr e^K`` (Csiszar, Ann. Probab. 3, 146 (1975)) reads ``F(D) <=
    f_dual(M)``; the gap is ``F(D) - f_dual(M) = -S(D || e^K / Tr e^K)``.
    ``log Tr e^K`` comes from one :func:`car.eigvalsh` of ``K``, by its
    real parity blocks when ``K`` is even and real.
    """
    exponent = car.embed(multiplier, outside)
    car.add_embedded(exponent, -beta * h_i.small, h_i.support)
    spectrum = car.eigvalsh(exponent)
    top = float(spectrum[-1])
    log_z = top + math.log(float(np.sum(np.exp(spectrum - top))))
    multiplicity = car.dim(outside.lattice_size) / small_base.shape[0]
    return log_z - multiplicity * (float(np.real(np.vdot(multiplier, small_base)))
                                   + matrix_entropy(small_base))


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


def lts_check(omega: DensityState, potential: Potential, region: Region,
              beta: float, samples: int = 200,
              seed: int = 0) -> StabilityReport:
    """Variational stability test of a faithful state.

    ``samples`` competitors are drawn by :func:`feasible_sampler` and scored
    in one pass as they are drawn (their ``feasible_residual`` and free
    energy), so no more than one is held.  An even base's competitors are
    even: the even part of any competitor does at least as well, so the
    samples lose no reach.  The maximizer's margin is the base free energy
    minus the Gibbs variational bound at the base's own multiplier,
    ``f_base - f_dual(M0)`` (:func:`_base_multiplier`,
    :func:`_dual_bound`): the bound holds for every state of the slice,
    sampled or not, and it is attained exactly when the base is the
    constrained maximizer.  The margin of the report is the smaller of the
    two; the report passes when every check does, each margin no worse
    than ``-1e-9``.  A Gibbs base whose smallest weight underflows to 0.0
    leaves no room to scale a competitor: then none is drawn, the report is
    that of ``samples = 0``, and a note says why.
    """
    notes = []
    try:
        competitors = feasible_sampler(omega, region, int(samples), seed)
    except WeightUnderflow as exc:
        # the bound covers every state of the slice, drawn or not
        competitors = ()
        notes.append(f"{exc}: no competitor is drawn, and the bound alone "
                     "is the verdict")
    outside = _outside(region)
    h_i = local_hamiltonian(potential, region)
    small_base, feas, parts = _score(omega, competitors, outside, h_i)
    f_base, *f_members = [sc - beta * energy for sc, energy in parts]
    free_energies = {"base": f_base}
    checks = [CheckRecord("feasible_residual", feas, 1e-10, feas <= 1e-10)]
    margin_samples = math.inf
    if f_members:
        best = max(f_members)
        free_energies["best_sample"] = best
        margin_samples = f_base - best
        checks.append(CheckRecord("margin_samples", margin_samples, _MARGIN_TOL,
                                  margin_samples >= -_MARGIN_TOL))

    bound = _dual_bound(outside, small_base, h_i, beta,
                        _base_multiplier(omega, outside, h_i, beta))
    free_energies["maximizer"] = bound
    margin_max = f_base - bound
    checks.append(CheckRecord("margin_maximizer", margin_max, _MARGIN_TOL,
                              margin_max >= -_MARGIN_TOL))
    return StabilityReport(free_energies=free_energies,
                           margin=min(margin_samples, margin_max),
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
    full-chain Gibbs state is never built.  Each state is compressed onto
    the complement's algebra once (:func:`_score`), for its agreement
    outside the region and its conditional entropy ``Sc``; ``Sc`` and
    ``E = omega(H(I))`` are taken once, ``E`` on the support of ``H(I)``,
    and ``F = Sc - beta E``.

    The strict loss is a finite-chain fact with no infinite-volume escape
    hatch here: the mechanism that would rescue a noneven equilibrium state
    in infinite volume — an odd element in the center of the algebra at
    infinity — cannot exist at finite size, where the center is trivial.
    """
    phi_p = perturbed_state(potential, beta, region)
    psi = noneven_perturbation(phi_p, region, strength=strength)
    psi_t = psi.theta()

    h_tilde_i = local_hamiltonian(prune(potential, region), region)
    hi_defect = h_tilde_i.norm()
    for state in (phi_p, psi, psi_t):
        # np.maximum keeps a NaN, where max(0.0, nan) would return 0.0
        hi_defect = np.maximum(hi_defect, abs(state.expectation(h_tilde_i)))

    _, worst, parts = _score(phi_p, (psi, psi_t), _outside(region),
                             local_hamiltonian(potential, region))
    # 2**|I| times the compression is the restriction to the complement
    rest_defect = car.dim(len(region)) * worst
    (sc_p, e_p), (sc_psi, e_psi), (sc_psi_t, e_psi_t) = parts
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
