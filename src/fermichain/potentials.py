"""Interaction potentials on the chain and their local Hamiltonians.

A potential assigns to finitely many regions ``K`` a self-adjoint, even
element ``Phi(K)`` of the local algebra on ``K``.  A potential is *standard*
when every term is annihilated by the conditional expectation onto any
region that does not contain its support:

    E_J(Phi(K)) = 0  whenever  K is not contained in J.

Standard form makes the assignment unique: any raw interaction term can be
brought to it by the inclusion-exclusion sweep in :func:`standardize`, which
redistributes each raw term over the subregions of its support and discards
the scalar part.

The local Hamiltonian of a region collects every term whose support meets it,

    H(I) = sum { Phi(K) : K intersects I },

so ``H(I)`` generally extends beyond ``I``.  Dropping exactly those terms
(:func:`prune`) leaves the surface-free remainder ``H~`` with
``H(whole chain) = H(I) + H~(whole chain)``.

Each term ``Phi(K)`` is stored as its ``2**|K|``-square small representation
(:func:`car.small_representation`): site ``K[k]`` is site ``k`` of a chain of
``|K|`` sites, on which terms are built, standardized and validated.  ``H(I)``
is held on the chain of the union of its terms' supports; only ``H`` is
``2**L``-square.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import car
from .car import AlgebraElement
from .regions import Region

# Entrywise size below which a standardized term is considered absent.
_TERM_DROP_TOL = 1e-13


def _region_sort_key(region: Region):
    return (len(region.sites), region.sites)


@dataclass
class Potential:
    """Finitely many interaction terms, keyed by their support region; each
    term is the ``2**|K| x 2**|K|`` small representation of ``Phi(K)``.
    The terms are stored ordered by size of support, then by sites."""

    lattice_size: int
    terms: dict[Region, np.ndarray]

    def __post_init__(self) -> None:
        self.terms = {r: self.terms[r]
                      for r in sorted(self.terms, key=_region_sort_key)}
        for region, term in self.terms.items():
            if region.lattice_size != self.lattice_size:
                raise ValueError(f"term region {region} not on chain of {self.lattice_size}")
            if region.is_empty:
                raise ValueError("potential terms must have nonempty support")
            m = car.dim(len(region))
            if term.shape != (m, m):
                raise ValueError(f"term for {region.sites} has shape {term.shape}")

    def regions(self) -> list[Region]:
        return list(self.terms)


def standardize(raw: Mapping[Region, AlgebraElement]) -> Potential:
    """Bring raw interaction terms to standard form.

    Each raw term is an element supported inside its region (checked), and
    must be self-adjoint and even (both checked on its small
    representation).  Its standardized pieces are

        contribution to J  =  sum over K below J of (-1)^(|J| - |K|) E_K(term)

    for the nonempty subregions ``J`` of its region; the empty-region piece
    (a multiple of the identity) is dropped.  The sum runs on the region's
    own chain.  The pieces add back to the raw term minus its trace, and
    each piece is annihilated by the conditional expectation onto any region
    not containing it.
    """
    if not raw:
        raise ValueError("no raw terms given")
    lattice = next(iter(raw.keys())).lattice_size
    out: dict[Region, np.ndarray] = {}
    for region, term in raw.items():
        if not term.support.is_subregion(region):
            raise ValueError(f"raw term on {region.sites} is not supported in its region")
        small = term.small_on(region)
        car.require(car.hermitian_defect(small), small,
                    f"raw term on {region.sites} is not self-adjoint")
        car.require(car.grading_defect(small), small,
                    f"raw term on {region.sites} is not even")
        scale = max(1.0, float(np.max(np.abs(small))))

        chain = Region.full(len(region))   # position k holds site region.sites[k]
        projections = {j.sites: car.conditional_expectation_matrix(small, j)
                       for j in chain.subregions()}
        for j in chain.subregions(include_empty=False):
            contrib = np.zeros_like(small)
            for inner in j.subregions():
                sign = (-1) ** (len(j) - len(inner))
                contrib += sign * projections[inner.sites]
            if np.max(np.abs(contrib)) <= _TERM_DROP_TOL * scale:
                continue
            sub = Region(tuple(region.sites[k] for k in j.sites), lattice)
            out[sub] = out.get(sub, 0) + car.small_representation(contrib, j)
    out = {r: t for r, t in out.items() if np.max(np.abs(t)) > _TERM_DROP_TOL}
    return Potential(lattice_size=lattice, terms=out)


def _sum_terms(potential: Potential, regions: list[Region],
               support: Region) -> AlgebraElement:
    """The sum of the terms on ``regions``, all inside ``support``, summed
    in place on the chain of the support's own sites, in the terms' dtype:
    real for every preset."""
    dtype = np.result_type(np.float64, *(potential.terms[k] for k in regions))
    total = np.zeros((car.dim(len(support)),) * 2, dtype=dtype)
    for k in regions:
        car.add_embedded(total, potential.terms[k], k.positions_in(support))
    return AlgebraElement(total, support)


def local_hamiltonian(potential: Potential, region: Region) -> AlgebraElement:
    """``H(I)``: the sum of the terms whose support meets ``region``, as an
    element held on the union of those supports."""
    if region.is_empty:
        raise ValueError("local Hamiltonian of the empty region is not defined")
    meeting = [k for k in potential.regions() if k.intersects(region)]
    support = Region.empty(potential.lattice_size)
    for k in meeting:
        support = support.union(k)
    return _sum_terms(potential, meeting, support)


def total_hamiltonian(potential: Potential,
                      support: Region | None = None) -> AlgebraElement:
    """``H`` of the whole chain (every term contributes), held on the whole
    chain, where its ``2**L``-square small representation is its matrix,
    or on ``support`` if given, which must contain every term: the pruned
    potential of a region sums on the chain of the region's complement."""
    if support is None:
        support = Region.full(potential.lattice_size)
    outside = [k.sites for k in potential.regions()
               if not k.is_subregion(support)]
    if outside:
        raise ValueError(f"terms on {outside} do not lie in the support "
                         f"{support.sites}")
    return _sum_terms(potential, potential.regions(), support)


def prune(potential: Potential, region: Region) -> Potential:
    """Remove every term whose support meets ``region``.

    The remainder generates the dynamics of the complement decoupled from
    ``region``; its total Hamiltonian is supported in the complement and is
    even there.
    """
    kept = {k: t for k, t in potential.terms.items() if k.is_orthogonal(region)}
    return Potential(lattice_size=potential.lattice_size, terms=kept)


def validate_potential(potential: Potential) -> dict[str, float]:
    """The largest residual of each condition on the terms (``support``,
    ``self_adjoint``, ``even`` and ``standard``), 0.0 when it holds exactly.

    Every check runs on the support's own chain.  Standardness is checked
    against the co-atoms of each support (drop one site at a time) plus the
    empty region; by the tower property of the conditional expectations this
    covers every region not containing the support.  A term stored on its
    support fails ``support`` only through non-finite entries.
    """
    res = {"support": 0.0, "self_adjoint": 0.0, "even": 0.0, "standard": 0.0}
    for region in potential.regions():
        term = potential.terms[region]
        chain = Region.full(len(region))
        # np.maximum keeps a NaN, where max(0.0, nan) would return 0.0
        res["self_adjoint"] = np.maximum(res["self_adjoint"],
                                         car.hermitian_defect(term))
        res["even"] = np.maximum(res["even"], car.grading_defect(term))
        res["support"] = np.maximum(res["support"],
                                    0.0 if np.isfinite(term).all() else np.nan)
        res["standard"] = np.maximum(res["standard"], abs(car.tau(term)))
        for k in chain.sites:
            sub = chain.difference(Region((k,), len(region)))
            proj = car.conditional_expectation_matrix(term, sub)
            res["standard"] = np.maximum(res["standard"], np.max(np.abs(proj)))
    return {k: float(v) for k, v in res.items()}


# ---------------------------------------------------------------------------
# model presets, built by element arithmetic
# ---------------------------------------------------------------------------


def _hop(i: int, j: int, lattice_size: int) -> AlgebraElement:
    """The symmetrized hopping ``a_i* a_j + a_j* a_i``."""
    h = car.annihilator(i, lattice_size).dagger() @ car.annihilator(j, lattice_size)
    return h + h.dagger()


def _number(site: int, lattice_size: int, shift: float) -> AlgebraElement:
    """The number operator less ``shift``, ``n_site - shift``."""
    return AlgebraElement(np.diag([-shift, 1.0 - shift]),
                          Region((site,), lattice_size))


def _potential(lattice_size: int, terms: list[AlgebraElement]) -> Potential:
    """The potential whose term on each support is the sum, in the order
    given, of the elements held there."""
    summed: dict[Region, np.ndarray] = {}
    for term in terms:
        summed[term.support] = summed.get(term.support, 0) + term.small
    return Potential(lattice_size=lattice_size, terms=summed)


def _hopping_terms(lattice_size: int, t: float,
                   mu: float) -> list[AlgebraElement]:
    """The hops on every bond, then the centered numbers on every site."""
    return ([-t * _hop(i, i + 1, lattice_size) for i in range(lattice_size - 1)]
            + [-mu * _number(i, lattice_size, 0.5) for i in range(lattice_size)])


def hopping_model(lattice_size: int, t: float = 1.0, mu: float = 0.5) -> Potential:
    """Nearest-neighbour hopping with a chemical potential, in standard form."""
    return _potential(lattice_size, _hopping_terms(lattice_size, t, mu))


def tv_model(lattice_size: int, t: float = 1.0, mu: float = 0.5,
             v: float = 0.8) -> Potential:
    """Hopping plus a centered nearest-neighbour density-density coupling."""
    centered = [_number(i, lattice_size, 0.5) for i in range(lattice_size)]
    couplings = [v * (centered[i] @ centered[i + 1])
                 for i in range(lattice_size - 1)]
    return _potential(lattice_size,
                      _hopping_terms(lattice_size, t, mu) + couplings)


def raw_number_model(lattice_size: int, mu: float = 0.5) -> Potential:
    """Chemical potential written with plain number operators.

    Each term has a nonzero trace, so the potential is *not* standard; it
    exists to exercise the validation path.
    """
    return _potential(lattice_size, [-mu * _number(i, lattice_size, 0.0)
                                     for i in range(lattice_size)])


MODELS = {
    "hopping": hopping_model,
    "tv": tv_model,
    "raw-number": raw_number_model,
}


def build_model(name: str, lattice_size: int, **params) -> Potential:
    try:
        builder = MODELS[name]
    except KeyError:
        raise ValueError(f"unknown model {name!r}; known: {sorted(MODELS)}") from None
    return builder(lattice_size, **params)


def random_standard_potential(lattice_size: int, rng: np.random.Generator,
                              scale: float = 1.0) -> Potential:
    """Random even potential in standard form, for panels and stress tests.

    Draws a random even self-adjoint raw term on every site, every adjacent
    pair, and one non-adjacent pair, normalizes each to unit operator norm,
    and standardizes the family.
    """
    raw: dict[Region, AlgebraElement] = {}
    regions = [Region((i,), lattice_size) for i in range(lattice_size)]
    regions += [Region((i, i + 1), lattice_size) for i in range(lattice_size - 1)]
    if lattice_size >= 3:
        i = int(rng.integers(0, lattice_size - 2))
        j = int(rng.integers(i + 2, lattice_size))
        regions.append(Region((i, j), lattice_size))
    for region in regions:
        elem = car.random_element(region, rng, parity=0, hermitian=True)
        nrm = elem.norm()
        if nrm < 1e-12:
            continue
        raw[region] = (scale / nrm) * elem
    return standardize(raw)
