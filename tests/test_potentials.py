import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fermichain import car
from fermichain.potentials import (MODELS, Potential, _hop, _number,
                                   build_model, hopping_model,
                                   local_hamiltonian, prune,
                                   random_standard_potential,
                                   raw_number_model, standardize,
                                   total_hamiltonian, tv_model,
                                   validate_potential)
from fermichain.regions import Region

from conftest import oracle_annihilator


def test_hopping_hamiltonian_matches_kron_oracle():
    lattice, t, mu = 4, 1.3, 0.7
    pot = hopping_model(lattice, t=t, mu=mu)
    ann = [oracle_annihilator(i, lattice) for i in range(lattice)]
    want = np.zeros((2 ** lattice,) * 2, dtype=complex)
    for i in range(lattice - 1):
        want += -t * (ann[i].conj().T @ ann[i + 1]
                      + ann[i + 1].conj().T @ ann[i])
    for i in range(lattice):
        want += -mu * (ann[i].conj().T @ ann[i])
    # standardization only moves scalar weight; totals agree up to a
    # multiple of the identity
    got = total_hamiltonian(pot).matrix
    diff = got - want
    shift = np.trace(diff) / diff.shape[0]
    assert np.max(np.abs(diff - shift * np.eye(diff.shape[0]))) < 1e-12


def dense_term(name, sites, coefficient, lattice):
    """A named term as products of the oracle's dense generators."""
    eye = np.eye(car.dim(lattice))

    def number(i):
        a = oracle_annihilator(i, lattice)
        return a.conj().T @ a

    if name == "hop":
        i, j = sites
        hop = oracle_annihilator(i, lattice).conj().T @ oracle_annihilator(j, lattice)
        return coefficient * (hop + hop.conj().T)
    if name == "num_raw":
        return coefficient * number(sites[0])
    if name == "num":
        return coefficient * (number(sites[0]) - 0.5 * eye)
    i, j = sites
    return coefficient * ((number(i) - 0.5 * eye) @ (number(j) - 0.5 * eye))


def element_term(name, sites, coefficient, lattice):
    """A named term as the presets build it, by element arithmetic."""
    if name == "hop":
        return coefficient * _hop(*sites, lattice)
    if name == "num_raw":
        return coefficient * _number(sites[0], lattice, 0.0)
    if name == "num":
        return coefficient * _number(sites[0], lattice, 0.5)
    i, j = sites
    return coefficient * (_number(i, lattice, 0.5) @ _number(j, lattice, 0.5))


# every named term the models build, with their default coefficients
MODEL_TERMS = (("hop", 2, -1.0), ("num", 1, -0.5), ("num_raw", 1, -0.5),
               ("nn", 2, 0.8))
# the terms of each preset, in the order they are added on a shared support
PRESET_TERMS = {"hopping": ("hop", "num"), "tv": ("hop", "num", "nn"),
                "raw-number": ("num_raw",)}


@pytest.mark.parametrize("lattice", range(1, 7))
def test_column_map_terms_equal_the_dense_products(lattice):
    # every named term, plus a non-adjacent hop written in reverse order
    cases = [(name, list(range(first, first + width)), coefficient)
             for name, width, coefficient in MODEL_TERMS
             for first in range(lattice - width + 1)]
    reversed_hop = [("hop", [3, 0], -1.0)] if lattice >= 4 else []
    for name, sites, coefficient in cases + reversed_hop:
        term = element_term(name, sites, coefficient, lattice)
        assert term.support.sites == tuple(sorted(sites))
        assert term.small.shape == (car.dim(len(sites)),) * 2
        want = dense_term(name, sites, coefficient, lattice)
        assert np.array_equal(term.matrix, want)
    # each preset stores on every support the sum of its terms there
    for model, names in PRESET_TERMS.items():
        want = {}
        for name, sites, coefficient in cases:
            if name in names:
                region = Region.of(sites, lattice)
                want[region] = (want.get(region, 0)
                                + dense_term(name, sites, coefficient, lattice))
        potential = build_model(model, lattice)
        assert set(potential.terms) == set(want)
        for region, term in potential.terms.items():
            assert np.array_equal(car.embed(term, region), want[region])
    for i in range(lattice):
        a = oracle_annihilator(i, lattice)
        ann = car.annihilator(i, lattice)
        assert np.array_equal((ann.dagger() @ ann).matrix, a.conj().T @ a)


def test_preset_models_are_standard():
    for name in MODELS:
        if name == "raw-number":
            continue
        report = validate_potential(build_model(name, 5))
        assert all(v <= 1e-12 for v in report.values()), report


def test_raw_number_model_fails_standardness_by_half_tau():
    # the deliberately non-standard term is -mu n_i; the scalar its
    # conditional expectation leaves behind is mu * tau(n) = mu / 2
    mu = 0.5
    report = validate_potential(raw_number_model(5, mu=mu))
    assert not all(v <= 1e-12 for v in report.values())
    assert abs(report["standard"] - mu / 2) < 1e-15


def test_nan_terms_fail_validation():
    pot = hopping_model(3)
    last = pot.regions()[-1]
    terms = dict(pot.terms)
    terms[last] = np.full_like(terms[last], np.nan)
    report = validate_potential(Potential(lattice_size=3, terms=terms))
    assert not all(v <= 1e-12 for v in report.values())
    assert all(np.isnan(v) for v in report.values())


def test_standardize_repairs_raw_model_and_shifts_by_scalar():
    lattice = 4
    raw = raw_number_model(lattice, mu=0.8)
    fixed = standardize({region: car.AlgebraElement(term, region)
                         for region, term in raw.terms.items()})
    assert all(v <= 1e-12 for v in validate_potential(fixed).values())
    diff = (total_hamiltonian(raw).matrix
            - total_hamiltonian(fixed).matrix)
    shift = np.trace(diff) / diff.shape[0]
    assert np.max(np.abs(diff - shift * np.eye(diff.shape[0]))) < 1e-12


def test_standardize_telescopes_back_to_centered_term():
    # summed over all subregions, the standardized pieces of one raw term
    # rebuild the term minus its scalar part
    lattice = 4
    region = Region.of([1, 2], lattice)
    rng = np.random.default_rng(2)
    term = car.random_element(region, rng, parity=0, hermitian=True)
    pot = standardize({region: term})
    rebuilt = np.zeros((2 ** lattice,) * 2, dtype=complex)
    for support, piece in pot.terms.items():
        rebuilt = rebuilt + car.embed(piece, support)
    centered = term.matrix - term.tau() * np.eye(2 ** lattice)
    assert np.max(np.abs(rebuilt - centered)) < 1e-12


@given(st.integers(min_value=1, max_value=6), st.data())
def test_standardize_matches_the_full_chain_sweep(lattice, data):
    # the sweep on the support's own chain against the same sweep on the
    # whole chain, for contiguous and scattered supports
    sites = data.draw(st.sets(st.integers(min_value=0, max_value=lattice - 1),
                              min_size=1, max_size=min(lattice, 3)))
    region = Region.of(sites, lattice)
    seed = data.draw(st.integers(min_value=0, max_value=10_000))
    term = car.random_element(region, np.random.default_rng(seed), parity=0,
                              hermitian=True)
    pot = standardize({region: term})
    projections = {sub.sites: car.conditional_expectation_matrix(term.matrix, sub)
                   for sub in region.subregions()}
    want = {}
    for sub in region.subregions(include_empty=False):
        want[sub] = sum((-1) ** (len(sub) - len(inner)) * projections[inner.sites]
                        for inner in sub.subregions())
    assert set(pot.terms) == {sub for sub, w in want.items()
                              if np.max(np.abs(w)) > 1e-13}
    for sub, piece in pot.terms.items():
        assert piece.shape == (car.dim(len(sub)),) * 2
        assert np.max(np.abs(car.embed(piece, sub) - want[sub])) < 1e-12


def test_standardize_rejects_bad_raw_terms():
    lattice = 3
    region = Region.of([0], lattice)
    odd = car.random_element(region, np.random.default_rng(4), parity=1,
                             hermitian=True)
    with pytest.raises(ValueError):
        standardize({region: odd})
    skew = car.annihilator(0, lattice)
    with pytest.raises(ValueError):
        standardize({region: skew})
    ann = car.annihilator(1, lattice)
    leaking = ann.dagger() @ ann
    with pytest.raises(ValueError, match="not supported in its region"):
        standardize({region: leaking})


@given(st.integers(min_value=0, max_value=10_000))
def test_random_standard_potentials_validate(seed):
    pot = random_standard_potential(4, np.random.default_rng(seed))
    assert all(v <= 1e-12 for v in validate_potential(pot).values())


def test_local_hamiltonian_collects_meeting_terms():
    lattice = 5
    pot = hopping_model(lattice)
    region = Region.of([2], lattice)
    manual = np.zeros((2 ** lattice,) * 2, dtype=complex)
    for support, term in pot.terms.items():
        if support.intersects(region):
            manual = manual + car.embed(term, support)
    got = local_hamiltonian(pot, region)
    assert np.max(np.abs(got.matrix - manual)) == 0.0
    # H(I) is held on the union of the meeting supports
    assert got.support.sites == (1, 2, 3)
    assert got.small.shape == (8, 8)


def test_hamiltonians_of_scattered_terms_match_the_oracle():
    # on a scattered support the reordering signs of an even term do not
    # cancel, so the sum must carry them
    lattice = 5
    records = [("hop", [3, 0], -1.0), ("nn", [4, 1], 0.8), ("num", [2], -0.5),
               ("hop", [1, 2], 0.3)]
    terms = [element_term(n, s, c, lattice) for n, s, c in records]
    pot = Potential(lattice_size=lattice,
                    terms={term.support: term.small for term in terms})
    dense = [dense_term(n, s, c, lattice) for n, s, c in records]
    assert np.array_equal(total_hamiltonian(pot).matrix, sum(dense))
    local = local_hamiltonian(pot, Region.of([0], lattice))
    assert local.support.sites == (0, 3)
    assert np.array_equal(local.matrix, dense[0])


def test_total_is_local_of_full_chain():
    pot = tv_model(4)
    total = total_hamiltonian(pot)
    local = local_hamiltonian(pot, Region.full(4))
    assert np.max(np.abs(total.matrix - local.matrix)) == 0.0


def test_prune_removes_exactly_the_meeting_terms():
    lattice = 5
    pot = hopping_model(lattice)
    region = Region.of([2], lattice)
    pruned = prune(pot, region)
    assert all(r.is_orthogonal(region) for r in pruned.terms)
    kept = set(pruned.terms)
    dropped = set(pot.terms) - kept
    assert all(r.intersects(region) for r in dropped)
    # the pruned total commutes with everything in the region's algebra
    h = total_hamiltonian(pruned).matrix
    basis = car.monomial_basis(region)
    for k in range(len(basis)):
        mono = basis[k].dense()
        assert np.max(np.abs(h @ mono - mono @ h)) < 1e-12


@pytest.mark.parametrize("sites", [[0], [2, 3], [1, 4]])
def test_pruned_total_sums_on_the_complement(sites):
    lattice = 6
    region = Region.of(sites, lattice)
    pruned = prune(tv_model(lattice), region)
    held = total_hamiltonian(pruned, support=region.complement())
    assert held.support == region.complement()
    assert np.array_equal(held.matrix, total_hamiltonian(pruned).matrix)
    with pytest.raises(ValueError, match="do not lie in the support"):
        total_hamiltonian(tv_model(lattice), support=region.complement())


def test_build_model_rejects_unknown_names():
    with pytest.raises(ValueError):
        build_model("heisenberg", 4)


def test_potential_terms_are_validated():
    lattice = 3
    bad_region = Region.of([0], lattice)
    with pytest.raises(ValueError):
        Potential(lattice_size=4, terms={bad_region: np.eye(8)})
    # terms are stored on their support: a dense 2**L term is refused
    with pytest.raises(ValueError):
        Potential(lattice_size=lattice, terms={bad_region: np.eye(8)})
    with pytest.raises(ValueError):
        Potential(lattice_size=lattice,
                  terms={Region.of([0, 2], lattice): np.eye(2)})


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("lattice", [5, 8])
def test_hamiltonians_equal_the_dense_sum_of_their_terms(model, lattice):
    # H(I) is summed on the chain of its support and embedded once; it must
    # equal the dense sum of the embedded terms entry for entry
    pot = build_model(model, lattice)
    n = car.dim(lattice)
    for sites in ([0], [2, 3], [1, 4], range(lattice)):
        region = Region.of(sites, lattice)
        dense = np.zeros((n, n), dtype=complex)
        for k in pot.regions():
            if k.intersects(region):
                dense = dense + car.embed(pot.terms[k], k)
        assert np.array_equal(local_hamiltonian(pot, region).matrix, dense)
    assert np.array_equal(total_hamiltonian(pot).matrix, dense)
