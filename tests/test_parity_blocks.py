"""Hermitian decompositions by parity block, against the whole matrix.

``car.spectral_blocks`` splits a real matrix that commutes with the grading
into its two parity blocks and decomposes anything else whole.  Every
spectrum, eigenbasis and function of the matrix it gives must agree with
``np.linalg`` on the whole matrix to ``1e-13`` relative; and every verb must
report the same verdicts, with values within ``1e-13``, when the helper is
made to hand over the whole complex matrix instead, and when every density
and element is forced to complex128 instead of keeping its real dtype.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fermichain import car, cli
from fermichain.potentials import (build_model, hopping_model,
                                   total_hamiltonian)
from fermichain.regions import Region
from fermichain.stability import feasible_sampler
from fermichain.states import (DensityState, FactorState, gibbs_state,
                               kms_residual, noneven_perturbation,
                               odd_direction, perturbed_state,
                               remark2_construct)

TOL = 1e-13


def hermitian(lattice, seed, *, complex_, even):
    """A random Hermitian matrix on the chain, with the parity-changing
    entries zeroed when ``even``."""
    rng = np.random.default_rng(seed)
    n = car.dim(lattice)
    a = rng.standard_normal((n, n))
    if complex_:
        a = a + 1j * rng.standard_normal((n, n))
    a = (a + a.conj().T) / 2.0
    if even:
        signs = car.parity_signs(lattice)
        a[np.outer(signs, signs) < 0] = 0.0
    return a.astype(np.complex128)


KINDS = {"even real": (False, True), "even complex": (True, True),
         "noneven real": (False, False), "noneven complex": (True, False)}


def test_parity_order_splits_the_states_by_popcount():
    even, odd = car.parity_order(4)
    popcount = [bin(s).count("1") for s in range(16)]
    assert list(even) == [s for s in range(16) if popcount[s] % 2 == 0]
    assert list(odd) == [s for s in range(16) if popcount[s] % 2 == 1]
    assert car.parity_order(4) is car.parity_order(4)
    assert not even.flags.writeable


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_only_even_real_data_is_split(kind):
    complex_, even = KINDS[kind]
    a = hermitian(4, 0, complex_=complex_, even=even)
    blocks = car.spectral_blocks(a)
    if complex_:
        # whole, as it is: no copy and no parity test
        assert len(blocks) == 1 and blocks[0][0] is None and blocks[0][1] is a
    elif even:
        assert [states.size for states, _ in blocks] == [8, 8]
        assert all(block.dtype == np.float64 for _, block in blocks)
    else:
        assert len(blocks) == 1 and blocks[0][0] is None
        assert blocks[0][1].dtype == np.float64


@pytest.mark.parametrize("value", [1e-300, -5e-324, 1.0])
def test_one_parity_changing_entry_keeps_the_whole_matrix(value):
    a = hermitian(5, 1, complex_=False, even=True)
    even, odd = car.parity_order(5)
    a[odd[3], even[7]] = value
    blocks = car.spectral_blocks(a)
    assert len(blocks) == 1 and blocks[0][0] is None


@given(lattice=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       kind=st.sampled_from(sorted(KINDS)))
def test_block_spectra_match_the_whole_matrix(lattice, seed, kind):
    complex_, even = KINDS[kind]
    a = hermitian(lattice, seed, complex_=complex_, even=even)
    want, u = np.linalg.eigh(a)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(car.eigvalsh(a) - want)) <= TOL * scale
    assert abs(car.hermitian_norm(a) - np.max(np.abs(want))) <= TOL * scale

    # each block's eigenvectors, placed on its states, diagonalize the matrix
    for states, eps, vecs in car.eigh(a):
        placed = vecs
        if states is not None:
            placed = np.zeros((a.shape[0], len(eps)), dtype=vecs.dtype)
            placed[states] = vecs
        assert np.max(np.abs(a @ placed - placed * eps)) <= TOL * scale

    # a function of the matrix comes out the same either way, in the dtype
    # of the blocks: real for real data, even when it is stored as complex
    f = [np.exp(-eps / scale) for _, eps, _ in car.eigh(a)]
    got = car.spectral_map(car.eigh(a), f)
    expected = (u * np.exp(-want / scale)) @ u.conj().T
    blocks = [block for _, block in car.spectral_blocks(a)]
    assert got.dtype == np.result_type(*blocks)
    assert got.dtype == (np.complex128 if np.any(a.imag) else np.float64)
    assert np.max(np.abs(got - expected)) <= TOL


# ---------------------------------------------------------------------------
# the Gibbs defect sees a noneven density
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lattice", [4, 6, 8])
@pytest.mark.parametrize("beta", [0.5, 1.0, 5.0])
def test_kms_residual_is_the_size_of_an_odd_departure(lattice, beta):
    h = total_hamiltonian(hopping_model(lattice)).matrix
    omega = gibbs_state(h, beta)
    x = odd_direction(Region.of([0], lattice)).matrix   # a_0 + a_0*
    assert len(car.spectral_blocks(h)) == 2
    for eps in (1e-6, 1e-9):
        shifted = DensityState(omega.density + eps * x, validate=False)
        want = eps * np.linalg.norm(x)
        got = kms_residual(shifted, h, beta)
        assert abs(got - want) <= 1e-10 * want, (eps, got, want)


# ---------------------------------------------------------------------------
# every verb, on the block path and on the whole complex matrix
# ---------------------------------------------------------------------------

VERB_RUNS = [
    ("validate", 7, None, 1.0, {}),
    ("gibbs", 7, None, 1.0, {}),
    ("gibbs", 6, None, 5.0, {}),
    ("perturb", 7, (2, 3), 1.0, {}),
    ("perturb", 6, (0,), 2.0, {}),
    ("entropy", 7, (2, 3), 1.0, {}),
    ("entropy", 6, (1, 4), 0.5, {}),
    ("prop4", 7, (2, 3), 1.0, {}),
    ("prop4", 6, (0,), 1.0, {}),
    ("ssb-probe", 7, (2, 3), 1.0, {}),
    ("ssb-probe", 5, (0,), 1.0, {}),
    ("remark2", 7, None, 1.0, {}),
    ("lts", 5, (1, 2), 1.0, {"samples": 20}),
    ("perturb", 6, (2,), 1.0, {"model": "tv"}),
    ("prop4", 5, (1,), -0.7, {"model": "tv"}),
]


def agree(got: float, want: float) -> bool:
    if not (math.isfinite(got) and math.isfinite(want)):
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= TOL * max(1.0, abs(want))


@pytest.mark.parametrize("verb, lattice, sites, beta, extra", VERB_RUNS)
def test_verbs_agree_with_the_whole_complex_decomposition(
        verb, lattice, sites, beta, extra, monkeypatch):
    cfg = cli.RunConfig(verb, lattice_size=lattice, region_sites=sites,
                        beta=beta, **extra)
    label, blocks = cli.DISPATCH[verb](cfg)
    seen = []

    def whole_complex(matrix):
        seen.append(matrix.shape)
        return [(None, np.asarray(matrix, dtype=np.complex128))]

    with monkeypatch.context() as patch:
        patch.setattr(car, "spectral_blocks", whole_complex)
        whole_label, whole = cli.DISPATCH[verb](cfg)
    # every verb but validate decomposes something
    assert bool(seen) == (verb != "validate")
    assert label == whole_label
    assert [r.check for r in blocks] == [r.check for r in whole]
    assert [r.passed for r in blocks] == [r.passed for r in whole]
    for split, full in zip(blocks, whole):
        assert agree(split.value, full.value), (split, full)


@pytest.mark.parametrize("verb, lattice, sites, beta, extra", VERB_RUNS)
def test_verbs_agree_with_complex_densities(verb, lattice, sites, beta,
                                            extra, monkeypatch):
    # every preset's densities and elements are real; forced to complex128
    # (as they were stored before they kept their dtype) every verb must
    # give the same verdicts and values
    cfg = cli.RunConfig(verb, lattice_size=lattice, region_sites=sites,
                        beta=beta, **extra)
    label, real = cli.DISPATCH[verb](cfg)
    seen = []

    def complex_(array):
        array = np.asarray(array, dtype=np.complex128)
        seen.append(array.shape)
        return array

    with monkeypatch.context() as patch:
        patch.setattr(car, "as_float", complex_)
        complex_label, forced = cli.DISPATCH[verb](cfg)
    assert seen
    assert label == complex_label
    assert [r.check for r in real] == [r.check for r in forced]
    assert [r.passed for r in real] == [r.passed for r in forced]
    for kept, cast in zip(real, forced):
        assert agree(kept.value, cast.value), (kept, cast)


@pytest.mark.parametrize("model", ["hopping", "tv", "raw-number"])
def test_every_preset_state_is_real(model):
    lattice = 5
    region = Region.of([1, 2], lattice)
    potential = build_model(model, lattice)
    gibbs = gibbs_state(total_hamiltonian(potential), 1.0)
    phi = perturbed_state(potential, 1.0, region)
    states = (gibbs, phi, noneven_perturbation(phi, region),
              remark2_construct(gibbs))
    assert [s.density.dtype for s in states] == [np.float64] * 4
    # complex enters with complex data only
    rng = np.random.default_rng(0)
    assert FactorState.gaussian(lattice, rng).factor.dtype == np.complex128
    competitor = next(feasible_sampler(gibbs, region, "lts", 1))
    assert competitor.density.dtype == np.complex128
