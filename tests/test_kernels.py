"""The encoded-operator kernels against dense linear algebra.

Operators are stored as column maps ``m |s> = val[s] |perm[s]>`` with the
sentinel ``perm = -1`` for annihilated columns; every kernel has a direct
dense-matrix counterpart, which is the oracle here.
"""

import numpy as np
import pytest

from fermichain import kernels
from fermichain.car import encoding_dense

# one numpy implementation; parametrizing over it names it in the test ids
BACKENDS = [kernels]


def random_encodings(count, n, rng, dead_frac=0.25):
    perm = rng.integers(0, n, size=(count, n)).astype(np.int64)
    val = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    dead = rng.random((count, n)) < dead_frac
    perm[dead] = -1
    val[dead] = 0.0
    return perm, np.ascontiguousarray(val, dtype=np.complex128)


def dense_rows(perm, val):
    return np.stack([encoding_dense(p, v) for p, v in zip(perm, val)])


@pytest.fixture(scope="module")
def payload():
    rng = np.random.default_rng(1234)
    n, count = 16, 24
    p1, v1 = random_encodings(count, n, rng)
    p2, v2 = random_encodings(count, n, rng)
    dens = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    coeffs = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return (p1, v1, p2, v2, np.ascontiguousarray(dens),
            np.ascontiguousarray(coeffs))


@pytest.mark.parametrize("k", BACKENDS, ids=lambda m: m.BACKEND)
def test_compose_batch_matches_matrix_products(k, payload):
    p1, v1, p2, v2, _, _ = payload
    pc, vc = k.compose_batch(p1, v1, p2[3], v2[3])
    right = encoding_dense(p2[3], v2[3])
    for row in range(p1.shape[0]):
        want = encoding_dense(p1[row], v1[row]) @ right
        assert np.max(np.abs(encoding_dense(pc[row], vc[row]) - want)) < 1e-13


@pytest.mark.parametrize("k", BACKENDS, ids=lambda m: m.BACKEND)
def test_expect_batch_is_trace_of_product(k, payload):
    p1, v1, _, _, dens, _ = payload
    want = np.array([np.trace(dens @ m) for m in dense_rows(p1, v1)])
    assert np.max(np.abs(k.expect_batch(p1, v1, dens) - want)) < 1e-12


@pytest.mark.parametrize("k", BACKENDS, ids=lambda m: m.BACKEND)
def test_inner_batch_is_normalized_adjoint_pairing(k, payload):
    p1, v1, _, _, dens, _ = payload
    n = dens.shape[0]
    want = np.array([np.trace(m.conj().T @ dens) / n for m in dense_rows(p1, v1)])
    assert np.max(np.abs(k.inner_batch(p1, v1, dens) - want)) < 1e-12


@pytest.mark.parametrize("k", BACKENDS, ids=lambda m: m.BACKEND)
def test_scatter_assembles_linear_combination(k, payload):
    p1, v1, _, _, _, coeffs = payload
    want = np.tensordot(coeffs, dense_rows(p1, v1), axes=1)
    assert np.max(np.abs(k.scatter(p1, v1, coeffs) - want)) < 1e-12


@pytest.mark.parametrize("k", BACKENDS, ids=lambda m: m.BACKEND)
def test_pair_expect_is_trace_of_double_product(k, payload):
    p1, v1, p2, v2, dens, _ = payload
    got = k.pair_expect(p1, v1, p2, v2, dens)
    left = dense_rows(p1, v1)
    right = dense_rows(p2, v2)
    for i in range(len(left)):
        for j in range(len(right)):
            want = np.trace(dens @ left[i] @ right[j])
            assert abs(got[i, j] - want) < 1e-11


@pytest.mark.parametrize("k", BACKENDS, ids=lambda m: m.BACKEND)
def test_dead_columns_stay_dead(k):
    n = 8
    perm = np.full(n, -1, dtype=np.int64)
    val = np.zeros(n, dtype=np.complex128)
    live = np.arange(n, dtype=np.int64)
    ones = np.ones(n, dtype=np.complex128)
    pc, vc = k.compose_batch(perm[None, :], val[None, :], live, ones)
    assert np.all(pc == -1) and np.all(vc == 0)
    pc, vc = k.compose_batch(live[None, :], ones[None, :], perm, val)
    assert np.all(pc == -1) and np.all(vc == 0)
    assert not np.any(k.scatter(perm[None, :], val[None, :], np.ones(1)))
