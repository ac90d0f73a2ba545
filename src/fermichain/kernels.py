"""Column-map kernels: the operations on monomial tables.

Every monomial in the creation/annihilation generators maps each occupation
basis vector to (a multiple of) a single basis vector.  Such an operator is
stored as a pair of length-``N`` arrays ``(perm, val)`` meaning

    m |s> = val[s] |perm[s]>          (perm[s] == -1, val[s] == 0 when m|s> = 0)

with ``N = 2**L``.  The operations on monomials — composing them, taking
traces against a density matrix, projecting a dense operator onto a
monomial basis, and re-assembling a dense matrix from coefficients — then
become gather/scatter loops over ``s``, never full matrix products.

The package builds generators, terms and conditional expectations without
these tables (see :mod:`fermichain.car`); the kernels serve only the
monomial basis, which the tests use as an independent oracle.
"""

from __future__ import annotations

import numpy as np

# the kernels exist in this one numpy implementation; the name stays for
# environment stamps that record it
BACKEND = "python"


def compose_batch(P1, V1, p2, v2):
    """Encodings of ``m1_k @ m2`` for every row ``k`` of ``(P1, V1)``."""
    dead2 = p2 < 0
    t = np.where(dead2, 0, p2)
    P = P1[:, t]
    V = V1[:, t] * v2[None, :]
    dead = dead2[None, :] | (P < 0)
    P = np.where(dead, -1, P)
    V = np.where(dead, 0.0 + 0.0j, V)
    return P, V


def expect_batch(P, V, D):
    """``Tr(D @ m_k)`` for each row ``k``."""
    n = P.shape[1]
    rows = np.arange(n)
    Pc = np.where(P < 0, 0, P)
    return np.sum(D[rows[None, :], Pc] * V, axis=1)


def inner_batch(P, V, A):
    """Normalized overlaps ``tr(m_k^* A) / N`` for each row ``k``.

    With the normalized trace this is the Hilbert-Schmidt inner product
    used to expand ``A`` in a monomial basis.
    """
    n = P.shape[1]
    rows = np.arange(n)
    Pc = np.where(P < 0, 0, P)
    return np.sum(np.conj(V) * A[Pc, rows[None, :]], axis=1) / n


def scatter(P, V, coeffs):
    """Dense matrix of ``sum_k coeffs[k] * m_k``."""
    n = P.shape[1]
    out = np.zeros((n, n), dtype=np.complex128)
    rows = np.broadcast_to(np.arange(n)[None, :], P.shape)
    Pc = np.where(P < 0, 0, P)
    contrib = coeffs[:, None] * V
    np.add.at(out, (Pc.ravel(), rows.ravel()), contrib.ravel())
    return out


def pair_expect(Pa, Va, Pb, Vb, D):
    """``Tr(D @ ma_i @ mb_j)`` for every pair ``(i, j)``."""
    ka = Pa.shape[0]
    kb, n = Pb.shape
    rows = np.arange(n)
    tb = np.where(Pb < 0, 0, Pb)
    out = np.empty((ka, kb), dtype=np.complex128)
    for i in range(ka):
        u = Pa[i][tb]          # perm of ma_i applied after mb_j
        va = Va[i][tb]
        uc = np.where(u < 0, 0, u)
        out[i] = np.sum(D[rows[None, :], uc] * Vb * va, axis=1)
    return out
