"""CAR algebra of a finite fermion chain, with its grading and local structure.

The chain of ``L`` sites is represented on the ``2**L``-dimensional
occupation basis; basis state ``s`` has site ``i`` occupied iff bit ``i``
of ``s`` is set (site 0 is the least significant bit).  The annihilator at
site ``i`` is realized Jordan-Wigner style,

    a_i = v_0 v_1 ... v_{i-1} * (lowering operator at site i),

where ``v_k = a_k* a_k - a_k a_k* = 2 n_k - 1`` is the per-site parity
(-1 on an empty site, +1 on an occupied one).  With this convention the
canonical anticommutation relations

    {a_i, a_j} = 0,      {a_i, a_j*} = delta_ij

hold exactly, and elements supported on disjoint regions commute up to the
grading sign (even elements commute with everything local; odd elements of
disjoint supports anticommute in their odd parts).

The grading automorphism ``theta`` conjugates by the full-chain parity
``v_0 ... v_{L-1}``; it fixes even elements and negates odd ones, and every
element splits as ``A = A_even + A_odd`` with the two parts obtained by
averaging ``A`` with ``theta(A)``.  Its one table is :func:`parity_order`
(even-popcount states, then odd): every sign of the grading is read off it
(:func:`parity_signs`), :func:`parity_blocks` gathers a matrix's blocks of
one parity, and :func:`grading_defect` reads them with no ``theta(X)``.

Local structure goes through one primitive, :func:`mode_reordering`: the
signed permutation of occupation states that renumbers the modes so that a
region's sites come first, in ascending order, followed by the rest.  In the
reordered basis the region's algebra is ``M_{2**|R|} (x) 1``, so

- :func:`small_representation` is the normalized fermionic partial trace
  over the complement (Friis, Lee & Bruschi, PRA 87, 022338 (2013));
- :func:`embed` is its inverse on ``A_R``: ``S -> S (x) 1``, and
  :func:`add_embedded` sums terms;
- :func:`local_times` multiplies a matrix by ``embed(S)`` on the left
  through the two parity-changing blocks of an odd ``S`` alone, the one
  product of an odd local element with a matrix or a factor;
- the tau-preserving conditional expectation onto ``A_R`` is
  ``embed o small_representation``.

Each map touches only the ``2**L * 2**|R|`` entries of the block diagonal
in the reordered basis, never the whole matrix.

Every Hermitian decomposition of the package goes through one helper,
:func:`spectral_blocks`, with :func:`eigvalsh`, :func:`eigh`,
:func:`spectral_map` and :func:`trace_log` its thin users.  An even
operator is ``diag(X_+, X_-)`` in the parity order, and every preset is
real, so a real matrix with zero parity-changing blocks is decomposed as
its two real ``2**L / 2``-square blocks, anything else whole.  With one
BLAS thread, the two real half-size blocks of the ``hopping`` Hamiltonian
decompose 6.6 times faster than the complex whole at ``N = 256`` and 17
at ``N = 1024``.

Arrays keep the dtype of their data (:func:`as_float`): float64 for real
data, complex128 for complex data, decided by the dtype alone.  Every
preset's operators and states are real, so they are held and multiplied in
real arithmetic, at half the memory of complex; complex enters only with
complex data, such as :func:`random_element`'s draws.

A local element (:class:`AlgebraElement`) is held on its support ``S`` as
its ``2**|S|``-square small representation; the generators are the
single-site ``2 x 2`` real matrices.  Its dense matrix is a view formed on
request, dense input enters through the one checked constructor
:meth:`AlgebraElement.from_matrix`, and sums and products run on the chain
of the union of the supports.

A defect measured against an input's own scale (not self-adjoint, not
odd, not in its support's algebra) is refused by one rule, :func:`require`,
which refuses a NaN defect too.

Monomials in the generators are "column maps" (each occupation state is sent
to at most one occupation state); the encoding (:mod:`fermichain.kernels`)
serves only the monomial basis of a region: per site, one factor out of

    { 1,  a_i,  a_i*,  v_i }

taken over the sites of the region in ascending order.  Distinct such
products are mutually orthogonal for the normalized trace
``tau = Tr / 2**L``, with squared norms ``(1/2)**(number of a or a*
factors)``.  Nothing in the package calls the basis or reads a column-map
encoding: its tables of ``4**|R| * 2**L`` entries are the independent
oracle the tests hold the maps above to.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import kernels
from .regions import Region

# Largest monomial-basis table we are willing to materialize, in entries
# (4**|region| * 2**L).  Covers every workflow in this package; a clear error
# beats an opaque multi-gigabyte allocation.
_BASIS_ENTRY_LIMIT = 1 << 24


def dim(lattice_size: int) -> int:
    return 1 << lattice_size


def as_float(array) -> np.ndarray:
    """``array`` as float64, or as complex128 when its dtype is complex: the
    rule every density and element follows.  It reads the dtype only, never
    the values, so real data stays real and complex data stays complex."""
    array = np.asarray(array)
    return array.astype(np.result_type(array, np.float64), copy=False)


def tau(matrix: np.ndarray) -> complex:
    """Normalized trace ``Tr(matrix) / N`` (the unique tracial state)."""
    return complex(np.trace(matrix)) / matrix.shape[0]


def require(defect: float, matrix: np.ndarray, message: str,
            tol: float = 1e-12) -> None:
    """The one refusal rule: ``ValueError(message)`` unless ``defect`` is at
    most ``tol`` times the largest entry modulus of ``matrix`` (of 1, if
    that is less), read with no temporary for real data.  The comparison
    is ``defect <= bound``, so a NaN defect is refused."""
    largest = (np.max(np.abs(matrix)) if np.iscomplexobj(matrix)
               else max(np.max(matrix), -np.min(matrix)))
    if not defect <= tol * max(1.0, float(largest)):
        raise ValueError(message)


def hermitian_defect(matrix: np.ndarray) -> float:
    """Largest entry modulus of ``matrix - matrix*``, with one square
    temporary for real data (the moduli are taken in place): the one
    measure of self-adjointness.  A NaN entry gives NaN."""
    diff = matrix - matrix.conj().T
    return float(np.max(np.abs(diff, out=None if np.iscomplexobj(diff)
                                else diff)))


def hermitian_part(x: np.ndarray) -> np.ndarray:
    """``(X + X*) / 2`` in place, returning ``x``: the one Hermitian part."""
    x += x.conj().T
    x *= 0.5
    return x


def gaussian(shape, rng: np.random.Generator, dtype) -> np.ndarray:
    """An array of ``shape`` with standard normal entries, float64, or
    complex128 with standard normal real and imaginary parts when ``dtype``
    is complex: the real parts drawn first, then the imaginary parts, each
    in row-major order.  The one Gaussian law of the package, so a complex
    draw begins with the real one of the same seed."""
    if not np.issubdtype(dtype, np.complexfloating):
        return rng.standard_normal(shape)
    out = np.empty(shape, dtype=np.complex128)
    out.real = rng.standard_normal(shape)
    out.imag = rng.standard_normal(shape)
    return out


def hermitian_norm(matrix: np.ndarray, trace: bool = False) -> float:
    """Spectral norm of a Hermitian matrix, or its trace norm with
    ``trace``, read off the eigenvalues instead of an SVD."""
    ev = np.abs(eigvalsh(matrix))
    return float(np.sum(ev) if trace else np.max(ev))


def spectral_norm(matrix: np.ndarray) -> float:
    """Spectral norm of a matrix ``a``: the square root of the top
    eigenvalue of ``a* a``, one ``eigvalsh`` instead of an SVD.  Rounding
    below zero is clipped away, so the zero matrix gives 0.0.  No verb
    calls it: it scales :func:`states.random_pair_panel`, the tests' oracle
    for the KMS condition."""
    top = eigvalsh(matrix.conj().T @ matrix)[-1]
    return float(np.sqrt(max(float(top), 0.0)))


# ---------------------------------------------------------------------------
# Hermitian decompositions by parity block
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def parity_order(lattice_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The occupation states of even and of odd popcount, each ascending."""
    states = np.arange(dim(lattice_size), dtype=np.int64)
    parity = np.zeros_like(states)
    for k in range(lattice_size):
        parity ^= (states >> k) & 1
    even, odd = states[parity == 0], states[parity == 1]
    even.flags.writeable = odd.flags.writeable = False
    return even, odd


@lru_cache(maxsize=16)
def _parity_grids(lattice_size: int) -> tuple[tuple, tuple]:
    """The :func:`np.ix_` grids of the two :func:`parity_blocks` of each
    parity, built once per chain length."""
    even, odd = parity_order(lattice_size)
    return ((np.ix_(even, even), np.ix_(odd, odd)),
            (np.ix_(even, odd), np.ix_(odd, even)))


def parity_blocks(matrix: np.ndarray, parity: int) -> Iterator[np.ndarray]:
    """The two blocks of ``matrix`` in the :func:`parity_order` whose
    entries have ``parity``, gathered one at a time: the diagonal blocks for
    0, the even-by-odd then the odd-by-even block for 1."""
    for grid in _parity_grids(matrix.shape[0].bit_length() - 1)[parity]:
        yield matrix[grid]


def grading_defect(matrix: np.ndarray, parity: int = 0) -> float:
    """``max |X - (-1)**parity theta(X)|``: ``theta`` negates the
    :func:`parity_blocks` of parity 1, so it is twice the largest entry of
    those of the other parity, read one at a time with their moduli taken in
    place for real data.  A NaN entry of theirs gives NaN."""
    largest = []
    for block in parity_blocks(matrix, 1 - parity):
        real = not np.iscomplexobj(block)
        largest.append(np.max(np.abs(block, out=block if real else None),
                              initial=0.0))
        del block       # before the next one is gathered
    return float(2.0 * np.max(largest))


def spectral_blocks(matrix: np.ndarray) -> list[tuple[np.ndarray | None,
                                                      np.ndarray]]:
    """The diagonal blocks a Hermitian decomposition of ``matrix`` needs,
    each with the occupation states of its rows and columns (``None`` for
    the whole matrix).

    A complex matrix is returned whole, as it is: the dtype alone decides,
    as in :func:`as_float`.  A real matrix whose :func:`parity_blocks` of
    parity 1 are exactly zero splits into its two of parity 0; a single
    nonzero parity-changing entry keeps the whole matrix.
    """
    n = matrix.shape[0]
    if (np.iscomplexobj(matrix) or n < 2 or n & (n - 1)
            or any(map(np.any, parity_blocks(matrix, 1)))):
        return [(None, matrix)]
    return list(zip(parity_order(n.bit_length() - 1),
                    parity_blocks(matrix, 0)))


def eigvalsh(matrix: np.ndarray) -> np.ndarray:
    """The eigenvalues of a Hermitian matrix, ascending, from its
    :func:`spectral_blocks`."""
    return np.sort(np.concatenate([np.linalg.eigvalsh(block)
                                   for _, block in spectral_blocks(matrix)]))


def eigh(matrix: np.ndarray) -> list[tuple[np.ndarray | None, np.ndarray,
                                           np.ndarray]]:
    """``(states, eigenvalues, eigenvectors)`` of each of the
    :func:`spectral_blocks` of a Hermitian matrix."""
    return [(states, *np.linalg.eigh(block))
            for states, block in spectral_blocks(matrix)]


def diagonal_block(matrix: np.ndarray, states: np.ndarray | None) -> np.ndarray:
    """The rows and columns of ``matrix`` on ``states`` (all for ``None``)."""
    return matrix if states is None else matrix[np.ix_(states, states)]


def spectral_map(decomposition, values) -> np.ndarray:
    """``sum_b U_b diag(values[b]) U_b*`` for the blocks ``(states, _, U_b)``
    of :func:`eigh`, each placed on its states and symmetrized, in the
    dtype of the blocks: real for real blocks and real values.  The
    eigenvectors are conjugated in place, so the decomposition is spent."""
    parts = []
    for (states, _, u), vals in zip(decomposition, values):
        scaled = u * vals[None, :]
        part = scaled @ np.conjugate(u, out=u).T
        del scaled
        parts.append((states, hermitian_part(part)))
    if len(parts) == 1 and parts[0][0] is None:
        return parts[0][1]
    n = sum(part.shape[0] for _, part in parts)
    out = np.zeros((n, n), dtype=np.result_type(*(part for _, part in parts)))
    for states, part in parts:
        out[np.ix_(states, states)] = part
    return out


# weight of rho on the kernel, relative to its trace, that rounding explains
_KERNEL_WEIGHT = 1e-12


def trace_log(matrix: np.ndarray, rho: np.ndarray) -> float:
    """``Tr(rho log matrix)`` for a positive semidefinite Hermitian
    ``matrix`` from one :func:`eigh`, ``-inf`` when ``rho`` has weight on
    the kernel: the eigenvalues at the numerical floor ``N eps lambda_max``,
    which rounding alone could give (a higher cutoff counts small genuine
    eigenvalues as kernel)."""
    decomposition = eigh(matrix)
    lam = np.concatenate([w for _, w, _ in decomposition])
    # entry i is sum_j conj(u_ji) (rho u)_ji
    diag = np.concatenate([
        np.real(np.sum(u.conj() * (diagonal_block(rho, states) @ u), 0))
        for states, _, u in decomposition])
    support = lam > lam.size * np.finfo(float).eps * max(float(lam.max()), 0.0)
    if np.sum(diag[~support]) > _KERNEL_WEIGHT * max(1.0, abs(np.trace(rho))):
        return -np.inf
    return float(np.sum(np.log(lam[support]) * diag[support]))


# ---------------------------------------------------------------------------
# column-map encodings (the monomial basis's tables)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _string_signs(lattice_size: int) -> np.ndarray:
    """``signs[i, s]`` = product of ``2 n_k(s) - 1`` over ``k < i``."""
    n = dim(lattice_size)
    states = np.arange(n, dtype=np.int64)
    signs = np.empty((lattice_size + 1, n), dtype=np.float64)
    signs[0] = 1.0
    for k in range(lattice_size):
        signs[k + 1] = signs[k] * (2.0 * ((states >> k) & 1) - 1.0)
    return signs


def annihilator_encoding(site: int, lattice_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Column-map encoding of ``a_site`` on the full chain."""
    if not 0 <= site < lattice_size:
        raise ValueError(f"site {site} out of bounds for chain of {lattice_size}")
    n = dim(lattice_size)
    states = np.arange(n, dtype=np.int64)
    occupied = ((states >> site) & 1).astype(bool)
    perm = np.where(occupied, states ^ (1 << site), -1)
    val = np.where(occupied, _string_signs(lattice_size)[site] + 0.0j, 0.0j)
    return perm, val


def creator_encoding(site: int, lattice_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Column-map encoding of ``a_site*`` on the full chain."""
    if not 0 <= site < lattice_size:
        raise ValueError(f"site {site} out of bounds for chain of {lattice_size}")
    n = dim(lattice_size)
    states = np.arange(n, dtype=np.int64)
    empty = (~((states >> site) & 1).astype(bool))
    perm = np.where(empty, states | (1 << site), -1)
    val = np.where(empty, _string_signs(lattice_size)[site] + 0.0j, 0.0j)
    return perm, val


def site_parity_encoding(site: int, lattice_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Encoding of ``v_site = 2 n_site - 1`` (diagonal)."""
    if not 0 <= site < lattice_size:
        raise ValueError(f"site {site} out of bounds for chain of {lattice_size}")
    n = dim(lattice_size)
    states = np.arange(n, dtype=np.int64)
    val = (2.0 * ((states >> site) & 1) - 1.0) + 0.0j
    return states.copy(), val


def identity_encoding(lattice_size: int) -> tuple[np.ndarray, np.ndarray]:
    n = dim(lattice_size)
    return np.arange(n, dtype=np.int64), np.ones(n, dtype=np.complex128)


def grading_encoding(region: Region) -> tuple[np.ndarray, np.ndarray]:
    """Encoding of the grading unitary ``v_R = prod_{i in R} v_i`` (diagonal)."""
    n = dim(region.lattice_size)
    states = np.arange(n, dtype=np.int64)
    val = np.ones(n, dtype=np.float64)
    for site in region.sites:
        val *= 2.0 * ((states >> site) & 1) - 1.0
    return states.copy(), val.astype(np.complex128)


def encoding_dense(perm: np.ndarray, val: np.ndarray) -> np.ndarray:
    """Dense matrix of a single encoded column map."""
    n = perm.shape[0]
    alive = perm >= 0
    out = np.zeros((n, n), dtype=np.complex128)
    out[perm[alive], np.arange(n)[alive]] = val[alive]
    return out


# ---------------------------------------------------------------------------
# algebra elements and the grading
# ---------------------------------------------------------------------------


@dataclass
class AlgebraElement:
    """An element of the local algebra ``A_support``, held as its small
    representation: the ``2**|support|``-square matrix ``small`` on a chain
    whose site ``k`` is ``support.sites[k]``.

    The type guarantees the support claim, so nothing re-checks it: dense
    input enters only through :meth:`from_matrix`, which refuses a matrix
    outside the support's algebra.  :attr:`matrix` is the dense
    ``2**L``-square view, and arithmetic tracks supports by set union.
    """

    small: np.ndarray
    support: Region

    def __post_init__(self) -> None:
        self.small = as_float(self.small)
        m = dim(len(self.support))
        if self.small.shape != (m, m):
            raise ValueError(f"small matrix of shape {self.small.shape} does "
                             f"not represent support {self.support.sites}")

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, support: Region) -> "AlgebraElement":
        """The element with the dense ``matrix``, refusing (:func:`require`)
        a matrix that does not lie in the algebra of ``support``, or that
        has a NaN entry."""
        matrix = as_float(matrix)
        n = dim(support.lattice_size)
        if matrix.shape != (n, n):
            raise ValueError(f"matrix shape {matrix.shape} does not match "
                             f"chain of {support.lattice_size} sites")
        small = small_representation(matrix, support)
        require(np.max(np.abs(embed(small, support) - matrix)), matrix,
                f"matrix does not lie in the algebra of its support "
                f"{support.sites}")
        return cls(small, support)

    @property
    def matrix(self) -> np.ndarray:
        """The dense ``2**L``-square matrix; ``small`` itself, not a copy,
        when the support is the whole chain."""
        if len(self.support) == self.support.lattice_size:
            return self.small
        return embed(self.small, self.support)

    def small_on(self, region: Region) -> np.ndarray:
        """Small representation in ``A_region`` for a ``region`` containing
        the support, on the chain of the region's own sites."""
        if self.support == region:
            return self.small
        return embed(self.small, self.support.positions_in(region))

    def dagger(self) -> "AlgebraElement":
        return AlgebraElement(self.small.conj().T, self.support)

    def tau(self) -> complex:
        return tau(self.small)

    def norm(self) -> float:
        """Operator (spectral) norm, which the small representation
        preserves: an SVD of ``2**|support|`` rows instead of ``2**L``."""
        return float(np.linalg.norm(self.small, 2))

    def _binary(self, other: "AlgebraElement", op) -> "AlgebraElement":
        union = self.support.union(other.support)
        return AlgebraElement(op(self.small_on(union), other.small_on(union)), union)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self._binary(other, np.add)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self._binary(other, np.subtract)

    def __mul__(self, scalar) -> "AlgebraElement":
        if isinstance(scalar, AlgebraElement):
            raise TypeError("'*' is scalar multiplication; use '@' for "
                            "operator products")
        return AlgebraElement(self.small * scalar, self.support)

    __rmul__ = __mul__

    def __matmul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self._binary(other, np.matmul)


# a on a chain of one site: |0><1|
_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]])


def annihilator(site: int, lattice_size: int) -> AlgebraElement:
    """``a_site`` as an element supported on the single site."""
    return AlgebraElement(_LOWER, Region((site,), lattice_size))


@lru_cache(maxsize=16)
def parity_signs(lattice_size: int) -> np.ndarray:
    """Diagonal of the chain parity ``v_0 ... v_{L-1}``: ``(-1)**L`` on the
    even states of the :func:`parity_order`, ``-(-1)**L`` on the odd ones."""
    even, odd = parity_order(lattice_size)
    signs = np.empty(dim(lattice_size))
    signs[even], signs[odd] = (-1.0) ** lattice_size, -(-1.0) ** lattice_size
    signs.flags.writeable = False
    return signs


def theta_matrix(matrix: np.ndarray, lattice_size: int) -> np.ndarray:
    """Grading automorphism on a dense matrix: conjugation by the chain
    parity, in the matrix's dtype and with no second square array."""
    signs = parity_signs(lattice_size)
    out = matrix * signs[:, None]
    out *= signs[None, :]
    return out


def theta(element: AlgebraElement) -> AlgebraElement:
    """Grading automorphism; support is preserved.  On ``A_S`` it is
    conjugation by ``v_S``, which the reordering carries to the parity of
    the support's own chain."""
    return AlgebraElement(theta_matrix(element.small, len(element.support)),
                          element.support)


def require_odd(small: np.ndarray, name: str) -> None:
    """Refuse (:func:`require`) a small representation whose even part
    exceeds ``1e-12`` of its largest entry (of 1, if that is less)."""
    # an exactly odd small, the usual one, is read with no moduli taken
    if any(map(np.any, parity_blocks(small, 0))):
        require(grading_defect(small, 1), small, f"{name} is not odd")


def require_odd_self_adjoint(element: AlgebraElement, name: str) -> None:
    """Refuse (:func:`require`) an element that is not self-adjoint and
    odd, to ``1e-12`` of its largest entry."""
    require(hermitian_defect(element.small), element.small,
            f"{name} is not self-adjoint")
    require_odd(element.small, name)


def require_odd_pair(a: AlgebraElement, b: AlgebraElement) -> None:
    """Refuse (``ValueError``) what the odd-pair protocol does not take:
    an element that is not odd and self-adjoint
    (:func:`require_odd_self_adjoint`), or two elements whose supports
    overlap."""
    require_odd_self_adjoint(a, "first element")
    require_odd_self_adjoint(b, "second element")
    if not a.support.is_orthogonal(b.support):
        raise ValueError(f"odd elements on {a.support.sites} and "
                         f"{b.support.sites} overlap; the pair needs "
                         "disjoint supports")


# ---------------------------------------------------------------------------
# the mode reordering and the maps built from it
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def mode_reordering(region: Region) -> tuple[np.ndarray, np.ndarray]:
    """Signed permutation renumbering the modes as ``region`` then the rest.

    Returns ``(index, sign)``, both of shape ``(2**(L-|R|), 2**|R|)``: entry
    ``[y, x]`` is the occupation state whose region sites, in ascending
    order, spell the bits of ``x`` and whose complement sites spell the bits
    of ``y``, and the sign ``U`` puts on it.  The unitary
    ``U |index[y, x]> = sign[y, x] |x + 2**|R| y>`` carries the annihilator
    of the ``j``-th mode in the new order to the Jordan-Wigner annihilator
    of site ``j`` of a fresh chain, so ``U A_R U*`` is ``M_{2**|R|} (x) 1``.

    Moving a region site past a lower complement site reorders two
    generators; with parity ``v = 2 n - 1`` the string picks up ``-1`` on
    *empty* sites, so the sign is ``(-1)**`` the number of such inversions
    in which both modes are empty.
    """
    lattice = region.lattice_size
    r = len(region)
    order = region.sites + region.complement().sites
    new = np.arange(dim(lattice), dtype=np.int64)
    index = np.zeros_like(new)
    for j, site in enumerate(order):
        index |= ((new >> j) & 1) << site
    empty = ~index
    inversions = np.zeros_like(new)
    for q in region.sites:
        lower = [c for c in order[r:] if c < q]
        inversions += ((empty >> q) & 1) * sum((empty >> c) & 1 for c in lower)
    sign = 1.0 - 2.0 * (inversions & 1)
    shape = (dim(lattice - r), dim(r))
    index, sign = index.reshape(shape), sign.reshape(shape)
    index.flags.writeable = sign.flags.writeable = False
    return index, sign


@lru_cache(maxsize=64)
def _parity_gather(region: Region) -> tuple[np.ndarray, np.ndarray | None]:
    """The :func:`mode_reordering` of ``region`` by the region's states,
    ``(index, sign)`` of shape ``(2**|R|, 2**(L - |R|))``, with those states
    in the :func:`parity_order`: row ``x`` holds the occupation states whose
    region sites spell the ``x``-th state of that order, even ones first.
    ``sign`` is ``None`` when every sign is ``+1``, as on a prefix region
    ``0, ..., r - 1``, which no reordering moves past another mode."""
    index, sign = mode_reordering(region)
    order = np.concatenate(parity_order(len(region)))
    index, sign = index.T[order], sign.T[order]
    index.flags.writeable = sign.flags.writeable = False
    return index, None if np.all(sign > 0) else sign


def _signed_blocks(small: np.ndarray, region: Region) -> np.ndarray:
    """The ``(N/m) x m x m`` diagonal blocks of ``U* (1 (x) small) U`` for
    the :func:`mode_reordering` ``U`` of ``region``, ``sign[y, i] small[i,
    j] sign[y, j]``, in ``small``'s dtype (float64 at least): one copy of
    ``small`` per block row, with the signs multiplied in place."""
    index, sign = mode_reordering(region)
    m = index.shape[1]
    if small.shape != (m, m):
        raise ValueError(f"small matrix of shape {small.shape} does not "
                         f"represent a block of size {m}")
    blocks = np.empty((index.shape[0], m, m),
                      dtype=np.result_type(small, np.float64))
    blocks[...] = small
    blocks *= sign[:, :, None]
    blocks *= sign[:, None, :]
    return blocks


def small_representation(matrix: np.ndarray, region: Region) -> np.ndarray:
    """Image of ``matrix`` in the standard ``2**|R|`` copy of ``A_region``.

    The normalized fermionic partial trace over the complement: the sum of
    the diagonal blocks of ``U matrix U*`` (see :func:`mode_reordering`)
    divided by their number.  On ``A_region`` this is the unital
    isomorphism onto ``M_{2**|R|}`` (operator norms are preserved, the
    ambient trace picks up the multiplicity ``2**L / 2**|R|``); anything
    orthogonal to the region's algebra is discarded.  Only the diagonal
    blocks are read.
    """
    index, sign = mode_reordering(region)
    blocks = matrix[index[:, :, None], index[:, None, :]]
    blocks *= sign[:, :, None]
    blocks *= sign[:, None, :]
    return blocks.sum(axis=0) / index.shape[0]


def embed(small: np.ndarray, region: Region) -> np.ndarray:
    """The element of ``A_region`` whose small representation is ``small``:
    ``U* (1 (x) small) U``, in ``small``'s dtype (float64 at least)."""
    blocks = _signed_blocks(small, region)
    index, _ = mode_reordering(region)
    out = np.zeros((index.size, index.size), dtype=blocks.dtype)
    out[index[:, :, None], index[:, None, :]] = blocks
    return out


def add_embedded(out: np.ndarray, small: np.ndarray, region: Region) -> None:
    """``out += embed(small, region)`` in place, touching only the
    ``2**L * 2**|R|`` entries the embedding fills (each exactly once).

    A complex ``small`` into a real ``out`` is refused (``TypeError``):
    numpy would drop its imaginary part with only a warning."""
    if np.iscomplexobj(small) and not np.iscomplexobj(out):
        raise TypeError("cannot add a complex element into a real matrix; "
                        "make the matrix complex first")
    index, _ = mode_reordering(region)
    out[index[:, :, None], index[:, None, :]] += _signed_blocks(small, region)


def local_times(small: np.ndarray, region: Region,
                matrix: np.ndarray) -> np.ndarray:
    """``embed(small, region) @ matrix`` for an odd ``small``, without
    forming the embedding.

    Row ``index[x, y]`` of the product (:func:`_parity_gather`) is
    ``sign[x, y]`` times row ``x`` of ``small`` applied to the signed rows
    ``index[:, y]`` of ``matrix``.  So the rows are gathered, multiplied by
    ``small`` and scattered back: ``O(N k m)`` for ``k`` columns instead of
    ``O(N**2 k)``.  An odd ``small`` maps the rows of the odd states onto
    the even ones and back by its two :func:`parity_blocks` of parity 1,
    half the flops of the whole; ``small`` with an even part is refused
    (:func:`require_odd`).
    """
    index, sign = _parity_gather(region)
    m = index.shape[0]
    if small.shape != (m, m):
        raise ValueError(f"small matrix of shape {small.shape} does not "
                         f"represent a block of size {m}")
    if matrix.ndim != 2 or matrix.shape[0] != index.size:
        raise ValueError(f"matrix of shape {matrix.shape} does not act on "
                         f"the {index.size} states of the chain")
    require_odd(small, "small matrix")
    rows = matrix[index].astype(np.result_type(small, matrix), copy=False)
    if sign is not None:
        rows *= sign[:, :, None]
    half = (m + 1) // 2                  # the even states, first
    even_odd, odd_even = parity_blocks(small, 1)
    flat = rows.reshape(m, rows[0].size)
    # np.dot, not matmul: it hands even the 1 x 1 blocks of a one-site
    # element to BLAS, 2.5 times faster on a row of 8192 entries
    top = np.dot(even_odd, flat[half:])
    # top has read the odd rows, so the product's odd rows take their place
    np.dot(odd_even, flat[:half], out=flat[half:])
    flat[:half] = top
    del top                              # before the output is allocated
    if sign is not None:
        rows *= sign[:, :, None]
    out = np.empty((index.size, rows.shape[2]), dtype=rows.dtype)
    out[index] = rows
    return out


def conditional_expectation_matrix(matrix: np.ndarray, region: Region) -> np.ndarray:
    """Tau-preserving conditional expectation onto ``A_region`` (dense input)."""
    return embed(small_representation(matrix, region), region)


# ---------------------------------------------------------------------------
# monomial bases: tables kept as an oracle
# ---------------------------------------------------------------------------

_FACTOR_NORM_SQ = (1.0, 0.5, 0.5, 1.0)   # per-site factors 1, a, a*, v
_FACTOR_PARITY = (0, 1, 1, 0)


def _factor_words(r: int):
    """Per-site factor kinds of each monomial over ``r`` sites, in basis
    order (the first site is the most significant base-4 digit)."""
    return itertools.product(range(4), repeat=r)


def _label(word, sites) -> str:
    parts = [("", f"a{s}", f"a{s}*", f"v{s}")[kind]
             for kind, s in zip(word, sites) if kind]
    return " ".join(parts) if parts else "1"


@lru_cache(maxsize=16)
def _site_factor_encodings(lattice_size: int):
    out = []
    for site in range(lattice_size):
        out.append(
            (
                identity_encoding(lattice_size),
                annihilator_encoding(site, lattice_size),
                creator_encoding(site, lattice_size),
                site_parity_encoding(site, lattice_size),
            )
        )
    return out


@dataclass
class Monomial:
    """One basis monomial: product of per-site factors over ascending sites."""

    label: str
    sites: tuple[int, ...]       # sites carrying a non-identity factor
    parity: int                  # number of a / a* factors mod 2
    norm_sq: float               # tau(m* m)
    perm: np.ndarray
    val: np.ndarray

    def dense(self) -> np.ndarray:
        return encoding_dense(self.perm, self.val)


@dataclass
class MonomialBasis:
    """The tau-orthogonal product basis (dimension ``4**|R|``) of ``A_R``.

    Rows of ``P``/``V`` are the column-map encodings.
    """

    region: Region
    lattice_size: int
    monomials: list[Monomial]
    P: np.ndarray = field(repr=False)
    V: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.monomials)

    def __getitem__(self, k: int) -> Monomial:
        return self.monomials[k]

    @property
    def labels(self) -> list[str]:
        return [m.label for m in self.monomials]

    @property
    def norms_sq(self) -> np.ndarray:
        return np.array([m.norm_sq for m in self.monomials])

    def coefficients(self, matrix: np.ndarray) -> np.ndarray:
        """Expansion coefficients ``tau(m_k* A) / tau(m_k* m_k)``."""
        return kernels.inner_batch(self.P, self.V, np.ascontiguousarray(matrix,
                                   dtype=np.complex128)) / self.norms_sq

    def assemble(self, coeffs: np.ndarray) -> np.ndarray:
        """Dense ``sum_k coeffs[k] m_k``."""
        return kernels.scatter(self.P, self.V, np.ascontiguousarray(coeffs,
                               dtype=np.complex128))

    def project(self, matrix: np.ndarray) -> np.ndarray:
        """Orthogonal projection of ``matrix`` onto the span of the family."""
        return self.assemble(self.coefficients(matrix))

    def expectations(self, density: np.ndarray) -> np.ndarray:
        """``Tr(density @ m_k)`` for every monomial."""
        return kernels.expect_batch(self.P, self.V,
                                    np.ascontiguousarray(density, dtype=np.complex128))


def _basis_size_guard(n_monomials: int, n: int) -> None:
    if n_monomials * n > _BASIS_ENTRY_LIMIT:
        raise ValueError(
            f"monomial table of {n_monomials} x {n} entries exceeds the "
            f"supported size; use a smaller region or chain"
        )


@lru_cache(maxsize=64)
def monomial_basis(region: Region) -> MonomialBasis:
    """The tau-orthogonal monomial basis of the local algebra on ``region``."""
    lattice = region.lattice_size
    n = dim(lattice)
    _basis_size_guard(4 ** len(region), n)
    factors = _site_factor_encodings(lattice)

    p0, v0 = identity_encoding(lattice)
    P = p0[None, :].copy()
    V = v0[None, :].copy()
    for site in region.sites:
        k = P.shape[0]
        newP = np.empty((k * 4, n), dtype=np.int64)
        newV = np.empty((k * 4, n), dtype=np.complex128)
        for f in range(4):
            pf, vf = factors[site][f]
            newP[f::4], newV[f::4] = kernels.compose_batch(P, V, pf, vf)
        P, V = newP, newV

    monomials = [
        Monomial(
            label=_label(word, region.sites),
            sites=tuple(s for kind, s in zip(word, region.sites) if kind),
            parity=sum(_FACTOR_PARITY[kind] for kind in word) % 2,
            norm_sq=float(np.prod([_FACTOR_NORM_SQ[kind] for kind in word])),
            perm=P[k],
            val=V[k],
        )
        for k, word in enumerate(_factor_words(len(region)))
    ]
    return MonomialBasis(region=region, lattice_size=lattice, monomials=monomials, P=P, V=V)


# ---------------------------------------------------------------------------
# random elements (for tests, samplers, and probe panels)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _entry_scale(r: int) -> np.ndarray:
    """The scale ``sqrt(2**(r - popcount(i ^ j)))`` of entry ``(i, j)`` of
    :func:`random_element` on ``r`` sites."""
    states = np.arange(dim(r), dtype=np.int64)
    differ = states[:, None] ^ states[None, :]
    flips = np.zeros_like(differ)
    for k in range(r):
        flips += (differ >> k) & 1
    scale = np.sqrt(2.0 ** (r - flips))
    scale.flags.writeable = False
    return scale


def random_element(region: Region, rng: np.random.Generator, *,
                   parity: int | None = None,
                   hermitian: bool = False) -> AlgebraElement:
    """Random element of ``A_region`` with optional fixed parity / adjointness.

    The law is that of standard complex Gaussian coefficients over the
    monomial basis, drawn without the basis: in the small representation
    the entries are independent complex Gaussians with
    ``E|M_ij|^2 = 2 * 2**(number of sites where i and j agree)``, and entry
    ``(i, j)`` has the parity read off :func:`parity_signs`.  With
    ``hermitian`` the result is averaged with its adjoint, which preserves
    the parity constraint (the grading commutes with the adjoint).
    """
    if parity not in (None, 0, 1):
        raise ValueError(f"parity must be 0, 1 or None, got {parity!r}")
    scale = _entry_scale(len(region))
    mat = gaussian(scale.shape, rng, np.complex128)
    mat *= scale
    if parity is not None:
        signs = parity_signs(len(region))
        mat[np.outer(signs, signs) != (-1.0) ** parity] = 0.0
    if hermitian:
        hermitian_part(mat)
    return AlgebraElement(mat, region)
