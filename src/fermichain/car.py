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
averaging ``A`` with ``theta(A)``.

Local structure goes through one primitive, :func:`mode_reordering`: the
signed permutation of occupation states that renumbers the modes so that a
region's sites come first, in ascending order, followed by the rest.  In the
reordered basis the region's algebra is ``M_{2**|R|} (x) 1``, so

- :func:`small_representation` is the normalized fermionic partial trace
  over the complement (Friis, Lee & Bruschi, PRA 87, 022338 (2013));
- :func:`embed` is its inverse on ``A_R``: ``S -> S (x) 1``, and
  :func:`add_embedded` sums terms;
- :func:`local_times` multiplies a matrix by ``embed(S)`` on the left
  through ``S`` alone;
- the tau-preserving conditional expectation onto ``A_R`` is
  ``embed o small_representation``;
- :func:`commutant_reordering` twists the complement's reordering by
  ``v_R`` so that the commutant of ``A_R`` is block diagonal as well.

Each map touches only the ``2**L * 2**|R|`` entries of the block diagonal
in the reordered basis, never the whole matrix.

Every Hermitian decomposition of the package goes through one helper,
:func:`spectral_blocks`.  An even operator commutes with the grading, so in
the parity order (:func:`parity_order`: even-popcount states, then odd) it
is ``diag(X_+, X_-)``, and every preset is real.  The helper hands a real
matrix whose parity-changing blocks are exactly zero over as its two real
``2**L / 2``-square blocks, any other real matrix whole and real, and a
matrix with a nonzero imaginary part whole and as it is.  :func:`eigvalsh`,
:func:`eigh` and :func:`spectral_map` are its thin users.  With one BLAS
thread, the two real half-size blocks of the ``hopping`` Hamiltonian
decompose 6.6 times faster than the complex whole at ``N = 256`` and 17
times faster at ``N = 1024``.

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

Monomials in the generators are "column maps" (each occupation state is sent
to at most one occupation state); the encoding (:mod:`fermichain.kernels`)
serves only the monomial basis of a region: per site, one factor out of

    { 1,  a_i,  a_i*,  v_i }

taken over the sites of the region in ascending order.  Distinct such
products are mutually orthogonal for the normalized trace
``tau = Tr / 2**L``, with squared norms ``(1/2)**(number of a or a*
factors)``.  Nothing in the package calls the basis: its tables of
``4**|R| * 2**L`` entries are the independent oracle the tests hold the
maps above to.
"""

from __future__ import annotations

import itertools
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


def hermitian_defect(matrix: np.ndarray) -> float:
    """Largest entry modulus of ``matrix - matrix*``, with one square
    temporary for real data (the moduli are taken in place)."""
    diff = matrix - matrix.conj().T
    return float(np.max(np.abs(diff, out=None if np.iscomplexobj(diff)
                                else diff)))


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


def spectral_blocks(matrix: np.ndarray) -> list[tuple[np.ndarray | None,
                                                      np.ndarray]]:
    """The diagonal blocks a Hermitian decomposition of ``matrix`` needs,
    each with the occupation states of its rows and columns (``None`` for
    the whole matrix).

    Complex data whose imaginary part is not exactly zero is returned whole,
    as it is: no copy and no parity test.  Otherwise only the real part is
    decomposed, and when both parity-changing blocks of it are exactly zero
    (the matrix commutes with the grading, as every even operator does), it
    splits into the two real blocks of :func:`parity_order`; a single
    nonzero parity-changing entry keeps the whole real matrix.  The branch
    reads only the data, and every branch gives the same spectrum: the
    blocks' spectra together are the matrix's.
    """
    if np.iscomplexobj(matrix) and np.any(matrix.imag):
        return [(None, matrix)]
    real = matrix.real
    n = real.shape[0]
    if n < 2 or n & (n - 1):
        return [(None, real)]
    even, odd = parity_order(n.bit_length() - 1)
    if np.any(real[np.ix_(even, odd)]) or np.any(real[np.ix_(odd, even)]):
        return [(None, real)]
    return [(even, real[np.ix_(even, even)]), (odd, real[np.ix_(odd, odd)])]


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
        part += part.conj().T
        part *= 0.5
        parts.append((states, part))
    if len(parts) == 1 and parts[0][0] is None:
        return parts[0][1]
    n = sum(part.shape[0] for _, part in parts)
    out = np.zeros((n, n), dtype=np.result_type(*(part for _, part in parts)))
    for states, part in parts:
        out[np.ix_(states, states)] = part
    return out


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
        """The element with the dense ``matrix``, refusing (``ValueError``) a
        matrix that does not lie in the algebra of ``support``."""
        matrix = as_float(matrix)
        n = dim(support.lattice_size)
        if matrix.shape != (n, n):
            raise ValueError(f"matrix shape {matrix.shape} does not match "
                             f"chain of {support.lattice_size} sites")
        small = small_representation(matrix, support)
        scale = max(1.0, float(np.max(np.abs(matrix))))
        if np.max(np.abs(embed(small, support) - matrix)) > 1e-12 * scale:
            raise ValueError(f"matrix does not lie in the algebra of its "
                             f"support {support.sites}")
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

    def is_self_adjoint(self, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.small - self.small.conj().T)) <= tol)

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
    """Diagonal of the full-chain grading unitary ``v_0 ... v_{L-1}``."""
    _, val = grading_encoding(Region.full(lattice_size))
    return val.real.copy()


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


def require_odd_self_adjoint(element: AlgebraElement, name: str) -> None:
    """Refuse (``ValueError``) an element that is not self-adjoint and odd,
    to ``1e-12`` of its largest entry."""
    scale = max(1.0, float(np.max(np.abs(element.small))))
    if not element.is_self_adjoint(1e-12 * scale):
        raise ValueError(f"{name} is not self-adjoint")
    if np.max(np.abs((element + theta(element)).small)) > 1e-12 * scale:
        raise ValueError(f"{name} is not odd")


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


def block_average(matrix: np.ndarray,
                  reordering: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Mean of the diagonal blocks of ``U matrix U*`` for the signed
    reordering ``U`` given as ``(index, sign)``; reads only those blocks."""
    index, sign = reordering
    blocks = matrix[index[:, :, None], index[:, None, :]]
    blocks *= sign[:, :, None]
    blocks *= sign[:, None, :]
    return blocks.sum(axis=0) / index.shape[0]


def _signed_blocks(small: np.ndarray,
                   reordering: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The ``(N/m) x m x m`` diagonal blocks of ``U* (1 (x) small) U``,
    ``sign[y, i] small[i, j] sign[y, j]``, in ``small``'s dtype (float64 at
    least): one copy of ``small`` per block row, with the signs multiplied
    in place."""
    index, sign = reordering
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


def block_embed(small: np.ndarray,
                reordering: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """``U* (1 (x) small) U``, the inverse of :func:`block_average` on the
    block-diagonal matrices, in ``small``'s dtype (float64 at least)."""
    index, _ = reordering
    blocks = _signed_blocks(small, reordering)
    out = np.zeros((index.size, index.size), dtype=blocks.dtype)
    out[index[:, :, None], index[:, None, :]] = blocks
    return out


def small_representation(matrix: np.ndarray, region: Region) -> np.ndarray:
    """Image of ``matrix`` in the standard ``2**|R|`` copy of ``A_region``.

    The normalized fermionic partial trace over the complement: the sum of
    the diagonal blocks of ``U matrix U*`` (see :func:`mode_reordering`)
    divided by their number.  On ``A_region`` this is the unital
    isomorphism onto ``M_{2**|R|}`` (operator norms are preserved, the
    ambient trace picks up the multiplicity ``2**L / 2**|R|``); anything
    orthogonal to the region's algebra is discarded.
    """
    return block_average(matrix, mode_reordering(region))


def embed(small: np.ndarray, region: Region) -> np.ndarray:
    """The element of ``A_region`` whose small representation is ``small``."""
    return block_embed(small, mode_reordering(region))


def add_embedded(out: np.ndarray, small: np.ndarray, region: Region) -> None:
    """``out += embed(small, region)`` in place, touching only the
    ``2**L * 2**|R|`` entries the embedding fills (each exactly once).

    A complex ``small`` into a real ``out`` is refused (``TypeError``):
    numpy would drop its imaginary part with only a warning."""
    if np.iscomplexobj(small) and not np.iscomplexobj(out):
        raise TypeError("cannot add a complex element into a real matrix; "
                        "make the matrix complex first")
    reordering = mode_reordering(region)
    index, _ = reordering
    out[index[:, :, None], index[:, None, :]] += _signed_blocks(small,
                                                                reordering)


def local_times(small: np.ndarray, region: Region,
                matrix: np.ndarray) -> np.ndarray:
    """``embed(small, region) @ matrix`` without forming the embedding.

    Row ``index[y, x]`` of the product is ``sign[y, x]`` times row ``x`` of
    ``small`` applied to the signed rows ``index[y, :]`` of ``matrix``, so
    the rows are gathered, multiplied by ``small`` in one
    ``(m, m) @ (m, N * k / m)`` product and scattered back:
    ``O(N * k * m)`` for ``k`` columns instead of ``O(N**2 * k)``.
    """
    index, sign = mode_reordering(region)
    m = index.shape[1]
    if small.shape != (m, m):
        raise ValueError(f"small matrix of shape {small.shape} does not "
                         f"represent a block of size {m}")
    if matrix.ndim != 2 or matrix.shape[0] != index.size:
        raise ValueError(f"matrix of shape {matrix.shape} does not act on "
                         f"the {index.size} states of the chain")
    signs = sign.T[:, :, None]
    rows = matrix[index.T].astype(np.result_type(small, matrix), copy=False)
    rows *= signs
    product = (small @ rows.reshape(m, -1)).reshape(rows.shape)
    product *= signs
    out = rows.reshape(index.size, -1)   # the gathered rows are spent
    out[index.T] = product
    return out


def conditional_expectation_matrix(matrix: np.ndarray, region: Region) -> np.ndarray:
    """Tau-preserving conditional expectation onto ``A_region`` (dense input)."""
    return embed(small_representation(matrix, region), region)


@lru_cache(maxsize=64)
def commutant_reordering(region: Region) -> tuple[np.ndarray, np.ndarray]:
    """The complement's :func:`mode_reordering`, twisted so that the
    commutant of ``A_region`` is ``M_{2**|R^c|} (x) 1`` in it.

    The commutant is the image of ``S -> E(S_even) + v_R E(S_odd)``, ``E``
    the complement's :func:`embed`, and is strictly larger than the
    complement's algebra; ``stability.ConstraintProjection`` projects onto
    it in mode ``"lts_prime"``.  ``v_R`` reads only the region's modes, so
    it is a constant ``s_y = +-1`` on each block row ``y`` of the
    complement's reordering, and block ``y`` of the image is
    ``S_even + s_y S_odd``: ``S`` itself, or ``S`` conjugated by the
    complement's parity.  Folding that conjugation into the sign multiplies
    entry ``[y, x]`` by ``s_y ** popcount(x)``.
    """
    if region.is_empty:
        raise ValueError("the commutant of the empty region is the full algebra")
    index, sign = mode_reordering(region.complement())
    block_grading = grading_encoding(region)[1].real[index[:, 0]]
    states = np.arange(index.shape[1])
    odd = np.array([bin(x).count("1") % 2 for x in states], dtype=bool)
    twisted = sign * np.where(odd[None, :], block_grading[:, None], 1.0)
    twisted.flags.writeable = False
    return index, twisted


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
def _element_tables(r: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """What :func:`random_element` needs of a region of ``r`` sites: the
    entry scale ``sqrt(2**(r - flips))``, ``flips[i, j] = popcount(i ^ j)``,
    and for each parity ``p`` the mask of the entries outside it, which an
    element of parity ``p`` has zero."""
    states = np.arange(dim(r), dtype=np.int64)
    differ = states[:, None] ^ states[None, :]
    flips = np.zeros_like(differ)
    for k in range(r):
        flips += (differ >> k) & 1
    scale = np.sqrt(2.0 ** (r - flips))
    outside = (flips % 2 != 0, flips % 2 != 1)
    for table in (scale, *outside):
        table.flags.writeable = False
    return scale, outside


def random_element(region: Region, rng: np.random.Generator, *,
                   parity: int | None = None,
                   hermitian: bool = False) -> AlgebraElement:
    """Random element of ``A_region`` with optional fixed parity / adjointness.

    The law is that of standard complex Gaussian coefficients over the
    monomial basis, drawn without the basis: in the small representation
    the entries are independent complex Gaussians with
    ``E|M_ij|^2 = 2 * 2**(number of sites where i and j agree)``, and entry
    ``(i, j)`` has parity ``popcount(i ^ j) mod 2``.  With ``hermitian`` the
    result is averaged with its adjoint, which preserves the parity
    constraint (the grading commutes with the adjoint).  The scale and the
    parity masks depend only on ``|region|`` and are cached.
    """
    if parity not in (None, 0, 1):
        raise ValueError(f"parity must be 0, 1 or None, got {parity!r}")
    r = len(region)
    scale, outside = _element_tables(r)
    mat = np.empty(scale.shape, dtype=np.complex128)
    mat.real = rng.standard_normal(scale.shape)
    mat.imag = rng.standard_normal(scale.shape)
    mat *= scale
    if parity is not None:
        mat[outside[parity]] = 0.0
    if hermitian:
        mat = (mat + mat.conj().T) / 2.0
    return AlgebraElement(mat, region)
