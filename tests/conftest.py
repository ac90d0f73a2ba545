import numpy as np
from hypothesis import HealthCheck, settings

# matrix work dominates the runtime of a single example, so per-example
# deadlines only produce noise; keep example counts modest instead
settings.register_profile(
    "fermichain",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("fermichain")


def kron_chain(factors):
    """Independent construction of chain operators: plain Kronecker products,
    site 0 as the least significant tensor slot (rightmost factor)."""
    out = np.array([[1.0]])
    for factor in factors:
        out = np.kron(out, factor)
    return out


LOWER = np.array([[0.0, 1.0], [0.0, 0.0]])   # |0><1| on one site
PARITY = np.diag([-1.0, 1.0])                # -1 on empty, +1 on occupied
EYE2 = np.eye(2)


def oracle_annihilator(site: int, lattice_size: int) -> np.ndarray:
    """Reference annihilator built without the package's operator layer."""
    return kron_chain([EYE2] * (lattice_size - 1 - site) + [LOWER]
                      + [PARITY] * site)


def _mode_unit(a: np.ndarray, row: int, col: int) -> np.ndarray:
    """The word in one mode's generator carrying occupation ``col`` to
    ``row``: a a*, a, a* or a* a."""
    words = {(0, 0): a @ a.T, (0, 1): a, (1, 0): a.T, (1, 1): a.T @ a}
    return words[(row, col)]


def oracle_local(small: np.ndarray, sites, lattice_size: int) -> np.ndarray:
    """Reference dense matrix of the element of ``A_sites`` whose small
    representation is ``small``, built without the mode reordering.

    The isomorphism sends mode ``k`` of a chain of ``len(sites)`` modes to
    site ``sites[k]``.  Each matrix unit ``E_xy`` of the small chain is, up
    to a sign read off its oracle matrix, the ordered product over the modes
    of the one-mode words of :func:`_mode_unit`; the same product of the
    chain's oracle annihilators is its image.
    """
    r = len(sites)
    m, n = 2 ** r, 2 ** lattice_size
    mode = [oracle_annihilator(k, r) for k in range(r)]
    site = [oracle_annihilator(s, lattice_size) for s in sites]
    out = np.zeros((n, n), dtype=np.complex128)
    for x in range(m):
        for y in range(m):
            word_small, word = np.eye(m), np.eye(n)
            for k in range(r):
                bits = ((x >> k) & 1, (y >> k) & 1)
                word_small = word_small @ _mode_unit(mode[k], *bits)
                word = word @ _mode_unit(site[k], *bits)
            out += small[x, y] * word_small[x, y] * word
    return out


def oracle_parity(lattice_size: int) -> np.ndarray:
    """The chain parity ``v_0 ... v_{L-1}`` as a Kronecker product."""
    return kron_chain([PARITY] * lattice_size)
