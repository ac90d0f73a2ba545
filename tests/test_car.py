"""The operator layer against an independent Kronecker-product oracle.

Everything here is exact integer arithmetic on signs underneath, so most
assertions use zero or near-machine tolerances on purpose.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fermichain import car
from fermichain.regions import Region
from fermichain.stability import constraint_family
from fermichain.states import DensityState

from conftest import oracle_annihilator, oracle_local, oracle_parity


def comm(a, b):
    return a @ b - b @ a


def anti(a, b):
    return a @ b + b @ a


# ---------------------------------------------------------------------------
# generators and relations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lattice", [1, 2, 3, 5, 7])
def test_annihilators_match_kron_oracle(lattice):
    for site in range(lattice):
        ours = car.annihilator(site, lattice).matrix
        assert np.array_equal(ours, oracle_annihilator(site, lattice))


def test_creator_is_adjoint_of_annihilator():
    for site in range(4):
        creator = car.annihilator(site, 4).dagger()
        assert creator.support.sites == (site,)
        assert np.array_equal(creator.matrix, oracle_annihilator(site, 4).T)


@pytest.mark.parametrize("lattice", [2, 4, 6])
def test_car_relations_all_pairs(lattice):
    n = car.dim(lattice)
    ann = [car.annihilator(i, lattice).matrix for i in range(lattice)]
    for i in range(lattice):
        for j in range(lattice):
            assert np.max(np.abs(anti(ann[i], ann[j]))) == 0.0
            want = np.eye(n) if i == j else 0.0
            assert np.max(np.abs(anti(ann[i], ann[j].conj().T) - want)) == 0.0


def test_number_operator_is_projector_with_half_trace():
    for site in range(3):
        a = car.annihilator(site, 3)
        num = (a.dagger() @ a).matrix
        assert np.array_equal(num @ num, num)
        assert np.trace(num).real == car.dim(3) / 2


def test_annihilator_rejects_bad_site():
    with pytest.raises(ValueError):
        car.annihilator(3, 3)
    with pytest.raises(ValueError):
        car.annihilator(-1, 3)


# ---------------------------------------------------------------------------
# grading
# ---------------------------------------------------------------------------


def test_theta_is_involutive_automorphism():
    lattice = 4
    rng = np.random.default_rng(5)
    x = car.random_element(Region.full(lattice), rng)
    y = car.random_element(Region.full(lattice), rng)
    tx = car.theta(x).matrix
    assert np.max(np.abs(car.theta_matrix(tx, lattice) - x.matrix)) == 0.0
    prod = car.theta_matrix(x.matrix @ y.matrix, lattice)
    assert np.max(np.abs(prod - tx @ car.theta(y).matrix)) < 1e-12


def test_theta_negates_generators():
    for site in range(4):
        a = car.annihilator(site, 4)
        assert np.array_equal(car.theta(a).matrix, -a.matrix)


def test_theta_is_conjugation_by_grading_unitary():
    lattice = 4
    u = np.diag(car.grading_encoding(Region.full(lattice))[1])
    assert np.array_equal(u, u.conj().T)
    assert np.array_equal(u @ u, np.eye(car.dim(lattice)))
    rng = np.random.default_rng(8)
    x = car.random_element(Region.full(lattice), rng).matrix
    assert np.max(np.abs(u @ x @ u - car.theta_matrix(x, lattice))) < 1e-12


def test_grading_unitary_of_region_is_product_of_site_parities():
    lattice = 5
    region = Region.of([1, 3], lattice)
    v1 = np.diag(car.grading_encoding(Region.of([1], lattice))[1])
    v3 = np.diag(car.grading_encoding(Region.of([3], lattice))[1])
    assert np.array_equal(np.diag(car.grading_encoding(region)[1]), v1 @ v3)


def test_even_odd_split_properties():
    lattice = 4
    rng = np.random.default_rng(11)
    x = car.random_element(Region.full(lattice), rng)
    even = 0.5 * (x + car.theta(x))
    odd = 0.5 * (x - car.theta(x))
    assert np.max(np.abs((even + odd).matrix - x.matrix)) == 0.0
    assert np.array_equal(car.theta(even).matrix, even.matrix)
    assert np.array_equal(car.theta(odd).matrix, -odd.matrix)


def test_parity_products_respect_grading():
    # even*even and odd*odd are even, even*odd is odd
    lattice = 3
    rng = np.random.default_rng(21)
    even = car.random_element(Region.full(lattice), rng, parity=0).matrix
    odd = car.random_element(Region.full(lattice), rng, parity=1).matrix
    th = lambda m: car.theta_matrix(m, lattice)
    assert np.max(np.abs(th(even @ even) - even @ even)) < 1e-12
    assert np.max(np.abs(th(odd @ odd) - odd @ odd)) < 1e-12
    assert np.max(np.abs(th(even @ odd) + even @ odd)) < 1e-12


@pytest.mark.parametrize("lattice", [4, 6])
def test_graded_locality_on_disjoint_regions(lattice):
    left = Region.of(range(lattice // 2), lattice)
    right = left.complement()
    rng = np.random.default_rng(31)
    even_l = car.random_element(left, rng, parity=0).matrix
    even_r = car.random_element(right, rng, parity=0).matrix
    odd_l = car.random_element(left, rng, parity=1).matrix
    odd_r = car.random_element(right, rng, parity=1).matrix
    scale = max(np.max(np.abs(m)) for m in (even_l, even_r, odd_l, odd_r)) ** 2
    assert np.max(np.abs(comm(even_l, even_r))) < 1e-12 * scale
    assert np.max(np.abs(comm(even_l, odd_r))) < 1e-12 * scale
    assert np.max(np.abs(comm(odd_l, even_r))) < 1e-12 * scale
    assert np.max(np.abs(anti(odd_l, odd_r))) < 1e-12 * scale


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


def test_element_arithmetic_tracks_support():
    lattice = 4
    a = car.annihilator(0, lattice)
    b = car.annihilator(2, lattice)
    assert (a + b).support.sites == (0, 2)
    assert (a @ b).support.sites == (0, 2)
    assert a.dagger().support.sites == (0,)
    assert (2.0 * a).support.sites == (0,)
    with pytest.raises(TypeError):
        a * b


def draw_support(data, lattice):
    """A contiguous or a scattered support of one to three sites."""
    size = data.draw(st.integers(min_value=1, max_value=min(lattice, 3)))
    if data.draw(st.booleans()):
        start = data.draw(st.integers(min_value=0, max_value=lattice - size))
        return Region.of(range(start, start + size), lattice)
    sites = data.draw(st.sets(st.integers(min_value=0, max_value=lattice - 1),
                              min_size=size, max_size=size))
    return Region.of(sites, lattice)


@given(st.integers(min_value=1, max_value=6), st.data())
def test_elements_on_their_support_match_the_kron_oracle(lattice, data):
    # every operation on the small representations against the same
    # operation on dense matrices built from Kronecker products alone
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    parity = st.sampled_from([0, 1, None])
    x = car.random_element(draw_support(data, lattice), rng,
                           parity=data.draw(parity))
    y = car.random_element(draw_support(data, lattice), rng,
                           parity=data.draw(parity))
    dx = oracle_local(x.small, x.support.sites, lattice)
    dy = oracle_local(y.small, y.support.sites, lattice)
    n = car.dim(lattice)
    scale = max(1.0, np.max(np.abs(dx)), np.max(np.abs(dy)))
    tol = 1e-13 * scale

    def close(got, want, tolerance=tol):
        return np.max(np.abs(got - want)) <= tolerance

    assert close(x.matrix, dx)
    assert close(x.dagger().matrix, dx.conj().T)
    assert abs(x.tau() - np.trace(dx) / n) <= tol
    assert abs(x.norm() - np.linalg.norm(dx, 2)) <= tol
    parity_chain = oracle_parity(lattice)
    assert close(car.theta(x).matrix, parity_chain @ dx @ parity_chain)
    union = x.support.union(y.support)
    for got, want, support in ((x + y, dx + dy, union),
                               (x - y, dx - dy, union),
                               (x @ y, dx @ dy, union),
                               (x @ x.dagger(), dx @ dx.conj().T, x.support)):
        assert got.support == support
        assert close(got.matrix, want, tol * scale)
    assert close(((2.5 - 1.5j) * x).matrix, (2.5 - 1.5j) * dx)
    assert close((x * (2.5 - 1.5j)).matrix, (2.5 - 1.5j) * dx)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    density = g @ g.conj().T
    density /= np.trace(density).real
    omega = DensityState(density, validate=False)
    assert abs(omega.expectation(x) - np.trace(density @ dx)) <= tol


def test_element_tau_and_norm():
    lattice = 3
    rng = np.random.default_rng(3)
    x = car.random_element(Region.full(lattice), rng)
    assert abs(x.tau() - np.trace(x.matrix) / car.dim(lattice)) == 0.0
    assert abs(x.norm() - np.linalg.norm(x.matrix, 2)) < 1e-12


def gaussian_test_matrix(kind, n, rng):
    if kind == "zero":
        return np.zeros((n, n), dtype=np.complex128)
    if kind == "real":
        return rng.standard_normal((n, n))
    if kind == "diagonal":
        return np.diag(rng.standard_normal(n))
    if kind == "rank one":
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return np.outer(u, v.conj())
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


@given(st.integers(min_value=1, max_value=128),
       st.sampled_from(["real", "complex", "diagonal", "rank one", "zero"]),
       st.integers(min_value=0, max_value=10_000))
def test_spectral_norm_matches_the_svd(n, kind, seed):
    a = gaussian_test_matrix(kind, n, np.random.default_rng(seed))
    got = car.spectral_norm(a)
    want = float(np.linalg.norm(a, 2))
    assert isinstance(got, float)
    if kind == "zero":
        assert got == 0.0
    else:
        assert abs(got - want) <= 1e-13 * want


def test_random_element_honours_constraints():
    lattice = 4
    region = Region.of([1, 2], lattice)
    rng = np.random.default_rng(17)
    odd = car.random_element(region, rng, parity=1)
    assert np.max(np.abs(car.theta(odd).matrix + odd.matrix)) == 0.0
    herm = car.random_element(region, rng, hermitian=True)
    assert np.max(np.abs(herm.matrix - herm.matrix.conj().T)) == 0.0
    checked = car.AlgebraElement.from_matrix(herm.matrix, region)
    assert np.array_equal(checked.small, herm.small)


def uncached_random_element(region, rng, *, parity=None, hermitian=False):
    """The draw of ``car.random_element`` with its tables rebuilt per call."""
    r = len(region)
    states = np.arange(car.dim(r), dtype=np.int64)
    differ = states[:, None] ^ states[None, :]
    flips = sum((differ >> k) & 1 for k in range(r))
    shape = flips.shape
    mat = np.sqrt(2.0 ** (r - flips)) * (rng.standard_normal(shape)
                                         + 1j * rng.standard_normal(shape))
    if parity is not None:
        mat = np.where(flips % 2 == parity, mat, 0.0)
    if hermitian:
        mat = (mat + mat.conj().T) / 2.0
    return mat


@pytest.mark.parametrize("r", range(1, 7))
def test_random_element_is_bit_identical_to_the_uncached_draw(r):
    region = Region.full(r)
    for parity in (None, 0, 1):
        for hermitian in (False, True):
            options = dict(parity=parity, hermitian=hermitian)
            seed = 100 * r + 10 * (parity or 0) + hermitian
            got = car.random_element(region, np.random.default_rng(seed),
                                     **options)
            want = uncached_random_element(
                region, np.random.default_rng(seed), **options)
            # bytes, so that signed zeros count too
            assert got.small.tobytes() == want.tobytes(), options


def test_random_element_refuses_an_unknown_parity():
    region = Region.of([0], 2)
    with pytest.raises(ValueError, match="parity"):
        car.random_element(region, np.random.default_rng(0), parity=2)


# ---------------------------------------------------------------------------
# monomial bases
# ---------------------------------------------------------------------------


def test_basis_size_and_labels():
    region = Region.of([1, 3], 5)
    basis = car.monomial_basis(region)
    assert len(basis) == 4 ** len(region)
    assert len(set(basis.labels)) == len(basis)
    assert basis.labels[0] == "1"


def test_basis_is_tau_orthogonal_with_stated_norms():
    region = Region.of([0, 2], 4)
    basis = car.monomial_basis(region)
    n = car.dim(4)
    dense = [basis[k].dense() for k in range(len(basis))]
    gram = np.array([[np.trace(a.conj().T @ b) / n for b in dense] for a in dense])
    assert np.max(np.abs(gram - np.diag(basis.norms_sq))) == 0.0


def test_basis_parities_match_grading_action():
    region = Region.of([1, 2], 4)
    basis = car.monomial_basis(region)
    for k in range(len(basis)):
        mono = basis[k].dense()
        sign = (-1.0) ** basis[k].parity
        assert np.array_equal(car.theta_matrix(mono, 4), sign * mono)


def test_coefficients_invert_assemble():
    region = Region.of([0, 1], 3)
    basis = car.monomial_basis(region)
    rng = np.random.default_rng(9)
    coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    back = basis.coefficients(basis.assemble(coeffs))
    assert np.max(np.abs(back - coeffs)) < 1e-12


def test_projection_is_idempotent_and_fixes_span(
):
    lattice = 4
    region = Region.of([1, 3], lattice)
    basis = car.monomial_basis(region)
    rng = np.random.default_rng(13)
    mat = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    once = basis.project(mat)
    assert np.max(np.abs(basis.project(once) - once)) < 1e-12
    member = car.random_element(region, rng).matrix
    assert np.max(np.abs(basis.project(member) - member)) < 1e-12


def test_reconstruction_density_reproduces_expectations():
    # the density rebuilt from a restriction (the embedded partial trace,
    # i.e. the conditional expectation of the density) has the same values
    # on the region's monomials
    lattice = 4
    region = Region.of([0, 2], lattice)
    basis = car.monomial_basis(region)
    rng = np.random.default_rng(19)
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    dens = g @ g.conj().T
    dens /= np.trace(dens).real
    values = basis.expectations(dens)
    rebuilt = car.embed(car.small_representation(dens, region), region)
    assert np.max(np.abs(basis.expectations(rebuilt) - values)) < 1e-12
    small = car.dim(lattice - len(region)) * car.small_representation(dens, region)
    small_values = car.monomial_basis(Region.full(len(region))).expectations(small)
    assert np.max(np.abs(small_values - values)) < 1e-12


def test_basis_entry_limit_guards_memory():
    with pytest.raises(ValueError):
        car.monomial_basis(Region.full(12))


# ---------------------------------------------------------------------------
# conditional expectations
# ---------------------------------------------------------------------------


region_pair = st.tuples(
    st.sets(st.integers(min_value=0, max_value=4), max_size=3),
    st.sets(st.integers(min_value=0, max_value=4), max_size=3),
)


@given(region_pair)
def test_tower_property(pair):
    lattice = 5
    a, b = (Region.of(s, lattice) for s in pair)
    rng = np.random.default_rng(23)
    x = car.random_element(Region.full(lattice), rng).matrix
    nested = car.conditional_expectation_matrix(
        car.conditional_expectation_matrix(x, a), b)
    direct = car.conditional_expectation_matrix(
        x, Region.of(set(a.sites) & set(b.sites), lattice))
    assert np.max(np.abs(nested - direct)) < 1e-12


def test_conditional_expectation_core_identities():
    lattice = 5
    region = Region.of([1, 2], lattice)
    rng = np.random.default_rng(29)
    x = car.random_element(Region.full(lattice), rng)
    # support honoured: the checked constructor accepts the image
    ex = car.AlgebraElement.from_matrix(
        car.conditional_expectation_matrix(x.matrix, region), region)
    # tau-preserving, idempotent
    assert abs(ex.tau() - x.tau()) < 1e-12
    assert np.max(np.abs(car.conditional_expectation_matrix(ex.matrix, region)
                         - ex.matrix)) < 1e-12
    # commutes with the grading
    te = car.conditional_expectation_matrix(car.theta(x).matrix, region)
    assert np.max(np.abs(te - car.theta(ex).matrix)) < 1e-12


def test_conditional_expectation_module_property():
    # E(a X b) = a E(X) b for a, b inside the target algebra
    lattice = 4
    region = Region.of([0, 1], lattice)
    rng = np.random.default_rng(37)
    a = car.random_element(region, rng).matrix
    b = car.random_element(region, rng).matrix
    x = car.random_element(Region.full(lattice), rng).matrix
    lhs = car.conditional_expectation_matrix(a @ x @ b, region)
    rhs = a @ car.conditional_expectation_matrix(x, region) @ b
    assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_conditional_expectation_kills_outside_generators():
    lattice = 4
    inner = Region.of([1], lattice)
    outer = inner.complement()
    killed = car.conditional_expectation_matrix(
        car.annihilator(1, lattice).matrix, outer)
    assert np.max(np.abs(killed)) == 0.0


def test_from_matrix_refuses_leakage():
    lattice = 3
    a0 = car.annihilator(0, lattice)
    honest = car.AlgebraElement.from_matrix(a0.matrix, Region.of([0], lattice))
    assert np.array_equal(honest.small, a0.small)
    with pytest.raises(ValueError, match=r"support \(1,\)"):
        car.AlgebraElement.from_matrix(a0.matrix, Region.of([1], lattice))
    with pytest.raises(ValueError, match="does not match chain"):
        car.AlgebraElement.from_matrix(a0.small, Region.of([0], lattice))


# ---------------------------------------------------------------------------
# commutant and the small representation
# ---------------------------------------------------------------------------


def _images(project, lattice):
    """Projections of every monomial of the chain, flattened as rows."""
    full = car.monomial_basis(Region.full(lattice))
    return np.stack([project(m.dense()).ravel() for m in full.monomials])


def test_commutant_basis_commutes_with_region_algebra():
    lattice = 5
    region = Region.of([1, 2], lattice)
    images = _images(constraint_family(region, "lts_prime"), lattice)
    assert np.linalg.matrix_rank(images) == 4 ** (lattice - len(region))
    n = car.dim(lattice)
    gens = [car.annihilator(i, lattice).matrix for i in region.sites]
    for row in images:
        mono = row.reshape(n, n)
        for g in gens:
            assert np.max(np.abs(comm(mono, g))) < 1e-15


def test_commutant_strictly_contains_complement_algebra():
    lattice = 4
    region = Region.of([1], lattice)
    comp = region.complement()
    twisted = _images(constraint_family(region, "lts_prime"), lattice)
    plain = _images(lambda x: car.conditional_expectation_matrix(x, comp),
                    lattice)
    assert np.linalg.matrix_rank(twisted) == np.linalg.matrix_rank(plain) \
        == 4 ** len(comp)
    # same dimension but a different span: the twisted odd part is new
    joint = np.linalg.matrix_rank(np.concatenate([twisted, plain]))
    assert joint > 4 ** len(comp)


def test_small_representation_is_an_isomorphism():
    lattice = 5
    region = Region.of([1, 3], lattice)
    rng = np.random.default_rng(41)
    x = car.random_element(region, rng)
    y = car.random_element(region, rng)
    sx = car.small_representation(x.matrix, region)
    sy = car.small_representation(y.matrix, region)
    m = car.dim(len(region))
    assert sx.shape == (m, m)
    prod = car.small_representation((x @ y).matrix, region)
    assert np.max(np.abs(prod - sx @ sy)) < 1e-11
    dag = car.small_representation(x.dagger().matrix, region)
    assert np.max(np.abs(dag - sx.conj().T)) < 1e-12
    # unital, norm preserving, trace scaled by the multiplicity
    ident = car.small_representation(np.eye(car.dim(lattice)), region)
    assert np.max(np.abs(ident - np.eye(m))) < 1e-12
    assert abs(np.linalg.norm(sx, 2) - np.linalg.norm(x.matrix, 2)) < 1e-11
    big_trace = np.trace(x.matrix)
    assert abs(big_trace - (car.dim(lattice) / m) * np.trace(sx)) < 1e-10


# ---------------------------------------------------------------------------
# arrays keep the dtype of their data
# ---------------------------------------------------------------------------


def test_real_data_stays_real_and_complex_data_complex():
    lattice = 4
    region = Region.of([1, 2], lattice)
    a = car.annihilator(1, lattice)
    assert a.small.dtype == np.float64 and a.matrix.dtype == np.float64
    assert (a + a.dagger()).small.dtype == np.float64
    assert (1j * a).small.dtype == np.complex128
    assert car.AlgebraElement(np.eye(2, dtype=int), a.support).small.dtype \
        == np.float64
    z = car.random_element(region, np.random.default_rng(0))
    assert z.small.dtype == np.complex128
    for small in (np.eye(4), np.eye(4) + 0j):
        assert car.embed(small, region).dtype == small.dtype
        assert car.theta_matrix(car.embed(small, region), lattice).dtype \
            == small.dtype


def test_add_embedded_refuses_complex_into_real():
    # numpy would drop the imaginary part with only a warning
    lattice = 4
    region = Region.of([1, 2], lattice)
    small = car.random_element(region, np.random.default_rng(2)).small
    out = np.zeros((16, 16))
    with pytest.raises(TypeError, match="complex"):
        car.add_embedded(out, small, region)
    assert not np.any(out)
    # a complex matrix takes it, and a real element goes into either
    wide = out.astype(np.complex128)
    car.add_embedded(wide, small, region)
    assert np.array_equal(wide, car.embed(small, region))
    car.add_embedded(out, small.real, region)
    assert np.array_equal(out, car.embed(small.real, region))
