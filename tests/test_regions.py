import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fermichain.regions import MAX_SITES, Region


def test_sites_are_sorted_and_deduplication_is_refused():
    assert Region((3, 1, 2), 5).sites == (1, 2, 3)
    with pytest.raises(ValueError):
        Region((1, 1), 5)


def test_bounds_are_enforced():
    with pytest.raises(ValueError):
        Region((5,), 5)
    with pytest.raises(ValueError):
        Region((-1,), 5)
    with pytest.raises(ValueError):
        Region((), 0)
    with pytest.raises(ValueError):
        Region((), MAX_SITES + 1)
    with pytest.raises(TypeError):
        Region((1.5,), 5)


def test_constructors():
    assert Region.full(4).sites == (0, 1, 2, 3)
    assert Region.empty(4).is_empty
    assert Region.of(range(2), 4) == Region((0, 1), 4)
    assert Region.of([3, 0], 4).sites == (0, 3)


def test_cross_chain_operations_are_refused():
    with pytest.raises(ValueError):
        Region.of([0], 4).union(Region.of([0], 5))


def test_label_and_len():
    region = Region.of([2, 0], 5)
    assert region.label() == "0,2"
    assert len(region) == 2
    assert list(region) == [0, 2]
    assert 2 in region and 1 not in region


def test_subregions_enumeration_order():
    region = Region.of([1, 3], 4)
    subs = [r.sites for r in region.subregions()]
    assert subs == [(), (1,), (3,), (1, 3)]
    assert [r.sites for r in region.subregions(include_empty=False)] == [
        (1,), (3,), (1, 3)]


sites_strategy = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(st.integers(min_value=0, max_value=n - 1)),
        st.sets(st.integers(min_value=0, max_value=n - 1)),
    )
)


@given(sites_strategy)
def test_set_algebra_matches_python_sets(data):
    n, a, b = data
    ra, rb = Region.of(a, n), Region.of(b, n)
    assert set(ra.union(rb).sites) == a | b
    assert set(ra.difference(rb).sites) == a - b
    assert set(ra.complement().sites) == set(range(n)) - a
    assert ra.is_orthogonal(rb) == (not (a & b))
    assert ra.intersects(rb) == bool(a & b)
    assert ra.is_subregion(rb) == (a <= b)


@given(sites_strategy)
def test_complement_is_involutive_and_partitions(data):
    n, a, _ = data
    region = Region.of(a, n)
    assert region.complement().complement() == region
    assert region.union(region.complement()) == Region.full(n)
    assert region.is_orthogonal(region.complement())


def test_subregion_count_is_power_of_two():
    region = Region.of([0, 2, 3], 5)
    assert len(list(region.subregions())) == 2 ** len(region)
    # deterministic order: repeated enumeration gives the same sequence
    assert list(region.subregions()) == list(region.subregions())


def test_regions_are_hashable_and_frozen():
    region = Region.of([1], 3)
    assert {region: 1}[Region.of([1], 3)] == 1
    with pytest.raises(AttributeError):
        region.sites = (0,)


def test_every_pair_subregion_relation_consistent():
    full = Region.full(4)
    subs = list(full.subregions())
    for ra, rb in itertools.product(subs, repeat=2):
        assert ra.is_subregion(rb) == (set(ra.sites) <= set(rb.sites))
