"""Finite sublattices of a one-dimensional fermion chain.

A ``Region`` is a set of site indices inside a chain of ``lattice_size``
sites (sites are numbered ``0 .. lattice_size-1``).  Regions carry their
ambient chain length so that complements are well defined and so that two
regions from different chains can never be combined by accident.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

MAX_SITES = 12  # 2**12 = 4096 basis states; beyond this dense matrices are unreasonable


def _check_lattice_size(lattice_size: int) -> None:
    if not isinstance(lattice_size, int) or isinstance(lattice_size, bool):
        raise TypeError(f"lattice_size must be an int, got {lattice_size!r}")
    if lattice_size < 1 or lattice_size > MAX_SITES:
        raise ValueError(f"chain length must be in 1..{MAX_SITES}, got {lattice_size}")


@dataclass(frozen=True)
class Region:
    """An ordered set of sites within a chain of ``lattice_size`` sites."""

    sites: tuple[int, ...]
    lattice_size: int

    def __post_init__(self) -> None:
        _check_lattice_size(self.lattice_size)
        sites = tuple(self.sites)
        if any(not isinstance(s, int) or isinstance(s, bool) for s in sites):
            raise TypeError(f"sites must be ints, got {sites!r}")
        outside = [s for s in sites if not 0 <= s < self.lattice_size]
        if outside:
            raise ValueError(f"sites {outside} outside the chain "
                             f"0..{self.lattice_size - 1}")
        repeated = sorted({s for s in sites if sites.count(s) > 1})
        if repeated:
            raise ValueError(f"sites {repeated} given more than once")
        object.__setattr__(self, "sites", tuple(sorted(sites)))

    # -- constructors ------------------------------------------------------

    @classmethod
    def of(cls, sites, lattice_size: int) -> "Region":
        return cls(tuple(int(s) for s in sites), lattice_size)

    @classmethod
    def full(cls, lattice_size: int) -> "Region":
        return cls(tuple(range(lattice_size)), lattice_size)

    @classmethod
    def empty(cls, lattice_size: int) -> "Region":
        return cls((), lattice_size)

    # -- basic queries -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.sites)

    def __iter__(self) -> Iterator[int]:
        return iter(self.sites)

    def __contains__(self, site: int) -> bool:
        return site in self.sites

    @property
    def is_empty(self) -> bool:
        return not self.sites

    def _require_same_chain(self, other: "Region") -> None:
        if self.lattice_size != other.lattice_size:
            raise ValueError(
                f"regions live on different chains: {self.lattice_size} vs {other.lattice_size}"
            )

    # -- set algebra -------------------------------------------------------

    def union(self, other: "Region") -> "Region":
        self._require_same_chain(other)
        return Region(tuple(set(self.sites) | set(other.sites)), self.lattice_size)

    def difference(self, other: "Region") -> "Region":
        self._require_same_chain(other)
        return Region(tuple(set(self.sites) - set(other.sites)), self.lattice_size)

    def complement(self) -> "Region":
        return Region(
            tuple(s for s in range(self.lattice_size) if s not in self.sites),
            self.lattice_size,
        )

    def is_orthogonal(self, other: "Region") -> bool:
        """True when the two regions share no site (disjoint supports)."""
        self._require_same_chain(other)
        return not (set(self.sites) & set(other.sites))

    def is_subregion(self, other: "Region") -> bool:
        self._require_same_chain(other)
        return set(self.sites) <= set(other.sites)

    def intersects(self, other: "Region") -> bool:
        return not self.is_orthogonal(other)

    def subregions(self, include_empty: bool = True) -> Iterator["Region"]:
        """All subsets of this region, smallest first, in deterministic order."""
        start = 0 if include_empty else 1
        for r in range(start, len(self.sites) + 1):
            for combo in itertools.combinations(self.sites, r):
                yield Region(combo, self.lattice_size)

    def positions_in(self, outer: "Region") -> "Region":
        """This region, which lies inside ``outer``, on the chain of
        ``outer``'s own sites: site ``outer.sites[k]`` is position ``k``."""
        return Region(tuple(outer.sites.index(s) for s in self.sites), len(outer))

    def label(self) -> str:
        return ",".join(str(s) for s in self.sites)
