"""Hypercubic lattice geometry: site indexing, axis-aligned regions, partitions.

Sites live on a d-dimensional hypercubic lattice of side ``r`` with lattice
spacing 1.  A site is a d-tuple of integer coordinates in ``[0, r)``; its flat
index is the row-major (lexicographic) rank of the coordinate tuple, i.e.
``flat = x0 * r**(d-1) + x1 * r**(d-2) + ... + x_{d-1}``.

All values here are immutable and all functions are pure.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .errors import DivisibilityError, OutOfBoundsError


@dataclass(frozen=True)
class LatticeSpec:
    """A d-dimensional hypercubic lattice of side ``r`` with q-level sites."""

    dimension: int
    side: int
    levels: int = 2

    def __post_init__(self):
        for name in ("dimension", "side", "levels"):
            try:  # any integer type, numpy's included, stored as an int
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise OutOfBoundsError(
                    f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if self.dimension < 1:
            raise OutOfBoundsError(f"dimension must be >= 1, got {self.dimension}")
        if self.side < 1:
            raise OutOfBoundsError(f"side must be >= 1, got {self.side}")
        if self.levels < 2:
            raise OutOfBoundsError(f"levels per site must be >= 2, got {self.levels}")

    @property
    def n_sites(self) -> int:
        return self.side**self.dimension

    def flat_index(self, coord: tuple[int, ...]) -> int:
        """Row-major rank of a coordinate tuple."""
        if len(coord) != self.dimension:
            raise OutOfBoundsError(f"coordinate {coord} has wrong dimension")
        flat = 0
        for x in coord:
            if not 0 <= x < self.side:
                raise OutOfBoundsError(f"coordinate {coord} outside lattice of side {self.side}")
            flat = flat * self.side + x
        return flat

    def coord(self, flat: int) -> tuple[int, ...]:
        """Inverse of flat_index."""
        if not 0 <= flat < self.n_sites:
            raise OutOfBoundsError(f"flat index {flat} outside lattice")
        out = []
        for _ in range(self.dimension):
            flat, x = divmod(flat, self.side)
            out.append(x)
        return tuple(reversed(out))

    def full_region(self) -> "Region":
        return Region((0,) * self.dimension, self.side)


@dataclass(frozen=True)
class Region:
    """An axis-aligned subcube: anchor corner plus side length."""

    anchor: tuple[int, ...]
    side: int

    def __post_init__(self):
        object.__setattr__(self, "anchor", tuple(int(a) for a in self.anchor))
        if self.side < 1:
            raise OutOfBoundsError(f"region side must be >= 1, got {self.side}")

    @property
    def dimension(self) -> int:
        return len(self.anchor)

    @property
    def n_sites(self) -> int:
        return self.side**self.dimension

    def sites(self) -> list[tuple[int, ...]]:
        """All site coordinates, lexicographically ordered."""
        ranges = [range(a, a + self.side) for a in self.anchor]
        return list(itertools.product(*ranges))

    def contains(self, coord: tuple[int, ...]) -> bool:
        return len(coord) == self.dimension and all(
            a <= x < a + self.side for a, x in zip(self.anchor, coord)
        )


def partition(region: Region, m: int, c: tuple[int, ...] | None = None) -> list[Region]:
    """Split ``region`` into ``m**d`` disjoint subcubes of side ``side/m``.

    Subcubes are ordered lexicographically by anchor, so index 0 is the one
    at the region's own anchor.  If a site ``c`` is given, the subcube
    containing it is moved to index 0 (it becomes the control cube) and the
    rest keep their lexicographic order.
    """
    if m < 1:
        raise DivisibilityError(f"merge factor must be >= 1, got {m}")
    if region.side % m != 0:
        raise DivisibilityError(f"side {region.side} is not divisible by m={m}")
    sub = region.side // m
    offsets = itertools.product(range(m), repeat=region.dimension)
    cubes = [
        Region(tuple(a + k * sub for a, k in zip(region.anchor, off)), sub)
        for off in offsets
    ]
    if c is not None:
        hits = [i for i, cube in enumerate(cubes) if cube.contains(c)]
        if not hits:
            raise OutOfBoundsError(f"site {c} not inside region {region}")
        cubes.insert(0, cubes.pop(hits[0]))
    return cubes


def euclidean_diameter_bound(region: Region) -> float:
    """Side times sqrt(d): an upper bound on any site-to-site distance.

    This is the normalization length of the merge coupling, so the uniform
    strength 1/(side*sqrt(d))**alpha is legal for every pair inside the cube.
    """
    return region.side * math.sqrt(region.dimension)


def site_mask(region: Region, lattice: LatticeSpec) -> np.ndarray:
    """Flat indices of the region's sites, ascending (row-major) order."""
    if region.dimension != lattice.dimension:
        raise OutOfBoundsError("region and lattice dimensions differ")
    for a in region.anchor:
        if a < 0:
            raise OutOfBoundsError(f"region {region} extends below the lattice")
    if any(a + region.side > lattice.side for a in region.anchor):
        raise OutOfBoundsError(f"region {region} exceeds lattice of side {lattice.side}")
    import numpy as np
    return np.asarray([lattice.flat_index(s) for s in region.sites()], dtype=np.int64)
