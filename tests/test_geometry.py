import math

import numpy as np
import pytest

from ghzlattice.errors import DivisibilityError, OutOfBoundsError
from ghzlattice.geometry import (
    LatticeSpec,
    Region,
    euclidean_diameter_bound,
    partition,
    site_mask,
)


def divisors(n):
    return [m for m in range(1, n + 1) if n % m == 0]


class TestPartition:
    def test_1d_side4_m2(self):
        cubes = partition(Region((0,), 4), 2)
        assert [(c.anchor, c.side) for c in cubes] == [((0,), 2), ((2,), 2)]

    def test_2d_side4_m2_lexicographic(self):
        cubes = partition(Region((0, 0), 4), 2)
        assert [c.anchor for c in cubes] == [(0, 0), (0, 2), (2, 0), (2, 2)]
        assert all(c.side == 2 for c in cubes)

    def test_indivisible_side(self):
        with pytest.raises(DivisibilityError):
            partition(Region((0,), 6), 4)

    def test_control_relabeling(self):
        # the cube containing c moves to index 0, the rest keep their order
        cubes = partition(Region((0,), 8), 4, c=(5,))
        assert cubes[0].anchor == (4,)
        assert [c.anchor for c in cubes[1:]] == [(0,), (2,), (6,)]

    def test_relabeling_identity_when_c_in_first(self):
        cubes = partition(Region((0, 0), 4), 2, c=(1, 1))
        assert [c.anchor for c in cubes] == [(0, 0), (0, 2), (2, 0), (2, 2)]

    def test_c_outside_region(self):
        with pytest.raises(OutOfBoundsError):
            partition(Region((0,), 4), 2, c=(7,))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_disjoint_cover_exhaustive(self, d):
        # every site of the parent appears in exactly one subcube
        for side in range(1, 17 if d == 1 else (9 if d == 2 else 5)):
            region = Region((0,) * d, side)
            for m in divisors(side):
                cubes = partition(region, m)
                assert len(cubes) == m**d
                seen = []
                for cube in cubes:
                    assert cube.side == side // m
                    seen.extend(cube.sites())
                assert len(seen) == len(set(seen)) == region.n_sites
                assert set(seen) == set(region.sites())

    def test_subcube_diameter_scales_back_to_parent(self):
        for d in (1, 2, 3):
            region = Region((0,) * d, 12)
            for m in (2, 3, 4, 6):
                sub = partition(region, m)[0]
                assert euclidean_diameter_bound(sub) * m == pytest.approx(
                    euclidean_diameter_bound(region), rel=1e-15
                )


class TestDiameterBound:
    def test_1d(self):
        assert euclidean_diameter_bound(Region((0,), 4)) == 4.0

    def test_2d(self):
        assert euclidean_diameter_bound(Region((0, 0), 4)) == pytest.approx(
            4 * math.sqrt(2), rel=1e-15
        )

    def test_3d_unit(self):
        assert euclidean_diameter_bound(Region((0, 0, 0), 1)) == pytest.approx(
            math.sqrt(3), rel=1e-15
        )


class TestSiteMask:
    def test_1d_subregion(self):
        lat = LatticeSpec(1, 4)
        assert site_mask(Region((2,), 2), lat).tolist() == [2, 3]

    def test_2d_full(self):
        lat = LatticeSpec(2, 2)
        assert site_mask(Region((0, 0), 2), lat).tolist() == [0, 1, 2, 3]

    def test_out_of_bounds(self):
        with pytest.raises(OutOfBoundsError):
            site_mask(Region((3,), 2), LatticeSpec(1, 4))

    def test_mask_is_sorted_row_major(self):
        lat = LatticeSpec(2, 4)
        mask = site_mask(Region((1, 2), 2), lat)
        assert mask.tolist() == sorted(mask.tolist())
        # row-major: (x0, x1) -> x0*4 + x1
        assert mask.tolist() == [1 * 4 + 2, 1 * 4 + 3, 2 * 4 + 2, 2 * 4 + 3]


class TestRegion:
    @pytest.mark.parametrize("anchor,side", [
        ((0.7,), 2), ((0,), 2.5), ((1, 2.0), 2), ((0,), "2"), (0, 2),
    ])
    def test_non_integer_refused(self, anchor, side):
        # a float anchor is not truncated, and a float side is not left to
        # fail later in site_mask with a bare TypeError
        with pytest.raises(OutOfBoundsError, match="must be integers"):
            Region(anchor, side)

    def test_numpy_integers_stored_as_int(self):
        region = Region((np.int64(1), np.uint8(2)), np.int32(2))
        assert region == Region((1, 2), 2) and hash(region) == hash(Region((1, 2), 2))
        assert all(type(v) is int for v in (*region.anchor, region.side))

class TestLatticeSpec:
    def test_flat_index_roundtrip(self):
        lat = LatticeSpec(3, 3)
        for flat in range(lat.n_sites):
            assert lat.flat_index(lat.coord(flat)) == flat

    def test_counts(self):
        assert LatticeSpec(2, 4).n_sites == 16
        assert LatticeSpec(3, 2, levels=3).n_sites == 8

    def test_invalid(self):
        with pytest.raises(OutOfBoundsError):
            LatticeSpec(0, 4)
        with pytest.raises(OutOfBoundsError):
            LatticeSpec(1, 4, levels=1)
        with pytest.raises(OutOfBoundsError):
            LatticeSpec(1, 2).flat_index((2,))

    @pytest.mark.parametrize("args,name", [
        ((1, 2.5), "side"), ((1, 20.0), "side"), ((1.0, 2), "dimension"),
        ((1, 2, 2.0), "levels"), ((1, "2"), "side"),
    ])
    def test_non_integer_refused(self, args, name):
        with pytest.raises(OutOfBoundsError, match=f"{name} must be an integer"):
            LatticeSpec(*args)

    def test_numpy_integers_stored_as_int(self):
        lat = LatticeSpec(np.int64(1), np.int32(20), np.uint8(3))
        assert lat == LatticeSpec(1, 20, 3) and hash(lat) == hash(LatticeSpec(1, 20, 3))
        assert all(type(v) is int for v in (lat.dimension, lat.side, lat.levels))

    def test_masks_partition_lattice(self):
        lat = LatticeSpec(2, 6)
        cubes = partition(lat.full_region(), 3)
        combined = np.concatenate([site_mask(c, lat) for c in cubes])
        assert sorted(combined.tolist()) == list(range(lat.n_sites))
