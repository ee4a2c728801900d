"""Tests for the Fig. 10 data-layout planner."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MappingError
from repro.memory import Rect, conv_layout, fc_layout, partition_grid
from repro.memory.layout import (contiguous_split, grid_dimensions,
                                 stored_address, stored_image, stored_size,
                                 window_span)


class TestRect:
    def test_geometry(self):
        rect = Rect(1, 2, 4, 6)
        assert rect.width == 3
        assert rect.height == 4
        assert rect.area == 12

    def test_contains_half_open(self):
        rect = Rect(0, 0, 2, 2)
        assert rect.contains(0, 0)
        assert rect.contains(1, 1)
        assert not rect.contains(2, 2)

    def test_expanded_clips(self):
        rect = Rect(0, 0, 2, 2).expanded(3, width=4, height=4)
        assert (rect.x0, rect.y0, rect.x1, rect.y1) == (0, 0, 4, 4)

    def test_empty_rejected(self):
        with pytest.raises(MappingError):
            Rect(2, 0, 2, 4)


    def test_encloses(self):
        outer = Rect(0, 0, 4, 4)
        assert outer.encloses(Rect(1, 1, 4, 3))
        assert not outer.encloses(Rect(1, 1, 5, 3))


class TestVaultImage:
    def test_stored_address_indexes_stored_image(self):
        maps = np.arange(3 * 7 * 9).reshape(3, 7, 9)
        tile = Rect(2, 1, 6, 5)
        image = stored_image(maps, tile)
        assert len(image) == stored_size(tile, 3)
        for c in range(3):
            for y in range(tile.y0, tile.y1):
                for x in range(tile.x0, tile.x1):
                    assert image[stored_address(tile, x, y, c)] == (
                        maps[c, y, x])

    def test_window_span(self):
        # Conv (stride 1): outputs 1..3 read pixels 1..5 with k = 3.
        assert window_span(Rect(1, 0, 4, 2), 3, 1) == Rect(1, 0, 6, 4)
        # Pool (stride = k = 2): outputs 1..2 read pixels 2..5.
        assert window_span(Rect(1, 1, 3, 2), 2, 2) == Rect(2, 2, 6, 4)

    def test_contiguous_split_matches_array_split(self):
        for items, parts in [(10, 3), (3, 5), (16, 16), (0, 2)]:
            runs = contiguous_split(items, parts)
            assert [list(run) for run in runs] == [
                part.tolist()
                for part in np.array_split(np.arange(items), parts)]


class TestPartitionGrid:
    def test_sixteen_vaults_square(self):
        assert grid_dimensions(16) == (4, 4)

    def test_two_channels(self):
        assert grid_dimensions(2) == (1, 2)

    def test_prime_count(self):
        assert grid_dimensions(7) == (1, 7)

    @given(height=st.integers(8, 64), width=st.integers(8, 64),
           n_parts=st.sampled_from([1, 2, 4, 8, 16]))
    @settings(max_examples=100)
    def test_tiles_partition_exactly(self, height, width, n_parts):
        """Every pixel belongs to exactly one tile."""
        tiles = partition_grid(height, width, n_parts)
        assert len(tiles) == n_parts
        coverage = np.zeros((height, width), dtype=int)
        for tile in tiles:
            coverage[tile.y0:tile.y1, tile.x0:tile.x1] += 1
        assert np.all(coverage == 1)

    def test_too_many_parts(self):
        with pytest.raises(MappingError):
            partition_grid(2, 2, 16)


class TestConvLayout:
    def test_duplicate_has_no_remote(self):
        layout = conv_layout(64, 64, 7, 1, 1, 16, duplicate=True)
        assert layout.remote_state_fraction == 0.0
        assert layout.duplicated_bytes > 0

    def test_no_duplicate_has_remote(self):
        layout = conv_layout(64, 64, 7, 1, 1, 16, duplicate=False)
        assert 0.0 < layout.remote_state_fraction < 0.5
        assert layout.duplicated_bytes == 0

    def test_remote_grows_with_kernel(self):
        fractions = [conv_layout(64, 64, k, 1, 1, 16,
                                 duplicate=False).remote_state_fraction
                     for k in (3, 5, 7, 9)]
        assert fractions == sorted(fractions)

    def test_duplication_overhead_grows_with_kernel(self):
        overheads = [conv_layout(64, 64, k, 1, 1, 16,
                                 duplicate=True).memory_overhead
                     for k in (3, 5, 7, 9)]
        assert overheads == sorted(overheads)

    def test_single_vault_all_local(self):
        layout = conv_layout(32, 32, 5, 1, 1, 1, duplicate=False)
        assert layout.remote_state_fraction == 0.0

    def test_state_bytes(self):
        layout = conv_layout(10, 10, 3, 2, 4, 4, duplicate=False)
        assert layout.state_bytes == 2 * 100 * 2

    def test_weights_not_in_dram_duplication(self):
        """Conv weights live in PE weight memory; only pixel halos count
        as DRAM duplication."""
        layout = conv_layout(32, 32, 3, 1, 1, 16, duplicate=True)
        halo_pixels = sum(t.area for t in layout.stored_tiles) - 32 * 32
        assert layout.duplicated_bytes == halo_pixels * 2

    def test_one_packet_per_connection(self):
        layout = conv_layout(32, 32, 3, 1, 1, 16, duplicate=True)
        assert layout.packets_per_connection == 1


class TestFcLayout:
    def test_duplicate_copies_input(self):
        layout = fc_layout(100, 40, 16, duplicate=True)
        assert layout.duplicated_bytes == 15 * 100 * 2
        assert layout.remote_state_fraction == 0.0

    def test_no_duplicate_remote_fraction(self):
        layout = fc_layout(100, 40, 16, duplicate=False)
        assert layout.remote_state_fraction == pytest.approx(15 / 16)

    def test_weight_bytes(self):
        layout = fc_layout(100, 40, 16, duplicate=False)
        assert layout.weight_bytes == 100 * 40 * 2

    def test_two_packets_per_connection(self):
        layout = fc_layout(10, 10, 4, duplicate=True)
        assert layout.packets_per_connection == 2

    def test_overhead_shrinks_with_outputs(self):
        """Fig. 14(d): more hidden neurons -> weight matrix grows ->
        duplicated-input share of memory falls."""
        overheads = [fc_layout(4096, n, 16, duplicate=True).memory_overhead
                     for n in (256, 1024, 4096)]
        assert overheads == sorted(overheads, reverse=True)

    def test_bad_sizes_rejected(self):
        with pytest.raises(MappingError):
            fc_layout(0, 4, 16, duplicate=True)
        with pytest.raises(MappingError):
            fc_layout(4, 4, 0, duplicate=True)

    def test_total_bytes_sum(self):
        layout = fc_layout(64, 32, 8, duplicate=True)
        assert layout.total_bytes == (layout.state_bytes
                                      + layout.weight_bytes
                                      + layout.duplicated_bytes)
