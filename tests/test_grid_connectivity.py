"""Tests for repro.grid.connectivity and repro.grid.lookup."""

import numpy as np
import pytest

from repro.grid.connectivity import component_sizes, connected_components, neighbor_offsets
from repro.grid.codec import CellCodec
from repro.grid.lookup import NOISE_LABEL, CellLabelIndex, LookupTable, transformed_codes


class TestNeighborOffsets:
    def test_face_offsets_2d(self):
        assert sorted(neighbor_offsets(2, "face")) == [(0, 1), (1, 0)]

    def test_face_offsets_count_scales_with_dim(self):
        assert len(neighbor_offsets(5, "face")) == 5

    def test_full_offsets_2d(self):
        offsets = neighbor_offsets(2, "full")
        # Half of the 8 surrounding cells (symmetric pairs are folded).
        assert len(offsets) == 4

    def test_full_offsets_3d(self):
        assert len(neighbor_offsets(3, "full")) == 13

    def test_full_connectivity_dimension_limit(self):
        with pytest.raises(ValueError, match="full connectivity"):
            neighbor_offsets(9, "full")

    def test_invalid_connectivity(self):
        with pytest.raises(ValueError, match="connectivity"):
            neighbor_offsets(2, "diagonal")

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            neighbor_offsets(0)


class TestConnectedComponents:
    def test_two_separate_blobs(self):
        cells = [(0, 0), (0, 1), (1, 0), (5, 5), (5, 6)]
        labels = connected_components(cells, connectivity="face")
        assert labels[(0, 0)] == labels[(0, 1)] == labels[(1, 0)]
        assert labels[(5, 5)] == labels[(5, 6)]
        assert labels[(0, 0)] != labels[(5, 5)]
        assert len(set(labels.values())) == 2

    def test_diagonal_only_connects_with_full(self):
        cells = [(0, 0), (1, 1)]
        face = connected_components(cells, connectivity="face")
        full = connected_components(cells, connectivity="full")
        assert len(set(face.values())) == 2
        assert len(set(full.values())) == 1

    def test_empty_input(self):
        assert connected_components([]) == {}

    def test_single_cell(self):
        assert connected_components([(3, 3)]) == {(3, 3): 0}

    def test_labels_are_dense_and_deterministic(self):
        cells = [(9, 9), (0, 0), (0, 1), (5, 5)]
        labels = connected_components(cells)
        assert set(labels.values()) == {0, 1, 2}
        # Sorted-cell order determines the numbering: (0,0) block first.
        assert labels[(0, 0)] == 0

    def test_mixed_dimensionality_rejected(self):
        with pytest.raises(ValueError, match="dimensionality"):
            connected_components([(0, 0), (1,)])

    def test_ring_stays_one_component_with_full_connectivity(self):
        # Discretized circle: consecutive cells may touch only diagonally.
        angles = np.linspace(0, 2 * np.pi, 100, endpoint=False)
        cells = {(int(8 + 6 * np.cos(a)), int(8 + 6 * np.sin(a))) for a in angles}
        labels = connected_components(cells, connectivity="full")
        assert len(set(labels.values())) == 1

    def test_component_sizes(self):
        labels = connected_components([(0, 0), (0, 1), (5, 5)])
        sizes = component_sizes(labels)
        assert sorted(sizes.values()) == [1, 2]

    def test_3d_face_connectivity(self):
        cells = [(0, 0, 0), (0, 0, 1), (2, 2, 2)]
        labels = connected_components(cells, connectivity="face")
        assert labels[(0, 0, 0)] == labels[(0, 0, 1)]
        assert len(set(labels.values())) == 2


class TestLookupTable:
    def test_downsample_factor(self):
        # Each level halves the grid: level 1 maps cell c to c // 2, level 3 to c // 8.
        codec = CellCodec((16, 16))
        cells = np.array([[9, 14], [15, 3], [1, 1]])
        for level, factor in [(1, 2), (3, 8)]:
            coarse = codec.coarsen(factor)
            index = CellLabelIndex(coarse, coarse.encode(cells // factor), [4, 5, 6])
            np.testing.assert_array_equal(
                LookupTable(level=level).label_points_from_arrays(
                    codec, codec.encode(cells), index
                ),
                [4, 5, 6],
            )

    def test_transformed_codes_divide_by_factor_times_two_to_the_level(self):
        codec = CellCodec((8, 6))
        cells = np.array([[7, 3], [4, 5], [0, 0]])
        codes = transformed_codes(codec, codec.encode(cells), 1, 2)
        coarse = codec.coarsen(4)
        assert coarse.shape == (2, 2)
        np.testing.assert_array_equal(coarse.decode(codes), cells // 4)
        # Per-axis factors (a serving resolution coarser along one axis).
        codes = transformed_codes(codec, codec.encode(cells), 0, [1, 3])
        np.testing.assert_array_equal(codec.coarsen([1, 3]).decode(codes), cells // [1, 3])

    def test_labels_cells_at_the_level(self):
        codec = CellCodec((8, 8))
        coarse = codec.coarsen(4)
        index = CellLabelIndex(coarse, coarse.encode(np.array([[1, 0], [0, 1]])), [2, 7])
        cells = np.array([[4, 3], [3, 4], [0, 0], [7, 7]])
        np.testing.assert_array_equal(
            LookupTable(level=2).label_points_from_arrays(codec, codec.encode(cells), index),
            [2, 7, NOISE_LABEL, NOISE_LABEL],
        )

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            LookupTable(level=-1)

    def test_label_points_requires_1d_codes(self):
        # Coordinate rows are not codes: the mapper rejects them, never mislabels.
        codec = CellCodec((8, 8))
        coarse = codec.coarsen(2)
        index = CellLabelIndex(coarse, coarse.encode(np.array([[1, 0]])), [2])
        with pytest.raises(ValueError, match="1-D"):
            LookupTable(level=1).label_points_from_arrays(
                codec, np.array([[2, 1], [3, 3]]), index
            )


class TestCellLabelIndex:
    codec = CellCodec((6, 6))

    def _index(self, cells, labels):
        return CellLabelIndex(self.codec, self.codec.encode(np.array(cells)), labels)

    def test_lookup_matches_dict_semantics(self):
        index = self._index([[5, 5], [0, 0], [1, 2]], np.array([0, 3, 1]))
        queries = self.codec.encode(np.array([[1, 2], [0, 0], [4, 4], [5, 5]]))
        np.testing.assert_array_equal(index.lookup(queries), [1, 3, NOISE_LABEL, 0])

    def test_empty_index_everything_noise(self):
        index = CellLabelIndex(self.codec, np.empty(0, dtype=np.int64), np.empty(0))
        np.testing.assert_array_equal(index.lookup([0, 7, 35]), [NOISE_LABEL] * 3)

    def test_empty_query(self):
        index = self._index([[0, 0]], [2])
        assert index.lookup(np.empty(0, dtype=np.int64)).shape == (0,)

    def test_codes_outside_the_box_are_noise(self):
        index = self._index([[0, 0], [5, 5]], [4, 1])
        np.testing.assert_array_equal(
            index.lookup([-1, 0, 35, 36, 2**40, -(2**40)]),
            [NOISE_LABEL, 4, 1, NOISE_LABEL, NOISE_LABEL, NOISE_LABEL],
        )

    def test_exact_regime_for_boxes_of_at_least_2_62_cells(self):
        codec = CellCodec((2**32,) * 9)
        cells = np.array([[0] * 9, [2**32 - 1] * 9, [2**31] * 9])
        index = CellLabelIndex(codec, codec.encode(cells[:2]), [4, 5])
        assert codec.exact and index.codes.dtype == object  # int64 codes would collide
        np.testing.assert_array_equal(
            index.lookup(codec.encode(cells)), [4, 5, NOISE_LABEL]
        )

    def test_non_code_queries_rejected(self):
        index = self._index([[0, 0]], [1])
        with pytest.raises(ValueError, match="1-D"):
            index.lookup(np.array([[1, 2]]))

    def test_dimension_mismatch_rejected(self):
        # The constructor takes 1-D codes; coordinate rows of cells are rejected.
        with pytest.raises(ValueError, match="1-D"):
            CellLabelIndex(self.codec, np.array([[0, 0], [1, 2]]), [1, 2])

    def test_misaligned_labels_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            self._index([[0, 0], [1, 1]], np.array([1]))
