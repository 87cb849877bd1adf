"""Tests for repro.grid.connectivity and repro.grid.lookup."""

import numpy as np
import pytest

from repro.grid.connectivity import component_sizes, connected_components, neighbor_offsets
from repro.grid.lookup import NOISE_LABEL, CellLabelIndex, LookupTable


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

    def test_shape_argument_does_not_change_result(self):
        cells = [(0, 0), (0, 1), (3, 3)]
        with_shape = connected_components(cells, shape=(4, 4))
        without_shape = connected_components(cells)
        assert with_shape == without_shape

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
        assert LookupTable(level=1).downsample_factor == 2
        assert LookupTable(level=3).downsample_factor == 8

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            LookupTable(level=-1)

    def test_label_points_requires_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            LookupTable().to_transformed_many(np.array([1, 2, 3]))


class TestCellLabelIndex:
    def test_lookup_matches_dict_semantics(self):
        cells = np.array([[0, 0], [1, 2], [5, 5]])
        index = CellLabelIndex(cells, np.array([3, 1, 0]))
        queries = np.array([[1, 2], [0, 0], [4, 4], [5, 5], [-3, 0]])
        np.testing.assert_array_equal(
            index.lookup(queries), [1, 3, NOISE_LABEL, 0, NOISE_LABEL]
        )

    def test_empty_index_everything_noise(self):
        index = CellLabelIndex(np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64))
        np.testing.assert_array_equal(
            index.lookup(np.array([[0, 0], [1, 1]])), [NOISE_LABEL, NOISE_LABEL]
        )

    def test_empty_query(self):
        index = CellLabelIndex(np.array([[0, 0]]), np.array([2]))
        assert index.lookup(np.empty((0, 2), dtype=np.int64)).shape == (0,)

    def test_outside_bounding_box_is_noise_without_encoding(self):
        index = CellLabelIndex(np.array([[10, 10], [11, 10]]), np.array([0, 0]))
        np.testing.assert_array_equal(
            index.lookup(np.array([[0, 0], [10, 10], [2**40, 2**40]])),
            [NOISE_LABEL, 0, NOISE_LABEL],
        )

    def test_overflow_extent_falls_back_to_hash_table(self):
        huge = np.array([[0] * 9, [2**8] * 9], dtype=np.int64) * (2**32 // 2**8)
        index = CellLabelIndex(huge, np.array([4, 5]))
        assert index.codec.exact  # int64 codes would collide
        np.testing.assert_array_equal(
            index.lookup(np.vstack([huge, np.ones((1, 9), dtype=np.int64)])),
            [4, 5, NOISE_LABEL],
        )

    def test_dimension_mismatch_rejected(self):
        index = CellLabelIndex(np.array([[0, 0]]), np.array([1]))
        with pytest.raises(ValueError, match="shape"):
            index.lookup(np.array([[1, 2, 3]]))

    def test_misaligned_labels_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            CellLabelIndex(np.array([[0, 0], [1, 1]]), np.array([1]))
