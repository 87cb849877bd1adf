"""Tests for repro.grid.sparse_grid and repro.grid.quantizer."""

import numpy as np
import pytest

from repro.grid.quantizer import GridQuantizer
from repro.grid.sparse_grid import SparseGrid


class TestSparseGrid:
    def test_basic_add_and_get(self):
        grid = SparseGrid((4, 4))
        grid.add_many([[1, 2]], 1.0)
        grid.add_many([[1, 2]], 2.0)
        assert dict(grid.items()) == {(1, 2): 3.0}
        assert len(grid) == 1

    def test_out_of_bounds_rejected(self):
        grid = SparseGrid((4, 4))
        with pytest.raises(ValueError, match="outside"):
            grid.add_many([[4, 0]], 1.0)
        with pytest.raises(ValueError, match="outside"):
            grid.add_many([[-1, 0]], 1.0)
        with pytest.raises(ValueError, match="outside"):
            SparseGrid((4, 4), {(0, 4): 1.0})

    def test_wrong_dimensionality_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            SparseGrid((4, 4)).add_many([[1]], 1.0)

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            SparseGrid(())
        with pytest.raises(ValueError):
            SparseGrid((0, 3))

    def test_total_cells_and_memory(self):
        grid = SparseGrid((10, 10, 10), {(1, 1, 1): 1.0, (2, 2, 2): 1.0})
        assert grid.n_total_cells == 1000
        assert grid.memory_cells() == 2

    def test_prune_keeps_strictly_above_threshold(self):
        grid = SparseGrid((4,), {(0,): 1.0, (1,): 2.0, (2,): 3.0})
        pruned = grid.prune(2.0)
        assert pruned.items() == [((2,), 3.0)]

    def test_copy_is_independent(self):
        grid = SparseGrid((4,), {(0,): 1.0})
        clone = grid.copy()
        clone.add_many([[1]], 1.0)
        assert len(grid) == 1 and len(clone) == 2

    def test_to_dense(self):
        grid = SparseGrid((3, 3), {(1, 2): 4.0, (0, 0): 1.0})
        dense = np.zeros((3, 3))
        dense[1, 2] = 4.0
        dense[0, 0] = 1.0
        np.testing.assert_array_equal(grid.to_dense(), dense)

    def test_from_coo_dense_roundtrip(self):
        dense = np.zeros((3, 3))
        dense[1, 2] = 4.0
        dense[0, 0] = 1.0
        occupied = np.argwhere(dense != 0)
        grid = SparseGrid.from_coo(dense.shape, occupied, dense[tuple(occupied.T)])
        np.testing.assert_array_equal(grid.to_dense(), dense)

    def test_from_coo_accumulates_duplicates(self):
        grid = SparseGrid.from_coo((4, 4), [[1, 1], [0, 2], [1, 1]], [1.0, 3.0, 2.0])
        assert grid.items() == [((0, 2), 3.0), ((1, 1), 3.0)]

    def test_to_dense_refuses_high_dimension(self):
        grid = SparseGrid((2,) * 8)
        with pytest.raises(ValueError, match="refusing"):
            grid.to_dense()

    def test_line_matrix_along_axis(self):
        grid = SparseGrid((4, 3), {(0, 1): 2.0, (2, 1): 3.0, (1, 0): 1.0})
        keys, matrix = grid.line_matrix(0)
        # Two occupied lines, in key order: column 0, then column 1.
        assert keys.tolist() == [[0], [1]]
        np.testing.assert_array_equal(matrix, [[0.0, 1.0, 0.0, 0.0], [2.0, 0.0, 3.0, 0.0]])

    def test_line_matrix_invalid_axis(self):
        with pytest.raises(ValueError, match="axis"):
            SparseGrid((4, 4)).line_matrix(2)

    def test_total_mass(self):
        grid = SparseGrid((4,), {(0,): 1.5, (3,): 2.5})
        assert grid.total_mass() == pytest.approx(4.0)

    def test_densities_order_matches_items(self):
        grid = SparseGrid((5,), {(4,): 9.0, (0,): 1.0})
        assert grid.items() == [((0,), 1.0), ((4,), 9.0)]
        assert grid.values.tolist() == [density for _, density in grid.items()]

    def test_added_points_fold_once_they_outnumber_the_cells(self):
        grid = SparseGrid((8, 8))
        codes = np.arange(64)
        grid.add_points(codes)                       # 64 > 0 cells: folded
        assert not grid._pending_chunks and grid.n_occupied == 64
        grid.add_points(codes[:10])                  # 10 <= 64: pending
        assert len(grid._pending_chunks) == 1
        grid.add_points(codes)                       # 74 > 64: folded
        assert not grid._pending_chunks
        np.testing.assert_array_equal(grid.values, np.where(codes < 10, 3.0, 2.0))


class TestGridQuantizer:
    def test_counts_points_per_cell(self):
        points = np.array([[0.1, 0.1], [0.12, 0.11], [0.9, 0.9]])
        result = GridQuantizer(scale=4).fit_transform(points)
        assert result.grid.total_mass() == 3.0
        assert result.grid.n_occupied == 2

    def test_cell_ids_within_range(self):
        rng = np.random.default_rng(0)
        points = rng.uniform(size=(500, 3))
        result = GridQuantizer(scale=8).fit_transform(points)
        assert result.cell_ids.shape == (500, 3)
        assert result.cell_ids.min() >= 0
        assert result.cell_ids.max() <= 7

    def test_maximum_value_falls_in_last_cell(self):
        points = np.array([[0.0], [1.0]])
        result = GridQuantizer(scale=4).fit_transform(points)
        assert result.cell_ids[1, 0] == 3

    def test_per_dimension_scale(self):
        points = np.random.default_rng(1).uniform(size=(100, 2))
        result = GridQuantizer(scale=(4, 16)).fit_transform(points)
        assert result.grid.shape == (4, 16)

    def test_scale_length_mismatch(self):
        with pytest.raises(ValueError, match="entries"):
            GridQuantizer(scale=(4, 4, 4)).fit(np.random.uniform(size=(10, 2)))

    def test_explicit_bounds(self):
        points = np.array([[0.55, 0.75]])
        quantizer = GridQuantizer(scale=10, bounds=([0.0, 0.0], [1.0, 1.0]))
        result = quantizer.fit_transform(points)
        assert result.cell_ids[0].tolist() == [5, 7]

    def test_points_outside_bounds_rejected(self):
        quantizer = GridQuantizer(scale=4, bounds=([0.0], [1.0]))
        with pytest.raises(ValueError, match="outside"):
            quantizer.fit(np.array([[2.0]]))

    def test_constant_dimension_handled(self):
        points = np.column_stack([np.random.uniform(size=20), np.full(20, 3.0)])
        result = GridQuantizer(scale=8).fit_transform(points)
        assert set(result.cell_ids[:, 1].tolist()) == {0}

    def test_subnormal_span_handled_like_a_constant_dimension(self):
        """A span whose cell width would underflow to zero gets the unit span
        of a constant dimension instead of dividing by zero."""
        for points in ([[0.0, 0.0], [5e-324, 0.0]], [[1.0, 0.0], [1.0, 5e-324]]):
            quantizer = GridQuantizer(scale=2)
            result = quantizer.fit_transform(np.array(points))
            assert np.all(quantizer.widths_ > 0)
            assert dict(result.grid.items()) == {(0, 0): 2.0}

    def test_transform_requires_fit(self):
        with pytest.raises(RuntimeError, match="fitted"):
            GridQuantizer(scale=4).transform(np.ones((2, 2)))

    def test_feature_count_mismatch_after_fit(self):
        quantizer = GridQuantizer(scale=4).fit(np.random.uniform(size=(10, 2)))
        with pytest.raises(ValueError, match="features"):
            quantizer.transform(np.random.uniform(size=(5, 3)))

    def test_scale_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            GridQuantizer(scale=1).fit(np.random.uniform(size=(10, 2)))

    def test_cell_centers(self):
        quantizer = GridQuantizer(scale=4, bounds=([0.0, 0.0], [4.0, 4.0]))
        quantizer.fit(np.array([[0.5, 0.5], [3.5, 3.5]]))
        centers = quantizer.cell_centers([(0, 0), (3, 3)])
        np.testing.assert_allclose(centers, [[0.5, 0.5], [3.5, 3.5]], rtol=1e-6)

    def test_order_insensitivity_of_grid(self):
        rng = np.random.default_rng(5)
        points = rng.uniform(size=(300, 2))
        shuffled = points[rng.permutation(300)]
        grid_a = GridQuantizer(scale=16).fit_transform(points).grid
        grid_b = GridQuantizer(scale=16).fit_transform(shuffled).grid
        assert dict(grid_a.items()) == dict(grid_b.items())
