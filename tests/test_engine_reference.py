"""Hand-checked cases for the literal stages of repro.engine.reference.

The Hypothesis suite (tests/test_property_engine.py) checks that the
vectorized engine agrees with these stages; the cases here pin the stages
themselves on inputs small enough to work out by hand, so the oracle is not
only ever judged against the engine it checks.
"""

import numpy as np
import pytest

from repro.engine import reference
from repro.grid.lookup import NOISE_LABEL
from repro.grid.quantizer import GridQuantizer
from repro.grid.sparse_grid import SparseGrid


def test_quantize_reference_counts_each_points_cell():
    quantizer = GridQuantizer(scale=4, bounds=([0.0, 0.0], [4.0, 4.0])).fit(np.zeros((1, 2)))
    X = np.array([[0.5, 0.5], [3.5, 1.5], [0.2, 0.9], [3.9, 1.1], [0.1, 0.1]])
    result = reference.quantize_reference(quantizer, X)
    assert result.grid.shape == (4, 4)
    assert result.grid.items() == [((0, 0), 3.0), ((3, 1), 2.0)]
    # Every point's row in the grid's sorted cells.
    assert result.inverse.tolist() == [0, 1, 0, 1, 0]


def test_lines_reference_groups_cells_by_the_other_axes():
    grid = SparseGrid((4, 3), {(0, 1): 2.0, (2, 1): 3.0, (1, 0): 1.0})
    along_rows = reference.lines_reference(grid, 0)
    assert set(along_rows) == {(0,), (1,)}
    np.testing.assert_array_equal(along_rows[(1,)], [2.0, 0.0, 3.0, 0.0])
    np.testing.assert_array_equal(along_rows[(0,)], [0.0, 1.0, 0.0, 0.0])
    along_columns = reference.lines_reference(grid, 1)
    assert set(along_columns) == {(0,), (1,), (2,)}
    np.testing.assert_array_equal(along_columns[(0,)], [0.0, 2.0, 0.0])
    np.testing.assert_array_equal(along_columns[(1,)], [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(along_columns[(2,)], [0.0, 3.0, 0.0])


def test_smoothing_transforms_each_occupied_line():
    # Column 0 is the line [1, 3, 0, 2]: its Haar approximation along axis 0
    # is [4, 2] / sqrt(2).  Column 1 is [1, -1, 0, 0], whose approximation
    # vanishes, so it leaves no cell.  Along axis 1 each row then holds one
    # value v at position 0, whose approximation is v / sqrt(2).
    grid = SparseGrid(
        (4, 2), {(0, 0): 1.0, (1, 0): 3.0, (3, 0): 2.0, (0, 1): 1.0, (1, 1): -1.0}
    )
    smoothed, applied = reference.wavelet_smooth_grid_reference(grid, "haar", level=1)
    assert applied == 1
    assert smoothed.shape == (2, 1)
    cells, densities = zip(*smoothed.items())
    assert cells == ((0, 0), (1, 0))
    np.testing.assert_allclose(densities, [2.0, 1.0])


def test_smoothing_stops_once_an_axis_is_one_cell():
    grid = SparseGrid((2, 8), {(0, 3): 1.0, (1, 6): 2.0})
    smoothed, applied = reference.wavelet_smooth_grid_reference(grid, "haar", level=3)
    assert applied == 1
    assert smoothed.shape == (1, 4)


def test_smoothing_rejects_level_below_one():
    with pytest.raises(ValueError, match="level"):
        reference.wavelet_smooth_grid_reference(SparseGrid((4, 4)), "haar", level=0)


def test_components_face_and_full_connectivity():
    cells = [(2, 2), (0, 0), (1, 1), (5, 5), (0, 0)]
    face = reference.connected_components_reference(cells, connectivity="face")
    assert face == {(0, 0): 0, (1, 1): 1, (2, 2): 2, (5, 5): 3}
    full = reference.connected_components_reference(cells, connectivity="full")
    assert full == {(0, 0): 0, (1, 1): 0, (2, 2): 0, (5, 5): 1}


def test_components_of_no_cells_and_of_mixed_dimensionality():
    assert reference.connected_components_reference([]) == {}
    with pytest.raises(ValueError, match="dimensionality"):
        reference.connected_components_reference([(0, 0), (1,)])


def test_label_points_divides_by_two_to_the_level():
    point_cells = np.array([[0, 0], [3, 1], [5, 5], [1, 1]])
    labels = reference.label_points_reference(point_cells, {(0, 0): 0, (1, 0): 1}, level=1)
    assert labels.tolist() == [0, 1, NOISE_LABEL, 0]


def test_extract_clusters_drops_small_components_and_relabels():
    transformed = SparseGrid(
        (6, 6),
        {(0, 0): 5.0, (0, 1): 5.0, (1, 1): 5.0, (3, 3): 0.5, (4, 4): 5.0},
    )
    everything = reference.extract_clusters_reference(transformed, 1.0, "face", 1)
    assert everything == {(0, 0): 0, (0, 1): 0, (1, 1): 0, (4, 4): 1}
    large = reference.extract_clusters_reference(transformed, 1.0, "face", 2)
    assert large == {(0, 0): 0, (0, 1): 0, (1, 1): 0}
    assert reference.extract_clusters_reference(transformed, 10.0, "face", 1) == {}
