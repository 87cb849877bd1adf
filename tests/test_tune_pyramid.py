"""Coarsening exactness and grid-pyramid construction.

The tuning subsystem rests on one identity: for power-of-two scales,
``quantize(X, s) == quantize(X, 2 * s).coarsen(2)`` bit for bit (same
bounds).  These tests pin that identity down -- deterministically, under
Hypothesis-randomized inputs, for per-dimension scale sequences and for
merged streaming sketches -- plus the pyramid's construction and validation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.adawave import AdaWave
from repro.grid.quantizer import GridQuantizer
from repro.grid.sparse_grid import SparseGrid
from repro.tune import GridPyramid, default_base_scale, is_power_of_two

BOUNDS = ([0.0, 0.0], [1.0, 1.0])


def _assert_grids_identical(actual: SparseGrid, expected: SparseGrid) -> None:
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.coords, expected.coords)
    np.testing.assert_array_equal(actual.values, expected.values)


points_2d = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
    min_size=2,
    max_size=120,
)


class TestCoarsenExactness:
    @given(points=points_2d, exponent=st.integers(min_value=2, max_value=7))
    @settings(max_examples=80, deadline=None)
    def test_coarsen_equals_quantize_at_half_scale(self, points, exponent):
        """coarsen(quantize(X, 2s)) == quantize(X, s), bit for bit."""
        X = np.asarray(points)
        scale = 2**exponent
        fine = GridQuantizer(scale=2 * scale, bounds=BOUNDS).fit_transform(X).grid
        coarse = GridQuantizer(scale=scale, bounds=BOUNDS).fit_transform(X).grid
        _assert_grids_identical(fine.coarsen(2), coarse)

    @given(points=points_2d, steps=st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_coarsen_composes(self, points, steps):
        """coarsen(2) applied k times == coarsen(2**k) in one shot."""
        X = np.asarray(points)
        grid = GridQuantizer(scale=128, bounds=BOUNDS).fit_transform(X).grid
        stepwise = grid
        for _ in range(steps):
            stepwise = stepwise.coarsen(2)
        _assert_grids_identical(stepwise, grid.coarsen(2**steps))

    @given(
        points=points_2d,
        exp_x=st.integers(min_value=2, max_value=6),
        exp_y=st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_per_dimension_scale_sequences(self, points, exp_x, exp_y):
        """The identity holds per dimension for anisotropic scales."""
        X = np.asarray(points)
        scale = (2**exp_x, 2**exp_y)
        fine = GridQuantizer(
            scale=(2 * scale[0], 2 * scale[1]), bounds=BOUNDS
        ).fit_transform(X).grid
        coarse = GridQuantizer(scale=scale, bounds=BOUNDS).fit_transform(X).grid
        _assert_grids_identical(fine.coarsen(2), coarse)
        # And coarsening along one axis only.
        semi = GridQuantizer(
            scale=(scale[0], 2 * scale[1]), bounds=BOUNDS
        ).fit_transform(X).grid
        _assert_grids_identical(fine.coarsen((2, 1)), semi)

    @given(
        points=points_2d,
        n_batches=st.integers(min_value=1, max_value=5),
        exponent=st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_merged_streaming_sketches_coarsen_exactly(
        self, points, n_batches, exponent
    ):
        """Coarsening a merged multi-shard stream sketch == quantizing the
        concatenated data at the half scale: the rescale primitive composes
        with the mergeable-sketch property."""
        X = np.asarray(points)
        scale = 2**exponent
        shards = [
            AdaWave(scale=2 * scale, bounds=BOUNDS, lookup_only=True)
            for _ in range(n_batches)
        ]
        for shard, batch in zip(shards, np.array_split(X, n_batches)):
            shard.partial_fit(batch)
        merged = AdaWave(scale=2 * scale, bounds=BOUNDS, lookup_only=True)
        for shard in shards:
            merged.merge_stream(shard)
        expected = GridQuantizer(scale=scale, bounds=BOUNDS).fit_transform(X).grid
        _assert_grids_identical(merged._sketch.coarsen(2), expected)

    def test_mass_is_preserved(self):
        rng = np.random.default_rng(0)
        grid = GridQuantizer(scale=64, bounds=BOUNDS).fit_transform(
            rng.uniform(size=(3000, 2))
        ).grid
        for factor in (1, 2, 8, 64):
            assert grid.coarsen(factor).total_mass() == grid.total_mass()

    def test_factor_one_is_identity_copy(self):
        grid = SparseGrid((8, 8), {(1, 2): 3.0, (7, 7): 1.0})
        copy = grid.coarsen(1)
        _assert_grids_identical(copy, grid)
        copy.add_many([[0, 0]], 1.0)
        assert dict(grid.items()) == {(1, 2): 3.0, (7, 7): 1.0}  # independent storage

    def test_invalid_factors_raise(self):
        grid = SparseGrid((8, 8), {(0, 0): 1.0})
        with pytest.raises(ValueError, match=">= 1"):
            grid.coarsen(0)
        with pytest.raises(ValueError, match="per dimension"):
            grid.coarsen((2, 2, 2))

    def test_non_divisible_shape_uses_ceil(self):
        grid = SparseGrid((5, 5), {(4, 4): 2.0, (0, 0): 1.0})
        coarse = grid.coarsen(2)
        assert coarse.shape == (3, 3)
        assert dict(coarse.items()) == {(2, 2): 2.0, (0, 0): 1.0}


class TestGridPyramid:
    def _grid(self, scale=64, n=4000, seed=0):
        rng = np.random.default_rng(seed)
        return GridQuantizer(scale=scale, bounds=BOUNDS).fit_transform(
            rng.uniform(size=(n, 2))
        ).grid

    def test_levels_match_direct_quantization(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(5000, 2))
        base = GridQuantizer(scale=64, bounds=BOUNDS).fit_transform(X).grid
        pyramid = GridPyramid(base, min_scale=8)
        assert pyramid.factors == (1, 2, 4, 8)
        for level in pyramid:
            expected = GridQuantizer(
                scale=level.scale, bounds=BOUNDS
            ).fit_transform(X).grid
            _assert_grids_identical(level.grid, expected)

    def test_explicit_factors(self):
        pyramid = GridPyramid(self._grid(), factors=(1, 4))
        assert pyramid.factors == (1, 4)
        assert pyramid.levels[1].scale == (16, 16)

    def test_rejects_non_power_of_two_base(self):
        grid = SparseGrid((100, 100), {(0, 0): 1.0})
        with pytest.raises(ValueError, match="power-of-two"):
            GridPyramid(grid)

    def test_rejects_bad_factors(self):
        grid = self._grid()
        with pytest.raises(ValueError, match="powers of two"):
            GridPyramid(grid, factors=(1, 3))
        with pytest.raises(ValueError, match="exceeds"):
            GridPyramid(grid, factors=(128,))
        with pytest.raises(ValueError, match="increasing"):
            GridPyramid(grid, factors=(4, 2))

    def test_default_base_scale_is_power_of_two(self):
        for d in range(1, 12):
            assert is_power_of_two(default_base_scale(d))
        assert default_base_scale(2) == 256
        with pytest.raises(ValueError, match="n_features"):
            default_base_scale(0)
