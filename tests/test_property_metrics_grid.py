"""Hypothesis property tests for metrics, grid structures and the dip test."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.baselines.diptest import dip_statistic
from repro.grid.connectivity import connected_components
from repro.grid.quantizer import GridQuantizer
from repro.grid.sparse_grid import SparseGrid
from repro.metrics import (
    adjusted_mutual_info,
    adjusted_rand_index,
    normalized_mutual_info,
)

label_vectors = st.integers(min_value=2, max_value=60).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(min_value=-1, max_value=4), min_size=n, max_size=n),
        st.lists(st.integers(min_value=-1, max_value=4), min_size=n, max_size=n),
    )
)


class TestMetricProperties:
    @given(pair=label_vectors)
    def test_ami_symmetry(self, pair):
        labels_a, labels_b = pair
        forward = adjusted_mutual_info(labels_a, labels_b)
        backward = adjusted_mutual_info(labels_b, labels_a)
        assert forward == pytest.approx(backward, abs=1e-9)

    @given(pair=label_vectors)
    def test_self_agreement_is_one(self, pair):
        labels, _ = pair
        assert adjusted_mutual_info(labels, labels) == pytest.approx(1.0)
        assert adjusted_rand_index(labels, labels) == pytest.approx(1.0)

    @given(pair=label_vectors)
    def test_metrics_bounded_above_by_one(self, pair):
        labels_a, labels_b = pair
        assert adjusted_mutual_info(labels_a, labels_b) <= 1.0 + 1e-9
        assert normalized_mutual_info(labels_a, labels_b) <= 1.0 + 1e-9
        assert adjusted_rand_index(labels_a, labels_b) <= 1.0 + 1e-9

    @given(pair=label_vectors)
    def test_permutation_invariance_of_label_names(self, pair):
        labels_a, labels_b = pair
        renamed = [label + 10 for label in labels_b]
        assert adjusted_mutual_info(labels_a, labels_b) == pytest.approx(
            adjusted_mutual_info(labels_a, renamed), abs=1e-9
        )


class TestGridProperties:
    @given(
        points=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            ),
            min_size=1,
            max_size=200,
        ),
        scale=st.integers(min_value=2, max_value=32),
    )
    def test_quantization_conserves_mass(self, points, scale):
        array = np.asarray(points)
        result = GridQuantizer(scale=scale).fit_transform(array)
        assert result.grid.total_mass() == pytest.approx(len(points))
        assert result.grid.n_occupied <= len(points)
        assert result.cell_ids.min() >= 0
        assert result.cell_ids.max() < scale

    @given(
        cells=st.sets(
            st.tuples(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9)),
            min_size=1,
            max_size=40,
        )
    )
    def test_connected_components_partition_the_cells(self, cells):
        labels = connected_components(cells, connectivity="face")
        assert set(labels) == set(cells)
        label_values = set(labels.values())
        assert label_values == set(range(len(label_values)))

    @given(
        cells=st.sets(
            st.tuples(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9)),
            min_size=1,
            max_size=40,
        )
    )
    def test_full_connectivity_never_more_components_than_face(self, cells):
        face = connected_components(cells, connectivity="face")
        full = connected_components(cells, connectivity="full")
        assert len(set(full.values())) <= len(set(face.values()))

    @given(
        entries=st.dictionaries(
            st.tuples(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7)),
            st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    def test_sparse_grid_dense_roundtrip(self, entries):
        grid = SparseGrid((8, 8), entries)
        dense = grid.to_dense()
        occupied = np.argwhere(dense != 0)
        roundtripped = SparseGrid.from_coo(dense.shape, occupied, dense[tuple(occupied.T)])
        assert roundtripped.items() == grid.items()


class TestDipProperties:
    @given(
        sample=st.lists(st.integers(min_value=-100, max_value=100), min_size=4, max_size=150),
        shift=st.integers(min_value=-50, max_value=50),
        scale=st.integers(min_value=1, max_value=16),
    )
    def test_dip_bounds_and_affine_invariance(self, sample, shift, scale):
        # Integer-valued samples and integer affine maps keep the tie
        # structure exactly, so the dip must be exactly invariant; the bound
        # is generous because heavy ties inflate the raw estimate.
        values = np.asarray(sample, dtype=np.float64)
        dip = dip_statistic(values)
        assert 0.0 < dip <= 1.0
        transformed = dip_statistic(float(scale) * values + float(shift))
        assert transformed == pytest.approx(dip, abs=1e-12)
