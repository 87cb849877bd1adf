"""Hypothesis equivalence tests: vectorized engine vs reference implementations.

Every vectorized stage (COO grid accumulation / merge, sort-join connected
components, array lookup) is compared against the straightforward dict-based
implementation on randomized inputs.  Agreement here plus the golden fixtures
is what lets the vectorized engine replace the seed implementation safely.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.adawave import AdaWave
from repro.engine import reference
from repro.grid.connectivity import connected_components, label_components_array
from repro.grid.codec import CellCodec
from repro.grid.lookup import CellLabelIndex, LookupTable
from repro.grid.quantizer import GridQuantizer
from repro.grid.sparse_grid import SparseGrid
from repro.spatial.union_find import ArrayUnionFind, UnionFind

cells_2d = st.lists(
    st.tuples(st.integers(min_value=0, max_value=11), st.integers(min_value=0, max_value=11)),
    min_size=0,
    max_size=60,
)

coo_entries = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
        st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    ),
    min_size=0,
    max_size=60,
)


def _accumulate_dict(entries):
    table = {}
    for row, col, value in entries:
        table[(row, col)] = table.get((row, col), 0.0) + value
    return table


class TestSparseGridEquivalence:
    @given(entries=coo_entries)
    def test_bulk_accumulation_matches_scalar_adds(self, entries):
        """One ``add_many`` over every entry accumulates what one call per
        entry does."""
        bulk = SparseGrid((8, 8))
        if entries:
            coords = np.array([(r, c) for r, c, _ in entries], dtype=np.int64)
            values = np.array([v for _, _, v in entries])
            bulk.add_many(coords, values)
        scalar = SparseGrid((8, 8))
        for row, col, value in entries:
            scalar.add_many([[row, col]], value)
        expected = _accumulate_dict(entries)
        assert dict(bulk.items()) == pytest.approx(expected)
        assert dict(scalar.items()) == pytest.approx(expected)

    @given(first=coo_entries, second=coo_entries)
    def test_merge_equals_concatenated_accumulation(self, first, second):
        grid_a = SparseGrid((8, 8), _accumulate_dict(first))
        grid_b = SparseGrid((8, 8), _accumulate_dict(second))
        grid_a.merge(grid_b)
        assert dict(grid_a.items()) == pytest.approx(_accumulate_dict(first + second))

    @given(entries=coo_entries, axis=st.integers(min_value=0, max_value=1))
    def test_line_matrix_matches_reference_lines(self, entries, axis):
        grid = SparseGrid((8, 8), _accumulate_dict(entries))
        keys, matrix = grid.line_matrix(axis)
        lines = reference.lines_reference(grid, axis)
        assert [tuple(key) for key in keys.tolist()] == sorted(lines)
        for key, row in zip(keys.tolist(), matrix):
            np.testing.assert_array_equal(row, lines[tuple(key)])

    @given(entries=coo_entries)
    def test_coords_values_are_canonical(self, entries):
        grid = SparseGrid((8, 8), _accumulate_dict(entries))
        coords = grid.coords
        # Lexicographically sorted and unique.
        as_tuples = [tuple(row) for row in coords.tolist()]
        assert as_tuples == sorted(set(as_tuples))
        assert len(grid.values) == len(coords)


class TestConnectivityEquivalence:
    @given(cells=cells_2d, connectivity=st.sampled_from(["face", "full"]))
    def test_vectorized_matches_hash_probing(self, cells, connectivity):
        vectorized = connected_components(cells, connectivity=connectivity)
        hashed = reference.connected_components_reference(cells, connectivity=connectivity)
        assert vectorized == hashed

    @given(cells=cells_2d)
    def test_label_components_array_handles_negative_coordinates(self, cells):
        if not cells:
            return
        shifted = [(row - 6, col - 6) for row, col in cells]
        plain = connected_components(cells)
        moved = connected_components(shifted)
        assert {(r - 6, c - 6): v for (r, c), v in plain.items()} == moved

    @given(
        n=st.integers(min_value=1, max_value=40),
        edges=st.lists(
            st.tuples(st.integers(min_value=0, max_value=39), st.integers(min_value=0, max_value=39)),
            max_size=80,
        ),
    )
    def test_array_union_find_matches_hashable_union_find(self, n, edges):
        edges = [(a % n, b % n) for a, b in edges]
        array_uf = ArrayUnionFind(n)
        if edges:
            pairs = np.asarray(edges, dtype=np.int64)
            array_uf.union_pairs(pairs[:, 0], pairs[:, 1])
        plain = UnionFind(range(n))
        for a, b in edges:
            plain.union(a, b)
        assert array_uf.n_components == plain.n_components
        labels = array_uf.labels()
        for a, b in edges:
            assert (labels[a] == labels[b]) == plain.connected(a, b)


class TestLookupEquivalence:
    @given(
        points=st.lists(
            st.tuples(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15)),
            min_size=1,
            max_size=50,
        ),
        labelled=st.dictionaries(
            st.tuples(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7)),
            st.integers(min_value=0, max_value=5),
            max_size=20,
        ),
        level=st.integers(min_value=0, max_value=2),
    )
    def test_label_points_matches_reference(self, points, labelled, level):
        codec = CellCodec((16, 16))
        point_cells = np.asarray(points, dtype=np.int64)
        # Labelled cells outside the transformed grid (when level 2 leaves
        # 4 x 4 cells) are never reached, so they stay out of the index.
        transformed = codec.coarsen(2**level)
        label_cells = np.asarray(list(labelled), dtype=np.int64).reshape(len(labelled), 2)
        label_values = np.asarray(list(labelled.values()), dtype=np.int64)
        inside = transformed.contains(label_cells)
        index = CellLabelIndex(
            transformed, transformed.encode(label_cells[inside]), label_values[inside]
        )
        vectorized = LookupTable(level=level).label_points_from_arrays(
            codec, codec.encode(point_cells), index
        )
        looped = reference.label_points_reference(point_cells, labelled, level)
        np.testing.assert_array_equal(vectorized, looped)

    def test_label_points_survives_unencodable_extent(self):
        """A grid of 2**62 cells or more must take the exact-code path
        rather than silently colliding."""
        huge = 2**31
        codec = CellCodec((huge + 1, huge + 1))
        assert codec.exact
        point_cells = np.array([[0, 0], [huge, huge], [huge, 0]], dtype=np.int64)
        label_cells = np.array([[0, 0], [huge, huge]], dtype=np.int64)
        index = CellLabelIndex(codec, codec.encode(label_cells), np.array([3, 5]))
        np.testing.assert_array_equal(
            LookupTable(level=0).label_points_from_arrays(
                codec, codec.encode(point_cells), index
            ),
            [3, 5, -1],
        )


class TestQuantizerEquivalence:
    @given(
        points=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            ),
            min_size=2,
            max_size=80,
        ),
        scale=st.integers(min_value=2, max_value=16),
    )
    def test_vectorized_quantize_matches_reference(self, points, scale):
        X = np.asarray(points)
        quantizer = GridQuantizer(scale=scale).fit(X)
        vectorized = quantizer.quantize(X)
        looped = reference.quantize_reference(quantizer, X)
        assert dict(vectorized.grid.items()) == dict(looped.grid.items())
        np.testing.assert_array_equal(vectorized.cell_ids, looped.cell_ids)


class TestEndToEndEngineEquivalence:
    @given(seed=st.integers(min_value=0, max_value=30))
    def test_engines_produce_identical_labels(self, seed):
        # The default (lifting) fit must reproduce the per-cell reference
        # labels: the survivor cut is tie-snapped (repro.core.pipeline
        # .snapped_cut), so last-ulp rounding differences between lifting
        # and the reference's convolution cannot flip exact density ties at
        # the threshold.
        rng = np.random.default_rng(seed)
        blob = rng.normal(loc=0.3, scale=0.04, size=(150, 2))
        noise = rng.uniform(size=(150, 2))
        X = np.vstack([blob, noise])
        ref = reference.fit_reference(X, scale=32)
        vec = AdaWave(scale=32).fit(X)
        np.testing.assert_array_equal(vec.labels_, ref.labels)
        assert vec.n_clusters_ == ref.n_clusters

    def test_reference_needs_no_production_grid_machinery(self, monkeypatch):
        """The reference is an independent oracle: with the line grouping,
        the codec's grouping and neighbour join and the vectorized component
        labeling all raising, it still returns the vectorized fit's labels."""
        rng = np.random.default_rng(7)
        X = np.vstack([
            rng.normal(loc=0.3, scale=0.04, size=(300, 2)),
            rng.normal(loc=0.7, scale=0.04, size=(300, 2)),
            rng.uniform(size=(300, 2)),
        ])
        vec = AdaWave(scale=32).fit(X)

        def unavailable(*args, **kwargs):
            raise AssertionError("the reference called the vectorized engine")

        monkeypatch.setattr(SparseGrid, "_line_grouping", unavailable)
        monkeypatch.setattr(CellCodec, "group", unavailable)
        monkeypatch.setattr(CellCodec, "join", unavailable)
        monkeypatch.setattr(
            "repro.grid.connectivity.label_components_array", unavailable
        )
        ref = reference.fit_reference(X, scale=32)
        np.testing.assert_array_equal(ref.labels, vec.labels_)
        assert ref.n_clusters == vec.n_clusters_ == 2
