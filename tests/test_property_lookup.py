"""Hypothesis properties of the serving lookup path.

Three pins for the serving plane:

* :class:`~repro.grid.lookup.CellLabelIndex` -- the encode/lookup heart of
  every ``predict`` -- must agree with a brute-force scan over the labelled
  cells for arbitrary COO inputs (random dimensionalities, scales and
  duplicate-free coordinates), including the astronomically-large-extent
  regime of exact Python-int codes;
* its lookups, counted through a label table over the codec's box where the
  codec's size rule says so, must equal the ``searchsorted`` lookups of the
  sorted cell codes, for ``(n, d)`` cells inside and outside the box and
  for 1-D codes;
* ``ClusterModel.load(mmap=True)`` must predict bit-for-bit identically to
  the plain (copying) load on the same artifacts -- both for models frozen
  from the committed golden datasets and for randomized cell maps -- since
  the multi-process workers serve exclusively from memory-mapped artifacts.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.adawave import AdaWave
from repro.grid.codec import CellCodec, _sort_rows
from repro.grid.lookup import NOISE_LABEL, CellLabelIndex
from repro.serve.model import ClusterModel

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@st.composite
def labelled_cells(draw, max_dim=4):
    """Random (cells, labels, queries) with duplicate-free labelled cells.

    ``span`` stretches coordinates up to +-2**34, which in >= 2 dimensions
    overflows the dense-extent linear encoding and exercises the index's
    hash-table fallback alongside the searchsorted fast path.
    """
    ndim = draw(st.integers(min_value=1, max_value=max_dim))
    span = draw(st.sampled_from([3, 12, 100, 2**34]))
    coordinate = st.integers(min_value=-span, max_value=span)
    cell = st.tuples(*([coordinate] * ndim))
    cells = draw(st.lists(cell, min_size=0, max_size=40, unique=True))
    labels = draw(
        st.lists(
            st.integers(min_value=0, max_value=7),
            min_size=len(cells),
            max_size=len(cells),
        )
    )
    # Query a mix of labelled cells, their neighbours and far-away misses.
    queries = draw(st.lists(cell, min_size=0, max_size=30))
    for index in range(min(len(cells), len(queries) // 2)):
        queries[index] = cells[index]
    return ndim, cells, labels, queries


@given(data=labelled_cells())
@settings(max_examples=120, deadline=None)
def test_cell_label_index_matches_bruteforce_scan(data):
    ndim, cells, labels, queries = data
    index = CellLabelIndex(
        np.asarray(cells, dtype=np.int64).reshape(len(cells), ndim),
        np.asarray(labels, dtype=np.int64),
    )
    got = index.lookup(
        np.asarray(queries, dtype=np.int64).reshape(len(queries), ndim)
    )
    table = dict(zip(cells, labels))
    want = np.asarray(
        [table.get(query, NOISE_LABEL) for query in queries], dtype=np.int64
    )
    np.testing.assert_array_equal(got, want)


def _searchsorted_lookup(index, cells):
    """The sort-path oracle: ``searchsorted`` over the index's sorted codes."""
    labels = np.full(len(cells), NOISE_LABEL, dtype=np.int64)
    if index.n_cells == 0 or len(cells) == 0:
        return labels
    if cells.ndim == 1:
        return _sort_rows(index._codes, cells.astype(index.codec.dtype), index._values)
    inside = np.flatnonzero(index.codec.contains(cells))
    labels[inside] = _sort_rows(
        index._codes, index.codec.encode(cells[inside]), index._values
    )
    return labels


@given(data=labelled_cells(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_counted_lookup_equals_searchsorted_lookup(data, seed):
    ndim, cells, labels, queries = data
    index = CellLabelIndex(
        np.asarray(cells, dtype=np.int64).reshape(len(cells), ndim),
        np.asarray(labels, dtype=np.int64),
    )
    queries = np.asarray(queries, dtype=np.int64).reshape(len(queries), ndim)
    rng = np.random.default_rng(seed)
    if index.n_cells:
        # Many cells around the labelled box (some outside it), enough to
        # put the codes-proportional arm of the lookup size rule to work.
        lo, hi = index.codec.origin, index.codec.origin + np.asarray(index.codec.shape)
        n = int(rng.choice([1, 50, 5_000]))
        around = rng.integers(lo - 2, np.minimum(hi + 2, lo + 200), size=(n, ndim))
        queries = np.vstack([queries, around])
    got = index.lookup(queries)
    np.testing.assert_array_equal(got, _searchsorted_lookup(index, queries))
    assert got.dtype == np.int64
    if index.n_cells and not index.codec.exact:
        # 1-D codes, including codes outside the box on both sides.
        codes = np.concatenate(
            [rng.integers(-3, index.codec.size + 3, size=len(queries)), [-(2**40), 2**40]]
        )
        np.testing.assert_array_equal(
            index.lookup(codes), _searchsorted_lookup(index, codes)
        )


@pytest.mark.parametrize("shape", [(64, 64), (256, 256, 2), (3,), (2**31, 2**31, 4)])
def test_grid_index_lookup_on_both_sides_of_the_size_rule(shape):
    """A served index over a whole grid codec answers 1-D code queries the
    same way by either path, for few and for many queries."""
    codec = CellCodec(shape)
    rng = np.random.default_rng(len(shape))
    cells = np.unique(
        np.column_stack([rng.integers(0, min(s, 50), size=200) for s in shape]), axis=0
    )
    index = CellLabelIndex.from_codes(codec, codec.encode(cells), rng.integers(0, 4, len(cells)))
    for n in (0, 1, 3, 20_000):
        rows = rng.integers(0, len(cells), size=n)
        codes = codec.encode(cells[rows])
        if not codec.exact and n:
            codes[::3] = rng.integers(0, codec.size, size=len(codes[::3]))
        np.testing.assert_array_equal(index.lookup(codes), _searchsorted_lookup(index, codes))


@given(data=labelled_cells(max_dim=3), seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_mmap_predict_identical_on_random_models(tmp_path_factory, data, seed):
    """save(compress=False) -> load(mmap=True/False) predict bit-for-bit."""
    ndim, cells, labels, _ = data
    model = ClusterModel(
        lower=np.zeros(ndim),
        upper=np.full(ndim, 1.0),
        grid_shape=(64,) * ndim,
        level=1,
        threshold=0.5,
        cell_coords=np.abs(np.asarray(cells, dtype=np.int64).reshape(len(cells), ndim))
        % 32,
        cell_labels=np.asarray(labels, dtype=np.int64),
        n_clusters=len(set(labels)),
    )
    directory = tmp_path_factory.mktemp("mmap_prop")
    path = model.save(directory / "model.npz", compress=False)
    plain = ClusterModel.load(path)
    mapped = ClusterModel.load(path, mmap=True)
    queries = np.random.default_rng(seed).uniform(-0.2, 1.2, size=(300, ndim))
    np.testing.assert_array_equal(plain.predict(queries), mapped.predict(queries))
    np.testing.assert_array_equal(plain.predict(queries), model.predict(queries))


@pytest.mark.parametrize(
    "fixture", ["running_example.npz", "two_moons_noise.npz", "gaussians_4d.npz"]
)
def test_mmap_predict_identical_on_golden_artifacts(fixture, tmp_path):
    """Models frozen from the committed golden datasets serve identically
    through the copying and the memory-mapped load."""
    archive = np.load(GOLDEN_DIR / fixture)
    points = archive["points"]
    scale = int(archive["scale"])
    model = AdaWave(scale=scale).fit(points).export_model()
    path = model.save(tmp_path / "golden_model.npz", compress=False)
    plain = ClusterModel.load(path)
    mapped = ClusterModel.load(path, mmap=True)
    rng = np.random.default_rng(7)
    fresh = rng.uniform(points.min(axis=0), points.max(axis=0), size=(5000, points.shape[1]))
    for queries in (points, fresh):
        served = plain.predict(queries)
        np.testing.assert_array_equal(served, mapped.predict(queries))
        np.testing.assert_array_equal(served, model.predict(queries))
    assert plain.content_digest() == mapped.content_digest() == model.content_digest()
