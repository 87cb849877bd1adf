"""Hypothesis properties of the lookup path.

Four pins:

* :class:`~repro.grid.lookup.CellLabelIndex` -- the code lookup behind
  every fit, tune candidate, drift check and ``predict`` -- must agree with
  a brute-force scan over the labelled cells for arbitrary inputs (random
  dimensionalities, boxes and duplicate-free cells), including the
  astronomically-large-box regime of exact Python-int codes;
* its lookups, counted through a label table over the codec's box where the
  codec's size rule says so, must equal the ``searchsorted`` lookups of the
  sorted cell codes, for codes inside and outside the box;
* a fit maps every point through the levels its transform *applied*: on
  grids with axes of 2-4 cells the transform stops early, and the fit, its
  exported model and the reference engine must still label every point
  with the label of the surviving transformed cell that holds it;
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
from repro.core.transform import applied_level
from repro.engine.reference import fit_reference
from repro.grid.codec import CellCodec, _sort_rows
from repro.grid.lookup import NOISE_LABEL, CellLabelIndex
from repro.serve.model import ClusterModel

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@st.composite
def labelled_cells(draw, max_dim=4):
    """Random (ndim, cells, labels, queries) with duplicate-free labelled cells.

    ``span`` stretches coordinates up to +-2**34, which in >= 2 dimensions
    makes boxes of at least 2**62 cells and exercises the exact Python-int
    codes alongside the int64 ones.
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


def _index(ndim, cells, labels, queries):
    """An index over the box ``[-span, span]`` per axis that holds every
    labelled and queried cell."""
    span = max([abs(c) for cell in cells + queries for c in cell], default=0)
    codec = CellCodec([2 * span + 1] * ndim, [-span] * ndim)
    codes = codec.encode(np.asarray(cells, dtype=np.int64).reshape(len(cells), ndim))
    return CellLabelIndex(codec, codes, np.asarray(labels, dtype=np.int64))


def _outside_codes(codec):
    """Codes just outside the box, on both sides."""
    return np.asarray([-1, -(2**40), codec.size, codec.size + 2**40], dtype=codec.dtype)


@given(data=labelled_cells())
def test_cell_label_index_matches_bruteforce_scan(data):
    ndim, cells, labels, queries = data
    index = _index(ndim, cells, labels, queries)
    codec = index.codec
    query_codes = codec.encode(np.asarray(queries, dtype=np.int64).reshape(len(queries), ndim))
    got = index.lookup(np.concatenate([query_codes, _outside_codes(codec)]))
    table = dict(zip(cells, labels))
    want = [table.get(query, NOISE_LABEL) for query in queries] + [NOISE_LABEL] * 4
    np.testing.assert_array_equal(got, np.asarray(want, dtype=np.int64))


def _searchsorted_lookup(index, codes):
    """The sort-path oracle: ``searchsorted`` over the index's sorted codes."""
    return _sort_rows(index.codes, np.asarray(codes, dtype=index.codec.dtype), index.labels)


@given(data=labelled_cells(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_counted_lookup_equals_searchsorted_lookup(data, seed):
    ndim, cells, labels, queries = data
    index = _index(ndim, cells, labels, queries)
    codec = index.codec
    codes = codec.encode(np.asarray(queries, dtype=np.int64).reshape(len(queries), ndim))
    rng = np.random.default_rng(seed)
    if len(index.codes) and not codec.exact:
        # Many codes around the box (some outside it), enough to put the
        # codes-proportional arm of the lookup size rule to work.
        n = int(rng.choice([1, 50, 5_000]))
        around = rng.integers(-3, min(codec.size + 3, 2**20), size=n)
        codes = np.concatenate([codes, around])
    codes = np.concatenate([codes, _outside_codes(codec)])
    got = index.lookup(codes)
    np.testing.assert_array_equal(got, _searchsorted_lookup(index, codes))
    assert got.dtype == np.int64


@pytest.mark.parametrize("shape", [(64, 64), (256, 256, 2), (3,), (2**31, 2**31, 4)])
def test_grid_index_lookup_on_both_sides_of_the_size_rule(shape):
    """A served index over a whole grid codec answers code queries the
    same way by either path, for few and for many queries."""
    codec = CellCodec(shape)
    rng = np.random.default_rng(len(shape))
    cells = np.unique(
        np.column_stack([rng.integers(0, min(s, 50), size=200) for s in shape]), axis=0
    )
    index = CellLabelIndex(codec, codec.encode(cells), rng.integers(0, 4, len(cells)))
    for n in (0, 1, 3, 20_000):
        rows = rng.integers(0, len(cells), size=n)
        codes = codec.encode(cells[rows])
        if not codec.exact and n:
            codes[::3] = rng.integers(0, codec.size, size=len(codes[::3]))
        np.testing.assert_array_equal(index.lookup(codes), _searchsorted_lookup(index, codes))


def _assert_labels_follow_applied_level(model, X, reference):
    """Every point carries the label of the surviving transformed cell
    (its cell ``// 2 ** applied level``) that holds it, noise elsewhere, and
    the exported model and the reference engine agree with the fit."""
    result = model.result_
    assert result.level == applied_level(result.quantization.grid.shape, model.level)
    survivors = {
        tuple(cell): label
        for cell, label in zip(result.cell_coords.tolist(), result.cell_labels.tolist())
    }
    cells = result.quantization.cell_ids // 2**result.level
    want = [survivors.get(tuple(cell), NOISE_LABEL) for cell in cells.tolist()]
    np.testing.assert_array_equal(model.labels_, want)
    np.testing.assert_array_equal(model.export_model().predict(X), model.labels_)
    np.testing.assert_array_equal(reference.labels, model.labels_)


def test_transform_that_stops_early_labels_the_band_its_survivors_cover():
    """A (2, 64) grid takes one decomposition level whatever ``level`` asks
    for; the points must be mapped through that one level."""
    rng = np.random.default_rng(0)
    low = np.column_stack([rng.uniform(size=3000), rng.normal(0.2, 0.02, 3000)])
    high = np.column_stack([rng.uniform(size=3000), rng.normal(0.8, 0.02, 3000)])
    X = np.clip(np.vstack([low, high, rng.uniform(size=(2000, 2))]), 0.0, 1.0)
    params = dict(scale=(2, 64), level=3, bounds=([0.0, 0.0], [1.0, 1.0]))
    model = AdaWave(**params).fit(X)
    assert model.result_.level == 1
    assert model.n_clusters_ == 1
    _assert_labels_follow_applied_level(model, X, fit_reference(X, **params))
    clustered = X[model.labels_ != NOISE_LABEL, 1]
    # The surviving cells cover the y ~ 0.2 band, and so do the labels.
    assert len(clustered) > 2500
    assert clustered.min() >= 0.15 and clustered.max() < 0.25


@st.composite
def small_grid_fits(draw):
    """Blobs plus uniform noise, fitted on grids with axes of 2-4 cells."""
    ndim = draw(st.integers(min_value=1, max_value=3))
    axis = st.sampled_from([2, 3, 4, 8, 16, 32])
    scale = tuple(draw(st.lists(axis, min_size=ndim, max_size=ndim)))
    level = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.15, 0.85, size=(draw(st.integers(1, 3)), ndim))
    blobs = [rng.normal(center, 0.04, size=(120, ndim)) for center in centers]
    X = np.clip(np.vstack(blobs + [rng.uniform(size=(120, ndim))]), 0.0, 1.0)
    # Single-cell clusters count too: a transformed grid of a few cells
    # rarely holds a component of three.
    min_cluster_cells = draw(st.sampled_from([1, 3]))
    return X, dict(
        scale=scale, level=level, min_cluster_cells=min_cluster_cells,
        bounds=(np.zeros(ndim), np.ones(ndim)),
    )


@given(case=small_grid_fits())
@settings(deadline=None)
def test_labels_follow_the_applied_level(case):
    X, params = case
    model = AdaWave(**params).fit(X)
    _assert_labels_follow_applied_level(model, X, fit_reference(X, **params))


@given(data=labelled_cells(max_dim=3), seed=st.integers(min_value=0, max_value=2**32 - 1))
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
