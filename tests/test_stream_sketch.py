"""StreamSketch: the extracted streaming substrate.

The sketch must reproduce exactly the accumulation semantics AdaWave's
streaming path had inline (the streaming-invariance tests pin the estimator
side), plus the new first-class operations: snapshots, windowed forgetting,
decay, and the actionable merge errors.
"""

import numpy as np
import pytest

from repro.core.adawave import AdaWave
from repro.grid.quantizer import GridQuantizer
from repro.stream import SketchSnapshot, StreamSketch

BOUNDS = ([0.0, 0.0], [1.0, 1.0])


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(7)
    return rng.uniform(size=(4000, 2))


class TestIngest:
    def test_matches_one_shot_quantization(self, points):
        sketch = StreamSketch(BOUNDS, 64, 2)
        for batch in np.array_split(points, 5):
            sketch.ingest(batch)
        expected = GridQuantizer(scale=64, bounds=BOUNDS).fit_transform(points).grid
        np.testing.assert_array_equal(sketch.grid.coords, expected.coords)
        np.testing.assert_array_equal(sketch.grid.values, expected.values)
        assert sketch.n_seen == len(points)
        assert sketch.n_batches == 5
        assert sketch.total_mass() == len(points)

    def test_returns_cells(self, points):
        sketch = StreamSketch(BOUNDS, 64, 2)
        codes = sketch.ingest(points[:100])
        expected = GridQuantizer(scale=64, bounds=BOUNDS).fit_transform(points[:100])
        np.testing.assert_array_equal(sketch.grid.codec.decode(codes), expected.cell_ids)

    def test_empty_batch_is_noop(self, points):
        sketch = StreamSketch(BOUNDS, 64, 2)
        out = sketch.ingest(np.empty((0, 2)))
        assert out.shape == (0,)
        assert sketch.n_seen == 0
        assert sketch.n_batches == 0

    def test_out_of_bounds_raises(self, points):
        sketch = StreamSketch(BOUNDS, 64, 2)
        with pytest.raises(ValueError, match="outside"):
            sketch.ingest(np.array([[1.5, 0.5]]))

    def test_feature_mismatch_raises(self, points):
        sketch = StreamSketch(BOUNDS, 64, 2)
        with pytest.raises(ValueError, match="features"):
            sketch.ingest(np.zeros((3, 3)))

    def test_lookup_only_pending_state_follows_occupied_cells(self):
        """50 lookup-only batches of 20k uniform points into a 64**2 grid
        keep at most one pending entry per occupied cell and batch
        (50 * 4096), never one per point (10**6 entries, 16 MB)."""
        rng = np.random.default_rng(3)
        model = AdaWave(scale=64, bounds=BOUNDS, lookup_only=True)
        for _ in range(50):
            model.partial_fit(rng.uniform(size=(20_000, 2)))
        pending = model._sketch.grid._pending_chunks
        assert sum(len(codes) for codes, _ in pending) <= 50 * 64 * 64
        assert sum(codes.nbytes + values.nbytes for codes, values in pending) <= 50 * 64 * 64 * 16
        assert model._sketch.total_mass() == 50 * 20_000
        assert model.finalize().labels_.shape == (0,)

    def test_requires_bounds(self):
        with pytest.raises(ValueError, match="bounds"):
            StreamSketch(None, 64, 2)


class TestMerge:
    def test_shard_merge_is_exact(self, points):
        whole = StreamSketch(BOUNDS, 64, 2)
        whole.ingest(points)
        left = StreamSketch(BOUNDS, 64, 2)
        right = StreamSketch(BOUNDS, 64, 2)
        left.ingest(points[: len(points) // 2])
        right.ingest(points[len(points) // 2 :])
        left.merge(right)
        np.testing.assert_array_equal(left.grid.coords, whole.grid.coords)
        np.testing.assert_array_equal(left.grid.values, whole.grid.values)
        assert left.n_seen == len(points)

    def test_different_scale_raises(self):
        with pytest.raises(ValueError, match="different grids"):
            StreamSketch(BOUNDS, 64, 2).merge(StreamSketch(BOUNDS, 32, 2))

    def test_different_bounds_error_names_both_bounds(self):
        """The actionable error: both geometries spelled out, pointing at
        re-quantization (a silent wrong-cell merge is the failure it
        replaces)."""
        ours = StreamSketch(BOUNDS, 64, 2)
        theirs = StreamSketch(([0.0, 0.0], [2.0, 2.0]), 64, 2)
        with pytest.raises(ValueError) as excinfo:
            ours.merge(theirs)
        message = str(excinfo.value)
        assert "different grids" in message
        # Both uppers appear (1.0... from ours, 2.0... from theirs), and the
        # fix is named.
        assert "1." in message and "2." in message
        assert "re-quantize" in message.lower()

    def test_adawave_merge_stream_surfaces_the_bounds_error(self, points):
        left = AdaWave(scale=64, bounds=BOUNDS).partial_fit(points[:100])
        other = AdaWave(scale=64, bounds=([0.0, 0.0], [2.0, 2.0]))
        other.partial_fit(points[:100])
        with pytest.raises(ValueError, match="(?i)re-quantize"):
            left.merge_stream(other)

    def test_windowed_sketches_refuse_to_merge(self, points):
        windowed = StreamSketch(BOUNDS, 64, 2, window=4)
        plain = StreamSketch(BOUNDS, 64, 2)
        plain.ingest(points[:100])
        with pytest.raises(ValueError, match="window"):
            windowed.merge(plain)
        with pytest.raises(ValueError, match="window"):
            plain.merge(windowed)

    def test_non_sketch_rejected(self):
        with pytest.raises(TypeError, match="StreamSketch"):
            StreamSketch(BOUNDS, 64, 2).merge(object())


class TestWindow:
    def test_window_keeps_only_recent_batches(self, points):
        sketch = StreamSketch(BOUNDS, 64, 2, window=2)
        batches = np.array_split(points, 4)
        for batch in batches:
            sketch.ingest(batch)
        expected = GridQuantizer(scale=64, bounds=BOUNDS).fit_transform(
            np.vstack(batches[-2:])
        ).grid
        np.testing.assert_array_equal(sketch.grid.coords, expected.coords)
        np.testing.assert_array_equal(sketch.grid.values, expected.values)
        # Raw counter keeps everything; the window view reports the retained mass.
        assert sketch.n_seen == len(points)
        assert sketch.n_window == sum(len(b) for b in batches[-2:])

    def test_window_longer_than_stream_equals_cumulative(self, points):
        windowed = StreamSketch(BOUNDS, 64, 2, window=10)
        plain = StreamSketch(BOUNDS, 64, 2)
        for batch in np.array_split(points, 3):
            windowed.ingest(batch)
            plain.ingest(batch)
        np.testing.assert_array_equal(windowed.grid.coords, plain.grid.coords)
        np.testing.assert_array_equal(windowed.grid.values, plain.grid.values)


class TestDecayAndSnapshot:
    def test_decay_scales_mass(self, points):
        sketch = StreamSketch(BOUNDS, 64, 2)
        sketch.ingest(points)
        sketch.decay(0.5)
        assert sketch.total_mass() == pytest.approx(len(points) / 2)
        assert sketch.n_seen == len(points)  # raw counter untouched

    def test_decayed_cell_plus_a_batch_is_one_addition(self):
        """A batch joins the sketch as per-cell counts: a decayed density v
        plus k points of the next batch becomes ``v + k``, one rounding,
        where adding k unit masses one at a time would round k times."""
        v, k = 0.7285605268117946, 5
        assert v + k != ((((v + 1.0) + 1.0) + 1.0) + 1.0) + 1.0
        sketch = StreamSketch(([0.0], [1.0]), 4, 1)
        sketch.ingest(np.full((1, 1), 0.1))
        sketch.decay(v)
        sketch.ingest(np.full((k, 1), 0.1))
        np.testing.assert_array_equal(sketch.grid.values, [v + k])

    def test_decay_validates_factor(self):
        sketch = StreamSketch(BOUNDS, 64, 2)
        with pytest.raises(ValueError, match="decay"):
            sketch.decay(0.0)
        with pytest.raises(ValueError, match="decay"):
            sketch.decay(1.5)

    def test_snapshot_is_decoupled_from_live_sketch(self, points):
        sketch = StreamSketch(BOUNDS, 64, 2)
        sketch.ingest(points[:1000])
        snap = sketch.snapshot()
        assert isinstance(snap, SketchSnapshot)
        mass_before = snap.total_mass()
        sketch.ingest(points[1000:])
        assert snap.total_mass() == mass_before
        assert snap.n_seen == 1000
        assert sketch.n_seen == len(points)
        assert snap.shape == sketch.shape

    def test_coarsen_matches_direct_quantization(self, points):
        sketch = StreamSketch(BOUNDS, 64, 2)
        sketch.ingest(points)
        expected = GridQuantizer(scale=32, bounds=BOUNDS).fit_transform(points).grid
        coarse = sketch.coarsen(2)
        np.testing.assert_array_equal(coarse.coords, expected.coords)
        np.testing.assert_array_equal(coarse.values, expected.values)

    def test_clear_keeps_geometry(self, points):
        sketch = StreamSketch(BOUNDS, 64, 2)
        sketch.ingest(points)
        sketch.clear()
        assert sketch.n_seen == 0
        assert sketch.grid.n_occupied == 0
        assert sketch.shape == (64, 64)
        sketch.ingest(points[:10])  # still usable
        assert sketch.n_seen == 10


class TestAdaWaveAdapter:
    """partial_fit is now a thin adapter over StreamSketch."""

    def test_partial_fit_populates_a_sketch(self, points):
        model = AdaWave(scale=64, bounds=BOUNDS)
        model.partial_fit(points)
        assert isinstance(model._sketch, StreamSketch)
        assert model._sketch.n_seen == model.n_seen_ == len(points)

    def test_sketch_grid_equals_streamed_quantization(self, points):
        model = AdaWave(scale=64, bounds=BOUNDS)
        for batch in np.array_split(points, 3):
            model.partial_fit(batch)
        expected = GridQuantizer(scale=64, bounds=BOUNDS).fit_transform(points).grid
        np.testing.assert_array_equal(model._sketch.grid.coords, expected.coords)
        np.testing.assert_array_equal(model._sketch.grid.values, expected.values)
