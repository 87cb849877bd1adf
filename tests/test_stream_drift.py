"""DriftMonitor and the end-to-end drift -> re-tune -> hot-swap loop.

The acceptance bar for the online control plane: stream a distribution
shift (moving clusters, rising noise) through StreamSketch + DriftMonitor +
ClusteringService; the served model must be re-tuned and hot-swapped with
zero failed ``predict`` calls, and the post-swap noise-aware AMI on the
shifted suite must reach at least 0.95x a from-scratch
``AdaWave(scale="tune")`` fit.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.stream.drift as drift_module
from repro.core.adawave import AdaWave
from repro.core.pipeline import run_grid_pipeline
from repro.datasets.synthetic import drifting_dataset
from repro.experiments.drift import run_drift_recovery
from repro.grid.lookup import NOISE_LABEL, CellLabelIndex
from repro.metrics import ami_on_true_clusters
from repro.serve import ClusteringService
from repro.stream import DriftMonitor, DriftReport, StreamController, StreamSketch
from repro.tune.scoring import weighted_partition_nmi
from repro.utils.validation import NotFittedError

BOUNDS = ([0.0, 0.0], [1.0, 1.0])


def _shuffled_batches(points, n_batches, rng):
    permutation = rng.permutation(len(points))
    return [points[ix] for ix in np.array_split(permutation, n_batches)]


@pytest.fixture(scope="module")
def stationary():
    return drifting_dataset(0.0, n_per_cluster=600, seed=0)


@pytest.fixture(scope="module")
def shifted():
    return drifting_dataset(1.0, n_per_cluster=600, seed=1)


class TestDriftMonitor:
    def _published(self, points):
        """A sketch holding ``points`` and a model tuned from it."""
        sketch = StreamSketch(BOUNDS, 256, 2)
        sketch.ingest(points)
        estimator = AdaWave(scale="tune", bounds=BOUNDS)
        estimator.fit(points)
        model = estimator.export_model()
        monitor = DriftMonitor()
        monitor.rebase(model, sketch)
        return sketch, model, monitor

    def test_assess_before_rebase_raises(self, stationary):
        sketch = StreamSketch(BOUNDS, 256, 2)
        sketch.ingest(stationary.points)
        with pytest.raises(NotFittedError, match="rebase"):
            DriftMonitor().assess(sketch)

    def test_stationary_stream_is_not_drift(self, stationary):
        sketch, _model, monitor = self._published(stationary.points)
        # More draws from the same distribution: the model keeps explaining
        # the sketch.
        fresh = drifting_dataset(0.0, n_per_cluster=600, seed=5)
        sketch.ingest(fresh.points)
        report = monitor.assess(sketch)
        assert not report.drifted
        assert report.stability >= monitor.min_stability
        assert report.noise_shift <= monitor.max_noise_shift
        assert report.reasons == ()

    def test_distribution_shift_is_drift(self, stationary, shifted):
        _sketch, model, monitor = self._published(stationary.points)
        # A window that has fully turned over to the shifted distribution.
        live = StreamSketch(BOUNDS, 256, 2)
        live.ingest(shifted.points)
        monitor.rebase(model, _sketch)
        report = monitor.assess(live)
        assert report.drifted
        assert report.reasons

    def test_mismatched_bounds_rejected(self, stationary):
        _sketch, model, monitor = self._published(stationary.points)
        alien = StreamSketch(([0.0, 0.0], [2.0, 2.0]), 256, 2)
        alien.ingest(stationary.points)
        with pytest.raises(ValueError, match="bounds"):
            monitor.assess(alien)

    def test_non_nesting_resolution_rejected(self, stationary):
        _sketch, model, monitor = self._published(stationary.points)
        coarse = StreamSketch(BOUNDS, 48, 2)  # 48 does not nest under 256
        coarse.ingest(stationary.points)
        with pytest.raises(ValueError, match="nest"):
            monitor.assess(coarse)


class TestDriftMonitorMemory:
    def test_drift_check_holds_no_scratch(self):
        # 80k points in a 256^2 sketch occupy about 41k cells.  A check
        # needs only line matrices of the occupied lines; a scratch buffer
        # sized occupied cells x line length (84 MB peak, 79 MB held for the
        # monitor's life) must not come back.
        import gc
        import tracemalloc

        points = drifting_dataset(1.0, n_per_cluster=4000, seed=0).points
        sketch = StreamSketch(BOUNDS, 256, 2)
        sketch.ingest(points)
        assert len(points) == 80_000 and sketch.grid.n_occupied > 40_000
        model = AdaWave(scale=256, bounds=BOUNDS).fit(points).export_model()
        DriftMonitor().rebase(model, sketch).assess(sketch)  # warm caches
        gc.collect()
        tracemalloc.start()
        try:
            monitor = DriftMonitor()
            monitor.rebase(model, sketch)
            report = monitor.assess(sketch)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not report.drifted
        assert peak < 16 * 2**20, f"drift check peaked at {peak / 2**20:.1f} MB"
        assert held < 2**20, f"monitor holds {held / 2**20:.1f} MB after the check"


def _brute_force_labels(sketch, model, cell_coords, cell_labels):
    """Label of every sketch cell: its decoded cell ``// combined`` looked up
    in a dict of the labelled cells, ``combined`` being the serving factors
    times ``2 ** model.level``."""
    factors = np.asarray(sketch.shape) // np.asarray(model.grid_shape)
    labelled = dict(zip(map(tuple, np.asarray(cell_coords).tolist()), cell_labels.tolist()))
    cells = sketch.grid.coords // (factors * 2**model.level)
    return np.asarray([labelled.get(tuple(cell), NOISE_LABEL) for cell in cells.tolist()])


def _noise_fraction(labels, values):
    total = float(values.sum())
    return float(values[labels == NOISE_LABEL].sum()) / total if total > 0 else 1.0


@st.composite
def drifting_streams(draw):
    """A published model, the sketch it was published on, and later batches."""
    seed = draw(st.integers(min_value=0, max_value=2**16))
    n_per_cluster = draw(st.integers(min_value=60, max_value=300))
    phase = draw(st.floats(min_value=0.0, max_value=1.0))
    # Serving resolutions nest in the 128-interval sketch; axes of 4 cells
    # make the transform stop before the requested level.
    scale = tuple(draw(st.lists(st.sampled_from([4, 16, 32, 64, 128]), min_size=2, max_size=2)))
    level = draw(st.integers(min_value=1, max_value=3))
    published = drifting_dataset(0.0, n_per_cluster=n_per_cluster, seed=seed).points
    later = drifting_dataset(phase, n_per_cluster=n_per_cluster, seed=seed + 1).points
    return published, later, scale, level


class TestDriftReportOracle:
    @given(stream=drifting_streams())
    @settings(deadline=None)
    def test_report_matches_brute_force_and_reuses_the_served_index(self, stream):
        published, later, scale, level = stream
        sketch = StreamSketch(BOUNDS, 128, 2)
        sketch.ingest(published)
        model = AdaWave(scale=scale, level=level, bounds=BOUNDS).fit(published).export_model()
        monitor = DriftMonitor()

        built, pipes = [], []
        original_init = CellLabelIndex.__init__

        def counting_init(index, *args, **kwargs):
            built.append(index)
            original_init(index, *args, **kwargs)

        def recording_pipeline(*args, **kwargs):
            pipes.append(run_grid_pipeline(*args, **kwargs))
            return pipes[-1]

        with mock.patch.object(CellLabelIndex, "__init__", counting_init), mock.patch.object(
            drift_module, "run_grid_pipeline", recording_pipeline
        ):
            monitor.rebase(model, sketch)
            assert built == []  # the served partition uses the model's own index
            baseline = _noise_fraction(
                _brute_force_labels(sketch, model, model.cell_coords, model.cell_labels),
                sketch.grid.values,
            )
            sketch.ingest(later)
            report = monitor.assess(sketch)
        # One index per check: the fresh pipeline run's, none for the served model.
        assert len(pipes) == 1 and built == [pipes[0].index]

        values = sketch.grid.values
        served = _brute_force_labels(sketch, model, model.cell_coords, model.cell_labels)
        factors = np.asarray(sketch.shape) // np.asarray(model.grid_shape)
        fresh_pipe = run_grid_pipeline(sketch.grid.coarsen(factors), level=model.level)
        fresh = _brute_force_labels(sketch, model, fresh_pipe.cell_coords, fresh_pipe.cell_labels)
        noise_fraction = _noise_fraction(served, values)
        stability = weighted_partition_nmi(served, fresh, values)
        noise_shift = abs(noise_fraction - baseline)
        reasons = []
        if stability < monitor.min_stability:
            reasons.append(
                f"partition stability {stability:.3f} fell below {monitor.min_stability:.3f}"
            )
        if noise_shift > monitor.max_noise_shift:
            reasons.append(
                f"noise-band mass fraction shifted by {noise_shift:.3f} "
                f"(baseline {baseline:.3f}, live {noise_fraction:.3f}, "
                f"tolerance {monitor.max_noise_shift:.3f})"
            )
        assert monitor.baseline_noise_fraction_ == baseline
        assert report == DriftReport(
            drifted=bool(reasons),
            stability=stability,
            noise_fraction=noise_fraction,
            noise_shift=noise_shift,
            n_seen=len(published) + len(later),
            reasons=tuple(reasons),
        )


class TestStreamControllerLoop:
    def test_publishes_after_warmup(self, stationary):
        controller = StreamController("warm", BOUNDS, 2, warmup=500)
        rng = np.random.default_rng(0)
        with controller:
            with pytest.raises(NotFittedError, match="warmup"):
                controller.predict(stationary.points[:10])
            for batch in _shuffled_batches(stationary.points, 6, rng):
                controller.ingest(batch)
            assert controller.model_ is not None
            assert controller.version_.startswith("warm@v")
            assert controller.n_retunes_ >= 1
            labels = controller.predict(stationary.points[:100])
            assert labels.shape == (100,)

    def test_retune_from_empty_sketch_raises(self):
        controller = StreamController("empty", BOUNDS, 2)
        with pytest.raises(ValueError, match="empty"):
            controller.retune()

    def test_non_power_of_two_base_scale_fails_at_construction(self):
        """A bad base_scale must fail before warmup ingestion, not at the
        first publish."""
        with pytest.raises(ValueError, match="power of two"):
            StreamController("bad", BOUNDS, 2, base_scale=100)
        with pytest.raises(ValueError, match="power of two"):
            StreamController("bad", BOUNDS, 2, base_scale=(128, 100))

    def test_stationary_stream_does_not_retune(self, stationary):
        controller = StreamController(
            "calm", BOUNDS, 2, warmup=len(stationary.points) // 2, check_every=1
        )
        rng = np.random.default_rng(3)
        with controller:
            for batch in _shuffled_batches(stationary.points, 8, rng):
                controller.ingest(batch)
            more = drifting_dataset(0.0, n_per_cluster=600, seed=9)
            for batch in _shuffled_batches(more.points, 8, rng):
                controller.ingest(batch)
            assert controller.n_retunes_ == 1  # the initial publish only
            assert all(not report.drifted for report in controller.history_)

    def test_end_to_end_drift_retune_hot_swap(self):
        """The acceptance test: shift the stream, observe detection, re-tune
        and hot-swap under live read traffic with zero failures, and recover
        >= 0.95x of a from-scratch tuned fit on the shifted suite."""
        result = run_drift_recovery(
            n_per_cluster=800, n_batches=8, check_every=2, window=8, seed=0
        )
        assert result.metadata["failed_predicts"] == 0
        assert result.metadata["reader_predicts"] > 0
        assert result.metadata["retunes_in_phase_b"] >= 1
        drifted_checks = [row for row in result.rows if row["drifted"]]
        assert drifted_checks, "the shift was never flagged as drift"
        assert result.metadata["recovery_ratio"] >= 0.95, (
            f"served AMI {result.metadata['ami_served']:.3f} is below 0.95x the "
            f"from-scratch tuned AMI {result.metadata['ami_scratch']:.3f}"
        )

    def test_swaps_are_versioned_blue_green(self, stationary, shifted):
        service = ClusteringService()
        controller = StreamController(
            "live",
            BOUNDS,
            2,
            service=service,
            warmup=len(stationary.points) // 2,
            check_every=1,
            window=6,
        )
        rng = np.random.default_rng(0)
        for batch in _shuffled_batches(stationary.points, 6, rng):
            controller.ingest(batch)
        for batch in _shuffled_batches(shifted.points, 6, rng):
            controller.ingest(batch)
        registry = service.registry
        assert controller.n_retunes_ >= 2
        assert registry.active_version("live") == controller.version_
        assert registry.get("live") is controller.model_
        assert len(registry.versions("live")) == controller.n_retunes_
        # Externally supplied service is left open by controller.close().
        controller.close()
        assert not service.closed
        service.close()
