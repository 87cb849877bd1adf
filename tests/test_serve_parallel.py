"""Sharded parallel ingestion and stream merging.

Grid merging is associative and commutative, so parallel ingestion must be
*exact*: any shard split across any worker count produces the same model a
serial pass produces.  These tests pin that down for the threaded shard
workers, for `AdaWave.merge_stream` directly, and for the parallel
`BatchRunner.run_many` fan-out.
"""

import os

import numpy as np
import pytest

from repro import BatchRunner
from repro.core.adawave import AdaWave
from repro.serve import parallel_ingest
from repro.serve.parallel import resolve_n_workers

BOUNDS = ([0.0, 0.0], [1.0, 1.0])


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(21)
    blob_a = np.clip(rng.normal(0.3, 0.03, size=(700, 2)), 0.0, 1.0)
    blob_b = np.clip(rng.normal(0.75, 0.03, size=(700, 2)), 0.0, 1.0)
    noise = rng.uniform(size=(2600, 2))
    return np.vstack([blob_a, blob_b, noise])


@pytest.fixture(scope="module")
def one_shot(dataset):
    return AdaWave(scale=64, bounds=BOUNDS).fit(dataset)


class TestParallelIngest:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_matches_one_shot_fit(self, dataset, one_shot, n_workers):
        model = parallel_ingest(
            np.array_split(dataset, 10),
            bounds=BOUNDS,
            scale=64,
            n_workers=n_workers,
        )
        assert model.n_seen_ == len(dataset)
        np.testing.assert_array_equal(model.predict(dataset), one_shot.labels_)
        assert model.n_clusters_ == one_shot.n_clusters_
        assert model.threshold_ == one_shot.threshold_

    def test_lookup_only_keeps_no_per_point_state(self, dataset):
        model = parallel_ingest(
            np.array_split(dataset, 10), bounds=BOUNDS, scale=64, n_workers=2
        )
        assert model.labels_.shape == (0,)
        assert model.result_.quantization.cell_ids.shape == (0, 2)

    def test_non_lookup_only_preserves_label_order(self, dataset, one_shot):
        model = parallel_ingest(
            np.array_split(dataset, 10),
            bounds=BOUNDS,
            scale=64,
            n_workers=3,
            lookup_only=False,
        )
        np.testing.assert_array_equal(model.labels_, one_shot.labels_)

    def test_finalize_false_returns_open_stream(self, dataset, one_shot):
        model = parallel_ingest(
            np.array_split(dataset, 6),
            bounds=BOUNDS,
            scale=64,
            n_workers=2,
            finalize=False,
        )
        assert model.result_ is None
        model.finalize()
        np.testing.assert_array_equal(model.predict(dataset), one_shot.labels_)

    def test_uneven_and_empty_batches(self, dataset, one_shot):
        batches = [dataset[:17], np.empty((0, 2)), dataset[17:900], dataset[900:]]
        model = parallel_ingest(batches, bounds=BOUNDS, scale=64, n_workers=2)
        np.testing.assert_array_equal(model.predict(dataset), one_shot.labels_)

    def test_no_batches_raises(self):
        with pytest.raises(ValueError, match="no batches"):
            parallel_ingest([], bounds=BOUNDS, scale=64)

    def test_all_empty_batches_raises(self):
        with pytest.raises(ValueError, match="non-empty"):
            parallel_ingest([np.empty((0, 2))], bounds=BOUNDS, scale=64)

    def test_invalid_worker_count_rejected(self, dataset):
        with pytest.raises(ValueError, match="n_workers"):
            parallel_ingest(
                np.array_split(dataset, 2), bounds=BOUNDS, scale=64, n_workers=0
            )


class TestResolveWorkers:
    """``None`` sizes a pool by the CPUs the process may run on."""

    def test_default_counts_the_affinity_set(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_n_workers(None) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert resolve_n_workers(None) == 3
        assert resolve_n_workers(None, n_tasks=2) == 2
        assert resolve_n_workers(5) == 5

    def test_default_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert resolve_n_workers(None) == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_n_workers(None) == 1


def _one_dimensional(batch):
    return batch[:, 0]


def _wider(batch):
    return np.hstack([batch, batch[:, :1]])


def _with_nan(batch):
    batch = batch.copy()
    batch[0, 0] = np.nan
    return batch


def _outside_bounds(batch):
    batch = batch.copy()
    batch[0, 0] = 2.0
    return batch


class TestParallelIngestErrors:
    """A bad batch raises what ``partial_fit`` raises for it.

    Workers quantize a shard in one pass over its concatenated batches; a
    shard that pass rejects must still surface the per-batch ``ValueError``
    of a serial stream, never numpy's concatenation error.
    """

    @pytest.mark.parametrize(
        "spoil", [_one_dimensional, _wider, _with_nan, _outside_bounds]
    )
    def test_bad_batch_raises_partial_fit_error(self, dataset, spoil):
        batches = np.array_split(dataset, 4)
        # Last batch of the second shard: that worker's stream has started.
        batches[3] = spoil(batches[3])
        serial = AdaWave(scale=64, bounds=BOUNDS)
        with pytest.raises(ValueError) as expected:
            for batch in batches:
                serial.partial_fit(batch)
        with pytest.raises(ValueError) as raised:
            parallel_ingest(batches, bounds=BOUNDS, scale=64, n_workers=2)
        assert type(raised.value) is type(expected.value)
        assert str(raised.value) == str(expected.value)
        # Raised afresh, not while handling numpy's concatenation error.
        assert raised.value.__context__ is None


class TestMergeStream:
    def test_merge_equals_single_stream(self, dataset, one_shot):
        left = AdaWave(scale=64, bounds=BOUNDS)
        right = AdaWave(scale=64, bounds=BOUNDS)
        left.partial_fit(dataset[:2000])
        right.partial_fit(dataset[2000:])
        left.merge_stream(right).finalize()
        np.testing.assert_array_equal(left.labels_, one_shot.labels_)
        assert left.n_seen_ == len(dataset)

    def test_merge_into_fresh_estimator(self, dataset, one_shot):
        shard = AdaWave(scale=64, bounds=BOUNDS)
        shard.partial_fit(dataset)
        target = AdaWave(scale=64, bounds=BOUNDS)
        target.merge_stream(shard).finalize()
        np.testing.assert_array_equal(target.labels_, one_shot.labels_)

    def test_merge_leaves_source_untouched(self, dataset):
        left = AdaWave(scale=64, bounds=BOUNDS).partial_fit(dataset[:1000])
        right = AdaWave(scale=64, bounds=BOUNDS).partial_fit(dataset[1000:])
        seen_before = right.n_seen_
        left.merge_stream(right)
        assert right.n_seen_ == seen_before
        right.finalize()  # the source stream still works on its own

    def test_merge_empty_source_is_noop(self, dataset):
        left = AdaWave(scale=64, bounds=BOUNDS).partial_fit(dataset[:100])
        left.merge_stream(AdaWave(scale=64, bounds=BOUNDS))
        assert left.n_seen_ == 100

    def test_fresh_target_keeps_its_own_scale(self, dataset):
        """Merging into a streamless estimator must not adopt the source's
        grid resolution; a scale mismatch is an error, not a silent switch."""
        shard = AdaWave(scale=128, bounds=BOUNDS).partial_fit(dataset[:200])
        target = AdaWave(scale=64, bounds=BOUNDS)
        with pytest.raises(ValueError, match="different grids"):
            target.merge_stream(shard)

    def test_fresh_target_rejects_auto_scale(self, dataset):
        shard = AdaWave(scale=64, bounds=BOUNDS).partial_fit(dataset[:200])
        with pytest.raises(ValueError, match="auto"):
            AdaWave(scale="auto", bounds=BOUNDS).merge_stream(shard)

    def test_mismatched_grids_rejected(self, dataset):
        left = AdaWave(scale=64, bounds=BOUNDS).partial_fit(dataset[:100])
        other = AdaWave(scale=32, bounds=BOUNDS).partial_fit(dataset[:100])
        with pytest.raises(ValueError, match="different grids"):
            left.merge_stream(other)

    def test_mismatched_bounds_rejected(self, dataset):
        left = AdaWave(scale=64, bounds=BOUNDS).partial_fit(dataset[:100])
        other = AdaWave(scale=64, bounds=([0.0, 0.0], [2.0, 2.0]))
        other.partial_fit(dataset[:100])
        with pytest.raises(ValueError, match="different grids"):
            left.merge_stream(other)

    def test_lookup_only_source_into_labelled_target_rejected(self, dataset):
        labelled = AdaWave(scale=64, bounds=BOUNDS).partial_fit(dataset[:100])
        lookup = AdaWave(scale=64, bounds=BOUNDS, lookup_only=True)
        lookup.partial_fit(dataset[100:200])
        with pytest.raises(ValueError, match="lookup-only"):
            labelled.merge_stream(lookup)

    def test_labelled_source_into_lookup_only_target_allowed(self, dataset, one_shot):
        lookup = AdaWave(scale=64, bounds=BOUNDS, lookup_only=True)
        lookup.partial_fit(dataset[:2000])
        labelled = AdaWave(scale=64, bounds=BOUNDS).partial_fit(dataset[2000:])
        lookup.merge_stream(labelled).finalize()
        np.testing.assert_array_equal(lookup.predict(dataset), one_shot.labels_)

    def test_non_estimator_rejected(self):
        with pytest.raises(TypeError, match="AdaWave"):
            AdaWave(scale=64, bounds=BOUNDS).merge_stream(object())


class TestBatchRunnerParallel:
    def test_parallel_run_many_matches_serial(self, dataset):
        datasets = [dataset, dataset[::2], dataset[1::3], dataset[::5]]
        serial = BatchRunner(scale=64).run_many(datasets)
        runner = BatchRunner(scale=64)
        parallel = runner.run_many(datasets, n_workers=3)
        assert runner.n_runs_ == len(datasets)
        for serial_result, parallel_result in zip(serial, parallel):
            np.testing.assert_array_equal(
                serial_result.labels, parallel_result.labels
            )
            assert serial_result.n_clusters == parallel_result.n_clusters
