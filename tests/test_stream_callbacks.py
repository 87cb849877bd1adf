"""StreamController alert callbacks and the telemetry drift-history export.

The control-loop contract: ``on_drift`` fires with the full
:class:`~repro.stream.DriftReport` payload whenever a check flags drift,
``on_swap`` fires with ``(version, model)`` on every publication (warmup
included), exceptions raised by user callbacks are contained -- counted in
telemetry, never propagated into ``ingest`` -- and the drift-check history
reads out of the serving telemetry snapshot.
"""

import numpy as np
import pytest

from repro.datasets.synthetic import drifting_dataset
from repro.serve import ClusterModel, ClusteringService, Telemetry
from repro.stream import DriftReport, StreamController

BOUNDS = ([0.0, 0.0], [1.0, 1.0])


def _controller(**kwargs):
    return StreamController(
        "live",
        BOUNDS,
        2,
        base_scale=256,
        warmup=1000,
        check_every=1,
        **kwargs,
    )


@pytest.fixture(scope="module")
def phases():
    """A stationary warmup snapshot and a fully shifted one."""
    return (
        drifting_dataset(0.0, n_per_cluster=600, seed=3).points,
        drifting_dataset(1.0, n_per_cluster=600, seed=4).points,
    )


class TestAlertCallbacks:
    def test_on_swap_fires_with_version_and_model(self, phases):
        stationary, _ = phases
        published = []
        with _controller(on_swap=lambda version, model: published.append((version, model))) as plane:
            plane.ingest(stationary)
        assert [version for version, _ in published] == ["live@v1"]
        assert all(isinstance(model, ClusterModel) for _, model in published)
        assert published[0][1] is plane.model_

    def test_on_drift_fires_with_report_payload(self, phases):
        stationary, shifted = phases
        alerts = []
        swaps = []
        with _controller(
            window=1,  # the sketch turns over completely each batch
            on_drift=alerts.append,
            on_swap=lambda version, model: swaps.append(version),
        ) as plane:
            plane.ingest(stationary)
            assert swaps == ["live@v1"]  # warmup publish, no drift yet
            assert alerts == []
            report = plane.ingest(shifted)
        assert report is not None and report.drifted
        assert alerts == [report]
        assert isinstance(alerts[0], DriftReport)
        assert alerts[0].reasons  # the payload carries the scored criteria
        assert alerts[0].stability <= 1.0
        # The drift triggered a re-tune, so on_swap fired again.
        assert len(swaps) == 2 and swaps[-1] == plane.version_

    def test_raising_callbacks_are_contained_and_counted(self, phases):
        stationary, shifted = phases

        def explode(*_args):
            raise RuntimeError("pager down")

        with _controller(window=1, on_drift=explode, on_swap=explode) as plane:
            plane.ingest(stationary)  # on_swap raises; must not propagate
            assert plane.callback_errors_ == 1
            report = plane.ingest(shifted)  # on_drift + on_swap raise
            assert report is not None and report.drifted
        assert plane.callback_errors_ == 3
        assert plane.n_retunes_ == 2  # the control loop kept re-tuning
        callbacks = plane.telemetry.snapshot()["callbacks"]
        assert callbacks["errors"] == 3
        assert "pager down" in callbacks["last"]

    def test_manual_retune_also_fires_on_swap(self, phases):
        stationary, _ = phases
        swaps = []
        with _controller(on_swap=lambda version, model: swaps.append(version)) as plane:
            plane.ingest(stationary)
            plane.retune()
        assert swaps == ["live@v1", "live@v2"]


class TestTelemetryExport:
    def test_drift_history_reads_out_of_the_service_snapshot(self, phases):
        stationary, shifted = phases
        service = ClusteringService(telemetry=Telemetry(history_limit=8))
        with _controller(window=1, service=service) as plane:
            plane.ingest(stationary)
            plane.ingest(stationary)
            plane.ingest(shifted)
            snapshot = plane.telemetry.snapshot()
        assert plane.telemetry is service.telemetry
        drift = snapshot["drift"]
        assert drift["checks"] == plane.n_checks_ == 2
        assert drift["drifted"] >= 1
        history = drift["history"]
        assert len(history) == 2
        # The history entries are the full report payloads, JSON-able.
        for entry, report in zip(history, plane.history_):
            assert entry["drifted"] == report.drifted
            assert entry["stability"] == pytest.approx(report.stability)
            assert entry["n_seen"] == report.n_seen
            assert isinstance(entry["reasons"], list)
        # Swaps recorded by the service land in the same snapshot: the
        # warmup publish plus the drift re-tune.
        assert snapshot["swaps"]["count"] == plane.n_retunes_ == 2
        service.close()

    def test_predictions_and_swaps_share_the_snapshot(self, phases):
        stationary, _ = phases
        with _controller() as plane:
            plane.ingest(stationary)
            queries = np.random.default_rng(5).uniform(size=(200, 2))
            plane.predict(queries)
            snapshot = plane.telemetry.snapshot()
        assert snapshot["predict"]["live"]["rows"] == 200
        assert snapshot["swaps"]["by_name"] == {"live": 1}

    def test_retune_stages_land_in_metadata_and_stage_histograms(self, phases):
        stationary, _ = phases
        with _controller() as plane:
            plane.ingest(stationary)  # warmup publish
            plane.retune()
            snapshot = plane.telemetry.snapshot()
        assert plane.n_retunes_ == 2
        # The metadata is written before the model is published, so it holds
        # the sweep only; the publish stage lands in the histograms alone.
        assert set(plane.model_.metadata["retune_stage_seconds"]) == {"tune-sweep"}
        assert all(
            seconds >= 0.0
            for seconds in plane.model_.metadata["retune_stage_seconds"].values()
        )
        for stage in ("tune-sweep", "publish"):
            assert snapshot["stages"][stage]["count"] == plane.n_retunes_

    def test_stored_artifact_carries_the_published_metadata(self, phases, tmp_path):
        """Pool workers serve the model the artifact store holds; its
        metadata, re-tune timings included, is the in-process model's."""
        from repro.serve import ProcessPoolService

        stationary, _ = phases
        with ProcessPoolService(tmp_path / "store", n_workers=1) as service:
            with _controller(service=service) as plane:
                plane.ingest(stationary)  # warmup publish
                plane.retune()
                stored = service.store.load(service.registry.digest(plane.version_))
        assert plane.version_ == "live@v2"
        assert "retune_stage_seconds" in stored.metadata
        assert stored.metadata == plane.model_.metadata
