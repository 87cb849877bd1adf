"""Telemetry surface and admission control of the serving front door.

Two acceptance bars from the serving-plane issue:

* the telemetry snapshot must expose per-model predict latency quantiles,
  queue depth, swap count and drift-check history -- asserted here for the
  in-process path (the procpool tests assert the same snapshot across
  processes);
* a saturated service must shed load with an explicit ``Overloaded``
  rejection, while ``wait_for_slot=True`` / ``backpressure=True`` callers
  block instead and eventually succeed.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.core.adawave import AdaWave
from repro.serve import ClusteringService, Overloaded, ServiceClosed, Telemetry

BOUNDS = ([0.0, 0.0], [1.0, 1.0])


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(41)
    blob = np.clip(rng.normal(0.4, 0.05, size=(1500, 2)), 0.0, 1.0)
    X = np.vstack([blob, rng.uniform(size=(2000, 2))])
    return X, AdaWave(scale=64, bounds=BOUNDS).fit(X).export_model()


class TestTelemetryUnit:
    def test_predict_latency_quantiles(self):
        telemetry = Telemetry()
        for latency in (0.001, 0.002, 0.003, 0.004, 0.100):
            telemetry.record_predict("m", latency, batch_size=10)
        stats = telemetry.snapshot()["predict"]["m"]
        assert stats["count"] == 5
        assert stats["rows"] == 50
        # Upper bound of the bucket holding the median (0.003 s lies in
        # (0.0025, 0.005]); the tail quantiles are capped at the max.
        assert stats["latency"]["p50"] == 0.005
        assert stats["latency"]["p99"] <= stats["latency"]["max"] == 0.100
        assert stats["latency"]["p50"] <= stats["latency"]["p90"]
        assert stats["batch_size"] == {"mean": 10.0, "max": 10}

    def test_counters_and_history(self):
        telemetry = Telemetry(history_limit=2)
        telemetry.record_queue_depth(3)
        telemetry.record_queue_depth(1)
        telemetry.record_reject("m")
        telemetry.record_swap("m", "m@v1")
        telemetry.record_swap("m", "m@v2")
        for index in range(3):
            telemetry.record_drift_check(
                {"drifted": index == 2, "stability": 0.9, "n_seen": index}
            )
        snapshot = telemetry.snapshot()
        assert snapshot["queue"] == {"depth": 1, "max_depth": 3}
        assert snapshot["rejections"] == {"total": 1, "by_model": {"m": 1}}
        assert snapshot["swaps"]["count"] == 2
        assert snapshot["swaps"]["last_version"] == "m@v2"
        assert snapshot["drift"]["checks"] == 3
        assert snapshot["drift"]["drifted"] == 1
        # history is bounded but the counters stay exact
        assert [entry["n_seen"] for entry in snapshot["drift"]["history"]] == [1, 2]

    def test_sink_receives_events_and_failures_are_contained(self):
        events = []

        def sink(event):
            events.append(event)
            if event["event"] == "swap":
                raise RuntimeError("exporter down")

        telemetry = Telemetry(sink=sink)
        telemetry.record_predict("m", 0.001, 5)
        telemetry.record_swap("m", "m@v1")  # sink raises; must be contained
        telemetry.record_reject("m")
        assert [event["event"] for event in events] == ["predict", "swap", "reject"]
        assert telemetry.snapshot()["sink_errors"] == 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="history_limit"):
            Telemetry(history_limit=0)


class TestServiceTelemetry:
    def test_in_process_snapshot_covers_the_acceptance_surface(self, fitted):
        X, model = fitted
        with ClusteringService() as service:
            service.register("m", model)
            for _ in range(4):
                service.predict("m", X[:200])
            service.swap("m", model)
            snapshot = service.telemetry.snapshot()
        stats = snapshot["predict"]["m"]
        assert stats["count"] >= 1 and stats["rows"] == 4 * 200
        for key in ("p50", "p90", "p99", "mean", "max"):
            assert stats["latency"][key] >= 0.0
        assert snapshot["queue"]["max_depth"] >= 1
        assert snapshot["swaps"] == {
            "count": 1, "by_name": {"m": 1}, "last_version": "m@v1",
        }
        assert snapshot["drift"]["history"] == []  # no controller attached

    def test_shared_telemetry_object_is_used(self, fitted):
        X, model = fitted
        telemetry = Telemetry()
        with ClusteringService(telemetry=telemetry) as service:
            service.register("m", model)
            service.predict("m", X[:50])
        assert telemetry.snapshot()["predict"]["m"]["rows"] == 50


class TestAdmissionControl:
    def _slow_service(self, model, **kwargs):
        """Service whose leader sleeps, so admitted requests stay pending."""
        service = ClusteringService(max_batch_delay=0.25, **kwargs)
        service.register("m", model)
        return service

    def test_overloaded_when_saturated(self, fitted):
        X, model = fitted
        service = self._slow_service(model, max_pending=2)
        # Two leaders-to-be park inside the batch delay, holding both slots.
        first = threading.Thread(target=service.predict, args=("m", X[:50]))
        first.start()
        time.sleep(0.05)
        second = service.submit("m", X[:50])
        with pytest.raises(Overloaded, match="max_pending=2"):
            service.submit("m", X[:50])
        assert service.telemetry.snapshot()["rejections"]["total"] == 1
        np.testing.assert_array_equal(second.result(timeout=10.0), model.predict(X[:50]))
        first.join()
        service.close()

    def test_wait_for_slot_blocks_then_succeeds(self, fitted):
        X, model = fitted
        service = self._slow_service(model, max_pending=1)
        leader = threading.Thread(target=service.predict, args=("m", X[:50]))
        leader.start()
        time.sleep(0.05)
        # Non-blocking submission is rejected...
        with pytest.raises(Overloaded):
            service.submit("m", X[:30])
        # ...but the backpressure path parks until the slot frees.
        labels = service.submit("m", X[:30], wait_for_slot=True).result(timeout=10.0)
        np.testing.assert_array_equal(labels, model.predict(X[:30]))
        leader.join()
        service.close()

    def test_predict_async_backpressure(self, fitted):
        X, model = fitted
        expected = model.predict(X[:100])

        async def main():
            async with ClusteringService(max_pending=1, max_batch_delay=0.05) as service:
                service.register("m", model)
                results = await asyncio.gather(
                    *(
                        service.predict_async("m", X[:100], backpressure=True)
                        for _ in range(6)
                    )
                )
                return results

        results = asyncio.run(asyncio.wait_for(main(), timeout=30.0))
        assert len(results) == 6
        for labels in results:
            np.testing.assert_array_equal(labels, expected)

    def test_close_wakes_backpressure_waiters(self, fitted):
        X, model = fitted
        service = self._slow_service(model, max_pending=1)
        leader = threading.Thread(target=service.predict, args=("m", X[:50]))
        leader.start()
        time.sleep(0.05)
        outcome = []

        def waiter():
            try:
                service.submit("m", X[:30], wait_for_slot=True)
                outcome.append("admitted")
            except ServiceClosed:
                outcome.append("closed")

        blocked = threading.Thread(target=waiter)
        blocked.start()
        time.sleep(0.05)
        service.close()
        blocked.join(timeout=10.0)
        leader.join()
        assert not blocked.is_alive(), "backpressure waiter hung across close()"
        assert outcome in (["closed"], ["admitted"])

    def test_freed_slot_wakes_waiter_immediately(self, fitted):
        """A released slot must admit a parked waiter in well under 100 ms.

        Admission used to poll ``wait(timeout=0.1)``, so a freed slot could
        sit idle for up to a full poll interval; ``_release_slot`` now
        notifies the condition, waking the waiter directly.
        """
        X, model = fitted
        service = ClusteringService(max_pending=1)
        service.register("m", model)
        # Hold the only slot directly so the release instant is ours to time.
        service._admit("m")
        admitted_at = []

        def waiter():
            future = service.submit("m", X[:30], wait_for_slot=True)
            admitted_at.append(time.monotonic())
            future.result(timeout=10.0)

        blocked = threading.Thread(target=waiter)
        blocked.start()
        time.sleep(0.2)  # make sure the waiter is parked, not racing the admit
        assert not admitted_at, "waiter was admitted while the slot was held"
        released_at = time.monotonic()
        service._release_slot()
        blocked.join(timeout=10.0)
        assert not blocked.is_alive()
        wake_latency = admitted_at[0] - released_at
        assert wake_latency < 0.05, (
            f"freed slot took {wake_latency * 1000:.1f} ms to admit a waiter "
            "(busy-wait regression: should be notify-driven, not polled)"
        )
        service.close()

    def test_slot_timeout_bounds_backpressure(self, fitted):
        """``slot_timeout`` turns endless backpressure into a timed rejection."""
        X, model = fitted
        service = ClusteringService(max_pending=1)
        service.register("m", model)
        service._admit("m")
        try:
            start = time.monotonic()
            with pytest.raises(Overloaded, match="timed out after"):
                service.submit("m", X[:30], wait_for_slot=True, slot_timeout=0.2)
            elapsed = time.monotonic() - start
            assert 0.15 <= elapsed < 5.0
            assert service.telemetry.snapshot()["rejections"]["total"] == 1
        finally:
            service._release_slot()
            service.close()

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="max_pending"):
            ClusteringService(max_pending=0)
        with pytest.raises(ValueError, match="max_batch_delay"):
            ClusteringService(max_batch_delay=-0.1)

    def test_queue_depth_property_tracks_pending(self, fitted):
        X, model = fitted
        service = self._slow_service(model)
        assert service.queue_depth == 0
        worker = threading.Thread(target=service.predict, args=("m", X[:50]))
        worker.start()
        time.sleep(0.05)
        assert service.queue_depth == 1
        worker.join()
        assert service.queue_depth == 0
        service.close()
