"""SLO burn rates: objectives, multi-window alerting, containment sharing.

The acceptance bar: an injected latency/error spike fires the burn-rate
alert callback exactly once per window while the burn lasts, and the
contained-callback idiom (:func:`repro.obs.slo.fire_contained`) is shared
with :class:`repro.stream.StreamController`'s drift plumbing.
"""

import numpy as np
import pytest

from repro.obs.slo import Objective, SloMonitor, fire_contained
from repro.obs.timeseries import TimeSeriesStore
from repro.serve.metrics import STAGE_BUCKETS, Telemetry


def _availability_store(errors_per_tick: float, *, ticks: int = 30) -> TimeSeriesStore:
    """A store where every tick adds 10 requests and the given errors."""
    store = TimeSeriesStore(step=1.0)
    for tick in range(ticks + 1):
        store.observe(
            "edge.requests", tick * 10.0, kind="counter", at=float(tick)
        )
        store.observe(
            "edge.errors", tick * errors_per_tick, kind="counter", at=float(tick)
        )
    return store


class TestObjective:
    def test_validation(self):
        with pytest.raises(ValueError, match="objective"):
            Objective(name="x", objective=1.5)
        with pytest.raises(ValueError, match="kind"):
            Objective(name="x", objective=0.99, kind="exotic")
        with pytest.raises(ValueError, match="histogram series"):
            Objective(name="x", objective=0.99, kind="latency")
        with pytest.raises(ValueError, match="window"):
            Objective(name="x", objective=0.99, windows=())

    def test_availability_bad_fraction_and_burn(self):
        objective = Objective(name="avail", objective=0.99)
        store = _availability_store(5.0)
        # Half the requests fail; budget is 1%: burn = 0.5 / 0.01 = 50.
        assert objective.bad_fraction(store, 30.0, 30.0) == pytest.approx(0.5)
        burns = objective.burn_rates(store, 30.0)
        assert all(entry["burn"] == pytest.approx(50.0) for entry in burns)

    def test_quiet_store_has_zero_burn(self):
        objective = Objective(name="avail", objective=0.99)
        store = TimeSeriesStore()
        assert objective.bad_fraction(store, 60.0, 100.0) == 0.0

    def test_latency_objective_reads_histogram(self):
        telemetry = Telemetry(series=TimeSeriesStore(step=1.0))
        for _ in range(20):
            telemetry.record_stage("worker_predict", 0.5)  # all slow
        telemetry.sample_series(at=10.0)
        objective = Objective(
            name="lat", objective=0.99, kind="latency",
            series="stage.worker_predict", threshold_seconds=0.1,
        )
        assert objective.bad_fraction(
            telemetry.series, 60.0, 10.0
        ) == pytest.approx(1.0)

    def test_edge_round_trip_objective_burns_when_every_request_is_slow(self):
        telemetry = Telemetry(series=TimeSeriesStore(step=1.0))
        fired = []
        monitor = SloMonitor(
            [Objective(
                name="edge-latency", objective=0.99, kind="latency",
                series="edge.predict.latency", threshold_seconds=0.25,
                windows=((10.0, 14.4), (5.0, 14.4)),
            )],
            telemetry=telemetry,
            on_alert=fired.append,
        )
        for tick in range(10):  # fast round trips: within the objective
            telemetry.record_edge_request("predict", 200, 0.1)
            telemetry.sample_series(at=float(tick))
        monitor.evaluate(telemetry.series, 9.0)
        assert monitor.burning() == [] and fired == []
        for tick in range(10, 30):  # every round trip takes 0.6 s
            telemetry.record_edge_request("predict", 200, 0.6)
            telemetry.sample_series(at=float(tick))
        results = monitor.evaluate(telemetry.series, 29.0)
        assert [entry["burn"] for entry in results[0]["burn_rates"]] == [
            pytest.approx(100.0), pytest.approx(100.0),
        ]
        assert monitor.burning() == ["edge-latency"]
        assert [alert["objective"] for alert in fired] == ["edge-latency"]


class TestSloMonitor:
    def test_unique_names_enforced(self):
        a = Objective(name="same", objective=0.99)
        b = Objective(name="same", objective=0.999)
        with pytest.raises(ValueError, match="unique"):
            SloMonitor([a, b], telemetry=Telemetry())

    def test_spike_fires_exactly_once_per_window(self):
        telemetry = Telemetry()
        fired = []
        monitor = SloMonitor(
            [Objective(
                name="avail", objective=0.99,
                windows=((10.0, 10.0), (5.0, 10.0)),
            )],
            telemetry=telemetry,
            on_alert=fired.append,
        )
        store = _availability_store(5.0)  # burning throughout
        # Evaluate every second, as a sampler would: the alert must fire on
        # the first burning evaluation, then stay suppressed until the
        # shortest window (5s) has rolled over.
        for tick in range(10, 21):
            monitor.evaluate(store, float(tick))
        assert len(fired) == 3  # t=10, t=15, t=20
        assert [entry["objective"] for entry in fired] == ["avail"] * 3
        assert monitor.alerts_fired == 3
        assert monitor.burning() == ["avail"]

    def test_alert_payload_carries_burn_rates(self):
        telemetry = Telemetry()
        fired = []
        monitor = SloMonitor(
            [Objective(name="avail", objective=0.99)],
            telemetry=telemetry, on_alert=fired.append,
        )
        monitor.evaluate(_availability_store(5.0), 30.0)
        [payload] = fired
        assert payload["burning"] is True
        assert payload["burn_rates"][0]["burn"] > payload["burn_rates"][0]["threshold"]

    def test_recovery_clears_burning(self):
        telemetry = Telemetry()
        monitor = SloMonitor(
            [Objective(name="avail", objective=0.99, windows=((5.0, 10.0),))],
            telemetry=telemetry,
        )
        store = TimeSeriesStore(step=1.0)
        for tick in range(11):
            store.observe("edge.requests", tick * 10.0, kind="counter", at=float(tick))
            # Errors only during the first 5 ticks, then flat.
            errors = min(tick, 5) * 5.0
            store.observe("edge.errors", errors, kind="counter", at=float(tick))
        monitor.evaluate(store, 5.0)
        assert monitor.burning() == ["avail"]
        monitor.evaluate(store, 10.0)
        assert monitor.burning() == []
        assert monitor.status()["burning"] == []

    def test_all_windows_must_burn(self):
        telemetry = Telemetry()
        monitor = SloMonitor(
            # Long window threshold is unreachable: never alerts.
            [Objective(
                name="avail", objective=0.99,
                windows=((10.0, 1e9), (5.0, 1.0)),
            )],
            telemetry=telemetry,
        )
        results = monitor.evaluate(_availability_store(5.0), 30.0)
        assert results[0]["burning"] is False
        assert monitor.alerts_fired == 0

    def test_raising_alert_callback_is_contained(self):
        telemetry = Telemetry()

        def explode(payload):
            raise RuntimeError("pager is down")

        monitor = SloMonitor(
            [Objective(name="avail", objective=0.99)],
            telemetry=telemetry, on_alert=explode,
        )
        results = monitor.evaluate(_availability_store(5.0), 30.0)
        assert results[0]["fired"] is True
        snapshot = telemetry.snapshot()
        assert snapshot["callbacks"]["errors"] == 1
        assert "slo:avail" in snapshot["callbacks"]["last"]


class TestFireContained:
    def test_none_callback_returns_none(self):
        assert fire_contained(None, "x", Telemetry()) is None

    def test_clean_callback_returns_true(self):
        seen = []
        assert fire_contained(seen.append, "x", Telemetry(), 42) is True
        assert seen == [42]

    def test_raising_callback_contained_and_counted(self):
        telemetry = Telemetry()

        def explode(*args):
            raise ValueError("boom")

        assert fire_contained(explode, "hook", telemetry, 1) is False
        snapshot = telemetry.snapshot()
        assert snapshot["callbacks"]["errors"] == 1
        assert "hook" in snapshot["callbacks"]["last"]

    def test_stream_controller_shares_the_idiom(self):
        """StreamController._fire routes through fire_contained."""
        from repro.stream.controller import StreamController

        controller = StreamController.__new__(StreamController)
        controller.telemetry = Telemetry()
        controller.callback_errors_ = 0

        def explode(*args):
            raise RuntimeError("drift hook down")

        controller._fire(explode, "on_drift", "payload")
        assert controller.callback_errors_ == 1
        snapshot = controller.telemetry.snapshot()
        assert snapshot["callbacks"]["errors"] == 1
        controller._fire(None, "on_drift")
        assert controller.callback_errors_ == 1
