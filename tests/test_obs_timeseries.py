"""Ring-buffer time series: bucketing, windowed rate/quantile, bounded memory.

The monitoring tentpole's foundation: observations land in ``floor(at /
step)`` buckets of a fixed ring, windowed ``rate()`` reads counters,
windowed ``quantile()`` reads gauges and histograms, old data ages out by
overwrite, and the store enforces a hard cap on series cardinality.
"""

import json

import numpy as np
import pytest

from repro.obs.timeseries import RingSeries, TimeSeriesStore
from repro.serve.metrics import STAGE_BUCKETS, Telemetry


class TestRingSeries:
    def test_counter_rate_over_window(self):
        series = RingSeries("counter", step=1.0, capacity=60)
        for second in range(11):
            series.observe(second * 10.0, at=float(second))
        # 0 -> 100 cumulative over 10 seconds of buckets.
        assert series.rate(10.0, 10.0) == pytest.approx(10.0)
        assert series.latest() == 100.0

    def test_counter_reset_clamps_to_zero_rate(self):
        series = RingSeries("counter", step=1.0, capacity=60)
        series.observe(1000.0, at=0.0)
        series.observe(5.0, at=5.0)  # restarted process: counter fell
        assert series.rate(10.0, 5.0) == 0.0

    def test_rate_needs_two_buckets(self):
        series = RingSeries("counter", step=1.0, capacity=60)
        series.observe(50.0, at=3.0)
        assert series.rate(60.0, 3.0) == 0.0

    def test_gauge_buckets_aggregate_min_max(self):
        series = RingSeries("gauge", step=1.0, capacity=60)
        for value in (5.0, 1.0, 9.0):
            series.observe(value, at=2.3)
        [row] = series.points(10.0, 2.9)
        t, last, low, high = row
        assert (t, last, low, high) == (2.0, 9.0, 1.0, 9.0)

    def test_gauge_quantile_over_bucket_lasts(self):
        series = RingSeries("gauge", step=1.0, capacity=300)
        for second in range(100):
            series.observe(float(second), at=float(second))
        q50 = series.quantile(0.5, 100.0, 99.0)
        assert 45.0 <= q50 <= 55.0
        assert series.quantile(1.0, 100.0, 99.0) == 99.0

    def test_histogram_windowed_quantile_subtracts_baseline(self):
        bounds = (0.001, 0.01, 0.1, 1.0)
        series = RingSeries("histogram", step=1.0, capacity=300, bounds=bounds)
        # Before the window: 100 fast observations (cumulative vector).
        series.observe([100, 0, 0, 0, 0], at=0.0)
        # Inside the window: 10 more, all slow.
        series.observe([100, 0, 0, 10, 0], at=50.0)
        # Window covering only the recent bucket: p50 is the slow bound.
        assert series.quantile(0.5, 5.0, 50.0) == 1.0
        # Window covering everything: the fast mass dominates again.
        assert series.quantile(0.5, 300.0, 50.0) == 0.001

    def test_histogram_fraction_above(self):
        bounds = (0.001, 0.01, 0.1, 1.0)
        series = RingSeries("histogram", step=1.0, capacity=300, bounds=bounds)
        series.observe([75, 0, 0, 25, 0], at=10.0)
        fraction = series.fraction_above(0.01, 60.0, 10.0)
        assert fraction == pytest.approx(0.25)
        assert series.fraction_above(2.0, 60.0, 10.0) == 0.0

    def test_fraction_above_rejects_non_histogram(self):
        series = RingSeries("gauge")
        with pytest.raises(ValueError, match="histogram"):
            series.fraction_above(0.1, 60.0, 0.0)

    def test_ring_overwrites_stale_buckets(self):
        series = RingSeries("gauge", step=1.0, capacity=10)
        series.observe(1.0, at=0.0)
        # 10 steps later the same slot is reused for a new bucket.
        series.observe(2.0, at=10.0)
        points = series.points(100.0, 10.0)
        assert [row[1] for row in points] == [2.0]

    def test_memory_is_fixed(self):
        series = RingSeries("gauge", step=1.0, capacity=50)
        for tick in range(10_000):
            series.observe(float(tick), at=tick * 0.5)
        assert len(series._ids) == 50
        assert len(series.points(1e9, 5_000.0)) <= 50

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            RingSeries("exotic")
        with pytest.raises(ValueError, match="step"):
            RingSeries("gauge", step=0.0)
        with pytest.raises(ValueError, match="capacity"):
            RingSeries("gauge", capacity=1)
        with pytest.raises(ValueError, match="bounds"):
            RingSeries("histogram")
        with pytest.raises(ValueError, match="q must be"):
            RingSeries("gauge").quantile(1.5, 10.0, 0.0)


class TestTimeSeriesStore:
    def test_series_created_on_first_observe(self):
        store = TimeSeriesStore(step=1.0)
        store.observe("a", 1.0, kind="gauge", at=0.0)
        store.observe("b", 5.0, kind="counter", at=0.0)
        assert store.names() == ["a", "b"]
        assert store.latest("a") == 1.0
        assert store.latest("missing") is None

    def test_kind_mismatch_raises(self):
        store = TimeSeriesStore()
        store.observe("x", 1.0, kind="gauge", at=0.0)
        with pytest.raises(ValueError, match="gauge"):
            store.observe("x", 1.0, kind="counter", at=1.0)
        with pytest.raises(ValueError, match="counter"):
            store.rate("x", at=1.0)
        store.observe("c", 1.0, kind="counter", at=0.0)
        with pytest.raises(ValueError, match="rate"):
            store.quantile("c", 0.5, at=1.0)

    def test_max_series_drops_and_counts(self):
        store = TimeSeriesStore(max_series=2)
        store.observe("a", 1.0, at=0.0)
        store.observe("b", 1.0, at=0.0)
        store.observe("c", 1.0, at=0.0)  # over the cap: dropped
        assert store.names() == ["a", "b"]
        assert store.dropped_series == 1
        # Existing series still record.
        store.observe("a", 2.0, at=1.0)
        assert store.latest("a") == 2.0

    def test_to_dict_is_json_able_and_digested(self):
        store = TimeSeriesStore(step=1.0)
        for second in range(10):
            store.observe("reqs", second * 100.0, kind="counter", at=float(second))
            store.observe("depth", float(second % 3), kind="gauge", at=float(second))
        store.observe(
            "lat", [5, 3, 1, 0], kind="histogram", at=9.0,
            bounds=(0.01, 0.1, 1.0),
        )
        view = store.to_dict(at=9.0)
        json.dumps(view)  # JSON-able end to end
        assert view["series"]["reqs"]["kind"] == "counter"
        assert view["series"]["reqs"]["rate"] == pytest.approx(100.0)
        assert view["series"]["depth"]["kind"] == "gauge"
        assert view["series"]["lat"]["p50"] is not None

    def test_unknown_series_queries_are_safe(self):
        store = TimeSeriesStore()
        assert store.rate("ghost", at=1.0) == 0.0
        assert store.quantile("ghost", 0.5, at=1.0) is None
        assert store.fraction_above("ghost", 0.1, at=1.0) is None
        assert store.window("ghost", at=1.0) == []


class TestTelemetryIntegration:
    def test_sample_series_rolls_aggregates_into_store(self):
        telemetry = Telemetry(series=TimeSeriesStore(step=1.0))
        for index in range(20):
            telemetry.record_predict("m", 0.002, 10)
            telemetry.record_stage("worker_predict", 0.002)
            telemetry.record_edge_request("predict", 200, 0.003)
        telemetry.record_edge_request("predict", 500, 0.05)
        telemetry.record_queue_depth(4)
        telemetry.sample_series(at=100.0)
        for index in range(20):
            telemetry.record_predict("m", 0.002, 10)
        telemetry.sample_series(at=105.0)

        store = telemetry.series
        assert store.rate("requests.count", window=10.0, at=105.0) == pytest.approx(4.0)
        assert store.latest("queue.depth") == 4.0
        assert store.latest("edge.predict.errors") == 1.0
        p99 = store.quantile("stage.worker_predict", 0.99, window=10.0, at=105.0)
        assert p99 in STAGE_BUCKETS
        # 20 of the 21 round trips took 3 ms: the (2.5 ms, 5 ms] bucket.
        assert store.quantile(
            "edge.predict.latency", 0.5, window=10.0, at=105.0
        ) == 0.005

    def test_snapshot_carries_uptime_stamp_and_series(self):
        telemetry = Telemetry()
        telemetry.sample_series()
        snapshot = telemetry.snapshot()
        assert snapshot["uptime_seconds"] >= 0.0
        assert snapshot["snapshot_at"] > 0.0
        assert "requests.count" in snapshot["series"]["series"]
        json.dumps(snapshot)

    def test_snapshot_at_is_monotonic_across_snapshots(self):
        telemetry = Telemetry()
        first = telemetry.snapshot()
        second = telemetry.snapshot()
        assert second["snapshot_at"] >= first["snapshot_at"]
        assert second["uptime_seconds"] >= first["uptime_seconds"]

    def test_series_render_as_prometheus_gauges(self):
        from repro.obs.prometheus import parse_exposition_line

        # Real-clock sampling: snapshot() renders the series window at the
        # current monotonic instant, so synthetic stamps would fall outside.
        telemetry = Telemetry(series=TimeSeriesStore(step=0.001))
        telemetry.record_predict("m", 0.002, 5)
        telemetry.record_stage("worker_predict", 0.002)
        telemetry.sample_series()
        telemetry.record_predict("m", 0.002, 5)
        telemetry.sample_series()
        text = telemetry.to_prometheus()
        parsed = {}
        for line in text.splitlines():
            result = parse_exposition_line(line)
            if result is not None:
                name, labels, value = result
                parsed[(name, tuple(sorted(labels.items())))] = value
        assert (
            "repro_series_latest", (("series", "requests.count"),)
        ) in parsed
        assert (
            "repro_series_rate", (("series", "requests.count"),)
        ) in parsed
        assert ("repro_uptime_seconds", ()) in parsed
        quantile_keys = [
            key for key in parsed
            if key[0] == "repro_series_quantile"
            and ("series", "stage.worker_predict") in key[1]
        ]
        assert quantile_keys
