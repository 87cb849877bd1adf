"""Hypothesis properties: Telemetry snapshots stay JSON-able and consistent.

The snapshot is the single read surface every consumer (the edge's
``/metrics``, the Prometheus renderer, operators debugging slow requests)
shares, so two invariants must hold under *any* interleaving of recordings:

* ``snapshot()`` is always ``json.dumps``-able -- no ndarray, deque, tuple
  key or other non-JSON type ever leaks into it;
* it is internally consistent: per-trace stage span sums never exceed the
  trace total, histogram buckets are cumulative with the ``+Inf`` bucket
  equal to the count, and the counters are monotone non-decreasing across
  successive snapshots even while recorder threads race the reader.

Snapshot latency quantiles and windowed series quantiles read the same
histogram by the same rule, so over a window holding every observation they
agree (the snapshot's capped at the observed max).
"""

import json
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import TimeSeriesStore, Trace
from repro.serve.metrics import QUANTILES, Telemetry

STAGES = ("edge-parse", "admission-wait", "queue-wait", "worker-predict",
          "collect")

# One recorded event, as (kind, payload) tuples a worker thread replays.
events = st.one_of(
    st.tuples(
        st.just("predict"),
        st.tuples(
            st.sampled_from(("live", "canary")),
            st.floats(min_value=0.0, max_value=0.5,
                      allow_nan=False, allow_infinity=False),
            st.integers(min_value=0, max_value=10_000),
        ),
    ),
    st.tuples(
        st.just("stage"),
        st.tuples(
            st.sampled_from(STAGES),
            st.floats(min_value=0.0, max_value=20.0,
                      allow_nan=False, allow_infinity=False),
        ),
    ),
    st.tuples(
        st.just("edge"),
        st.tuples(
            st.sampled_from(("predict", "healthz", "bad-request")),
            st.sampled_from((200, 400, 404, 429, 504)),
            st.floats(min_value=0.0, max_value=2.0,
                      allow_nan=False, allow_infinity=False),
        ),
    ),
    st.tuples(
        st.just("trace"),
        st.tuples(
            st.lists(
                st.tuples(
                    st.sampled_from(STAGES),
                    st.floats(min_value=0.0, max_value=0.2,
                              allow_nan=False, allow_infinity=False),
                ),
                max_size=6,
            ),
            st.booleans(),  # errored?
            st.one_of(st.none(), st.floats(min_value=0.0, max_value=0.05,
                                           allow_nan=False,
                                           allow_infinity=False)),
        ),
    ),
    st.tuples(st.just("reject"), st.sampled_from(("live", "canary"))),
    st.tuples(st.just("swap"), st.sampled_from(("live", "canary"))),
)


def _replay(telemetry, event):
    kind, payload = event
    if kind == "predict":
        model, seconds, batch = payload
        telemetry.record_predict(model, seconds, batch)
    elif kind == "stage":
        stage, seconds = payload
        telemetry.record_stage(stage, seconds)
    elif kind == "edge":
        route, status, seconds = payload
        telemetry.record_edge_request(route, status, seconds)
    elif kind == "trace":
        spans, errored, deadline = payload
        trace = Trace(deadline=deadline)
        cursor = trace.started
        for stage, seconds in spans:
            trace.add_span(stage, cursor, cursor + seconds)
            cursor += seconds
        trace.close(error="synthetic failure" if errored else None)
        telemetry.record_trace(trace)
    elif kind == "reject":
        telemetry.record_reject(payload)
    elif kind == "swap":
        telemetry.record_swap(payload, "v2")


def _assert_consistent(snapshot):
    # JSON-able, round-trip stable.
    round_tripped = json.loads(json.dumps(snapshot))
    assert round_tripped["traces"]["count"] == snapshot["traces"]["count"]
    # Histogram buckets cumulative; +Inf bucket equals the series count.
    for stage, series in snapshot["stages"].items():
        counts = [count for _, count in series["buckets"]]
        assert counts == sorted(counts), f"{stage} buckets not cumulative"
        assert series["buckets"][-1][0] == "+Inf"
        assert series["buckets"][-1][1] == series["count"]
        assert series["seconds_total"] >= 0.0
        assert series["max"] >= 0.0
    # Edge series: status counts sum to the route count; quantiles ordered.
    for route, series in snapshot["edge"]["routes"].items():
        assert sum(series["by_status"].values()) == series["count"]
        latency = series["latency"]
        assert latency["p50"] <= latency["p90"] <= latency["p99"]
        assert latency["p99"] <= latency["max"] + 1e-12
    # Captured traces: span sums never exceed the measured total.
    captured = (
        snapshot["traces"]["slowest"] + snapshot["traces"]["violations"]
    )
    for entry in captured:
        span_sum = sum(span["seconds"] for span in entry["spans"])
        assert span_sum <= entry["total_seconds"] + 1e-9, entry
        assert 0.0 <= entry["coverage"] <= 1.0
    assert snapshot["traces"]["errors"] <= snapshot["traces"]["count"]
    assert (
        snapshot["traces"]["deadline_violations"]
        <= snapshot["traces"]["count"]
    )


def _counter_vector(snapshot):
    """The monotone counters of a snapshot, as one comparable structure."""
    return {
        "traces": snapshot["traces"]["count"],
        "trace_errors": snapshot["traces"]["errors"],
        "violations": snapshot["traces"]["deadline_violations"],
        "rejections": snapshot["rejections"]["total"],
        "swaps": snapshot["swaps"]["count"],
        "stage_counts": {
            stage: series["count"]
            for stage, series in snapshot["stages"].items()
        },
        "edge_counts": {
            route: series["count"]
            for route, series in snapshot["edge"]["routes"].items()
        },
        "predict_counts": {
            model: series["count"]
            for model, series in snapshot["predict"].items()
        },
    }


def _monotone(before, after):
    assert after["traces"] >= before["traces"]
    assert after["trace_errors"] >= before["trace_errors"]
    assert after["violations"] >= before["violations"]
    assert after["rejections"] >= before["rejections"]
    assert after["swaps"] >= before["swaps"]
    for key in ("stage_counts", "edge_counts", "predict_counts"):
        for name, count in before[key].items():
            assert after[key].get(name, 0) >= count, (key, name)


class TestSnapshotProperties:
    @given(batch=st.lists(events, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_serial_snapshots_consistent_and_monotone(self, batch):
        telemetry = Telemetry(slow_traces=4)
        previous = None
        for index, event in enumerate(batch):
            _replay(telemetry, event)
            if index % 7 == 0:
                snapshot = telemetry.snapshot()
                _assert_consistent(snapshot)
                current = _counter_vector(snapshot)
                if previous is not None:
                    _monotone(previous, current)
                previous = current
        _assert_consistent(telemetry.snapshot())

    @given(
        batches=st.lists(
            st.lists(events, min_size=1, max_size=20),
            min_size=2, max_size=4,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_threaded_interleavings_never_corrupt_snapshot(self, batches):
        telemetry = Telemetry(slow_traces=4)
        start = threading.Barrier(len(batches) + 1)
        errors = []

        def worker(events_for_thread):
            try:
                start.wait(timeout=10)
                for event in events_for_thread:
                    _replay(telemetry, event)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(batch,), daemon=True)
            for batch in batches
        ]
        for thread in threads:
            thread.start()
        start.wait(timeout=10)
        # Snapshot while the recorders race the reader.
        vectors = []
        for _ in range(5):
            snapshot = telemetry.snapshot()
            _assert_consistent(snapshot)
            vectors.append(_counter_vector(snapshot))
            time.sleep(0.0005)
        for thread in threads:
            thread.join(timeout=10)
        assert not errors, errors
        final = telemetry.snapshot()
        _assert_consistent(final)
        vectors.append(_counter_vector(final))
        for before, after in zip(vectors, vectors[1:]):
            _monotone(before, after)
        expected_traces = sum(
            1 for batch in batches for kind, _ in batch if kind == "trace"
        )
        assert final["traces"]["count"] == expected_traces


class TestLatencyQuantileRule:
    @given(
        latencies=st.lists(
            st.floats(min_value=0.0, max_value=20.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=200,
        ),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_snapshot_quantiles_match_windowed_series(self, latencies, data):
        telemetry = Telemetry(series=TimeSeriesStore(step=1.0))
        split = data.draw(st.integers(min_value=0, max_value=len(latencies)))
        for seconds in latencies[:split]:
            telemetry.record_edge_request("predict", 200, seconds)
        telemetry.sample_series(at=100.0)
        for seconds in latencies[split:]:
            telemetry.record_edge_request("predict", 200, seconds)
        telemetry.sample_series(at=101.0)

        route = telemetry.snapshot()["edge"]["routes"]["predict"]
        latency = route["latency"]
        store = telemetry.series
        for q in QUANTILES:
            windowed = store.quantile(
                "edge.predict.latency", q, window=10.0, at=101.0
            )
            assert latency[f"p{int(q * 100)}"] == min(windowed, latency["max"])
        assert latency["max"] == max(latencies)
        # Bucket counts sum to the count, in the snapshot and the series.
        assert route["count"] == len(latencies)
        assert store.latest("edge.predict.latency") == len(latencies)
        assert latency["buckets"][-1] == ["+Inf", len(latencies)]
        for le, cumulative in latency["buckets"][:-1]:
            assert cumulative == sum(1 for s in latencies if s <= le)
