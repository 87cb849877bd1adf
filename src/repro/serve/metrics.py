"""Serving telemetry: latency histograms, queue depth, swaps, drift history.

A serving plane is only operable if it can answer "how is it doing?" without
stopping.  :class:`Telemetry` is the shared hook surface every serving
component reports into -- :class:`~repro.serve.ClusteringService` (and its
multi-process subclass) records per-model predict latency and batch sizes,
admission control records queue depth and rejections, blue/green publication
records swaps, and :class:`~repro.stream.StreamController` records its
drift-check history and contained callback failures.

Everything is aggregated in-process under one lock.  Every latency --
per-model predicts, per-route edge round trips, serving and pipeline
stages -- is counted into one :class:`LatencyHistogram` of fixed
:data:`STAGE_BUCKETS` cells, so an always-on service never grows and a
snapshot costs O(buckets); the rest are plain counters.
:meth:`Telemetry.snapshot` returns a nested plain-``dict`` view (JSON-able)
at any time, and an optional ``sink`` callable receives every event as it
is recorded, so tests, benchmarks and exporters can introspect the stream
without polling.  A failing sink is contained and counted, never propagated
into the serving path.
"""

from __future__ import annotations

import dataclasses
import heapq
import threading
import time
from bisect import bisect_left
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.obs.timeseries import TimeSeriesStore, bucket_quantile

#: Latency quantiles exported by :meth:`Telemetry.snapshot`.
QUANTILES = (0.5, 0.9, 0.99)

#: Upper bounds (seconds) of every latency histogram: log-spaced from 10us
#: to 10s, covering everything from a queue hand-off to a deadline-blown
#: worker pass.  The final implicit bucket is ``+Inf``.
STAGE_BUCKETS = (
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)


class LatencyHistogram:
    """Fixed-bucket latency histogram: count, total, max and bucket counts.

    The one latency distribution of the serving plane: stages, per-model
    predicts and per-route edge round trips all observe into one.
    Observations are counted into the :data:`STAGE_BUCKETS` cells instead of
    kept, so the memory cost is constant no matter how hot the path is --
    the natural shape for Prometheus ``_bucket``/``_sum``/``_count``
    exposition and for the windowed ``histogram`` series of
    :class:`~repro.obs.timeseries.TimeSeriesStore`.
    """

    __slots__ = ("count", "seconds_total", "seconds_max", "bucket_counts")

    def __init__(self) -> None:
        self.count = 0
        self.seconds_total = 0.0
        self.seconds_max = 0.0
        # One slot per finite bound plus the +Inf overflow slot.
        self.bucket_counts = [0] * (len(STAGE_BUCKETS) + 1)

    def observe(self, seconds: float) -> None:
        seconds = float(seconds)
        self.count += 1
        self.seconds_total += seconds
        if seconds > self.seconds_max:
            self.seconds_max = seconds
        # bisect_left finds the first bound >= seconds (``le`` semantics);
        # past-the-end lands in the trailing +Inf slot.  C-implemented, so
        # the hot recording path does no Python-level bucket scan.
        self.bucket_counts[bisect_left(STAGE_BUCKETS, seconds)] += 1

    def cumulative_buckets(self) -> List[List[Any]]:
        """``[le, cumulative_count]`` pairs ending with ``["+Inf", count]``."""
        out: List[List[Any]] = []
        running = 0
        for bound, n in zip(STAGE_BUCKETS, self.bucket_counts):
            running += n
            out.append([bound, running])
        out.append(["+Inf", self.count])
        return out

    def latency(self) -> Dict[str, Any]:
        """``p50/p90/p99``, ``mean``, ``max``, ``total`` and ``buckets``.

        A quantile is the upper bound of the bucket that holds the q-th
        observation (:func:`~repro.obs.timeseries.bucket_quantile`, the rule
        windowed series quantiles apply), capped at the observed max.
        """
        stats: Dict[str, Any] = {
            f"p{int(q * 100)}": min(
                bucket_quantile(STAGE_BUCKETS, self.bucket_counts, q),
                self.seconds_max,
            )
            for q in QUANTILES
        }
        stats["mean"] = self.seconds_total / self.count
        stats["max"] = self.seconds_max
        stats["total"] = self.seconds_total
        stats["buckets"] = self.cumulative_buckets()
        return stats


class _EdgeSeries(LatencyHistogram):
    """Per-route HTTP statistics: round-trip histogram + status counts."""

    __slots__ = ("by_status",)

    def __init__(self) -> None:
        super().__init__()
        self.by_status: Dict[str, int] = {}


class _PredictSeries(LatencyHistogram):
    """Per-model predict statistics: latency histogram + batch sizes."""

    __slots__ = ("rows", "batch_max")

    def __init__(self) -> None:
        super().__init__()
        self.rows = 0
        self.batch_max = 0


class Telemetry:
    """Thread-safe aggregation point for serving metrics.

    Parameters
    ----------
    history_limit:
        Drift-check reports retained in :meth:`snapshot`'s history.
    slow_traces:
        Closed request traces retained with their full span breakdown: the
        N slowest seen so far (a min-heap, so the bar keeps rising) plus a
        ring of the most recent error/deadline-violating traces.  Exposed
        under ``snapshot()["traces"]`` and the edge's ``GET /debug/slow``.
    sink:
        Optional callable receiving every recorded event as a flat ``dict``
        (``{"event": "predict", "model": ..., "seconds": ...}``).  The
        queue-depth *gauge* is the one exception: it changes on every
        admit/release, so it is readable from :meth:`snapshot` but not
        streamed.  Exceptions raised by the sink are swallowed and counted
        under ``sink_errors`` -- telemetry must never take the serving path
        down.
    series:
        Optional :class:`~repro.obs.timeseries.TimeSeriesStore` receiving
        periodic rollups from :meth:`sample_series` (a fresh store with
        1-second steps is created when omitted).  Point-in-time aggregates
        become windowed history: request/error rates, per-stage and
        per-route latency histograms, queue depth -- exported under
        ``snapshot()["series"]`` and as Prometheus gauges.
    """

    def __init__(
        self,
        *,
        history_limit: int = 256,
        slow_traces: int = 32,
        sink: Optional[Callable[[Dict[str, Any]], None]] = None,
        series: Optional[TimeSeriesStore] = None,
    ) -> None:
        if int(history_limit) < 1:
            raise ValueError(f"history_limit must be >= 1; got {history_limit}.")
        if int(slow_traces) < 1:
            raise ValueError(f"slow_traces must be >= 1; got {slow_traces}.")
        self.slow_traces = int(slow_traces)
        self.sink = sink
        self.series = series if series is not None else TimeSeriesStore()
        self._started = time.monotonic()
        self._lock = threading.Lock()
        self._predict: Dict[str, _PredictSeries] = {}
        self._rejections: Dict[str, int] = {}
        self._queue_depth = 0
        self._max_queue_depth = 0
        self._swaps: Dict[str, int] = {}
        self._last_swap: Optional[str] = None
        self._worker_respawns: Dict[int, int] = {}
        self._worker_pinned: Dict[int, int] = {}
        self._drift_checks = 0
        self._drift_flagged = 0
        self._drift_history: Deque[Dict[str, Any]] = deque(maxlen=int(history_limit))
        self._callback_errors = 0
        self._last_callback_error: Optional[str] = None
        self._sink_errors = 0
        self._stages: Dict[str, LatencyHistogram] = {}
        self._edge: Dict[str, _EdgeSeries] = {}
        self._trace_count = 0
        self._trace_errors = 0
        self._trace_violations = 0
        self._trace_seq = 0  # heap tie-breaker; dicts don't compare
        self._slowest: List[Tuple[float, int, Dict[str, Any]]] = []
        self._bad_traces: Deque[Dict[str, Any]] = deque(maxlen=self.slow_traces)

    # -- recording ---------------------------------------------------------------

    def _emit(self, event: Dict[str, Any]) -> None:
        if self.sink is None:
            return
        try:
            self.sink(event)
        except Exception:
            with self._lock:
                self._sink_errors += 1

    def record_predict(self, model: str, seconds: float, batch_size: int) -> None:
        """One executed predict pass: its wall time and row count."""
        with self._lock:
            series = self._predict.get(model)
            if series is None:
                series = self._predict[model] = _PredictSeries()
            series.observe(seconds)
            series.rows += int(batch_size)
            series.batch_max = max(series.batch_max, int(batch_size))
        self._emit({"event": "predict", "model": model,
                    "seconds": float(seconds), "batch_size": int(batch_size)})

    def record_reject(self, model: str) -> None:
        """One request turned away by admission control."""
        with self._lock:
            self._rejections[model] = self._rejections.get(model, 0) + 1
        self._emit({"event": "reject", "model": model})

    def record_queue_depth(self, depth: int) -> None:
        """Pending-request gauge, updated on every admit and release.

        Not streamed to the sink (it would dominate the event stream); read
        it from :meth:`snapshot` -- ``depth`` is the live value, ``max_depth``
        the high-water mark.
        """
        with self._lock:
            self._queue_depth = int(depth)
            self._max_queue_depth = max(self._max_queue_depth, int(depth))

    def record_swap(self, name: str, version: str) -> None:
        """One blue/green publication of ``version`` under alias ``name``."""
        with self._lock:
            self._swaps[name] = self._swaps.get(name, 0) + 1
            self._last_swap = version
        self._emit({"event": "swap", "model": name, "version": version})

    def record_worker_respawn(self, worker: int) -> None:
        """One dead worker process replaced by the pool's watchdog."""
        with self._lock:
            self._worker_respawns[int(worker)] = (
                self._worker_respawns.get(int(worker), 0) + 1
            )
        self._emit({"event": "worker_respawn", "worker": int(worker)})

    def record_worker_pinned(self, worker: int, cpu: Optional[int]) -> None:
        """One worker process pinned to a CPU (``None`` = pin removed/failed)."""
        with self._lock:
            if cpu is None:
                self._worker_pinned.pop(int(worker), None)
            else:
                self._worker_pinned[int(worker)] = int(cpu)

    def record_stage(self, stage: str, seconds: float) -> None:
        """One observation of a named serving-path (or pipeline) stage.

        Each stage has its own :class:`LatencyHistogram`, exported as a
        proper cumulative Prometheus histogram.  Not streamed to the sink
        individually -- one traced request produces ~8 of these, which
        would drown the event stream;
        :meth:`record_trace` emits a single summarising event instead.
        """
        with self._lock:
            series = self._stages.get(stage)
            if series is None:
                series = self._stages[stage] = LatencyHistogram()
            series.observe(seconds)

    def record_edge_request(self, route: str, status: int, seconds: float) -> None:
        """One HTTP request answered by the edge: route, status, round trip."""
        with self._lock:
            series = self._edge.get(route)
            if series is None:
                series = self._edge[route] = _EdgeSeries()
            series.observe(seconds)
            key = str(int(status))
            series.by_status[key] = series.by_status.get(key, 0) + 1
        self._emit({"event": "edge_request", "route": route,
                    "status": int(status), "seconds": float(seconds)})

    def record_trace(self, trace: Any) -> None:
        """One closed request trace: fan its spans into the stage histograms.

        Also maintains the slow-request capture: the ``slow_traces``
        slowest traces ever seen (min-heap -- the bar only rises) plus a
        ring of the most recent traces that errored or violated their
        deadline, each retained with the full span breakdown.
        """
        if not trace.closed:
            trace.close()
        total = float(trace.total_seconds or 0.0)
        bad = trace.error is not None or trace.deadline_violated
        # The span dict is only materialised for traces that are actually
        # captured (bad, or slow enough to enter the heap) -- the steady
        # state is a fast path of counter bumps and histogram updates.
        entry = trace.to_dict() if bad else None
        with self._lock:
            for span in trace.spans:
                series = self._stages.get(span.stage)
                if series is None:
                    series = self._stages[span.stage] = LatencyHistogram()
                series.observe(span.seconds)
            self._trace_count += 1
            if trace.error is not None:
                self._trace_errors += 1
            if trace.deadline_violated:
                self._trace_violations += 1
            if bad:
                self._bad_traces.append(entry)
            self._trace_seq += 1
            if len(self._slowest) < self.slow_traces:
                if entry is None:
                    entry = trace.to_dict()
                heapq.heappush(self._slowest, (total, self._trace_seq, entry))
            elif total > self._slowest[0][0]:
                if entry is None:
                    entry = trace.to_dict()
                heapq.heapreplace(self._slowest, (total, self._trace_seq, entry))
        if self.sink is not None:
            self._emit({"event": "trace", "trace_id": trace.trace_id,
                        "model": trace.model, "route": trace.route,
                        "seconds": total, "error": trace.error})

    def record_drift_check(self, report: Any, *, trace_id: Optional[str] = None) -> None:
        """One drift check; ``report`` is a DriftReport (or mapping).

        ``trace_id`` correlates the check with the structured log stream
        and any re-tune it triggers.
        """
        if dataclasses.is_dataclass(report):
            entry = dataclasses.asdict(report)
        else:
            entry = dict(report)
        entry["reasons"] = list(entry.get("reasons") or ())
        if trace_id is not None:
            entry["trace_id"] = trace_id
        with self._lock:
            self._drift_checks += 1
            if entry.get("drifted"):
                self._drift_flagged += 1
            self._drift_history.append(entry)
        self._emit({"event": "drift_check", **entry})

    def record_callback_error(self, where: str, error: BaseException) -> None:
        """A contained exception from a user callback (or worker control op)."""
        with self._lock:
            self._callback_errors += 1
            self._last_callback_error = f"{where}: {type(error).__name__}: {error}"
        self._emit({"event": "callback_error", "where": where,
                    "error": f"{type(error).__name__}: {error}"})

    def sample_series(self, at: Optional[float] = None) -> float:
        """Roll the current aggregates into the windowed time-series store.

        Called on a cadence (by :class:`repro.obs.sysmon.SystemMonitor`, a
        scraper, or a test), this turns the cumulative counters into
        ``counter`` series (windowed ``rate()`` answers requests/sec), the
        stage and edge-route latency histograms into ``histogram`` series
        (``stage.<stage>`` and ``edge.<route>.latency``: windowed p50/p99
        and latency SLOs), and the queue-depth gauge into a ``gauge``
        series.  Returns the monotonic sample instant so callers can line
        up their own samples.
        """
        at = time.monotonic() if at is None else float(at)
        with self._lock:
            predict_count = sum(s.count for s in self._predict.values())
            predict_rows = sum(s.rows for s in self._predict.values())
            stage_vectors = {
                stage: list(series.bucket_counts)
                for stage, series in self._stages.items()
            }
            route_stats = {
                route: (
                    series.count,
                    sum(
                        n for status, n in series.by_status.items()
                        if status.startswith(("4", "5"))
                    ),
                    list(series.bucket_counts),
                )
                for route, series in self._edge.items()
            }
            queue_depth = self._queue_depth
            trace_count = self._trace_count
            trace_errors = self._trace_errors
            rejections = sum(self._rejections.values())
        # Recorded outside the telemetry lock: the store has its own lock and
        # holding both invites ordering bugs for zero benefit.
        store = self.series
        store.observe("requests.count", predict_count, kind="counter", at=at)
        store.observe("requests.rows", predict_rows, kind="counter", at=at)
        store.observe("traces.count", trace_count, kind="counter", at=at)
        store.observe("traces.errors", trace_errors, kind="counter", at=at)
        store.observe("rejections.count", rejections, kind="counter", at=at)
        store.observe("queue.depth", queue_depth, kind="gauge", at=at)
        for stage, vector in stage_vectors.items():
            store.observe(
                f"stage.{stage}", vector, kind="histogram", at=at,
                bounds=STAGE_BUCKETS,
            )
        edge_requests = 0
        edge_errors = 0
        for route, (count, errors, vector) in route_stats.items():
            edge_requests += count
            edge_errors += errors
            store.observe(f"edge.{route}.requests", count, kind="counter", at=at)
            store.observe(f"edge.{route}.errors", errors, kind="counter", at=at)
            store.observe(
                f"edge.{route}.latency", vector, kind="histogram", at=at,
                bounds=STAGE_BUCKETS,
            )
        store.observe("edge.requests", edge_requests, kind="counter", at=at)
        store.observe("edge.errors", edge_errors, kind="counter", at=at)
        return at

    # -- introspection -----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Plain-``dict`` view of everything recorded so far (JSON-able).

        Per-model predict entries and edge routes report exact lifetime
        counters (``count``, ``rows``) and the ``latency`` dict of their
        :class:`LatencyHistogram` (:meth:`LatencyHistogram.latency`).
        ``snapshot_at`` is a monotonic stamp and ``uptime_seconds`` the age
        of this Telemetry, so scrapers can compute rates without wall-clock
        skew; ``series`` carries the windowed time-series view (empty until
        :meth:`sample_series` runs).
        """
        snapshot_at = time.monotonic()
        # Rendered outside the telemetry lock: the store locks itself.
        series_view = self.series.to_dict(at=snapshot_at)
        with self._lock:
            predict: Dict[str, Any] = {}
            for model, series in self._predict.items():
                predict[model] = {
                    "count": series.count,
                    "rows": series.rows,
                    "latency": series.latency(),
                    "batch_size": {
                        "mean": series.rows / series.count if series.count else 0.0,
                        "max": series.batch_max,
                    },
                }
            stages: Dict[str, Any] = {}
            for stage, stage_series in self._stages.items():
                stages[stage] = {
                    "count": stage_series.count,
                    "seconds_total": stage_series.seconds_total,
                    "max": stage_series.seconds_max,
                    "buckets": stage_series.cumulative_buckets(),
                }
            routes: Dict[str, Any] = {}
            for route, edge_series in self._edge.items():
                routes[route] = {
                    "count": edge_series.count,
                    "by_status": dict(edge_series.by_status),
                    "latency": edge_series.latency(),
                }
            slowest = [
                dict(entry)
                for _, _, entry in sorted(
                    self._slowest, key=lambda item: item[0], reverse=True
                )
            ]
            return {
                "predict": predict,
                "stages": stages,
                "edge": {"routes": routes},
                "traces": {
                    "count": self._trace_count,
                    "errors": self._trace_errors,
                    "deadline_violations": self._trace_violations,
                    "slowest": slowest,
                    "violations": [dict(entry) for entry in self._bad_traces],
                },
                "queue": {"depth": self._queue_depth,
                          "max_depth": self._max_queue_depth},
                "rejections": {"total": sum(self._rejections.values()),
                               "by_model": dict(self._rejections)},
                "swaps": {"count": sum(self._swaps.values()),
                          "by_name": dict(self._swaps),
                          "last_version": self._last_swap},
                "workers": {
                    "respawns": sum(self._worker_respawns.values()),
                    "by_worker": dict(self._worker_respawns),
                    "pinned": dict(self._worker_pinned),
                },
                "drift": {"checks": self._drift_checks,
                          "drifted": self._drift_flagged,
                          "history": [dict(entry) for entry in self._drift_history]},
                "callbacks": {"errors": self._callback_errors,
                              "last": self._last_callback_error},
                "sink_errors": self._sink_errors,
                "uptime_seconds": snapshot_at - self._started,
                "snapshot_at": snapshot_at,
                "series": series_view,
            }

    def to_prometheus(self) -> str:
        """Current state as Prometheus text exposition (version 0.0.4)."""
        from repro.obs.prometheus import render_prometheus

        return render_prometheus(self.snapshot())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            passes = sum(s.count for s in self._predict.values())
            swaps = sum(self._swaps.values())
        return f"Telemetry(passes={passes}, swaps={swaps}, checks={self._drift_checks})"
