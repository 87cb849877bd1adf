"""Fixed-memory windowed time series over serving telemetry.

:class:`~repro.serve.metrics.Telemetry` answers "how is the service doing
*right now*" -- every counter and latency histogram is cumulative or
point-in-time.  Operating a serving plane needs the other axis too: was the
request rate climbing before the p99 spike, is RSS creeping, did the error
rate start burning five minutes ago or five seconds ago.  This module
supplies that memory at constant cost: a :class:`TimeSeriesStore` of
per-series ring buffers, each holding the last ``capacity`` buckets of
``step`` seconds.

Three series kinds cover everything the monitoring plane records:

* ``counter`` -- a monotonically increasing cumulative value sampled on a
  cadence (request totals, CPU seconds).  :meth:`TimeSeriesStore.rate`
  answers "events per second over the last window" from the first/last
  samples inside the window, tolerating counter resets (a restart clamps
  the delta at zero instead of going negative).
* ``gauge`` -- an instantaneous level (queue depth, RSS bytes, event-loop
  lag).  Buckets aggregate ``count/sum/min/max/last`` so a 1-second bucket
  still shows the spike a single sample would miss;
  :meth:`TimeSeriesStore.quantile` computes windowed quantiles over the
  bucket ``last`` values.
* ``histogram`` -- a vector of lifetime counts per latency bucket, the
  shape of :class:`~repro.serve.metrics.LatencyHistogram` (per-stage and
  per-route latencies).  Sampling the vector on a cadence makes *windowed*
  latency quantiles possible: the difference between the newest and the
  pre-window vectors is the histogram of exactly the observations that
  landed inside the window, and :meth:`TimeSeriesStore.quantile` reads
  p50/p99 off it with :func:`bucket_quantile`, the same rule a
  ``Telemetry`` snapshot applies to the lifetime counts.

Everything is bounded: ``capacity`` buckets per series, ``max_series``
series per store (late registrations are dropped and counted, never
unbounded), and all timestamps ride the monotonic clock so scrapers are
immune to wall-clock steps.  The store itself never samples anything --
:meth:`Telemetry.sample_series` and :class:`repro.obs.sysmon.SystemMonitor`
push into it on their own cadence, so an unmonitored service pays nothing.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Default bucket width in seconds.
DEFAULT_STEP = 1.0

#: Default buckets retained per series (300 x 1s = five minutes).
DEFAULT_CAPACITY = 300

#: Default cap on distinct series names per store.
DEFAULT_MAX_SERIES = 512

_KINDS = ("counter", "gauge", "histogram")


def bucket_quantile(
    bounds: Sequence[float], counts: Sequence[int], q: float
) -> Optional[float]:
    """Upper bound of the bucket that holds the ``q``-th counted observation.

    ``counts`` holds one count per finite bound plus a trailing ``+Inf``
    overflow slot, which reports the top finite bound.  ``None`` when
    nothing was counted.  The one quantile rule of every latency
    histogram: windowed series quantiles and snapshot quantiles.
    """
    total = sum(counts)
    if total == 0:
        return None
    target = q * total
    running = 0
    for index, count in enumerate(counts):
        running += count
        if running >= target and count:
            break
    return bounds[min(index, len(bounds) - 1)]


class RingSeries:
    """One named series: a ring of ``capacity`` aggregating time buckets.

    Observations land in the bucket ``floor(at / step)``; the ring index is
    that bucket id modulo ``capacity``, and a slot whose stored id differs
    from the incoming one is simply reset -- old data ages out by being
    overwritten, with no compaction pass and no allocation after
    construction (histogram vectors are the one exception: each slot holds
    the latest sampled vector for its bucket).
    """

    __slots__ = (
        "kind", "step", "capacity", "bounds",
        "_ids", "_last", "_min", "_max", "_sum", "_count", "_vectors",
    )

    def __init__(
        self,
        kind: str,
        *,
        step: float = DEFAULT_STEP,
        capacity: int = DEFAULT_CAPACITY,
        bounds: Optional[Sequence[float]] = None,
    ) -> None:
        if kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}; got {kind!r}.")
        if float(step) <= 0.0:
            raise ValueError(f"step must be > 0 seconds; got {step}.")
        if int(capacity) < 2:
            raise ValueError(f"capacity must be >= 2 buckets; got {capacity}.")
        if kind == "histogram" and not bounds:
            raise ValueError("histogram series need their bucket bounds.")
        self.kind = kind
        self.step = float(step)
        self.capacity = int(capacity)
        self.bounds = None if bounds is None else tuple(float(b) for b in bounds)
        self._ids = [-1] * self.capacity
        self._last = [0.0] * self.capacity
        if kind == "gauge":
            self._min = [0.0] * self.capacity
            self._max = [0.0] * self.capacity
            self._sum = [0.0] * self.capacity
            self._count = [0] * self.capacity
        else:
            self._min = self._max = self._sum = self._count = None
        self._vectors: Optional[List[Optional[List[int]]]] = (
            [None] * self.capacity if kind == "histogram" else None
        )

    # -- recording ---------------------------------------------------------------

    def observe(self, value: Any, at: float) -> None:
        """Fold one sample taken at monotonic instant ``at`` into its bucket."""
        bucket = int(at // self.step)
        slot = bucket % self.capacity
        fresh = self._ids[slot] != bucket
        self._ids[slot] = bucket
        if self.kind == "histogram":
            # The sampled cumulative vector replaces the slot's view: within
            # one bucket the newest sample subsumes the older ones.
            self._vectors[slot] = [int(v) for v in value]
            self._last[slot] = float(sum(value))
            return
        value = float(value)
        self._last[slot] = value
        if self.kind == "gauge":
            if fresh:
                self._min[slot] = self._max[slot] = self._sum[slot] = value
                self._count[slot] = 1
            else:
                self._min[slot] = min(self._min[slot], value)
                self._max[slot] = max(self._max[slot], value)
                self._sum[slot] += value
                self._count[slot] += 1

    # -- windowed reads ----------------------------------------------------------

    def _window_slots(self, window: float, at: float) -> List[int]:
        """Slot indices with data inside ``[at - window, at]``, oldest first."""
        newest = int(at // self.step)
        oldest = newest - min(
            int(math.ceil(window / self.step)), self.capacity - 1
        )
        # Never-written slots hold id -1; a window reaching past t=0 must
        # not sweep them in as phantom zero samples.
        slots = [
            slot
            for slot in range(self.capacity)
            if 0 <= self._ids[slot] and oldest <= self._ids[slot] <= newest
        ]
        slots.sort(key=lambda slot: self._ids[slot])
        return slots

    def latest(self) -> Optional[float]:
        """Most recent sample value (cumulative for counters), or ``None``."""
        newest = max(self._ids)
        if newest < 0:
            return None
        return self._last[newest % self.capacity]

    def rate(self, window: float, at: float) -> float:
        """Counter increase per second across the window (0.0 when unknown)."""
        slots = self._window_slots(window, at)
        if len(slots) < 2:
            return 0.0
        first, last = slots[0], slots[-1]
        span = (self._ids[last] - self._ids[first]) * self.step
        if span <= 0.0:
            return 0.0
        # A restarted counter samples lower than before; clamping the delta
        # reports a quiet window instead of a negative rate.
        return max(self._last[last] - self._last[first], 0.0) / span

    def quantile(self, q: float, window: float, at: float) -> Optional[float]:
        """Windowed quantile; ``None`` when the window holds no data.

        Gauges take the quantile over their per-bucket ``last`` values.
        Histograms subtract the newest cumulative vector from the last one
        *before* the window (or zero), leaving the distribution of exactly
        the in-window observations, and return the upper bound of the
        bucket the ``q``-th observation falls in.
        """
        if not 0.0 <= float(q) <= 1.0:
            raise ValueError(f"q must be in [0, 1]; got {q}.")
        slots = self._window_slots(window, at)
        if not slots:
            return None
        if self.kind == "histogram":
            deltas = self._window_deltas(slots)
            return None if deltas is None else bucket_quantile(
                self.bounds, deltas, float(q)
            )
        values = sorted(self._last[slot] for slot in slots)
        # Nearest-rank on the bucket aggregates: cheap and monotone in q.
        index = min(int(q * len(values)), len(values) - 1)
        return values[index]

    def _window_deltas(self, slots: List[int]) -> Optional[List[int]]:
        """In-window observation counts per bucket: newest minus pre-window."""
        newest = self._vectors[slots[-1]]
        if newest is None:
            return None
        oldest_in_window = self._ids[slots[0]]
        baseline: Optional[List[int]] = None
        baseline_id = -1
        for slot in range(self.capacity):
            bucket = self._ids[slot]
            if 0 <= bucket < oldest_in_window and bucket > baseline_id:
                if self._vectors[slot] is not None:
                    baseline_id = bucket
                    baseline = self._vectors[slot]
        if baseline is None:
            baseline = [0] * len(newest)
        return [max(n - b, 0) for n, b in zip(newest, baseline)]

    def fraction_above(
        self, threshold: float, window: float, at: float
    ) -> Optional[float]:
        """Share of in-window observations above ``threshold`` (histograms).

        An observation counts as "above" when its bucket's upper bound
        exceeds ``threshold`` -- the same upper-bound convention
        :meth:`quantile` reports, so the two are mutually consistent.
        ``None`` when the window holds no observations.
        """
        if self.kind != "histogram":
            raise ValueError(
                f"fraction_above() needs a histogram series; this is a "
                f"{self.kind}."
            )
        slots = self._window_slots(window, at)
        if not slots:
            return None
        deltas = self._window_deltas(slots)
        if deltas is None:
            return None
        total = sum(deltas)
        if total == 0:
            return None
        threshold = float(threshold)
        bad = sum(
            count
            for index, count in enumerate(deltas)
            if index >= len(self.bounds) or self.bounds[index] > threshold
        )
        return bad / total

    def points(self, window: float, at: float) -> List[List[float]]:
        """Chronological ``[t, value, ...]`` rows for the in-window buckets.

        Gauges emit ``[t, last, min, max]``; counters ``[t, cumulative]``;
        histograms ``[t, observation_count]`` (their quantiles are read via
        :meth:`quantile`, not re-shipped per bucket).
        """
        rows: List[List[float]] = []
        for slot in self._window_slots(window, at):
            t = self._ids[slot] * self.step
            if self.kind == "gauge":
                rows.append([t, self._last[slot], self._min[slot], self._max[slot]])
            else:
                rows.append([t, self._last[slot]])
        return rows


class TimeSeriesStore:
    """Thread-safe collection of named :class:`RingSeries`.

    Parameters
    ----------
    step:
        Bucket width in seconds shared by every series (1s default; pass
        10/60 for coarser rollups and a proportionally longer horizon).
    capacity:
        Buckets retained per series; the horizon is ``step * capacity``.
    max_series:
        Hard cap on distinct series.  Registrations beyond it are dropped
        (and counted in ``dropped_series``) rather than growing without
        bound -- series names must be bounded-cardinality by construction.
    """

    def __init__(
        self,
        *,
        step: float = DEFAULT_STEP,
        capacity: int = DEFAULT_CAPACITY,
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> None:
        if float(step) <= 0.0:
            raise ValueError(f"step must be > 0 seconds; got {step}.")
        if int(capacity) < 2:
            raise ValueError(f"capacity must be >= 2 buckets; got {capacity}.")
        if int(max_series) < 1:
            raise ValueError(f"max_series must be >= 1; got {max_series}.")
        self.step = float(step)
        self.capacity = int(capacity)
        self.max_series = int(max_series)
        self.dropped_series = 0
        self._series: Dict[str, RingSeries] = {}
        self._lock = threading.Lock()

    @property
    def horizon(self) -> float:
        """Seconds of history each series can hold."""
        return self.step * self.capacity

    # -- recording ---------------------------------------------------------------

    def observe(
        self,
        name: str,
        value: Any,
        *,
        kind: str = "gauge",
        at: float,
        bounds: Optional[Sequence[float]] = None,
    ) -> None:
        """Record one sample for ``name`` (the series is created on first use).

        A re-registration under a different kind raises ``ValueError`` --
        silently re-interpreting a counter as a gauge would corrupt every
        window query over it.
        """
        with self._lock:
            series = self._series.get(name)
            if series is None:
                if len(self._series) >= self.max_series:
                    self.dropped_series += 1
                    return
                series = self._series[name] = RingSeries(
                    kind, step=self.step, capacity=self.capacity, bounds=bounds
                )
            elif series.kind != kind:
                raise ValueError(
                    f"series {name!r} is a {series.kind}; cannot record a "
                    f"{kind} sample into it."
                )
            series.observe(value, float(at))

    # -- queries -----------------------------------------------------------------

    def names(self) -> List[str]:
        """Sorted names of every registered series."""
        with self._lock:
            return sorted(self._series)

    def latest(self, name: str) -> Optional[float]:
        """Most recent sample of ``name`` (``None`` for unknown/empty)."""
        with self._lock:
            series = self._series.get(name)
            return None if series is None else series.latest()

    def rate(
        self, name: str, *, window: float = 60.0, at: float
    ) -> float:
        """Per-second increase of counter ``name`` over the last ``window``."""
        with self._lock:
            series = self._series.get(name)
            if series is None:
                return 0.0
            if series.kind != "counter":
                raise ValueError(
                    f"rate() needs a counter series; {name!r} is a {series.kind}."
                )
            return series.rate(float(window), float(at))

    def quantile(
        self, name: str, q: float, *, window: float = 60.0, at: float
    ) -> Optional[float]:
        """Windowed ``q``-quantile of gauge/histogram ``name`` (None if empty)."""
        with self._lock:
            series = self._series.get(name)
            if series is None:
                return None
            if series.kind == "counter":
                raise ValueError(
                    f"quantile() needs a gauge or histogram series; {name!r} "
                    "is a counter (use rate())."
                )
            return series.quantile(float(q), float(window), float(at))

    def fraction_above(
        self, name: str, threshold: float, *, window: float = 60.0, at: float
    ) -> Optional[float]:
        """Windowed share of histogram ``name``'s observations above ``threshold``."""
        with self._lock:
            series = self._series.get(name)
            if series is None:
                return None
            return series.fraction_above(
                float(threshold), float(window), float(at)
            )

    def window(
        self, name: str, *, window: Optional[float] = None, at: float
    ) -> List[List[float]]:
        """Chronological bucket rows of ``name`` (full horizon by default)."""
        with self._lock:
            series = self._series.get(name)
            if series is None:
                return []
            span = self.horizon if window is None else float(window)
            return series.points(span, float(at))

    # -- export ------------------------------------------------------------------

    def to_dict(
        self, *, at: float, window: Optional[float] = None
    ) -> Dict[str, Any]:
        """JSON-able view of every series over the last ``window`` seconds.

        Counters carry their windowed per-second ``rate``, gauges their
        ``latest``, histograms windowed ``p50``/``p99`` -- the pre-digested
        numbers a dashboard wants, next to the raw bucket rows.
        """
        span = self.horizon if window is None else float(window)
        at = float(at)
        with self._lock:
            out: Dict[str, Any] = {
                "step": self.step,
                "capacity": self.capacity,
                "window_seconds": span,
                "dropped_series": self.dropped_series,
                "series": {},
            }
            for name, series in sorted(self._series.items()):
                entry: Dict[str, Any] = {
                    "kind": series.kind,
                    "latest": series.latest(),
                }
                if series.kind == "counter":
                    entry["rate"] = series.rate(span, at)
                    entry["points"] = series.points(span, at)
                elif series.kind == "gauge":
                    entry["points"] = series.points(span, at)
                else:
                    entry["count"] = series.latest()
                    entry["p50"] = series.quantile(0.5, span, at)
                    entry["p99"] = series.quantile(0.99, span, at)
                out["series"][name] = entry
            return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (
                f"TimeSeriesStore(step={self.step}, capacity={self.capacity}, "
                f"series={len(self._series)})"
            )
