"""Prometheus text exposition (version 0.0.4) over a Telemetry snapshot.

Everything :class:`~repro.serve.metrics.Telemetry` aggregates -- predict
series, stage histograms, edge routes, counters -- renders to the plain-text
format a stock Prometheus server scrapes, with no third-party client
library:

* counters end in ``_total``;
* every latency histogram -- per stage, per-model predict, per-route
  edge round trip -- emits proper cumulative ``_bucket{le=...}`` series
  plus ``_sum`` and ``_count`` (the last bucket is always ``le="+Inf"``
  and equals ``_count``);
* label values are escaped per the exposition spec (backslash, quote,
  newline).

:func:`render_prometheus` is a pure function of the snapshot dict, so it
can run against a live service, a stored snapshot, or a test fixture
identically; the edge serves it from ``GET /metrics`` when the client's
``Accept`` header asks for ``text/plain``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

#: The content type an 0.0.4 text exposition must be served under.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Metric-name prefix for everything this module renders.
PREFIX = "repro"


def escape_label_value(value: Any) -> str:
    """Escape a label value per the text-exposition spec."""
    return (
        str(value)
        .replace("\\", r"\\")
        .replace("\n", r"\n")
        .replace('"', r"\"")
    )


def format_labels(labels: Mapping[str, Any]) -> str:
    """Render a label mapping as ``{k="v",...}`` (empty string for none)."""
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{escape_label_value(value)}"' for key, value in labels.items()
    )
    return "{" + inner + "}"


def format_value(value: float) -> str:
    """Render a sample value (Prometheus accepts Go-style floats)."""
    value = float(value)
    if value != value:  # pragma: no cover - NaN never emitted by Telemetry
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):  # pragma: no cover - never emitted
        return "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class _Writer:
    """Accumulates exposition lines, emitting HELP/TYPE once per metric."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self._typed: set = set()

    def header(self, name: str, kind: str, help_text: str) -> None:
        if name not in self._typed:
            self._typed.add(name)
            self.lines.append(f"# HELP {name} {help_text}")
            self.lines.append(f"# TYPE {name} {kind}")

    def sample(self, name: str, labels: Mapping[str, Any], value: float) -> None:
        self.lines.append(f"{name}{format_labels(labels)} {format_value(value)}")


def _histogram(
    writer: _Writer,
    name: str,
    help_text: str,
    labels: Dict[str, Any],
    buckets: Iterable[Tuple[Any, int]],
    count: int,
    total: float,
) -> None:
    """One bounded histogram; ``buckets`` are cumulative ``(le, n)`` pairs."""
    writer.header(name, "histogram", help_text)
    for le, cumulative in buckets:
        le_text = "+Inf" if le in ("+Inf", float("inf")) else format_value(float(le))
        writer.sample(f"{name}_bucket", {**labels, "le": le_text}, cumulative)
    writer.sample(f"{name}_sum", labels, total)
    writer.sample(f"{name}_count", labels, count)


def render_prometheus(
    snapshot: Dict[str, Any], *, prefix: str = PREFIX
) -> str:
    """Render a :meth:`Telemetry.snapshot` dict as text exposition 0.0.4.

    Unknown snapshot sections are ignored, missing ones skipped, so the
    function works against any snapshot age.  Returns the full payload
    including the trailing newline the spec requires.
    """
    w = _Writer()

    for model, series in sorted(snapshot.get("predict", {}).items()):
        labels = {"model": model}
        name = f"{prefix}_predict_requests_total"
        w.header(name, "counter", "Executed predict passes per model.")
        w.sample(name, labels, series["count"])
        name = f"{prefix}_predict_rows_total"
        w.header(name, "counter", "Points labeled per model.")
        w.sample(name, labels, series["rows"])
        _histogram(
            w,
            f"{prefix}_predict_latency_seconds",
            "Per-pass predict latency per model.",
            labels,
            series["latency"].get("buckets", ()),
            series["count"],
            series["latency"].get("total", 0.0),
        )

    queue = snapshot.get("queue")
    if queue is not None:
        name = f"{prefix}_queue_depth"
        w.header(name, "gauge", "Admitted-but-unresolved requests right now.")
        w.sample(name, {}, queue["depth"])
        name = f"{prefix}_queue_depth_max"
        w.header(name, "gauge", "High-water mark of the pending-request gauge.")
        w.sample(name, {}, queue["max_depth"])

    rejections = snapshot.get("rejections")
    if rejections is not None:
        name = f"{prefix}_rejections_total"
        w.header(name, "counter", "Requests shed by admission control.")
        for model, count in sorted(rejections.get("by_model", {}).items()):
            w.sample(name, {"model": model}, count)
        if not rejections.get("by_model"):
            w.sample(name, {}, rejections.get("total", 0))

    swaps = snapshot.get("swaps")
    if swaps is not None:
        name = f"{prefix}_swaps_total"
        w.header(name, "counter", "Blue/green publications per serving alias.")
        for alias, count in sorted(swaps.get("by_name", {}).items()):
            w.sample(name, {"name": alias}, count)
        if not swaps.get("by_name"):
            w.sample(name, {}, swaps.get("count", 0))

    workers = snapshot.get("workers")
    if workers is not None:
        name = f"{prefix}_worker_respawns_total"
        w.header(name, "counter", "Dead worker processes replaced, per slot.")
        for worker, count in sorted(workers.get("by_worker", {}).items()):
            w.sample(name, {"worker": worker}, count)
        if not workers.get("by_worker"):
            w.sample(name, {}, workers.get("respawns", 0))

    drift = snapshot.get("drift")
    if drift is not None:
        name = f"{prefix}_drift_checks_total"
        w.header(name, "counter", "Drift checks run against the live sketch.")
        w.sample(name, {}, drift.get("checks", 0))
        name = f"{prefix}_drift_flagged_total"
        w.header(name, "counter", "Drift checks that flagged drift.")
        w.sample(name, {}, drift.get("drifted", 0))

    callbacks = snapshot.get("callbacks")
    if callbacks is not None:
        name = f"{prefix}_callback_errors_total"
        w.header(name, "counter", "Contained user-callback failures.")
        w.sample(name, {}, callbacks.get("errors", 0))

    if "sink_errors" in snapshot:
        name = f"{prefix}_sink_errors_total"
        w.header(name, "counter", "Contained telemetry-sink failures.")
        w.sample(name, {}, snapshot["sink_errors"])

    for stage, series in sorted(snapshot.get("stages", {}).items()):
        _histogram(
            w,
            f"{prefix}_stage_seconds",
            "Per-stage request latency across the serving path.",
            {"stage": stage},
            series.get("buckets", ()),
            series["count"],
            series.get("seconds_total", 0.0),
        )

    edge = snapshot.get("edge", {})
    for route, series in sorted(edge.get("routes", {}).items()):
        name = f"{prefix}_edge_requests_total"
        w.header(name, "counter", "HTTP requests answered, by route and status.")
        for status, count in sorted(series.get("by_status", {}).items()):
            w.sample(name, {"route": route, "status": status}, count)
        _histogram(
            w,
            f"{prefix}_edge_latency_seconds",
            "Edge round-trip latency per route.",
            {"route": route},
            series.get("latency", {}).get("buckets", ()),
            series["count"],
            series.get("latency", {}).get("total", 0.0),
        )
    if "active_requests" in edge:
        name = f"{prefix}_edge_active_requests"
        w.header(name, "gauge", "HTTP requests currently being processed.")
        w.sample(name, {}, edge["active_requests"])

    traces = snapshot.get("traces")
    if traces is not None:
        name = f"{prefix}_traces_total"
        w.header(name, "counter", "Request traces closed.")
        w.sample(name, {}, traces.get("count", 0))
        name = f"{prefix}_trace_errors_total"
        w.header(name, "counter", "Traces closed with an error span.")
        w.sample(name, {}, traces.get("errors", 0))
        name = f"{prefix}_trace_deadline_violations_total"
        w.header(name, "counter", "Closed traces that exceeded their deadline.")
        w.sample(name, {}, traces.get("deadline_violations", 0))

    if "uptime_seconds" in snapshot:
        name = f"{prefix}_uptime_seconds"
        w.header(name, "gauge", "Age of this telemetry (monotonic seconds).")
        w.sample(name, {}, snapshot["uptime_seconds"])

    series_view = snapshot.get("series")
    if series_view is not None:
        for series_name, entry in sorted(series_view.get("series", {}).items()):
            labels = {"series": series_name}
            latest = entry.get("latest")
            if latest is not None:
                name = f"{prefix}_series_latest"
                w.header(name, "gauge",
                         "Most recent sample of each windowed time-series.")
                w.sample(name, labels, latest)
            if entry.get("kind") == "counter":
                name = f"{prefix}_series_rate"
                w.header(name, "gauge",
                         "Windowed per-second rate of each counter series.")
                w.sample(name, labels, entry.get("rate", 0.0))
            elif entry.get("kind") == "histogram":
                name = f"{prefix}_series_quantile"
                w.header(name, "gauge",
                         "Windowed latency quantiles of histogram series.")
                for q_key, q in (("p50", "0.5"), ("p99", "0.99")):
                    value = entry.get(q_key)
                    if value is not None:
                        w.sample(name, {**labels, "quantile": q}, value)
        if series_view.get("dropped_series"):
            name = f"{prefix}_series_dropped_total"
            w.header(name, "counter",
                     "Series registrations dropped at the store's cap.")
            w.sample(name, {}, series_view["dropped_series"])

    return "\n".join(w.lines) + "\n"


def parse_exposition_line(line: str) -> Optional[Tuple[str, Dict[str, str], float]]:
    """Parse one non-comment exposition line into ``(name, labels, value)``.

    Returns ``None`` for comment/blank lines and raises ``ValueError`` for
    anything malformed -- the conformance test walks every rendered line
    through this, so the renderer can never silently drift off-spec.
    """
    if not line or line.startswith("#"):
        return None
    brace = line.find("{")
    labels: Dict[str, str] = {}
    if brace >= 0:
        close = line.rfind("}")
        if close < brace:
            raise ValueError(f"unbalanced braces in exposition line: {line!r}")
        name = line[:brace]
        label_body = line[brace + 1:close]
        value_text = line[close + 1:].strip()
        cursor = 0
        while cursor < len(label_body):
            eq = label_body.index("=", cursor)
            key = label_body[cursor:eq]
            if not label_body[eq + 1] == '"':
                raise ValueError(f"unquoted label value in: {line!r}")
            end = eq + 2
            while True:
                end = label_body.index('"', end)
                if label_body[end - 1] != "\\":
                    break
                end += 1
            labels[key] = label_body[eq + 2:end]
            cursor = end + 1
            if cursor < len(label_body):
                if label_body[cursor] != ",":
                    raise ValueError(f"malformed label separator in: {line!r}")
                cursor += 1
    else:
        name, _, value_text = line.partition(" ")
        value_text = value_text.strip()
    if not name or not all(
        c.isalnum() or c in "_:" for c in name
    ) or name[0].isdigit():
        raise ValueError(f"invalid metric name in exposition line: {line!r}")
    if value_text == "+Inf":
        value = float("inf")
    elif value_text == "-Inf":
        value = float("-inf")
    else:
        value = float(value_text)
    return name, labels, value
