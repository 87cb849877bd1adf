"""Prometheus exposition-format conformance and /metrics content negotiation.

The renderer is a pure function of a Telemetry snapshot, so the conformance
walk runs every line of a fully-populated exposition through the strict
parser: names legal, labels balanced and escaped, histogram buckets
cumulative with the ``+Inf`` bucket equal to ``_count``, every latency a
histogram (no summaries), HELP/TYPE exactly once per metric.  The edge half
pins the negotiation contract: JSON for JSON clients (the default), text
exposition 0.0.4 under ``Accept: text/plain`` or an OpenMetrics accept.
"""

import json
import urllib.request

import numpy as np
import pytest

from repro.core.adawave import AdaWave
from repro.obs import (
    PROMETHEUS_CONTENT_TYPE,
    parse_exposition_line,
    render_prometheus,
)
from repro.obs.prometheus import escape_label_value, format_value
from repro.serve import ClusteringService, EdgeThread
from repro.serve.metrics import Telemetry

BOUNDS = ([0.0, 0.0], [1.0, 1.0])


@pytest.fixture()
def populated_telemetry():
    """A Telemetry carrying every section the renderer knows about."""
    telemetry = Telemetry()
    telemetry.record_predict("live", 0.004, 128)
    telemetry.record_predict("canary\n\"v2\"", 0.009, 64)  # escaping fodder
    telemetry.record_queue_depth(1)
    telemetry.record_queue_depth(0)
    telemetry.record_reject("live")
    telemetry.record_swap("live", "v2")
    telemetry.record_worker_respawn(0)
    telemetry.record_stage("queue-wait", 0.0004)
    telemetry.record_stage("queue-wait", 0.3)
    telemetry.record_stage("worker-predict", 0.002)
    telemetry.record_edge_request("predict", 200, 0.005)
    telemetry.record_edge_request("predict", 404, 0.001)
    telemetry.record_edge_request("healthz", 200, 0.0002)
    from repro.obs import Trace

    trace = Trace(deadline=0.0)
    trace.add_span("queue-wait", trace.started, trace.started + 0.01)
    trace.close(error="worker died")
    telemetry.record_trace(trace)
    return telemetry


class TestConformance:
    def test_every_line_parses(self, populated_telemetry):
        text = populated_telemetry.to_prometheus()
        assert text.endswith("\n")
        parsed = 0
        for line in text.splitlines():
            result = parse_exposition_line(line)
            if result is not None:
                parsed += 1
        assert parsed >= 20, "a populated snapshot must expose many samples"

    def test_help_and_type_exactly_once_per_metric(self, populated_telemetry):
        text = populated_telemetry.to_prometheus()
        helps = [l.split()[2] for l in text.splitlines() if l.startswith("# HELP")]
        types = [l.split()[2] for l in text.splitlines() if l.startswith("# TYPE")]
        assert len(helps) == len(set(helps))
        assert len(types) == len(set(types))
        assert set(helps) == set(types)

    def test_counters_end_in_total(self, populated_telemetry):
        text = populated_telemetry.to_prometheus()
        for line in text.splitlines():
            if line.startswith("# TYPE") and line.endswith(" counter"):
                assert line.split()[2].endswith("_total"), line

    def test_histogram_buckets_cumulative_and_inf_equals_count(
        self, populated_telemetry
    ):
        text = populated_telemetry.to_prometheus()
        buckets = {}
        counts = {}
        for line in text.splitlines():
            parsed = parse_exposition_line(line)
            if parsed is None:
                continue
            name, labels, value = parsed
            if name == "repro_stage_seconds_bucket":
                key = labels["stage"]
                buckets.setdefault(key, []).append((labels["le"], value))
            elif name == "repro_stage_seconds_count":
                counts[labels["stage"]] = value
        assert set(buckets) == {"queue-wait", "worker-predict", "error"}
        for stage, series in buckets.items():
            values = [v for _, v in series]
            assert values == sorted(values), f"{stage} buckets not cumulative"
            assert series[-1][0] == "+Inf"
            assert series[-1][1] == counts[stage]

    def test_latencies_export_as_bucket_histograms(self, populated_telemetry):
        text = populated_telemetry.to_prometheus()
        types = {
            line.split()[2]: line.split()[3]
            for line in text.splitlines() if line.startswith("# TYPE")
        }
        assert "summary" not in types.values()
        assert types["repro_predict_latency_seconds"] == "histogram"
        assert types["repro_edge_latency_seconds"] == "histogram"
        round_trips = {}
        for line in text.splitlines():
            parsed = parse_exposition_line(line)
            if parsed is None or parsed[0] != "repro_edge_latency_seconds_bucket":
                continue
            _, labels, value = parsed
            if labels["le"] == "+Inf":
                round_trips[labels["route"]] = value
        assert round_trips == {"predict": 2.0, "healthz": 1.0}

    def test_label_escaping_round_trips(self, populated_telemetry):
        text = populated_telemetry.to_prometheus()
        samples = [
            parse_exposition_line(line)
            for line in text.splitlines()
            if line.startswith("repro_predict_requests_total")
        ]
        models = {labels["model"] for _, labels, _ in samples}
        assert escape_label_value('canary\n"v2"') in models

    def test_parser_rejects_malformed_lines(self):
        for bad in (
            "1leading_digit 3",
            'name{le="0.1" 3',
            "name{le=0.1} 3",
            'name{a="1"b="2"} 3',
            "name three",
            "na me 3",
        ):
            with pytest.raises(ValueError):
                parse_exposition_line(bad)

    def test_parser_passes_comments_and_values(self):
        assert parse_exposition_line("# HELP x y") is None
        assert parse_exposition_line("") is None
        name, labels, value = parse_exposition_line(
            'repro_stage_seconds_bucket{stage="a",le="+Inf"} 4'
        )
        assert (name, labels["le"], value) == (
            "repro_stage_seconds_bucket", "+Inf", 4.0
        )

    def test_format_value_renders_ints_and_inf(self):
        assert format_value(3.0) == "3"
        assert format_value(float("inf")) == "+Inf"
        assert format_value(0.25) == "0.25"

    def test_empty_snapshot_renders(self):
        text = render_prometheus({})
        assert text == "\n" or all(
            parse_exposition_line(line) is not None or line.startswith("#")
            for line in text.splitlines()
        )


class TestEdgeNegotiation:
    @pytest.fixture()
    def edge(self):
        rng = np.random.default_rng(9)
        blob = np.clip(rng.normal(0.3, 0.05, size=(1500, 2)), 0.0, 1.0)
        X = np.vstack([blob, rng.uniform(size=(1500, 2))])
        frozen = AdaWave(scale=64, bounds=BOUNDS).fit(X).export_model()
        service = ClusteringService()
        service.register("live", frozen)
        with EdgeThread(service) as handle:
            yield handle
        service.close()

    def _get(self, edge, path, accept=None):
        request = urllib.request.Request(f"{edge.url}{path}")
        if accept is not None:
            request.add_header("Accept", accept)
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.headers, response.read()

    def _predict_once(self, edge):
        body = json.dumps({"points": [[0.3, 0.3], [0.9, 0.9]]}).encode()
        request = urllib.request.Request(
            f"{edge.url}/predict/live",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status

    def test_default_accept_stays_json(self, edge):
        self._predict_once(edge)
        status, headers, body = self._get(edge, "/metrics")
        assert status == 200
        assert "application/json" in headers["Content-Type"]
        snapshot = json.loads(body)
        assert snapshot["edge"]["requests_by_status"]["200"] >= 1

    def test_text_plain_accept_gets_exposition(self, edge):
        self._predict_once(edge)
        status, headers, body = self._get(edge, "/metrics", accept="text/plain")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        text = body.decode("utf-8")
        names = set()
        for line in text.splitlines():
            parsed = parse_exposition_line(line)
            if parsed is not None:
                names.add(parsed[0])
        assert "repro_predict_requests_total" in names
        assert "repro_stage_seconds_bucket" in names
        assert "repro_edge_active_requests" in names

    def test_openmetrics_accept_gets_exposition(self, edge):
        status, headers, _ = self._get(
            edge, "/metrics",
            accept="application/openmetrics-text; version=1.0.0",
        )
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE

    def test_scraped_exposition_matches_snapshot_counts(self, edge):
        for _ in range(3):
            self._predict_once(edge)
        _, _, body = self._get(edge, "/metrics", accept="text/plain")
        samples = {}
        for line in body.decode().splitlines():
            parsed = parse_exposition_line(line)
            if parsed is not None:
                name, labels, value = parsed
                samples[(name, tuple(sorted(labels.items())))] = value
        key = ("repro_predict_requests_total", (("model", "live"),))
        assert samples[key] >= 3
        traces = samples.get(("repro_traces_total", ()))
        assert traces is not None and traces >= 3
