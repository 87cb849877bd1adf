"""Request tracing: span accounting, end-to-end coverage, doomed traces.

The acceptance bars from the observability issue:

* a traced request through the serving path yields the complete span set
  with the spans explaining >= 95% of the measured round trip -- on the
  in-process service, and on the process pool over **both** data planes
  (shared-memory rings and the pickle-queue fallback);
* a request in flight when its worker is SIGKILL'd still closes: the trace
  carries an ``error`` span covering the unaccounted tail and surfaces in
  the slow-trace capture with the failure attached;
* ``tracing=False`` switches the whole machinery off -- no traces, no
  stage histograms, no per-request cost.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.core.adawave import AdaWave
from repro.obs import (
    STAGE_ADMISSION_WAIT,
    STAGE_COLLECT,
    STAGE_ERROR,
    STAGE_IPC_BACK,
    STAGE_IPC_OUT,
    STAGE_QUEUE_WAIT,
    STAGE_WORKER_LOAD,
    STAGE_WORKER_PREDICT,
    Span,
    Trace,
    apply_worker_stamps,
    new_trace_id,
)
from repro.serve import ClusteringService, ProcessPoolService, shm_available
from repro.serve.metrics import Telemetry

BOUNDS = ([0.0, 0.0], [1.0, 1.0])

#: Serving-path stages every pooled request must account for.
POOLED_STAGES = {
    STAGE_ADMISSION_WAIT,
    STAGE_QUEUE_WAIT,
    STAGE_IPC_OUT,
    STAGE_WORKER_LOAD,
    STAGE_WORKER_PREDICT,
    STAGE_IPC_BACK,
    STAGE_COLLECT,
}


@pytest.fixture(scope="module")
def frozen():
    rng = np.random.default_rng(7)
    blob = np.clip(rng.normal(0.3, 0.05, size=(2000, 2)), 0.0, 1.0)
    X = np.vstack([blob, rng.uniform(size=(2000, 2))])
    return AdaWave(scale=64, bounds=BOUNDS).fit(X).export_model()


def _wait_for(predicate, timeout=15.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


class TestSpanAndTrace:
    def test_span_never_runs_backwards(self):
        span = Span("collect", 10.0, 9.0)
        assert span.seconds == 0.0

    def test_trace_ids_are_unique_hex(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(i) == 16 and int(i, 16) >= 0 for i in ids)

    def test_lazy_id_is_stable_and_externally_settable(self):
        trace = Trace()
        assert trace.trace_id == trace.trace_id
        assert Trace("abc123").trace_id == "abc123"

    def test_span_sum_never_exceeds_total(self):
        trace = Trace()
        now = time.monotonic()
        trace.add_span("a", now, now + 0.5)
        trace.add_span("b", now + 0.5, now + 1.0)
        trace.close()
        assert trace.span_seconds() <= trace.total_seconds
        assert 0.0 <= trace.coverage() <= 1.0

    def test_close_is_first_wins(self):
        trace = Trace()
        assert trace.close() is True
        total = trace.total_seconds
        assert trace.close() is False
        assert trace.total_seconds == total

    def test_close_with_error_appends_error_span(self):
        trace = Trace()
        trace.add_span("queue-wait", trace.started, time.monotonic())
        assert trace.close(error=RuntimeError("worker died"))
        assert trace.error == "RuntimeError: worker died"
        assert trace.spans[-1].stage == STAGE_ERROR
        # The error span covers the tail, so accounting stays complete.
        assert trace.coverage() >= 0.95

    def test_deadline_violation_is_flagged(self):
        trace = Trace(deadline=0.0)
        time.sleep(0.001)
        trace.close()
        assert trace.deadline_violated
        assert trace.to_dict()["deadline_violated"] is True

    def test_last_stamp_chains_spans_contiguously(self):
        trace = Trace()
        assert trace.last_stamp() == trace.started
        trace.add_span("a", trace.started, trace.started + 0.25)
        assert trace.last_stamp() == trace.started + 0.25

    def test_worker_stamps_expand_to_four_spans(self):
        trace = Trace()
        t0 = trace.started
        apply_worker_stamps(trace, t0, (t0 + 1, t0 + 2, t0 + 3), t0 + 4)
        assert [s.stage for s in trace.spans] == [
            STAGE_IPC_OUT, STAGE_WORKER_LOAD, STAGE_WORKER_PREDICT,
            STAGE_IPC_BACK,
        ]
        assert all(s.seconds == pytest.approx(1.0) for s in trace.spans)
        before = len(trace.spans)
        apply_worker_stamps(trace, t0, None, t0 + 4)  # pickle-path no-op
        assert len(trace.spans) == before

    def test_stage_seconds_accumulates_repeated_stages(self):
        trace = Trace()
        trace.add_span("a", 0.0, 1.0)
        trace.add_span("a", 2.0, 2.5)
        assert trace.stage_seconds() == {"a": pytest.approx(1.5)}


class TestPipelineStageSeconds:
    def test_pipeline_reports_stage_seconds(self, frozen):
        from repro.core.pipeline import run_grid_pipeline

        rng = np.random.default_rng(3)
        est = AdaWave(scale=32, bounds=BOUNDS).fit(rng.uniform(size=(800, 2)))
        result = run_grid_pipeline(est.result_.quantization.grid)
        assert set(result.stage_seconds) == {"transform", "threshold", "extract"}
        assert all(v >= 0.0 for v in result.stage_seconds.values())

    def test_fit_records_stage_provenance_into_artifact(self):
        rng = np.random.default_rng(4)
        est = AdaWave(scale=32, bounds=BOUNDS).fit(rng.uniform(size=(800, 2)))
        assert set(est.stage_seconds_) == {"transform", "threshold", "extract"}
        model = est.export_model()
        assert model.metadata["stage_seconds"] == est.stage_seconds_


class TestInProcessTracing:
    def test_traced_predict_covers_round_trip(self, frozen):
        rng = np.random.default_rng(5)
        with ClusteringService() as service:
            service.register("live", frozen)
            for _ in range(8):
                service.predict("live", rng.uniform(size=(200, 2)))
            snapshot = service.telemetry.snapshot()
        assert snapshot["traces"]["count"] == 8
        assert snapshot["traces"]["errors"] == 0
        stages = set(snapshot["stages"])
        assert {STAGE_ADMISSION_WAIT, STAGE_QUEUE_WAIT,
                STAGE_WORKER_PREDICT, STAGE_COLLECT} <= stages
        for entry in snapshot["traces"]["slowest"]:
            assert entry["coverage"] >= 0.95, entry

    def test_tracing_off_records_nothing(self, frozen):
        rng = np.random.default_rng(5)
        with ClusteringService(tracing=False) as service:
            service.register("live", frozen)
            for _ in range(4):
                service.predict("live", rng.uniform(size=(200, 2)))
            snapshot = service.telemetry.snapshot()
        assert snapshot["traces"]["count"] == 0
        assert snapshot["stages"] == {}
        assert snapshot["traces"]["slowest"] == []

    def test_predict_error_aborts_trace_with_error(self, frozen):
        with ClusteringService() as service:
            service.register("live", frozen)
            # Wrong dimensionality passes admission and dies inside the
            # predict pass -- the doomed trace must still close.
            with pytest.raises(ValueError):
                service.predict("live", np.zeros((4, 5)))
            snapshot = service.telemetry.snapshot()
        assert snapshot["traces"]["errors"] == 1
        assert snapshot["traces"]["violations"], "doomed trace must be captured"
        entry = snapshot["traces"]["violations"][-1]
        assert entry["error"] is not None
        assert entry["spans"][-1]["stage"] == STAGE_ERROR


class TestPooledTracing:
    @pytest.mark.parametrize("use_shm", [False, True], ids=["pickle", "shm"])
    def test_full_span_chain_on_both_data_planes(self, frozen, tmp_path, use_shm):
        if use_shm and not shm_available():
            pytest.skip("shared memory unavailable on this host")
        rng = np.random.default_rng(6)
        with ProcessPoolService(
            tmp_path, n_workers=1, use_shm=use_shm
        ) as service:
            service.register("live", frozen)
            expected = frozen.predict(rng.uniform(size=(300, 2)))
            for _ in range(6):
                queries = rng.uniform(size=(300, 2))
                np.testing.assert_array_equal(
                    service.predict("live", queries), frozen.predict(queries)
                )
            if use_shm:
                assert service.pool.shm_sends > 0
            snapshot = service.telemetry.snapshot()
        assert snapshot["traces"]["count"] == 6
        assert snapshot["traces"]["errors"] == 0
        assert POOLED_STAGES <= set(snapshot["stages"])
        for entry in snapshot["traces"]["slowest"]:
            assert entry["coverage"] >= 0.95, entry
            stages = {span["stage"] for span in entry["spans"]}
            assert POOLED_STAGES <= stages, entry

    def test_killed_worker_closes_trace_with_error_span(self, frozen, tmp_path):
        with ProcessPoolService(
            tmp_path, n_workers=1, worker_timeout=4.0, respawn_workers=False
        ) as service:
            service.register("live", frozen)
            service.predict("live", np.zeros((4, 2)))  # worker warm + bound
            futures = [
                service.submit("live", np.full((64, 2), 0.5)) for _ in range(3)
            ]
            os.kill(service.pool.processes[0].pid, signal.SIGKILL)
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(("ok", future.result(timeout=30)))
                except RuntimeError as error:
                    outcomes.append(("err", error))
            assert any(kind == "err" for kind, _ in outcomes), (
                "SIGKILL must doom at least one in-flight request"
            )
            _wait_for(
                lambda: service.telemetry.snapshot()["traces"]["errors"] > 0,
                message="doomed traces to be recorded",
            )
            snapshot = service.telemetry.snapshot()
        doomed = snapshot["traces"]["violations"]
        assert doomed, "doomed traces must surface in the capture ring"
        for entry in doomed:
            assert entry["error"] is not None
            assert entry["spans"][-1]["stage"] == STAGE_ERROR
            assert entry["coverage"] >= 0.95, entry


class TestTelemetryTraceCapture:
    def test_slow_ring_keeps_n_slowest(self):
        telemetry = Telemetry(slow_traces=4)
        for ms in (1, 9, 2, 8, 3, 7, 4, 6):
            trace = Trace(started=0.0)
            trace.add_span("queue-wait", 0.0, ms / 1000.0)
            trace.total_seconds = ms / 1000.0
            telemetry.record_trace(trace)
        slowest = telemetry.snapshot()["traces"]["slowest"]
        assert len(slowest) == 4
        totals = [entry["total_seconds"] for entry in slowest]
        assert totals == sorted(totals, reverse=True)
        assert totals[0] == pytest.approx(0.009)

    def test_equal_totals_never_raise_on_heap_tie(self):
        telemetry = Telemetry(slow_traces=2)
        for _ in range(6):
            trace = Trace(started=0.0)
            trace.total_seconds = 0.005
            telemetry.record_trace(trace)
        assert telemetry.snapshot()["traces"]["count"] == 6

    def test_stage_histogram_buckets_are_cumulative(self):
        telemetry = Telemetry()
        for seconds in (1e-6, 1e-4, 1e-2, 1.0, 100.0):
            telemetry.record_stage("queue-wait", seconds)
        buckets = telemetry.snapshot()["stages"]["queue-wait"]["buckets"]
        counts = [count for _, count in buckets]
        assert counts == sorted(counts), "bucket counts must be cumulative"
        assert buckets[-1][0] == "+Inf"
        assert buckets[-1][1] == 5
