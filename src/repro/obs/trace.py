"""Request traces: one id, monotonic stage spans, end-to-end accounting.

A request entering the serving plane crosses many hands -- the HTTP edge
parses it, admission control may park it, the dispatcher queues it, a worker
process answers it, the collector resolves it.  One wall-clock number per
predict pass cannot say *where* a p99 went; a :class:`Trace` can: it is a
tiny bag of ``(stage, start, end)`` spans stamped with :func:`time.monotonic`
at every hop, created at the edge (or at ``submit`` for direct callers) and
closed by whoever resolves the request.

The monotonic clock is comparable across processes on one host (it is
``CLOCK_MONOTONIC`` on Linux), so worker processes stamp their dequeue /
load / predict instants directly and the parent turns the stamps into
``ipc-out`` / ``worker-load`` / ``worker-predict`` / ``ipc-back`` spans
without any clock negotiation.  Spans are laid end to end by construction,
so ``sum(span durations) <= total`` always holds (:meth:`Trace.close`
clamps the total against residual cross-process skew) and
:meth:`Trace.coverage` directly answers "how much of the measured round
trip do the stages explain?".

One shipped micro-batch serves many coalesced requests; the shared worker
spans fan back out by being added to every member trace.  A request whose
worker dies is *closed with an error span* covering the unaccounted tail --
doomed traces never leak, they surface in the slow-trace ring with the
failure attached.

The offline side uses the same model:
:func:`repro.core.pipeline.run_grid_pipeline` and
:class:`~repro.stream.StreamController`'s re-tune wrap their stages in
:meth:`Trace.span` and publish :meth:`Trace.stage_seconds` into artifact
metadata, so a fit (or a drift re-tune) records the same kind of stage
breakdown as a served request.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Canonical stage names, in serving-path order.  Components are free to
#: stamp additional stages (the histograms key on whatever arrives), but the
#: serving plane itself only emits these.
STAGE_EDGE_PARSE = "edge-parse"
STAGE_ADMISSION_WAIT = "admission-wait"
STAGE_QUEUE_WAIT = "queue-wait"
STAGE_IPC_OUT = "ipc-out"
STAGE_WORKER_LOAD = "worker-load"
STAGE_WORKER_PREDICT = "worker-predict"
STAGE_IPC_BACK = "ipc-back"
STAGE_COLLECT = "collect"
STAGE_ERROR = "error"

STAGES = (
    STAGE_EDGE_PARSE,
    STAGE_ADMISSION_WAIT,
    STAGE_QUEUE_WAIT,
    STAGE_IPC_OUT,
    STAGE_WORKER_LOAD,
    STAGE_WORKER_PREDICT,
    STAGE_IPC_BACK,
    STAGE_COLLECT,
    STAGE_ERROR,
)


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (64 random bits)."""
    return os.urandom(8).hex()


class Span:
    """One timed stage of a trace: ``[start, end]`` on the monotonic clock."""

    __slots__ = ("stage", "start", "end")

    def __init__(self, stage: str, start: float, end: float) -> None:
        self.stage = str(stage)
        self.start = float(start)
        # A span can never run backwards; negative durations would only come
        # from cross-process clock skew and must not poison the histograms.
        self.end = max(float(end), self.start)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, float]:
        return {"stage": self.stage, "seconds": self.seconds}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Span({self.stage!r}, {self.seconds * 1e3:.3f}ms)"


class Trace:
    """The per-request trace context threaded through the serving path.

    Parameters
    ----------
    trace_id:
        Externally supplied id (e.g. from an upstream header); a fresh one
        is generated when omitted.
    route, model:
        Optional labels carried into the trace dict (the edge sets the
        route, ``submit`` the model name).
    deadline:
        The caller's total time budget in seconds, when one was declared
        (``X-Deadline-Ms``).  A closed trace whose total exceeds it is
        flagged ``deadline_violated`` and always captured by the slow ring.

    The trace is *not* thread-safe by itself; the serving path hands it from
    stage to stage such that exactly one component touches it at a time
    (submitter -> dispatcher -> collector), which is also what makes the
    stamps race-free.
    """

    __slots__ = (
        "_trace_id",
        "route",
        "model",
        "deadline",
        "started",
        "spans",
        "error",
        "total_seconds",
        "enqueued_at",
    )

    def __init__(
        self,
        trace_id: Optional[str] = None,
        *,
        route: Optional[str] = None,
        model: Optional[str] = None,
        deadline: Optional[float] = None,
        started: Optional[float] = None,
    ) -> None:
        # Generated lazily: most traces are born, served and folded into the
        # histograms without anyone reading the id, and the urandom syscall
        # is the single most expensive part of creating one.
        self._trace_id = trace_id
        self.route = route
        self.model = model
        self.deadline = None if deadline is None else float(deadline)
        self.started = time.monotonic() if started is None else float(started)
        self.spans: List[Span] = []
        self.error: Optional[str] = None
        self.total_seconds: Optional[float] = None
        # Scratch stamp the queueing components use to carry "when did this
        # request enter my queue" across the hand-off without widening every
        # tuple in the pipeline.
        self.enqueued_at: float = self.started

    @property
    def trace_id(self) -> str:
        """The request's id, generated on first read."""
        if self._trace_id is None:
            self._trace_id = new_trace_id()
        return self._trace_id

    # -- stamping ----------------------------------------------------------------

    def add_span(self, stage: str, start: float, end: float) -> None:
        """Record one ``[start, end]`` monotonic interval for ``stage``."""
        self.spans.append(Span(stage, start, end))

    def last_stamp(self) -> float:
        """End of the last recorded span, or the trace start.

        Starting each new span here keeps the span chain contiguous --
        hand-off costs between stages are attributed to the *waiting* side
        instead of falling into unaccounted gaps, which is what lets the
        spans explain >=95% of the measured round trip.
        """
        return self.spans[-1].end if self.spans else self.started

    @contextmanager
    def span(self, stage: str) -> Iterator[None]:
        """Context manager stamping ``stage`` around the enclosed block."""
        start = time.monotonic()
        try:
            yield
        finally:
            self.add_span(stage, start, time.monotonic())

    # -- closing -----------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self.total_seconds is not None

    def close(
        self,
        *,
        error: Optional[BaseException | str] = None,
        at: Optional[float] = None,
    ) -> bool:
        """Finish the trace; returns True the first time, False on repeats.

        With ``error`` set, an ``"error"`` span is appended covering the
        unaccounted tail (from the end of the last recorded span to now), so
        a doomed request -- worker SIGKILL'd mid-batch, service closed with
        the request in flight -- still accounts for all of its wall time and
        surfaces with the failure attached instead of leaking half-open.

        ``at`` pins the closing instant to a stamp the caller already took
        (normally the end of its final span): a thread preempted between
        recording that span and closing would otherwise stretch the total
        past what the spans explain.
        """
        if self.closed:
            return False
        now = time.monotonic() if at is None else at
        if error is not None:
            self.error = (
                error if isinstance(error, str)
                else f"{type(error).__name__}: {error}"
            )
            last = max((span.end for span in self.spans), default=self.started)
            self.add_span(STAGE_ERROR, last, now)
        # Clamp against residual cross-process clock skew so the invariant
        # "stage span sums <= total" holds for every consumer.
        self.total_seconds = max(now - self.started, self.span_seconds())
        return True

    # -- accounting --------------------------------------------------------------

    def span_seconds(self) -> float:
        """Sum of all recorded span durations."""
        return sum(span.seconds for span in self.spans)

    def coverage(self) -> float:
        """Fraction of the measured total the stage spans explain (0..1)."""
        total = self.total_seconds
        if total is None:
            total = time.monotonic() - self.started
        if total <= 0.0:
            return 1.0
        return min(1.0, self.span_seconds() / total)

    @property
    def deadline_violated(self) -> bool:
        return (
            self.deadline is not None
            and self.total_seconds is not None
            and self.total_seconds > self.deadline
        )

    def stage_seconds(self) -> Dict[str, float]:
        """Per-stage totals (stages recorded more than once accumulate)."""
        out: Dict[str, float] = {}
        for span in self.spans:
            out[span.stage] = out.get(span.stage, 0.0) + span.seconds
        return out

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able view: id, labels, totals and the ordered span list."""
        return {
            "trace_id": self.trace_id,
            "route": self.route,
            "model": self.model,
            "deadline": self.deadline,
            "total_seconds": self.total_seconds,
            "coverage": self.coverage(),
            "error": self.error,
            "deadline_violated": self.deadline_violated,
            "spans": [span.to_dict() for span in self.spans],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = f"{self.total_seconds * 1e3:.2f}ms" if self.closed else "open"
        return f"Trace({self.trace_id}, model={self.model!r}, {state})"


#: The worker-side stamp tuple shipped back in every predict answer:
#: ``(dequeued, loaded, predicted)`` on the shared monotonic clock.  The
#: parent expands it against its own send/receive stamps into the
#: ``ipc-out`` / ``worker-load`` / ``worker-predict`` / ``ipc-back`` spans.
WorkerStamps = Tuple[float, float, float]


def apply_worker_stamps(
    trace: Trace,
    sent_at: float,
    stamps: Optional[WorkerStamps],
    received_at: float,
) -> None:
    """Expand a worker's stamp tuple into the four cross-process spans."""
    if stamps is None:
        return
    dequeued, loaded, predicted = stamps
    trace.add_span(STAGE_IPC_OUT, sent_at, dequeued)
    trace.add_span(STAGE_WORKER_LOAD, dequeued, loaded)
    trace.add_span(STAGE_WORKER_PREDICT, loaded, predicted)
    trace.add_span(STAGE_IPC_BACK, predicted, received_at)
