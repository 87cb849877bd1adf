"""Concurrent clustering service: micro-batched predict over many models.

:class:`ClusteringService` is the front door of the serving layer.  It hosts
a :class:`~repro.serve.registry.ModelRegistry` and answers ``predict``
requests from arbitrarily many threads.  Requests against the same model are
*micro-batched*: while one thread (the "leader") is executing a vectorized
predict pass, every request that arrives for that model queues up and is
served by the leader's next pass as a single concatenated array.  Under
bursty traffic this amortises the per-call overhead (validation, encode,
lookup setup) across the burst without adding any latency when the
service is idle -- a lone request executes immediately on its own thread.

Because :class:`~repro.serve.model.ClusterModel` is immutable and its lookup
is a pure function, concurrent predictions need no locking at all; only the
per-model request queues are guarded.  Model registration swaps atomically,
so a retrained artifact can replace a live one mid-traffic: in-flight
batches finish against the model they started with.

The service also fronts two operability concerns:

* **admission control** -- with ``max_pending`` set, at most that many
  requests may be pending at once; beyond it, :meth:`submit` raises
  :class:`Overloaded` immediately (shed load at the door instead of
  queueing unboundedly), while ``submit(..., wait_for_slot=True)`` /
  ``predict_async(..., backpressure=True)`` block the *caller* until a slot
  frees -- explicit backpressure instead of rejection.
* **telemetry** -- every executed pass reports its per-model latency and
  batch size into a :class:`~repro.serve.metrics.Telemetry`, along with
  queue depth, rejections and swap counts; read it with
  ``service.telemetry.snapshot()``.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.trace import (
    STAGE_ADMISSION_WAIT,
    STAGE_COLLECT,
    STAGE_QUEUE_WAIT,
    STAGE_WORKER_PREDICT,
    Trace,
)
from repro.serve.metrics import Telemetry
from repro.serve.model import ClusterModel
from repro.serve.parallel import parallel_ingest
from repro.serve.registry import ModelRegistry


class ServiceClosed(RuntimeError):
    """A request reached a :class:`ClusteringService` after :meth:`~ClusteringService.close`."""


class Overloaded(RuntimeError):
    """Admission control rejected a request: ``max_pending`` requests are queued.

    Callers can retry after a backoff, or opt into blocking backpressure with
    ``submit(..., wait_for_slot=True)`` / ``predict_async(...,
    backpressure=True)`` instead of handling the rejection.
    """


class _ModelQueue:
    """Pending requests for one model plus the leader-election flag."""

    __slots__ = ("lock", "pending", "leader_active")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.pending: List[Tuple[np.ndarray, Future, Optional[Trace]]] = []
        self.leader_active = False


class ClusteringService:
    """Serve concurrent ``predict`` traffic for many named cluster models.

    Parameters
    ----------
    registry:
        Optional externally managed :class:`ModelRegistry`; a fresh private
        one is created when omitted.
    max_async_workers:
        Size of the dispatch thread pool backing the asyncio front end
        (:meth:`predict_async` / :meth:`ingest_async`).  The pool is created
        lazily on the first async call, so purely synchronous services never
        pay for it.
    max_pending:
        Admission-control bound on simultaneously pending requests.  Beyond
        it, non-blocking submissions raise :class:`Overloaded`;
        ``wait_for_slot=True`` / ``backpressure=True`` callers block until a
        slot frees.  ``None`` (default) admits everything.
    max_batch_delay:
        Seconds a freshly elected micro-batch leader waits before its first
        drain pass, letting a burst coalesce into one vectorized pass at the
        cost of that much added latency.  ``0`` (default) executes
        immediately.
    telemetry:
        Optional externally shared :class:`~repro.serve.metrics.Telemetry`;
        a private one is created when omitted, so ``telemetry.snapshot()``
        always works.
    tracing:
        When True (default), every request carries a
        :class:`~repro.obs.trace.Trace` -- stage spans (admission-wait,
        queue-wait, worker-predict, collect, and the cross-process stages in
        the procpool subclass) land in per-stage histograms under
        ``telemetry.snapshot()["stages"]`` and the slowest traces are kept
        with their full breakdown under ``["traces"]``.  Set False to serve
        with zero tracing overhead.

    Attributes
    ----------
    n_requests_:
        Total predict requests served.
    n_batches_:
        Vectorized predict passes executed; ``n_requests_ - n_batches_`` is
        the number of requests that rode along in someone else's micro-batch.

    The service is a context manager (``with``/``async with``); leaving the
    block -- or calling :meth:`close` directly -- shuts the dispatch pool
    down and rejects further requests with :class:`ServiceClosed`.
    """

    def __init__(
        self,
        registry: Optional[ModelRegistry] = None,
        *,
        max_async_workers: int = 4,
        max_pending: Optional[int] = None,
        max_batch_delay: float = 0.0,
        telemetry: Optional[Telemetry] = None,
        tracing: bool = True,
    ) -> None:
        if int(max_async_workers) < 1:
            raise ValueError(
                f"max_async_workers must be >= 1; got {max_async_workers}."
            )
        if max_pending is not None and int(max_pending) < 1:
            raise ValueError(f"max_pending must be >= 1 or None; got {max_pending}.")
        if float(max_batch_delay) < 0.0:
            raise ValueError(f"max_batch_delay must be >= 0; got {max_batch_delay}.")
        self.registry = registry if registry is not None else ModelRegistry()
        self.max_async_workers = int(max_async_workers)
        self.max_pending = None if max_pending is None else int(max_pending)
        self.max_batch_delay = float(max_batch_delay)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.tracing = bool(tracing)
        self._queues: Dict[str, _ModelQueue] = {}
        self._queues_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._lifecycle_lock = threading.Lock()
        self._admission = threading.Condition(threading.Lock())
        self._pending_slots = 0
        self._async_pool: Optional[ThreadPoolExecutor] = None
        # _closing stops admitting *new* requests while close() drains the
        # dispatch pool; _closed flips only after the drain, so async
        # requests admitted before close() still execute their submit().
        self._closing = False
        self._closed = False
        self.n_requests_: int = 0
        self.n_batches_: int = 0
        #: Attached :class:`repro.obs.sysmon.SystemMonitor` (or None); set by
        #: :func:`repro.obs.sysmon.attach_monitor`, stopped by :meth:`close`.
        self.monitor = None

    # -- model management ------------------------------------------------------

    def register(self, name: str, model: ClusterModel, *, overwrite: bool = True) -> ClusterModel:
        """Register a frozen model under ``name`` (atomic swap)."""
        return self.registry.register(name, model, overwrite=overwrite)

    def swap(self, name: str, model: ClusterModel) -> str:
        """Blue/green publish: new version of ``name``, alias rebound atomically.

        Delegates to :meth:`ModelRegistry.swap`; concurrent :meth:`predict`
        traffic on ``name`` never observes a missing model, and in-flight
        micro-batches finish against the version they started with.
        Returns the new version name.
        """
        version = self.registry.swap(name, model)
        self.telemetry.record_swap(name, version)
        return version

    def load(self, name: str, path, *, mmap: bool = False) -> ClusterModel:
        """Load a saved artifact and register it under ``name``.

        ``mmap=True`` memory-maps the artifact arrays so co-located serving
        processes share the file's pages (see :meth:`ClusterModel.load`).
        """
        return self.registry.load(name, path, mmap=mmap)

    def ingest(
        self,
        name: str,
        batches: Sequence[np.ndarray],
        *,
        bounds,
        n_workers: Optional[int] = None,
        **adawave_params,
    ) -> ClusterModel:
        """Cluster a batched dataset with sharded parallel ingestion and serve it.

        Runs :func:`~repro.serve.parallel.parallel_ingest` (lookup-only, so
        ingestion memory is proportional to the occupied cells, not the
        sample count), freezes the result and registers it under ``name``.
        """
        if self._closed:
            raise ServiceClosed("ClusteringService is closed; no further requests.")
        estimator = parallel_ingest(
            batches,
            bounds=bounds,
            n_workers=n_workers,
            **adawave_params,
        )
        return self.register(name, estimator.export_model())

    # -- admission control ------------------------------------------------------

    def _admit(
        self, name: str, *, wait: bool = False, timeout: Optional[float] = None
    ) -> None:
        """Claim a pending-request slot (or reject/block when none are free).

        Blocked waiters park on the admission condition -- no polling;
        :meth:`_release_slot` notifies it, so a freed slot admits a waiter
        immediately.  With ``timeout`` set, a waiter gives up after that
        many seconds and raises :class:`Overloaded` (this is how the HTTP
        edge bounds queueing by the request deadline).  Telemetry (which may
        run a user-supplied sink) is only ever touched *outside* the
        admission lock, so a slow or reentrant sink can stall nothing but
        its own caller.
        """
        rejected_at = None
        timed_out = False
        deadline = None if timeout is None else time.monotonic() + float(timeout)
        with self._admission:
            if self.max_pending is not None:
                while self._pending_slots >= self.max_pending:
                    if self._closing or self._closed:
                        raise ServiceClosed(
                            "ClusteringService is closed; no further requests."
                        )
                    if not wait:
                        rejected_at = self._pending_slots
                        break
                    if deadline is None:
                        self._admission.wait()
                    else:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0.0:
                            rejected_at = self._pending_slots
                            timed_out = True
                            break
                        self._admission.wait(timeout=remaining)
            if rejected_at is None:
                self._pending_slots += 1
                depth = self._pending_slots
        if rejected_at is not None:
            self.telemetry.record_reject(name)
            if timed_out:
                raise Overloaded(
                    f"request for {name!r} timed out after {timeout:g}s waiting "
                    f"for an admission slot ({rejected_at} requests pending >= "
                    f"max_pending={self.max_pending})."
                )
            raise Overloaded(
                f"request for {name!r} rejected: {rejected_at} requests "
                f"pending >= max_pending={self.max_pending}. Retry later, or "
                "block for a slot with wait_for_slot=True / "
                "predict_async(..., backpressure=True)."
            )
        self.telemetry.record_queue_depth(depth)

    def _release_slot(self, _future: Optional[Future] = None) -> None:
        """Return a slot; signature doubles as a future done-callback."""
        with self._admission:
            self._pending_slots -= 1
            depth = self._pending_slots
            self._admission.notify()
        self.telemetry.record_queue_depth(depth)

    @property
    def queue_depth(self) -> int:
        """Requests currently admitted but not yet resolved."""
        with self._admission:
            return self._pending_slots

    # -- serving ---------------------------------------------------------------

    def _queue_for(self, name: str) -> _ModelQueue:
        with self._queues_lock:
            queue = self._queues.get(name)
            if queue is None:
                queue = self._queues[name] = _ModelQueue()
            return queue

    def predict(self, name: str, X) -> np.ndarray:
        """Labels of ``X`` under the model registered as ``name``.

        Safe to call from any number of threads concurrently; identical
        inputs yield identical labels regardless of interleaving.  Unknown
        model names raise ``KeyError`` immediately; a saturated service
        (``max_pending``) raises :class:`Overloaded`.
        """
        return self.submit(name, X).result()

    def _trace_for(self, name: str, trace: Optional[Trace]) -> Optional[Trace]:
        """The trace to thread through this request: caller's, fresh, or None."""
        if trace is not None:
            return trace
        if not self.tracing:
            return None
        return Trace(model=name)

    def _abort_trace(self, trace: Optional[Trace], error: BaseException) -> None:
        """Close and record a trace whose request died before executing."""
        if trace is not None and trace.close(error=error):
            self.telemetry.record_trace(trace)

    def submit(
        self,
        name: str,
        X,
        *,
        wait_for_slot: bool = False,
        slot_timeout: Optional[float] = None,
        trace: Optional[Trace] = None,
    ) -> "Future[np.ndarray]":
        """Enqueue a predict request; returns a future with the labels.

        The calling thread may become the micro-batch leader and execute the
        combined pass itself before returning, so this is "asynchronous" in
        the queuing sense, not a background-thread guarantee.  When the
        service is saturated (``max_pending`` requests already admitted) the
        default is an immediate :class:`Overloaded` rejection;
        ``wait_for_slot=True`` blocks until a slot frees instead
        (backpressure on the caller), bounded by ``slot_timeout`` seconds
        when given (then :class:`Overloaded` after all).

        ``trace`` continues an existing request trace (the HTTP edge passes
        the one it opened at parse time); with tracing enabled and no trace
        given, a fresh one is created here -- direct callers get the same
        stage breakdown as edge traffic, minus the edge-parse span.
        """
        if self._closed:
            raise ServiceClosed("ClusteringService is closed; no further requests.")
        self.registry.get(name)  # fail fast on unknown names
        X = np.asarray(X, dtype=np.float64)
        trace = self._trace_for(name, trace)
        if trace is None:
            self._admit(name, wait=wait_for_slot, timeout=slot_timeout)
        else:
            admit_start = trace.last_stamp()
            try:
                self._admit(name, wait=wait_for_slot, timeout=slot_timeout)
            except BaseException as error:
                trace.add_span(STAGE_ADMISSION_WAIT, admit_start, time.monotonic())
                self._abort_trace(trace, error)
                raise
            trace.add_span(STAGE_ADMISSION_WAIT, admit_start, time.monotonic())
        future: "Future[np.ndarray]" = Future()
        future.add_done_callback(self._release_slot)
        queue = self._queue_for(name)
        with queue.lock:
            if trace is not None:
                trace.enqueued_at = trace.last_stamp()
            queue.pending.append((X, future, trace))
            if queue.leader_active:
                # An executing leader will pick this request up in its next
                # drain pass; nothing to do.
                return future
            queue.leader_active = True
        self._drain(name, queue)
        return future

    def _drain(self, name: str, queue: _ModelQueue) -> None:
        """Leader loop: keep serving coalesced batches until the queue is dry."""
        try:
            if self.max_batch_delay > 0.0:
                # Let a burst pile up behind the fresh leader so it executes
                # as one vectorized pass instead of many small ones.
                time.sleep(self.max_batch_delay)
            while True:
                with queue.lock:
                    batch = queue.pending
                    queue.pending = []
                    if not batch:
                        queue.leader_active = False
                        return
                self._execute(name, batch)
        except BaseException:
            # Never leave the queue leaderless-but-marked: a crashed leader
            # would otherwise strand every later request for this model.
            with queue.lock:
                queue.leader_active = False
            raise

    @staticmethod
    def _resolve_future(future: Future, *, result=None, error=None) -> None:
        """Complete ``future`` unless the caller already cancelled it."""
        if not future.set_running_or_notify_cancel():
            return
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)

    def _execute(
        self, name: str, batch: List[Tuple[np.ndarray, Future, Optional[Trace]]]
    ) -> None:
        with self._stats_lock:
            self.n_requests_ += len(batch)
            self.n_batches_ += 1
        try:
            model = self.registry.get(name)
        except KeyError as error:
            for _, future, trace in batch:
                self._resolve_future(future, error=error)
                self._abort_trace(trace, error)
            return
        # Group by feature count so heterogeneous requests (or malformed
        # inputs) cannot poison each other's concatenation.
        groups: Dict[int, List[int]] = {}
        for index, (X, _, _) in enumerate(batch):
            width = X.shape[1] if X.ndim == 2 else -1
            groups.setdefault(width, []).append(index)
        for indices in groups.values():
            arrays = [batch[i][0] for i in indices]
            futures = [batch[i][1] for i in indices]
            traces = [batch[i][2] for i in indices]
            try:
                exec_start = time.monotonic()
                start = time.perf_counter()
                if len(arrays) == 1:
                    results = [model.predict(arrays[0])]
                else:
                    stacked = np.concatenate(arrays, axis=0)
                    labels = model.predict(stacked)
                    offsets = np.cumsum([len(a) for a in arrays])[:-1]
                    results = np.split(labels, offsets)
                seconds = time.perf_counter() - start
                exec_end = time.monotonic()
            except Exception as error:  # propagate per-request, keep serving
                for future, trace in zip(futures, traces):
                    self._resolve_future(future, error=error)
                    self._abort_trace(trace, error)
                continue
            self.telemetry.record_predict(
                name, seconds, sum(len(labels) for labels in results)
            )
            for future, labels, trace in zip(futures, results, traces):
                self._resolve_future(future, result=labels)
                if trace is not None:
                    # One coalesced pass serves many requests: the shared
                    # predict span fans back out onto every member trace.
                    trace.add_span(STAGE_QUEUE_WAIT, trace.enqueued_at, exec_start)
                    trace.add_span(STAGE_WORKER_PREDICT, exec_start, exec_end)
                    done = time.monotonic()
                    trace.add_span(STAGE_COLLECT, exec_end, done)
                    # close() is first-wins: if a doomed-trace path already
                    # closed it, do not record it a second time.  Closing at
                    # the collect span's own end stamp keeps a preemption
                    # right here from stretching the total past the spans.
                    if trace.close(at=done):
                        self.telemetry.record_trace(trace)

    # -- asyncio front end -------------------------------------------------------

    def _dispatch_pool(self) -> ThreadPoolExecutor:
        with self._lifecycle_lock:
            if self._closed or self._closing:
                raise ServiceClosed("ClusteringService is closed; no further requests.")
            if self._async_pool is None:
                self._async_pool = ThreadPoolExecutor(
                    max_workers=self.max_async_workers,
                    thread_name_prefix="repro-serve",
                )
            return self._async_pool

    async def predict_async(
        self,
        name: str,
        X,
        *,
        backpressure: bool = False,
        slot_timeout: Optional[float] = None,
        trace: Optional[Trace] = None,
    ) -> np.ndarray:
        """Awaitable :meth:`predict`: labels of ``X`` under model ``name``.

        The request runs on the service's dispatch pool, so the event loop
        is never blocked by a micro-batch leader pass; requests from
        coroutines and from plain threads coalesce into the same
        micro-batches.  With ``backpressure=True`` a saturated service
        (``max_pending``) parks the request until a slot frees instead of
        raising :class:`Overloaded` -- the awaiting coroutine simply resumes
        later, or raises :class:`Overloaded` after ``slot_timeout`` seconds
        when one is given (deadline-bounded backpressure: the parked
        dispatch-pool thread is reclaimed instead of waiting forever).
        """
        loop = asyncio.get_running_loop()
        pool = self._dispatch_pool()
        return await loop.run_in_executor(
            pool,
            lambda: self.submit(
                name,
                X,
                wait_for_slot=backpressure,
                slot_timeout=slot_timeout,
                trace=trace,
            ).result(),
        )

    async def ingest_async(
        self,
        name: str,
        batches: Sequence[np.ndarray],
        *,
        bounds,
        n_workers: Optional[int] = None,
        **adawave_params,
    ) -> ClusterModel:
        """Awaitable :meth:`ingest`: cluster, freeze and register off-loop."""
        loop = asyncio.get_running_loop()
        pool = self._dispatch_pool()
        return await loop.run_in_executor(
            pool,
            lambda: self.ingest(
                name,
                batches,
                bounds=bounds,
                n_workers=n_workers,
                **adawave_params,
            ),
        )

    # -- lifecycle ---------------------------------------------------------------

    def _stop_monitor(self) -> None:
        """Stop an attached system monitor (idempotent, never raises)."""
        monitor = self.monitor
        if monitor is None:
            return
        try:
            monitor.stop()
        except Exception as error:  # pragma: no cover - defensive
            self.telemetry.record_callback_error("monitor-stop", error)

    def close(self) -> None:
        """Shut the service down: drain the dispatch pool, reject new requests.

        Idempotent.  In-flight requests finish -- async requests already
        admitted to the dispatch pool run to completion before the closed
        flag takes effect -- and subsequent :meth:`predict` /
        :meth:`submit` / async calls raise :class:`ServiceClosed`.  Callers
        blocked waiting for an admission slot are woken and also raise
        :class:`ServiceClosed`.  The registry (possibly shared) is left
        untouched.
        """
        with self._lifecycle_lock:
            if self._closed or self._closing:
                return
            self._closing = True
            pool, self._async_pool = self._async_pool, None
        self._stop_monitor()
        with self._admission:
            self._admission.notify_all()
        # Drain with admissions stopped but submit() still open, so queued
        # predict_async work items admitted before close() complete instead
        # of being rejected mid-flight.
        if pool is not None:
            pool.shutdown(wait=True)
        self._closed = True

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    def __enter__(self) -> "ClusteringService":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    async def __aenter__(self) -> "ClusteringService":
        return self

    async def __aexit__(self, *exc_info) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClusteringService(models={self.registry.names()!r}, "
            f"requests={self.n_requests_}, batches={self.n_batches_})"
        )
