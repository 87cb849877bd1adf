"""Multi-process serving plane: shared artifacts, worker pools, admission.

The single-process :class:`~repro.serve.ClusteringService` serializes all
traffic for one model through one micro-batch leader at a time, so its
aggregate throughput tops out at one core no matter how many threads call
it.  This module removes that wall without giving up blue/green semantics:

* :class:`ArtifactStore` -- a content-addressed directory of
  ``compress=False`` npz artifacts keyed by
  :meth:`~repro.serve.ClusterModel.content_digest`.  Publishing is
  idempotent (identical models share one file) and atomic (write to a temp
  name, ``os.replace``), so concurrent writers and readers never observe a
  torn artifact.
* :class:`ProcessWorkerPool` -- N worker *processes*, each holding live
  models opened with ``ClusterModel.load(mmap=True)`` against the store, so
  every worker shares the same on-disk pages instead of copying the cell
  map.  Model changes travel as control messages on the same per-worker
  FIFO queues as predict work, which is what preserves blue/green across
  the process boundary: a predict enqueued after a swap is always answered
  by the new version, one enqueued before it by a version that *was* live.
  Dead workers are **respawned** (:meth:`ProcessWorkerPool.respawn`): the
  pool replays its current name -> digest bindings from the store into a
  fresh process, so a crash costs the in-flight batches (failed fast, never
  hung) but not capacity.
* :class:`ProcessPoolService` -- a drop-in :class:`ClusteringService`
  subclass whose predict micro-batches are dispatched round-robin to the
  worker pool (several batches genuinely in flight at once), with the base
  class's admission control (:class:`~repro.serve.service.Overloaded`,
  backpressure) and :class:`~repro.serve.metrics.Telemetry` in front.
  Float batches travel through per-worker shared-memory slab rings
  (:mod:`repro.serve.shm`) -- the queues carry only ``(slot, shape,
  dtype)`` descriptors, and oversized or non-contiguous batches fall back
  to the pickle path automatically.

The parent keeps its own :class:`~repro.serve.ModelRegistry` (attached to
the store) for bookkeeping, versioning and fail-fast name checks; worker
processes hold only the mmap'd artifacts they serve.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import tempfile
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future, InvalidStateError
from queue import Empty
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs.trace import (
    STAGE_ADMISSION_WAIT,
    STAGE_COLLECT,
    STAGE_QUEUE_WAIT,
    Trace,
    apply_worker_stamps,
)
from repro.serve.metrics import Telemetry
from repro.serve.model import ClusterModel
from repro.serve.registry import ModelRegistry
from repro.serve.service import ClusteringService, ServiceClosed
from repro.serve.shm import (
    DEFAULT_SLOT_BYTES,
    DEFAULT_SLOTS,
    SlotRing,
    SlotRingClient,
    fits_slot,
    shm_available,
)


class ArtifactStore:
    """Content-addressed directory of memory-mappable ClusterModel artifacts.

    Every artifact is stored exactly once as ``<digest>.npz`` (uncompressed,
    so ``load(mmap=True)`` shares its pages across processes), where
    ``digest`` is the model's :meth:`~repro.serve.ClusterModel.content_digest`.
    Writes go through a temporary name and an atomic ``os.replace``, so a
    reader either sees the complete artifact or none at all -- never a
    partial file -- and concurrent publishers of the same model are
    harmless.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path(self, digest: str) -> Path:
        """On-disk location of the artifact with ``digest`` (may not exist)."""
        return self.directory / f"{digest}.npz"

    def publish(self, model: ClusterModel) -> str:
        """Write ``model`` to the store (idempotent); returns its digest."""
        digest = model.content_digest()
        final = self.path(digest)
        if final.exists():
            return digest
        # mkstemp guarantees a unique scratch per publisher, so concurrent
        # publishers of the same model (two threads swapping one artifact)
        # never stomp each other's half-written file; whoever replaces last
        # wins with identical bytes.
        handle, scratch = tempfile.mkstemp(
            dir=self.directory, prefix=f".{digest}.", suffix=".tmp"
        )
        os.close(handle)
        scratch = Path(scratch)
        try:
            model.save(scratch, compress=False)
            os.replace(scratch, final)
        finally:
            scratch.unlink(missing_ok=True)
        return digest

    def load(self, digest: str, *, mmap: bool = True) -> ClusterModel:
        """Open the artifact with ``digest`` (memory-mapped by default).

        A digest can pass an existence check and still be unlinked by a
        concurrent :meth:`gc` before the open lands, so a vanished file is
        retried once and then surfaced as the same actionable ``KeyError``
        a never-present digest gets -- callers never see a raw
        ``FileNotFoundError`` from a gc race.
        """
        path = self.path(digest)
        for _ in range(2):
            if not path.exists():
                break
            try:
                return ClusterModel.load(path, mmap=mmap)
            except (FileNotFoundError, ValueError) as error:
                # ClusterModel.load wraps I/O failures in ValueError; only a
                # *vanished* file is the gc race -- genuine corruption of a
                # still-present artifact must keep its ValueError.
                vanished = (
                    isinstance(error, FileNotFoundError)
                    or isinstance(error.__cause__, FileNotFoundError)
                    or not path.exists()
                )
                if not vanished:
                    raise
                continue
        known = ", ".join(self.digests()[:8]) or "<none>"
        raise KeyError(
            f"artifact {digest!r} is not in the store at {self.directory} "
            f"(present: {known}). It may have been removed by a concurrent "
            "gc(); re-publish the model or widen the gc keep set."
        )

    def digests(self) -> List[str]:
        """Sorted digests of every artifact currently in the store."""
        return sorted(path.stem for path in self.directory.glob("*.npz"))

    def __contains__(self, digest: str) -> bool:
        return self.path(str(digest)).exists()

    def gc(self, keep: Sequence[str]) -> List[str]:
        """Delete every artifact whose digest is not in ``keep``; returns them."""
        keep_set = {str(digest) for digest in keep}
        removed = []
        for digest in self.digests():
            if digest not in keep_set:
                self.path(digest).unlink(missing_ok=True)
                removed.append(digest)
        return removed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArtifactStore({str(self.directory)!r}, artifacts={len(self.digests())})"


def _portable_error(error: BaseException) -> BaseException:
    """``error`` if it survives pickling, else a RuntimeError carrying its text."""
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        return RuntimeError(f"{type(error).__name__}: {error}")


def _worker_main(store_dir: str, task_queue, result_queue, ring_spec) -> None:
    """Worker-process body: serve predict tasks against mmap'd store artifacts.

    Messages arrive on ``task_queue`` in FIFO order -- ``("bind", name,
    digest)`` (re)binds a model from the store, ``("drop", name)`` forgets
    one, ``("predict", request_id, name, X)`` answers with ``("done",
    request_id, labels, error, stamps)`` on ``result_queue``,
    ``("predict-shm", request_id, name, slot, shape, dtype)`` reads the
    batch zero-copy from the shared-memory ring described by ``ring_spec``
    and writes the labels back into the same slot (``("done-shm",
    request_id, shape, dtype, None, stamps)``), and ``("stop",)`` exits.
    ``stamps`` is the trace triple ``(dequeued, loaded, predicted)`` on the
    shared monotonic clock -- identical on both data planes, so the parent
    expands either answer into the same cross-process spans; ``None`` on
    error answers.  The FIFO ordering is the blue/green
    guarantee: a bind enqueued before a predict is always applied before it.

    Artifacts are content-addressed and immutable, so loads are cached by
    digest: a swap storm flipping between versions costs one disk open per
    *distinct* artifact, after which every rebind is a dictionary
    assignment -- control traffic can never starve the predicts queued
    behind it.  Module-level so every start method (spawn included) can
    import it.
    """
    store = ArtifactStore(store_dir)
    ring = None
    if ring_spec is not None:
        try:
            ring = SlotRingClient(*ring_spec)
        except Exception:
            ring = None  # shm descriptors will be answered with an error
    models: Dict[str, ClusterModel] = {}
    cache: "OrderedDict[str, ClusterModel]" = OrderedDict()
    cache_limit = 64

    while True:
        try:
            message = task_queue.get()
        except (EOFError, OSError, KeyboardInterrupt):  # pragma: no cover
            return
        kind = message[0]
        if kind == "stop":
            if ring is not None:
                ring.close()
            return
        if kind == "bind":
            _, name, digest = message
            try:
                model = cache.get(digest)
                if model is None:
                    model = cache[digest] = store.load(digest, mmap=True)
                cache.move_to_end(digest)
                models[name] = model
                while len(cache) > cache_limit:
                    bound = {id(m) for m in models.values()}
                    stale = next(
                        (d for d, m in cache.items() if id(m) not in bound), None
                    )
                    if stale is None:
                        break
                    del cache[stale]
            except Exception as error:
                result_queue.put(("bind-error", name, _portable_error(error)))
        elif kind == "drop":
            models.pop(message[1], None)
        elif kind == "predict":
            _, request_id, name, X = message
            # Trace stamps on the host-shared monotonic clock: dequeue,
            # model-in-hand, labels-in-hand.  The parent expands them into
            # the ipc-out / worker-load / worker-predict / ipc-back spans.
            dequeued = time.monotonic()
            try:
                model = models.get(name)
                if model is None:
                    raise KeyError(
                        f"worker pid {os.getpid()} has no model bound as {name!r}."
                    )
                loaded = time.monotonic()
                labels = model.predict(X)
                predicted = time.monotonic()
                result_queue.put(
                    ("done", request_id, labels, None, (dequeued, loaded, predicted))
                )
            except Exception as error:
                result_queue.put(
                    ("done", request_id, None, _portable_error(error), None)
                )
        elif kind == "predict-shm":
            _, request_id, name, slot, shape, dtype = message
            dequeued = time.monotonic()
            try:
                if ring is None:
                    raise RuntimeError(
                        f"worker pid {os.getpid()} could not attach the "
                        "shared-memory ring; shm descriptors cannot be served."
                    )
                model = models.get(name)
                if model is None:
                    raise KeyError(
                        f"worker pid {os.getpid()} has no model bound as {name!r}."
                    )
                X = ring.view(slot, shape, dtype)
                loaded = time.monotonic()
                labels = model.predict(X)
                predicted = time.monotonic()
                # Drop the slab view immediately: a live export into the
                # shared segment keeps SharedMemory.close() from unmapping
                # it at worker shutdown.
                del X
                stamps = (dequeued, loaded, predicted)
                if labels.nbytes <= ring.slot_bytes:
                    # The labels ride back in the request's own slot: the
                    # parent holds it until this answer is read, so the
                    # request bytes are dead and the slot is exclusively ours.
                    out_shape, out_dtype = ring.write(slot, labels)
                    result_queue.put(
                        ("done-shm", request_id, out_shape, out_dtype, None, stamps)
                    )
                else:  # pragma: no cover - labels larger than the batch
                    result_queue.put(("done", request_id, labels, None, stamps))
            except Exception as error:
                result_queue.put(
                    ("done", request_id, None, _portable_error(error), None)
                )


class ProcessWorkerPool:
    """N predict worker processes sharing one artifact store.

    Parameters
    ----------
    store:
        The :class:`ArtifactStore` (or its directory) workers open models
        from.
    n_workers:
        Worker-process count; defaults to the host CPU count.
    mp_context:
        Multiprocessing start method.  The default ``"spawn"`` is safe in
        arbitrarily threaded parents (the serving plane always is one);
        ``"fork"`` starts faster where the platform allows it.
    use_shm:
        Ship float batches through per-worker shared-memory slab rings
        (:mod:`repro.serve.shm`) instead of pickling them through the
        queues.  Enabled by default where ``multiprocessing.shared_memory``
        works; silently disabled (pickle path only) where it does not.
    shm_slot_bytes, shm_slots:
        Geometry of each worker's ring: ``shm_slots`` slots of
        ``shm_slot_bytes`` payload each.  Batches that do not fit a slot --
        or arrive while every slot is in flight -- fall back to the pickle
        path automatically.
    pin_workers:
        Pin each worker process to one CPU (round-robin over the CPUs this
        process may run on) via ``os.sched_setaffinity``, so co-located
        pools stop migrating workers across caches.  Respawned workers are
        re-pinned to their slot's CPU.  Skipped silently -- ``pinned()``
        stays empty -- on platforms without ``sched_setaffinity`` or when
        the kernel refuses.

    Control messages (:meth:`bind` / :meth:`drop`) are broadcast to every
    worker's FIFO queue; predict tasks go to one worker each, chosen
    round-robin over the live processes.  Results from all workers funnel
    into the shared :attr:`result_queue`.  The pool remembers its current
    name -> digest bindings, which is what lets :meth:`respawn` rebuild a
    dead worker's model set from the store.
    """

    def __init__(
        self,
        store: Union[ArtifactStore, str, Path],
        n_workers: Optional[int] = None,
        *,
        mp_context: str = "spawn",
        use_shm: bool = True,
        shm_slot_bytes: int = DEFAULT_SLOT_BYTES,
        shm_slots: int = DEFAULT_SLOTS,
        pin_workers: bool = False,
    ) -> None:
        from repro.serve.parallel import resolve_n_workers

        self.store = store if isinstance(store, ArtifactStore) else ArtifactStore(store)
        self.n_workers = resolve_n_workers(n_workers)
        self.pin_workers = bool(pin_workers)
        self._pin_cpus: List[int] = []
        if self.pin_workers and hasattr(os, "sched_getaffinity"):
            # The CPUs this process may run on, not the raw host count:
            # containers and taskset-restricted parents pin within their own
            # allowance.
            try:
                self._pin_cpus = sorted(os.sched_getaffinity(0))
            except OSError:
                self._pin_cpus = []
        self.pinned_cpus: List[Optional[int]] = [None] * self.n_workers
        self._ctx = multiprocessing.get_context(mp_context)
        self.rings: Optional[List[SlotRing]] = None
        if use_shm and shm_available():
            self.rings = [
                SlotRing(shm_slot_bytes, shm_slots) for _ in range(self.n_workers)
            ]
        self.use_shm = self.rings is not None
        self._task_queues = [self._ctx.Queue() for _ in range(self.n_workers)]
        self.result_queue = self._ctx.Queue()
        self.processes = [
            self._spawn_process(index, task_queue)
            for index, task_queue in enumerate(self._task_queues)
        ]
        for index, process in enumerate(self.processes):
            process.start()
            self._pin(index, process)
        self._rotation = itertools.cycle(range(self.n_workers))
        self._lock = threading.Lock()
        self._bindings: Dict[str, str] = {}
        self._generations = [0] * self.n_workers
        self.shm_sends = 0
        self.pickle_sends = 0
        self.respawns = 0
        self._closed = False

    def _ring_spec(self, index: int):
        return None if self.rings is None else self.rings[index].spec()

    def _pin(self, index: int, process) -> None:
        """Pin a just-started worker to its slot's CPU; skip where unsupported.

        Parent-side by pid, so the worker needs no cooperation and a
        respawned process inherits its slot's CPU deterministically.
        """
        if not self._pin_cpus or not hasattr(os, "sched_setaffinity"):
            return
        cpu = self._pin_cpus[index % len(self._pin_cpus)]
        try:
            os.sched_setaffinity(process.pid, {cpu})
        except (OSError, ValueError):
            # The kernel refused (permissions, cpuset changes, the process
            # already exited): serve unpinned rather than fail the pool.
            self.pinned_cpus[index] = None
            return
        self.pinned_cpus[index] = cpu

    def pinned(self) -> Dict[int, int]:
        """Worker index -> CPU for every successfully pinned worker."""
        return {
            index: cpu for index, cpu in enumerate(self.pinned_cpus) if cpu is not None
        }

    def _spawn_process(self, index: int, task_queue):
        return self._ctx.Process(
            target=_worker_main,
            args=(
                str(self.store.directory),
                task_queue,
                self.result_queue,
                self._ring_spec(index),
            ),
            name=f"repro-serve-worker-{index}",
            daemon=True,
        )

    # -- control plane -----------------------------------------------------------

    def bind(self, name: str, digest: str) -> None:
        """Broadcast: every worker re-opens ``digest`` and serves it as ``name``."""
        with self._lock:
            self._bindings[str(name)] = str(digest)
            for task_queue in self._task_queues:
                task_queue.put(("bind", name, digest))

    def drop(self, name: str) -> None:
        """Broadcast: every worker forgets the model bound as ``name``."""
        with self._lock:
            self._bindings.pop(str(name), None)
            for task_queue in self._task_queues:
                task_queue.put(("drop", name))

    def bindings(self) -> Dict[str, str]:
        """Snapshot of the current name -> digest bindings."""
        with self._lock:
            return dict(self._bindings)

    def respawn(self, index: int) -> Optional[int]:
        """Replace the dead worker at ``index`` with a fresh process.

        The new worker reuses the slot's shared-memory ring and result
        queue, gets a *fresh* task queue (whatever the dead worker left
        unread is gone -- the watchdog already failed those requests fast),
        and has the pool's current name -> digest bindings replayed from
        the store before it serves anything, so blue/green state survives
        the crash.  Returns the slot's new generation number, or ``None``
        when the worker is actually alive (benign race) or the pool is
        closed.  Callers see the restored capacity through the usual
        round-robin rotation -- no rebalancing is needed.
        """
        with self._lock:
            if self._closed:
                return None
            old_process = self.processes[index]
            if old_process.is_alive():
                return None
            old_queue = self._task_queues[index]
            task_queue = self._ctx.Queue()
            for name, digest in sorted(self._bindings.items()):
                task_queue.put(("bind", name, digest))
            process = self._spawn_process(index, task_queue)
            self._task_queues[index] = task_queue
            self.processes[index] = process
            self._generations[index] += 1
            self.respawns += 1
            generation = self._generations[index]
            process.start()
            self._pin(index, process)
        old_process.join(timeout=0.1)  # reap the corpse
        old_queue.close()
        old_queue.cancel_join_thread()
        return generation

    # -- data plane --------------------------------------------------------------

    def next_alive_worker(self) -> int:
        """Round-robin index of a live worker; raises when none remain."""
        with self._lock:
            for _ in range(self.n_workers):
                index = next(self._rotation)
                if self.processes[index].is_alive():
                    return index
            exitcodes = [process.exitcode for process in self.processes]
        raise RuntimeError(
            f"every worker process in the pool has died (exitcodes {exitcodes}); "
            "the service must be restarted."
        )

    def send_predict(
        self, worker: int, request_id: int, name: str, X: np.ndarray
    ) -> Tuple[int, Optional[int]]:
        """Enqueue one predict task on ``worker``'s FIFO queue.

        Ships the batch through the worker's shared-memory ring when it
        fits a free slot (the queue then carries only the descriptor),
        falling back to the pickle path otherwise.  Returns ``(generation,
        slot)`` -- the worker generation the task was sent to (so the
        watchdog can fail requests stranded on a superseded incarnation)
        and the ring slot to release once the answer lands (``None`` on the
        pickle path).
        """
        with self._lock:
            task_queue = self._task_queues[worker]
            generation = self._generations[worker]
            ring = None if self.rings is None else self.rings[worker]
            if ring is not None and fits_slot(X, ring.slot_bytes):
                slot = ring.acquire()
                if slot is not None:
                    shape, dtype = ring.write(slot, X)
                    task_queue.put(
                        ("predict-shm", request_id, name, slot, shape, dtype)
                    )
                    self.shm_sends += 1
                    return generation, slot
            task_queue.put(("predict", request_id, name, X))
            self.pickle_sends += 1
            return generation, None

    def read_labels(self, worker: int, slot: int, shape, dtype) -> np.ndarray:
        """Copy a worker's shm-path answer out of its ring (slot stays held)."""
        assert self.rings is not None
        return self.rings[worker].read(slot, shape, dtype)

    def release_slot(self, worker: int, slot: Optional[int]) -> None:
        """Return a ring slot to ``worker``'s free-list (no-op for ``None``)."""
        if slot is not None and self.rings is not None:
            self.rings[worker].release(slot)

    def alive(self) -> List[bool]:
        """Liveness of each worker process, by index."""
        return [process.is_alive() for process in self.processes]

    def pids(self) -> List[Optional[int]]:
        """OS pid of each worker slot (``None`` before start), by index.

        Respawns change a slot's pid; resource samplers keyed by slot index
        (:class:`repro.obs.sysmon.SystemMonitor`) follow the replacement
        automatically.
        """
        return [process.pid for process in self.processes]

    def generations(self) -> List[int]:
        """Current generation number of each worker slot, by index."""
        with self._lock:
            return list(self._generations)

    # -- lifecycle ---------------------------------------------------------------

    def close(self, timeout: float = 5.0, *, release_shm: bool = True) -> None:
        """Stop every worker: polite ``stop`` sentinel, then terminate stragglers.

        ``release_shm=False`` leaves the shared-memory rings linked (the
        owning service releases them once its collector thread -- which may
        still be reading an answer out of a ring -- has exited; call
        :meth:`release_rings` afterwards).
        """
        if not self._closed:
            with self._lock:
                self._closed = True
            for task_queue in self._task_queues:
                try:
                    task_queue.put(("stop",))
                except (ValueError, OSError):  # pragma: no cover - queue torn down
                    pass
            deadline = time.monotonic() + timeout
            for process in self.processes:
                process.join(timeout=max(0.0, deadline - time.monotonic()))
            for process in self.processes:
                if process.is_alive():  # pragma: no cover - hung worker
                    process.terminate()
                    process.join(timeout=1.0)
            for task_queue in self._task_queues:
                task_queue.close()
                task_queue.cancel_join_thread()
        if release_shm:
            self.release_rings()

    def release_rings(self) -> None:
        """Unlink the shared-memory rings (idempotent)."""
        if self.rings is not None:
            for ring in self.rings:
                ring.close()

    def __enter__(self) -> "ProcessWorkerPool":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProcessWorkerPool(n_workers={self.n_workers}, "
            f"alive={sum(self.alive())}, shm={self.use_shm})"
        )


@dataclass
class _Inflight:
    """One shipped micro-batch awaiting its worker's answer."""

    worker: int
    name: str
    futures: List[Future]
    sizes: Optional[List[int]]
    #: Member-request traces, index-aligned with ``futures`` (None entries
    #: when tracing is off).  The worker's stamp triple fans back out onto
    #: every one of these when the answer lands.
    traces: List[Optional[Trace]] = field(default_factory=list)
    #: Monotonic instant the dispatcher started the send (ring write +
    #: queue put); the worker's dequeue stamp closes the ipc-out span
    #: opened here.
    sent_at: float = 0.0
    #: Worker generation the batch was shipped to; -1 while the dispatcher
    #: is still writing/enqueueing it (the watchdog must not touch the entry
    #: before the send lands, or it could release a slot the worker is about
    #: to write into).
    generation: int = -1
    slot: Optional[int] = None
    started: float = field(default_factory=time.perf_counter)


class ProcessPoolService(ClusteringService):
    """Multi-process :class:`ClusteringService`: predict beyond one core.

    A dispatcher thread pulls admitted requests off a queue, coalesces
    contiguous same-model requests into micro-batches and ships each batch
    to the next live worker process; a collector thread resolves the
    callers' futures as answers come back, so several batches are genuinely
    in flight at once -- aggregate throughput scales with ``n_workers``
    instead of stopping at the GIL.  Model management mirrors the base
    class, with every ``register``/``swap``/``load`` additionally published
    to the :class:`ArtifactStore` and broadcast to the workers, preserving
    blue/green semantics end to end across process boundaries.

    Batches ride per-worker shared-memory rings where they fit (see
    :class:`ProcessWorkerPool`), and a watchdog keeps the pool at full
    capacity: a dead worker's in-flight batches fail fast with an explicit
    error, then the worker is respawned with the current bindings replayed
    -- every respawn lands in ``telemetry.snapshot()["workers"]``.

    Parameters
    ----------
    store:
        The shared :class:`ArtifactStore` (or a directory to create one in).
    n_workers:
        Worker-process count (defaults to the host CPU count).
    registry:
        Optional external :class:`ModelRegistry`; it is attached to the
        store so digests resolve.  A private store-attached registry is
        created when omitted.
    mp_context:
        Worker start method (``"spawn"`` default; see
        :class:`ProcessWorkerPool`).
    max_batch_requests:
        Most requests coalesced into one shipped micro-batch.
    worker_timeout:
        Seconds :meth:`close` waits for in-flight worker answers before
        terminating the pool and failing the stragglers with
        :class:`ServiceClosed`.
    respawn_workers:
        Automatically replace dead workers (default).  ``False`` restores
        the PR-5 behaviour of leaving the slot empty.
    use_shm, shm_slot_bytes, shm_slots, pin_workers:
        Shared-memory data-plane and CPU-pinning knobs, passed to
        :class:`ProcessWorkerPool`.  Successful pins surface in
        ``telemetry.snapshot()["workers"]["pinned"]``.
    max_pending, max_batch_delay, max_async_workers, telemetry:
        As in :class:`ClusteringService` (``max_batch_delay`` here bounds
        how long the dispatcher waits for a fuller batch).
    """

    def __init__(
        self,
        store: Union[ArtifactStore, str, Path],
        *,
        n_workers: Optional[int] = None,
        registry: Optional[ModelRegistry] = None,
        mp_context: str = "spawn",
        max_batch_requests: int = 32,
        worker_timeout: float = 10.0,
        respawn_workers: bool = True,
        use_shm: bool = True,
        shm_slot_bytes: int = DEFAULT_SLOT_BYTES,
        shm_slots: int = DEFAULT_SLOTS,
        pin_workers: bool = False,
        max_pending: Optional[int] = None,
        max_batch_delay: float = 0.0,
        max_async_workers: int = 4,
        telemetry: Optional[Telemetry] = None,
        tracing: bool = True,
    ) -> None:
        if int(max_batch_requests) < 1:
            raise ValueError(
                f"max_batch_requests must be >= 1; got {max_batch_requests}."
            )
        store = store if isinstance(store, ArtifactStore) else ArtifactStore(store)
        if registry is None:
            registry = ModelRegistry(store=store)
        elif registry.store is None:
            registry.store = store
        elif registry.store is not store and not (
            isinstance(registry.store, ArtifactStore)
            and registry.store.directory.resolve() == store.directory.resolve()
        ):
            # A registry publishing somewhere the workers never look would
            # turn every bind into a buried KeyError; fail loudly instead.
            raise ValueError(
                f"registry is attached to a different artifact store "
                f"({registry.store!r}) than this service ({store!r}); use one "
                "store for both so worker processes can open what the "
                "registry publishes."
            )
        super().__init__(
            registry,
            max_async_workers=max_async_workers,
            max_pending=max_pending,
            max_batch_delay=max_batch_delay,
            telemetry=telemetry,
            tracing=tracing,
        )
        self.store = store
        self.max_batch_requests = int(max_batch_requests)
        self.worker_timeout = float(worker_timeout)
        self.respawn_workers = bool(respawn_workers)
        self.pool = ProcessWorkerPool(
            store,
            n_workers,
            mp_context=mp_context,
            use_shm=use_shm,
            shm_slot_bytes=shm_slot_bytes,
            shm_slots=shm_slots,
            pin_workers=pin_workers,
        )
        for index, cpu in self.pool.pinned().items():
            self.telemetry.record_worker_pinned(index, cpu)
        self._requests: Deque[
            Tuple[str, np.ndarray, Future, Optional[Trace]]
        ] = deque()
        self._requests_cond = threading.Condition()
        self._stop_dispatch = False
        self._inflight: Dict[int, _Inflight] = {}
        self._inflight_lock = threading.Lock()
        self._request_ids = itertools.count()
        self._shutdown = threading.Event()
        self._collector_stop = threading.Event()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch", daemon=True
        )
        self._collector = threading.Thread(
            target=self._collect_loop, name="repro-serve-collect", daemon=True
        )
        self._watchdog = threading.Thread(
            target=self._watch_loop, name="repro-serve-watch", daemon=True
        )
        self._dispatcher.start()
        self._collector.start()
        self._watchdog.start()

    @staticmethod
    def _resolve_future(future: Future, *, result=None, error=None) -> None:
        """Like the base resolver, but tolerant of both sides of a race.

        A future can be completed by the collector *and* (on a worker death
        or a close timeout) by the watchdog / ``close``; whichever loses the
        race must be a no-op, not an ``InvalidStateError`` escaping a
        daemon thread.
        """
        if future.done():
            return
        try:
            ClusteringService._resolve_future(future, result=result, error=error)
        except InvalidStateError:
            pass

    # -- model management --------------------------------------------------------

    def register(self, name: str, model: ClusterModel, *, overwrite: bool = True) -> ClusterModel:
        """Register ``model``, publish its artifact and bind it in every worker."""
        registered = self.registry.register(name, model, overwrite=overwrite)
        self.pool.bind(name, self.registry.digest(name))
        return registered

    def swap(self, name: str, model: ClusterModel) -> str:
        """Blue/green publish across the process pool.

        The artifact lands in the store and the parent registry first, then
        the bind is broadcast on every worker's FIFO queue -- so predicts
        enqueued after this call returns are answered by the new version,
        and earlier ones by a version that was live when they were enqueued.
        Worker bindings of versions the retention policy evicted are
        dropped.
        """
        before = set(self.registry.versions(name))
        version = self.registry.swap(name, model)
        digest = self.registry.digest(version)
        self.pool.bind(name, digest)
        self.pool.bind(version, digest)
        for evicted in before - set(self.registry.versions(name)):
            self.pool.drop(evicted)
        self.telemetry.record_swap(name, version)
        return version

    def load(self, name: str, path, *, mmap: bool = True) -> ClusterModel:
        """Load an artifact from ``path`` and serve it under ``name``."""
        return self.register(name, ClusterModel.load(path, mmap=mmap))

    # -- serving -----------------------------------------------------------------

    def submit(
        self,
        name: str,
        X,
        *,
        wait_for_slot: bool = False,
        slot_timeout: Optional[float] = None,
        trace: Optional[Trace] = None,
    ) -> "Future[np.ndarray]":
        """Admit a predict request and hand it to the dispatcher.

        Unlike the base class, the calling thread never executes the pass
        itself -- the future resolves from the collector thread once a
        worker process answers.  The trace (caller's, or a fresh one when
        tracing is on) rides the dispatch queue with the request and is
        closed by whichever thread resolves the future -- collector,
        watchdog, or ``close``.
        """
        if self._closed:
            raise ServiceClosed("ProcessPoolService is closed; no further requests.")
        self.registry.get(name)  # fail fast on unknown names
        X = np.asarray(X, dtype=np.float64)
        trace = self._trace_for(name, trace)
        admit_start = None if trace is None else trace.last_stamp()
        try:
            self._admit(name, wait=wait_for_slot, timeout=slot_timeout)
        except BaseException as error:
            if trace is not None:
                trace.add_span(STAGE_ADMISSION_WAIT, admit_start, time.monotonic())
                self._abort_trace(trace, error)
            raise
        if trace is not None:
            trace.add_span(STAGE_ADMISSION_WAIT, admit_start, time.monotonic())
        future: "Future[np.ndarray]" = Future()
        future.add_done_callback(self._release_slot)
        with self._requests_cond:
            if self._stop_dispatch:
                # close() already drained the dispatcher; resolving here (not
                # raising before the append) keeps the slot accounting exact.
                closed_error = ServiceClosed(
                    "ProcessPoolService is closed; no further requests."
                )
                self._resolve_future(future, error=closed_error)
                self._abort_trace(trace, closed_error)
                return future
            if trace is not None:
                trace.enqueued_at = trace.last_stamp()
            self._requests.append((name, X, future, trace))
            self._requests_cond.notify()
        return future

    def _dispatch_loop(self) -> None:
        while True:
            with self._requests_cond:
                while not self._requests and not self._stop_dispatch:
                    self._requests_cond.wait()
                if not self._requests:
                    return
                if (
                    self.max_batch_delay > 0.0
                    and not self._stop_dispatch
                    and len(self._requests) < self.max_batch_requests
                ):
                    # One bounded chance for the burst to fill the batch out.
                    self._requests_cond.wait(timeout=self.max_batch_delay)
                    if not self._requests:
                        continue
                name, X, future, trace = self._requests.popleft()
                batch = [(X, future, trace)]
                while (
                    len(batch) < self.max_batch_requests
                    and self._requests
                    and self._requests[0][0] == name
                    and self._requests[0][1].ndim == X.ndim
                    and (X.ndim != 2 or self._requests[0][1].shape[1] == X.shape[1])
                ):
                    batch.append(self._requests.popleft()[1:])
            self._ship(name, batch)

    def _ship(
        self, name: str, batch: List[Tuple[np.ndarray, Future, Optional[Trace]]]
    ) -> None:
        arrays = [X for X, _, _ in batch]
        futures = [future for _, future, _ in batch]
        traces = [trace for _, _, trace in batch]
        try:
            worker = self.pool.next_alive_worker()
            if len(arrays) == 1:
                stacked, sizes = arrays[0], None
            else:
                stacked = np.concatenate(arrays, axis=0)
                sizes = [len(X) for X in arrays]
        except Exception as error:
            for future, trace in zip(futures, traces):
                self._resolve_future(future, error=error)
                self._abort_trace(trace, error)
            return
        request_id = next(self._request_ids)
        entry = _Inflight(
            worker=worker, name=name, futures=futures, sizes=sizes, traces=traces
        )
        with self._inflight_lock:
            self._inflight[request_id] = entry
        try:
            # Stamp before the send so the ring write + queue put land inside
            # the ipc-out span (closed by the worker's dequeue stamp).
            sent_at = time.monotonic()
            for trace in traces:
                if trace is not None:
                    trace.add_span(STAGE_QUEUE_WAIT, trace.enqueued_at, sent_at)
            entry.sent_at = sent_at
            generation, slot = self.pool.send_predict(
                worker, request_id, name, stacked
            )
            entry.slot = slot
            # Publish the generation last: it flips the entry from
            # "send in progress" (watchdog hands off) to "watchable".
            entry.generation = generation
        except Exception as error:  # pragma: no cover - queue torn down
            with self._inflight_lock:
                self._inflight.pop(request_id, None)
            for future, trace in zip(futures, traces):
                self._resolve_future(future, error=error)
                self._abort_trace(trace, error)

    def _finish_entry(
        self,
        entry: _Inflight,
        labels: np.ndarray,
        stamps=None,
        received_at: Optional[float] = None,
    ) -> None:
        """Resolve an answered batch's futures and account it exactly once.

        ``stamps`` is the worker's ``(dequeued, loaded, predicted)`` triple;
        it fans back out onto every member trace of the coalesced batch,
        followed by a per-trace collect span covering this resolution.
        """
        seconds = time.perf_counter() - entry.started
        self.telemetry.record_predict(entry.name, seconds, len(labels))
        with self._stats_lock:
            self.n_requests_ += len(entry.futures)
            self.n_batches_ += 1
        if entry.sizes is None:
            parts = [labels]
        else:
            offsets = np.cumsum(entry.sizes)[:-1]
            parts = np.split(labels, offsets)
        for future, part, trace in zip(entry.futures, parts, entry.traces):
            self._resolve_future(future, result=part)
            if trace is not None:
                if received_at is None:
                    received_at = time.monotonic()
                apply_worker_stamps(trace, entry.sent_at, stamps, received_at)
                done = time.monotonic()
                trace.add_span(STAGE_COLLECT, received_at, done)
                # close() is first-wins: a watchdog that doomed this entry
                # already closed and recorded the trace.  Closing at the
                # collect span's own end stamp keeps a preemption right here
                # from stretching the total past the spans.
                if trace.close(at=done):
                    self.telemetry.record_trace(trace)

    def _collect_loop(self) -> None:
        # The timed get is deliberate: the parent must never `put` on the
        # result queue (not even a stop sentinel), because a worker SIGKILL'd
        # mid-`put` dies holding the queue's shared write lock -- a parent
        # blocked on that lock would hang close() and interpreter exit.
        # Reads contend only on the reader lock, which workers never touch.
        while True:
            try:
                message = self.pool.result_queue.get(timeout=0.1)
            except Empty:
                if self._collector_stop.is_set():
                    return
                continue
            except (EOFError, OSError):  # pragma: no cover - queue torn down
                return
            received_at = time.monotonic()
            try:
                kind = message[0]
                if kind == "bind-error":
                    _, name, error = message
                    self.telemetry.record_callback_error(f"worker-bind:{name}", error)
                    continue
                if kind == "done-shm":
                    _, request_id, shape, dtype, error, stamps = message
                    with self._inflight_lock:
                        entry = self._inflight.pop(request_id, None)
                    if entry is None:
                        continue
                    labels = self.pool.read_labels(
                        entry.worker, entry.slot, shape, dtype
                    )
                    self.pool.release_slot(entry.worker, entry.slot)
                    self._finish_entry(
                        entry, labels, stamps=stamps, received_at=received_at
                    )
                    continue
                _, request_id, labels, error, stamps = message
                with self._inflight_lock:
                    entry = self._inflight.pop(request_id, None)
                if entry is None:
                    continue
                self.pool.release_slot(entry.worker, entry.slot)
                if error is not None:
                    for future, trace in zip(entry.futures, entry.traces):
                        self._resolve_future(future, error=error)
                        self._abort_trace(trace, error)
                    continue
                self._finish_entry(
                    entry, labels, stamps=stamps, received_at=received_at
                )
            except Exception as error:  # pragma: no cover - defensive
                self.telemetry.record_callback_error("collector", error)

    def _watch_loop(self) -> None:
        """Keep the pool at capacity: fail a dead worker's batches, respawn it.

        Every tick compares each in-flight entry against the liveness *and
        generation* of the worker slot it was shipped to.  The generation
        check closes the race where the dispatcher ships to a worker in the
        same tick the watchdog replaces it: the entry's messages sit in the
        superseded incarnation's (discarded) queue, so it must fail fast
        like the rest -- never hang until ``close()``.
        """
        while not self._shutdown.wait(0.1):
            alive = self.pool.alive()
            generations = self.pool.generations()
            dead = [index for index, ok in enumerate(alive) if not ok]
            with self._inflight_lock:
                doomed = [
                    (request_id, entry)
                    for request_id, entry in self._inflight.items()
                    if entry.generation >= 0
                    and (
                        not alive[entry.worker]
                        or entry.generation != generations[entry.worker]
                    )
                ]
                for request_id, _ in doomed:
                    self._inflight.pop(request_id, None)
            for _, entry in doomed:
                self.pool.release_slot(entry.worker, entry.slot)
                exitcode = self.pool.processes[entry.worker].exitcode
                death = RuntimeError(
                    f"worker process {entry.worker} died (exitcode "
                    f"{exitcode}) with this request in flight."
                )
                for future, trace in zip(entry.futures, entry.traces):
                    self._resolve_future(future, error=death)
                    # Doomed traces close with an error span covering the
                    # unaccounted tail -- they surface in the slow ring, they
                    # never leak half-open.
                    self._abort_trace(trace, death)
            if not dead or not self.respawn_workers or self._closing:
                continue
            for index in dead:
                generation = self.pool.respawn(index)
                if generation is not None:
                    self.telemetry.record_worker_respawn(index)
                    # Respawn re-pins (or fails to); keep the snapshot honest.
                    self.telemetry.record_worker_pinned(
                        index, self.pool.pinned_cpus[index]
                    )

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Shut the serving plane down without stranding a single future.

        Idempotent and safe to call with requests in flight: admitted
        requests are still dispatched, in-flight worker batches get up to
        ``worker_timeout`` seconds to answer, then workers are stopped and
        anything unresolved fails with :class:`ServiceClosed` (a clean
        error, never a hang).  Later calls raise :class:`ServiceClosed`.
        """
        with self._lifecycle_lock:
            if self._closed or self._closing:
                return
            self._closing = True
            pool, self._async_pool = self._async_pool, None
        self._stop_monitor()
        with self._admission:
            self._admission.notify_all()
        if pool is not None:
            pool.shutdown(wait=True)
        with self._requests_cond:
            self._stop_dispatch = True
            self._requests_cond.notify_all()
        self._dispatcher.join()
        deadline = time.monotonic() + self.worker_timeout
        while time.monotonic() < deadline:
            with self._inflight_lock:
                if not self._inflight:
                    break
            if not any(self.pool.alive()):
                break
            time.sleep(0.01)
        self._shutdown.set()
        self._watchdog.join()
        # The collector may still be copying an answer out of a ring, so the
        # shared-memory segments are released only after it exits.
        self.pool.close(release_shm=False)
        self._collector_stop.set()
        self._collector.join(timeout=5.0)
        with self._inflight_lock:
            stranded = list(self._inflight.values())
            self._inflight.clear()
        for entry in stranded:  # pragma: no cover - only on worker timeout
            stranded_error = ServiceClosed(
                "ProcessPoolService closed before the worker answered."
            )
            for future, trace in zip(entry.futures, entry.traces):
                self._resolve_future(future, error=stranded_error)
                self._abort_trace(trace, stranded_error)
        self.pool.release_rings()
        self._closed = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProcessPoolService(models={self.registry.names()!r}, "
            f"workers={sum(self.pool.alive())}/{self.pool.n_workers}, "
            f"requests={self.n_requests_})"
        )
