"""Model-serving layer: frozen artifacts, registries and concurrent predict.

A fitted AdaWave run compresses into a tiny, immutable artifact -- the
quantizer geometry plus the surviving transformed-cell -> cluster map --
that labels arbitrary new points in one vectorized lookup pass without ever
touching the training data.  This package turns that observation into a
serving stack:

* :class:`ClusterModel` -- the frozen artifact, with versioned
  ``save``/``load`` (npz + JSON header; ``load(mmap=True)`` memory-maps
  uncompressed artifacts so co-located processes share pages) and
  lookup-only ``predict``;
* :class:`ModelRegistry` -- a thread-safe map of named models with atomic
  hot-swap semantics: blue/green versioned :meth:`~ModelRegistry.swap`
  (readers never observe a missing model) plus ``max_versions`` / TTL
  retention of superseded versions;
* :class:`ClusteringService` -- concurrent, micro-batched ``predict`` over
  many registered models, with admission control (``max_pending``,
  :class:`Overloaded` rejection or blocking backpressure), an asyncio front
  end (:meth:`~ClusteringService.predict_async` /
  :meth:`~ClusteringService.ingest_async`) and a ``close()`` /
  context-manager lifecycle (:class:`ServiceClosed` afterwards);
* :class:`ProcessPoolService` -- the multi-process serving plane: predict
  micro-batches dispatched to a pool of worker processes that hold the live
  models memory-mapped against a shared content-addressed
  :class:`ArtifactStore`, with blue/green swaps preserved across process
  boundaries;
* :class:`EdgeServer` / :class:`EdgeThread` -- a stdlib-only HTTP/1.1 front
  door over any service: ``POST /predict/<name>`` (JSON or raw npy bodies),
  ``POST /swap/<name>``, ``/healthz`` and ``/metrics``, with per-request
  deadline propagation (``X-Deadline-Ms`` -> bounded backpressure, 429/504
  load shedding) and graceful drain on close;
* :class:`Telemetry` -- the shared metrics surface (per-model, per-stage
  and per-route edge latency histograms, batch sizes, queue depth, swap
  counts, worker respawns, drift history and the slow-trace ring) every
  serving component reports into; Prometheus text
  exposition lives in :mod:`repro.obs` and ``Telemetry.to_prometheus()``;
* :class:`SlotRing` -- the zero-copy shared-memory data plane the
  multi-process service ships float batches through (queues carry only
  descriptors);
* :func:`parallel_ingest` -- sharded thread/process ingestion of batched
  datasets, exploiting that the quantized grid is an associative sketch
  (:class:`~repro.stream.StreamSketch`).

Typical flow::

    from repro import AdaWave
    from repro.serve import ClusteringService, ClusterModel

    frozen = AdaWave(scale=128).fit(X_train).export_model()
    frozen.save("clusters.npz")

    service = ClusteringService()
    service.load("prod", "clusters.npz")
    labels = service.predict("prod", X_new)
"""

from repro.serve.edge import DEADLINE_HEADER, EdgeServer, EdgeThread
from repro.serve.metrics import Telemetry
from repro.serve.model import FORMAT_MAGIC, FORMAT_VERSION, ClusterModel
from repro.serve.parallel import parallel_ingest
from repro.serve.procpool import ArtifactStore, ProcessPoolService, ProcessWorkerPool
from repro.serve.registry import ModelRegistry
from repro.serve.service import ClusteringService, Overloaded, ServiceClosed
from repro.serve.shm import SlotRing, SlotRingClient, shm_available

__all__ = [
    "ArtifactStore",
    "ClusterModel",
    "ModelRegistry",
    "ClusteringService",
    "ProcessPoolService",
    "ProcessWorkerPool",
    "EdgeServer",
    "EdgeThread",
    "DEADLINE_HEADER",
    "SlotRing",
    "SlotRingClient",
    "shm_available",
    "Overloaded",
    "ServiceClosed",
    "Telemetry",
    "parallel_ingest",
    "FORMAT_MAGIC",
    "FORMAT_VERSION",
]
