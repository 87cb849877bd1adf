"""E8 -- serving-layer performance: predict throughput and parallel ingestion.

Not a paper artefact: this experiment characterises the repo's serving
extensions (ROADMAP items).  Two workloads:

* :func:`run_predict_throughput` -- freeze a fitted model into a
  :class:`~repro.serve.ClusterModel`, round-trip it through ``save``/``load``
  and measure lookup-only ``predict`` over a large query set, verifying the
  served labels match the one-shot fit exactly.
* :func:`run_parallel_ingest` -- compare serial streaming ingestion against
  :func:`~repro.serve.parallel_ingest` at several worker counts, verifying
  every configuration predicts identical labels (grid merging is exact, not
  approximate).
* :func:`run_procpool_throughput` -- drive identical concurrent predict
  traffic through a single-process :class:`~repro.serve.ClusteringService`
  (whose per-model micro-batch leader serializes at one core) and through a
  :class:`~repro.serve.ProcessPoolService` worker pool, reporting aggregate
  throughput and the procpool speedup, and verifying the pooled labels are
  bit-for-bit the single-process labels.
* :func:`run_shm_throughput` -- the same pooled traffic with the
  shared-memory slab rings on and off, isolating what the zero-copy data
  plane buys over pickling every batch through the worker queues.

All report rows through the shared :class:`ExperimentResult` machinery so
the benchmark layer can print them as tables, and assert nothing themselves.
"""

from __future__ import annotations

import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence

import numpy as np

from repro.core.adawave import AdaWave
from repro.datasets.synthetic import scaled_runtime_dataset
from repro.experiments.runner import ExperimentResult
from repro.serve.model import ClusterModel
from repro.serve.parallel import _ingest_shard, parallel_ingest, resolve_n_workers
from repro.serve.procpool import ProcessPoolService
from repro.serve.service import ClusteringService


def run_predict_throughput(
    n_train: int = 50_000,
    n_queries: int = 200_000,
    scale: int = 128,
    noise_fraction: float = 0.75,
    seed: int = 0,
    repeats: int = 3,
    save_path=None,
) -> ExperimentResult:
    """Throughput of the frozen-artifact serving path.

    Fits once, freezes, optionally round-trips the artifact through disk
    (``save_path``), then times ``predict`` over a fresh query set (best of
    ``repeats``).  Metadata records whether the served labels reproduce the
    training labels bit-for-bit and the artifact's resident cell count --
    the number that stays flat as ``n_train`` grows.
    """
    train = scaled_runtime_dataset(n_train, noise_fraction=noise_fraction, seed=seed)
    queries = scaled_runtime_dataset(
        n_queries, noise_fraction=noise_fraction, seed=seed + 1
    ).points

    result = ExperimentResult(
        experiment="serving: frozen-model predict throughput",
        columns=["stage", "n", "seconds", "points_per_sec"],
        metadata={
            "n_train": train.n_samples,
            "n_queries": len(queries),
            "scale": scale,
            "seed": seed,
        },
    )

    start = time.perf_counter()
    estimator = AdaWave(scale=scale).fit(train.points)
    fit_seconds = time.perf_counter() - start
    result.add_row(
        stage="fit", n=train.n_samples, seconds=float(fit_seconds),
        points_per_sec=float(train.n_samples / max(fit_seconds, 1e-9)),
    )

    model = estimator.export_model()
    if save_path is not None:
        model.save(save_path)
        model = ClusterModel.load(save_path)

    best = np.inf
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        labels = model.predict(queries)
        best = min(best, time.perf_counter() - start)
    result.add_row(
        stage="predict", n=len(queries), seconds=float(best),
        points_per_sec=float(len(queries) / max(best, 1e-9)),
    )

    result.metadata["labels_match"] = bool(
        np.array_equal(model.predict(train.points), estimator.labels_)
    )
    result.metadata["model_cells"] = model.n_cells
    result.metadata["n_clusters"] = model.n_clusters
    result.metadata["predicted_noise_fraction"] = float(np.mean(labels == -1))
    return result


def run_parallel_ingest(
    n_points: int = 200_000,
    n_batches: int = 32,
    workers: Sequence[int] = (1, 2, 4),
    scale: int = 128,
    noise_fraction: float = 0.75,
    seed: int = 0,
    repeats: int = 3,
) -> ExperimentResult:
    """Serial vs sharded-parallel (threaded) streaming ingestion at ``n_points``.

    Times the ingestion phase -- quantize, accumulate, consolidate the
    sketch, everything up to (but excluding) the shared ``finalize``
    pipeline -- serially and through :func:`parallel_ingest` at each worker
    count, best of ``repeats``.  One ``speedup`` row per worker count
    reports ``serial_seconds / parallel_seconds``; metadata records whether
    all configurations predict identical labels.
    """
    dataset = scaled_runtime_dataset(n_points, noise_fraction=noise_fraction, seed=seed)
    points = dataset.points
    bounds = (points.min(axis=0), points.max(axis=0))
    batches = np.array_split(points, n_batches)
    params = dict(scale=scale, bounds=bounds, lookup_only=True)

    result = ExperimentResult(
        experiment="serving: parallel ingestion",
        columns=["configuration", "workers", "seconds", "speedup"],
        metadata={
            "n_points": dataset.n_samples,
            "n_batches": n_batches,
            "scale": scale,
            "seed": seed,
        },
    )

    serial_best = np.inf
    serial_model: Optional[AdaWave] = None
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        serial_model = _ingest_shard(params, list(batches))
        serial_best = min(serial_best, time.perf_counter() - start)
    serial_model.finalize()
    reference_labels = serial_model.predict(points)
    result.add_row(
        configuration="serial", workers=1, seconds=float(serial_best), speedup=1.0
    )

    all_identical = True
    for n_workers in workers:
        if n_workers <= 1:
            continue
        best = np.inf
        model: Optional[AdaWave] = None
        for _ in range(max(repeats, 1)):
            start = time.perf_counter()
            model = parallel_ingest(
                batches,
                bounds=bounds,
                scale=scale,
                n_workers=n_workers,
                finalize=False,
            )
            # Force the merged sketch consolidation inside the timed region
            # so serial and parallel pay for identical work.
            model._sketch.grid.n_occupied
            best = min(best, time.perf_counter() - start)
        model.finalize()
        identical = bool(np.array_equal(model.predict(points), reference_labels))
        all_identical = all_identical and identical
        result.add_row(
            configuration=f"parallel x{n_workers}",
            workers=n_workers,
            seconds=float(best),
            speedup=float(serial_best / max(best, 1e-9)),
        )

    result.metadata["labels_identical"] = all_identical
    result.metadata["n_clusters"] = serial_model.n_clusters_
    return result


def _drive_concurrent(predict, requests: List[np.ndarray], n_threads: int) -> float:
    """Wall seconds to answer every request from ``n_threads`` caller threads."""
    with ThreadPoolExecutor(max_workers=n_threads) as callers:
        start = time.perf_counter()
        futures = [callers.submit(predict, X) for X in requests]
        for future in futures:
            future.result()
        return time.perf_counter() - start


def run_procpool_throughput(
    n_train: int = 20_000,
    n_queries: int = 200_000,
    n_requests: int = 64,
    n_workers: int = 2,
    n_threads: int = 4,
    scale: int = 128,
    noise_fraction: float = 0.75,
    seed: int = 0,
    repeats: int = 3,
    store_dir=None,
    mp_context: str = "spawn",
) -> ExperimentResult:
    """Aggregate predict throughput: single-process service vs process pool.

    One frozen model serves ``n_requests`` query batches (``n_queries``
    points total) submitted concurrently from ``n_threads`` caller threads,
    first through a plain :class:`ClusteringService` -- where the per-model
    micro-batch leader serializes every pass onto one core -- then through a
    :class:`ProcessPoolService` with ``n_workers`` worker processes over a
    shared artifact store.  Each configuration is warmed once and timed
    ``repeats`` times (best taken).  Metadata records whether every pooled
    answer matched the frozen model bit-for-bit.
    """
    train = scaled_runtime_dataset(n_train, noise_fraction=noise_fraction, seed=seed)
    queries = scaled_runtime_dataset(
        n_queries, noise_fraction=noise_fraction, seed=seed + 1
    ).points
    frozen = AdaWave(scale=scale).fit(train.points).export_model()
    requests = np.array_split(queries, n_requests)
    expected = [frozen.predict(X) for X in requests]

    result = ExperimentResult(
        experiment="serving: multi-process predict throughput",
        columns=["configuration", "workers", "seconds", "points_per_sec", "speedup"],
        metadata={
            "n_train": train.n_samples,
            "n_queries": len(queries),
            "n_requests": n_requests,
            "n_threads": n_threads,
            "scale": scale,
            "seed": seed,
        },
    )

    labels_match = True

    def _measure(service) -> float:
        nonlocal labels_match
        answers = [service.predict("live", X) for X in requests[: n_threads]]
        labels_match = labels_match and all(
            np.array_equal(got, want) for got, want in zip(answers, expected)
        )
        best = np.inf
        for _ in range(max(repeats, 1)):
            best = min(
                best,
                _drive_concurrent(
                    lambda X: service.predict("live", X), requests, n_threads
                ),
            )
        final = [service.predict("live", X) for X in requests]
        labels_match = labels_match and all(
            np.array_equal(got, want) for got, want in zip(final, expected)
        )
        return best

    with ClusteringService() as single:
        single.register("live", frozen)
        single_seconds = _measure(single)
    result.add_row(
        configuration="single-process", workers=1, seconds=float(single_seconds),
        points_per_sec=float(len(queries) / max(single_seconds, 1e-9)), speedup=1.0,
    )

    cleanup = None
    if store_dir is None:
        cleanup = tempfile.TemporaryDirectory()
        store_dir = cleanup.name
    try:
        with ProcessPoolService(
            store_dir, n_workers=n_workers, mp_context=mp_context
        ) as pooled:
            pooled.register("live", frozen)
            pooled_seconds = _measure(pooled)
            workers_alive = all(pooled.pool.alive())
    finally:
        if cleanup is not None:
            cleanup.cleanup()
    result.add_row(
        configuration=f"procpool x{n_workers}", workers=n_workers,
        seconds=float(pooled_seconds),
        points_per_sec=float(len(queries) / max(pooled_seconds, 1e-9)),
        speedup=float(single_seconds / max(pooled_seconds, 1e-9)),
    )

    result.metadata["labels_match"] = bool(labels_match)
    result.metadata["workers_alive"] = bool(workers_alive)
    result.metadata["model_cells"] = frozen.n_cells
    return result


def run_shm_throughput(
    n_train: int = 20_000,
    n_queries: int = 200_000,
    n_requests: int = 64,
    n_workers: int = 2,
    n_threads: int = 4,
    scale: int = 128,
    noise_fraction: float = 0.75,
    seed: int = 0,
    repeats: int = 3,
    store_dir=None,
    mp_context: str = "spawn",
) -> ExperimentResult:
    """Shared-memory vs pickle-queue data plane at identical pooled traffic.

    Two :class:`ProcessPoolService` instances serve the same frozen model
    and the same ``n_requests`` concurrent query batches -- one shipping
    batches through the per-worker shared-memory slab rings
    (:mod:`repro.serve.shm`), one forced onto the pickle-queue path
    (``use_shm=False``).  Each configuration is warmed once and timed
    ``repeats`` times (best taken).  The ``speedup`` column of the shm row
    is pickle-seconds / shm-seconds; metadata records that both paths
    answered bit-for-bit identically and how many sends actually rode each
    path (the comparison is vacuous if the ring never engaged).
    """
    train = scaled_runtime_dataset(n_train, noise_fraction=noise_fraction, seed=seed)
    queries = scaled_runtime_dataset(
        n_queries, noise_fraction=noise_fraction, seed=seed + 1
    ).points
    frozen = AdaWave(scale=scale).fit(train.points).export_model()
    requests = np.array_split(queries, n_requests)
    expected = [frozen.predict(X) for X in requests]

    result = ExperimentResult(
        experiment="serving: shared-memory vs pickle-queue data plane",
        columns=["configuration", "workers", "seconds", "points_per_sec", "speedup"],
        metadata={
            "n_train": train.n_samples,
            "n_queries": len(queries),
            "n_requests": n_requests,
            "n_threads": n_threads,
            "n_workers": n_workers,
            "scale": scale,
            "seed": seed,
        },
    )

    labels_match = True

    def _measure(service) -> float:
        nonlocal labels_match
        warm = [service.predict("live", X) for X in requests[:n_threads]]
        labels_match = labels_match and all(
            np.array_equal(got, want) for got, want in zip(warm, expected)
        )
        best = np.inf
        for _ in range(max(repeats, 1)):
            best = min(
                best,
                _drive_concurrent(
                    lambda X: service.predict("live", X), requests, n_threads
                ),
            )
        final = [service.predict("live", X) for X in requests]
        labels_match = labels_match and all(
            np.array_equal(got, want) for got, want in zip(final, expected)
        )
        return best

    timings = {}
    sends = {}
    cleanup = None
    if store_dir is None:
        cleanup = tempfile.TemporaryDirectory()
        store_dir = cleanup.name
    try:
        for label, use_shm in (("pickle-queue", False), ("shm-ring", True)):
            with ProcessPoolService(
                f"{store_dir}/{label}",
                n_workers=n_workers,
                mp_context=mp_context,
                use_shm=use_shm,
            ) as service:
                service.register("live", frozen)
                timings[label] = _measure(service)
                sends[label] = (service.pool.shm_sends, service.pool.pickle_sends)
    finally:
        if cleanup is not None:
            cleanup.cleanup()

    pickle_seconds = timings["pickle-queue"]
    for label in ("pickle-queue", "shm-ring"):
        seconds = timings[label]
        result.add_row(
            configuration=label,
            workers=n_workers,
            seconds=float(seconds),
            points_per_sec=float(len(queries) / max(seconds, 1e-9)),
            speedup=float(pickle_seconds / max(seconds, 1e-9)),
        )

    result.metadata["labels_match"] = bool(labels_match)
    result.metadata["shm_sends"] = int(sends["shm-ring"][0])
    result.metadata["pickle_fallback_sends"] = int(sends["shm-ring"][1])
    result.metadata["queue_path_sends"] = int(sends["pickle-queue"][1])
    result.metadata["model_cells"] = frozen.n_cells
    return result


def run_tracing_overhead(
    n_train: int = 20_000,
    n_queries: int = 200_000,
    n_requests: int = 32,
    n_threads: Optional[int] = None,
    scale: int = 128,
    noise_fraction: float = 0.75,
    seed: int = 0,
    repeats: int = 3,
) -> ExperimentResult:
    """Cost of per-request tracing on the in-process serving path.

    Drives identical concurrent predict traffic through two
    :class:`ClusteringService` instances serving the same frozen model --
    one with tracing on (the default: every request gets a trace, stage
    spans and a slow-ring candidate entry), one constructed with
    ``tracing=False`` -- and reports both throughputs plus their ratio.
    Each configuration is warmed once and timed ``repeats`` times (best
    taken).  The ``relative`` column of the traced row is
    traced-points-per-sec / untraced-points-per-sec, the number the
    benchmark floor pins: observability must stay a rounding error, not a
    tax on the serving plane.

    ``n_threads=None`` caps the caller threads at the host CPU count:
    oversubscribing a small box turns the measurement into GIL-scheduling
    noise that swamps the microseconds under test.
    """
    if n_threads is None:
        n_threads = min(4, resolve_n_workers(None))
    train = scaled_runtime_dataset(n_train, noise_fraction=noise_fraction, seed=seed)
    queries = scaled_runtime_dataset(
        n_queries, noise_fraction=noise_fraction, seed=seed + 1
    ).points
    frozen = AdaWave(scale=scale).fit(train.points).export_model()
    requests = np.array_split(queries, n_requests)
    expected = [frozen.predict(X) for X in requests]

    result = ExperimentResult(
        experiment="serving: tracing overhead on in-process predict",
        columns=["configuration", "seconds", "points_per_sec", "relative"],
        metadata={
            "n_train": train.n_samples,
            "n_queries": len(queries),
            "n_requests": n_requests,
            "n_threads": n_threads,
            "scale": scale,
            "seed": seed,
        },
    )

    labels_match = True
    timings = {"untraced": np.inf, "traced": np.inf}
    services = {
        "untraced": ClusteringService(tracing=False),
        "traced": ClusteringService(tracing=True),
    }
    try:
        for label, service in services.items():
            service.register("live", frozen)
            warm = [service.predict("live", X) for X in requests[:n_threads]]
            labels_match = labels_match and all(
                np.array_equal(got, want) for got, want in zip(warm, expected)
            )
        # The configurations alternate within every repeat so slow system
        # noise (CPU frequency, cache state, co-tenants) hits both equally
        # instead of biasing whichever ran second.
        for _ in range(max(repeats, 1)):
            for label, service in services.items():
                timings[label] = min(
                    timings[label],
                    _drive_concurrent(
                        lambda X: service.predict("live", X), requests, n_threads
                    ),
                )
        traced_snapshot = services["traced"].telemetry.snapshot()
    finally:
        for service in services.values():
            service.close()

    untraced_pps = len(queries) / max(timings["untraced"], 1e-9)
    for label in ("untraced", "traced"):
        seconds = timings[label]
        pps = len(queries) / max(seconds, 1e-9)
        result.add_row(
            configuration=label,
            seconds=float(seconds),
            points_per_sec=float(pps),
            relative=float(pps / max(untraced_pps, 1e-9)),
        )

    result.metadata["labels_match"] = bool(labels_match)
    result.metadata["traced_requests"] = int(
        traced_snapshot["traces"]["count"] if traced_snapshot else 0
    )
    result.metadata["stages_observed"] = sorted(
        traced_snapshot["stages"].keys() if traced_snapshot else []
    )
    result.metadata["model_cells"] = frozen.n_cells
    return result


def run_monitoring_overhead(
    n_train: int = 20_000,
    n_queries: int = 200_000,
    n_requests: int = 32,
    n_threads: Optional[int] = None,
    scale: int = 128,
    noise_fraction: float = 0.75,
    seed: int = 0,
    repeats: int = 3,
    monitor_interval: float = 0.1,
) -> ExperimentResult:
    """Cost of the continuous monitoring plane on in-process serving.

    Drives identical concurrent predict traffic through two
    :class:`ClusteringService` instances serving the same frozen model --
    one bare, one with a running :class:`~repro.obs.sysmon.SystemMonitor`
    (time-series rollups, /proc CPU+RSS sampling and SLO evaluation every
    ``monitor_interval`` seconds; the profiler stays off, as in
    production).  Each configuration is warmed once and timed ``repeats``
    times (best taken), with the configurations alternating inside every
    repeat so system noise hits both equally.  The ``relative`` column of
    the monitored row is monitored / unmonitored points-per-sec -- the
    number the benchmark floor pins: watching the service must cost a
    rounding error, not throughput.
    """
    from repro.obs.slo import Objective, SloMonitor
    from repro.obs.sysmon import SystemMonitor

    if n_threads is None:
        n_threads = min(4, resolve_n_workers(None))
    train = scaled_runtime_dataset(n_train, noise_fraction=noise_fraction, seed=seed)
    queries = scaled_runtime_dataset(
        n_queries, noise_fraction=noise_fraction, seed=seed + 1
    ).points
    frozen = AdaWave(scale=scale).fit(train.points).export_model()
    requests = np.array_split(queries, n_requests)
    expected = [frozen.predict(X) for X in requests]

    result = ExperimentResult(
        experiment="serving: monitoring overhead on in-process predict",
        columns=["configuration", "seconds", "points_per_sec", "relative"],
        metadata={
            "n_train": train.n_samples,
            "n_queries": len(queries),
            "n_requests": n_requests,
            "n_threads": n_threads,
            "scale": scale,
            "seed": seed,
            "monitor_interval": monitor_interval,
        },
    )

    labels_match = True
    timings = {"unmonitored": np.inf, "monitored": np.inf}
    services = {
        "unmonitored": ClusteringService(),
        "monitored": ClusteringService(),
    }
    monitored = services["monitored"]
    monitor = SystemMonitor(
        monitored.telemetry,
        interval=monitor_interval,
        slos=SloMonitor(
            [Objective(name="availability", objective=0.999)],
            telemetry=monitored.telemetry,
        ),
    )
    monitored.monitor = monitor
    try:
        for label, service in services.items():
            service.register("live", frozen)
            warm = [service.predict("live", X) for X in requests[:n_threads]]
            labels_match = labels_match and all(
                np.array_equal(got, want) for got, want in zip(warm, expected)
            )
        monitor.start()
        for _ in range(max(repeats, 1)):
            for label, service in services.items():
                timings[label] = min(
                    timings[label],
                    _drive_concurrent(
                        lambda X: service.predict("live", X), requests, n_threads
                    ),
                )
        monitor_samples = monitor.samples
        monitor_errors = monitor.errors
        series_names = monitored.telemetry.series.names()
    finally:
        for service in services.values():
            service.close()

    unmonitored_pps = len(queries) / max(timings["unmonitored"], 1e-9)
    for label in ("unmonitored", "monitored"):
        seconds = timings[label]
        pps = len(queries) / max(seconds, 1e-9)
        result.add_row(
            configuration=label,
            seconds=float(seconds),
            points_per_sec=float(pps),
            relative=float(pps / max(unmonitored_pps, 1e-9)),
        )

    result.metadata["labels_match"] = bool(labels_match)
    result.metadata["monitor_samples"] = int(monitor_samples)
    result.metadata["monitor_errors"] = int(monitor_errors)
    result.metadata["series_recorded"] = sorted(series_names)
    result.metadata["model_cells"] = frozen.n_cells
    return result
