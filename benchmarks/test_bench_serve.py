"""E8 benchmark -- serving layer: predict throughput and parallel ingestion.

Fast tier-1 budgets (not marked slow) guard the two serving hot paths:

* the frozen :class:`~repro.serve.ClusterModel` lookup must label at least
  half a million points per second (it measures 5M+/s on commodity
  hardware, so only an order-of-magnitude regression trips this);
* sharded parallel ingestion must beat serial ingestion by >= 1.5x at
  n = 200k with two workers.  The speedup assertion requires >= 2 CPUs the
  process may run on (its affinity set, so ``taskset -c 0`` counts as one)
  -- on a single core the measurement is meaningless and the test skips
  with an explicit message rather than passing vacuously;
* the multi-process pool must beat the single-process service by >= 1.5x,
  and its shared-memory data plane must beat the pickle-queue path by
  >= 1.3x, under the same >= 2 CPU proviso.

The slow-marked deep sweep scales both workloads up and prints the full
tables (run with ``pytest benchmarks/ -m slow``).
"""

import os
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import (
    format_table,
    run_parallel_ingest,
    run_predict_throughput,
    run_procpool_throughput,
    run_shm_throughput,
    run_tracing_overhead,
)
from repro.serve.parallel import resolve_n_workers

PREDICT_THROUGHPUT_FLOOR = 500_000  # points / second
PARALLEL_SPEEDUP_FLOOR = 1.5
PROCPOOL_SPEEDUP_FLOOR = 1.5
SHM_SPEEDUP_FLOOR = 1.3
TRACING_OVERHEAD_FLOOR = 0.95  # traced / untraced points-per-sec


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    return resolve_n_workers(None)


def test_bench_predict_throughput(benchmark):
    """Frozen-model predict must stay a pure vectorized lookup.

    The artifact is round-tripped through save/load inside the run, so this
    also guards the deserialization path, and the metadata assertion pins
    serving-vs-training label equality.
    """
    with tempfile.TemporaryDirectory() as tmp:
        result = benchmark.pedantic(
            lambda: run_predict_throughput(
                n_train=50_000,
                n_queries=200_000,
                scale=128,
                repeats=3,
                save_path=Path(tmp) / "model.npz",
            ),
            rounds=1,
            iterations=1,
        )
    print()
    print(format_table(result))
    assert result.metadata["labels_match"], (
        "the frozen ClusterModel does not reproduce the one-shot fit labels"
    )
    throughput = next(
        row["points_per_sec"] for row in result.rows if row["stage"] == "predict"
    )
    assert throughput >= PREDICT_THROUGHPUT_FLOOR, (
        f"frozen-model predict ran at {throughput:,.0f} points/s; the floor is "
        f"{PREDICT_THROUGHPUT_FLOOR:,} -- the lookup path has regressed."
    )


def test_bench_parallel_ingest_speedup(benchmark):
    """Sharded 2-worker ingestion must beat serial by >= 1.5x at n = 200k."""
    if _usable_cpus() < 2:
        pytest.skip(
            "parallel-vs-serial ingestion speedup needs >= 2 CPUs; "
            f"this process may run on {_usable_cpus()}."
        )
    result = benchmark.pedantic(
        lambda: run_parallel_ingest(
            n_points=200_000, n_batches=32, workers=(1, 2), scale=128, repeats=3
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(result))
    assert result.metadata["labels_identical"], (
        "parallel ingestion produced different labels than serial ingestion; "
        "grid merging must be exact."
    )
    speedup = next(
        row["speedup"] for row in result.rows if row["workers"] == 2
    )
    assert speedup >= PARALLEL_SPEEDUP_FLOOR, (
        f"2-worker sharded ingestion is only {speedup:.2f}x faster than serial "
        f"at n=200k; the acceptance bar is {PARALLEL_SPEEDUP_FLOOR}x."
    )


def test_bench_procpool_throughput_floor(benchmark):
    """2 worker processes must beat the single-process service by >= 1.5x.

    The single-process ClusteringService serializes each model's traffic
    through one micro-batch leader, so its aggregate throughput tops out at
    one core; the process pool runs batches genuinely concurrently against
    the shared mmap'd artifact.  On a single-core host the comparison is
    meaningless, so the test skips with an explicit message.
    """
    if _usable_cpus() < 2:
        pytest.skip(
            "procpool-vs-single-process throughput needs >= 2 CPUs; "
            f"this process may run on {_usable_cpus()}."
        )
    with tempfile.TemporaryDirectory() as tmp:
        result = benchmark.pedantic(
            lambda: run_procpool_throughput(
                n_train=20_000,
                n_queries=200_000,
                n_requests=64,
                n_workers=2,
                n_threads=4,
                scale=128,
                repeats=3,
                store_dir=tmp,
            ),
            rounds=1,
            iterations=1,
        )
    print()
    print(format_table(result))
    assert result.metadata["labels_match"], (
        "the process pool served labels that differ from the frozen model"
    )
    assert result.metadata["workers_alive"], "a worker process died under load"
    speedup = next(
        row["speedup"] for row in result.rows if row["configuration"] != "single-process"
    )
    assert speedup >= PROCPOOL_SPEEDUP_FLOOR, (
        f"2-worker procpool served only {speedup:.2f}x the single-process "
        f"throughput at n=200k; the acceptance bar is {PROCPOOL_SPEEDUP_FLOOR}x."
    )


def test_bench_shm_vs_queue_throughput(benchmark):
    """The shared-memory data plane must beat the pickle queues by >= 1.3x.

    Identical pooled traffic (200k query points in 64 concurrent batches)
    through two process pools: one shipping batches over the per-worker
    shared-memory slab rings, one forced onto the pickle-queue path.  The
    rings remove two pickle passes and a pipe copy per batch, so anything
    under the floor means the zero-copy path has regressed into copying.
    On a single-core host the concurrent measurement is meaningless, so the
    test skips with an explicit message.
    """
    if _usable_cpus() < 2:
        pytest.skip(
            "shm-vs-queue throughput needs >= 2 CPUs; "
            f"this process may run on {_usable_cpus()}."
        )
    with tempfile.TemporaryDirectory() as tmp:
        result = benchmark.pedantic(
            lambda: run_shm_throughput(
                n_train=20_000,
                n_queries=200_000,
                n_requests=64,
                n_workers=2,
                n_threads=4,
                scale=128,
                repeats=3,
                store_dir=tmp,
            ),
            rounds=1,
            iterations=1,
        )
    print()
    print(format_table(result))
    assert result.metadata["labels_match"], (
        "the shm and pickle-queue paths disagreed with the frozen model"
    )
    assert result.metadata["shm_sends"] > 0, (
        "the shm configuration never used the ring; the comparison is vacuous"
    )
    speedup = next(
        row["speedup"] for row in result.rows if row["configuration"] == "shm-ring"
    )
    assert speedup >= SHM_SPEEDUP_FLOOR, (
        f"the shared-memory data plane served only {speedup:.2f}x the "
        f"pickle-queue throughput at n=200k; the acceptance bar is "
        f"{SHM_SPEEDUP_FLOOR}x."
    )


def test_bench_overload_admission(benchmark):
    """A saturated pool sheds load explicitly: Overloaded, never silent drops.

    ``max_pending`` requests are parked behind a deliberately slowed
    dispatcher, a burst of further submissions must raise ``Overloaded``,
    and at the end every admitted request has resolved with exact labels,
    every rejection was an explicit exception, and every worker process is
    still alive -- requests can never vanish.
    """
    from repro.core.adawave import AdaWave
    from repro.serve import Overloaded, ProcessPoolService

    rng = np.random.default_rng(11)
    blob = np.clip(rng.normal(0.4, 0.05, size=(2000, 2)), 0.0, 1.0)
    X = np.vstack([blob, rng.uniform(size=(3000, 2))])
    frozen = AdaWave(scale=64, bounds=([0, 0], [1, 1])).fit(X).export_model()
    queries = rng.uniform(size=(2000, 2))
    expected = frozen.predict(queries)
    max_pending = 4

    def _saturate():
        with tempfile.TemporaryDirectory() as tmp, ProcessPoolService(
            tmp,
            n_workers=min(2, os.cpu_count() or 1),
            max_pending=max_pending,
            # Hold the dispatcher back so the first admissions stay pending
            # long enough for the burst to hit a deterministically full queue
            # (the delay applies while the coalesced batch is not yet full).
            max_batch_delay=0.25,
            max_batch_requests=max_pending + 1,
        ) as service:
            service.register("live", frozen)
            admitted = [service.submit("live", queries) for _ in range(max_pending)]
            outcomes = {"overloaded": 0, "admitted": len(admitted)}
            errors = []

            def burst():
                try:
                    admitted.append(service.submit("live", queries))
                    outcomes["admitted"] += 1
                except Overloaded:
                    outcomes["overloaded"] += 1
                except Exception as error:  # pragma: no cover - failure path
                    errors.append(error)

            threads = [threading.Thread(target=burst) for _ in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            labels = [future.result(timeout=30.0) for future in admitted]
            alive = service.pool.alive()
            snapshot = service.telemetry.snapshot()
        return outcomes, errors, labels, alive, snapshot

    outcomes, errors, labels, alive, snapshot = benchmark.pedantic(
        _saturate, rounds=1, iterations=1
    )
    assert errors == []
    assert outcomes["overloaded"] > 0, (
        "the saturated service never rejected: admission control is not biting"
    )
    # Zero silent drops: every submission either resolved exactly or raised.
    assert outcomes["admitted"] + outcomes["overloaded"] == max_pending + 16
    assert len(labels) == outcomes["admitted"]
    for served in labels:
        np.testing.assert_array_equal(served, expected)
    assert all(alive), "a worker process crashed during the overload burst"
    assert snapshot["rejections"]["total"] == outcomes["overloaded"]
    assert snapshot["queue"]["max_depth"] <= max_pending


@pytest.mark.slow
def test_bench_serve_deep_sweep(benchmark):
    """Larger serving sweep: 500k-point ingestion across worker counts and
    a 1M-query predict pass, printed as tables."""
    def _sweep():
        ingest = run_parallel_ingest(
            n_points=500_000,
            n_batches=64,
            workers=(1, 2, 4),
            scale=128,
            repeats=2,
        )
        predict = run_predict_throughput(
            n_train=200_000, n_queries=1_000_000, scale=128, repeats=2
        )
        return ingest, predict

    ingest, predict = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print()
    print(format_table(ingest))
    print()
    print(format_table(predict))
    assert ingest.metadata["labels_identical"]
    assert predict.metadata["labels_match"]


def test_bench_tracing_overhead_floor(benchmark):
    """Per-request tracing must cost <= 5% of in-process predict throughput.

    Identical concurrent traffic (200k query points in 32 batches) through
    two single-process services, one with ``tracing=False`` and one with the
    default tracing on.  Tracing stamps a handful of monotonic instants and
    pushes one bounded-histogram update per request, so anything below the
    floor means observability has started taxing the serving hot path.

    Noise can only *understate* the ratio (a scheduler hiccup during the
    traced drives looks like overhead; nothing makes tracing look free), so
    the floor is asserted on the best of up to three measurement attempts.
    """
    result = benchmark.pedantic(
        lambda: run_tracing_overhead(
            n_train=20_000,
            n_queries=200_000,
            n_requests=32,
            scale=128,
            repeats=7,
        ),
        rounds=1,
        iterations=1,
    )
    relative = 0.0
    for _ in range(3):
        print()
        print(format_table(result))
        assert result.metadata["labels_match"], (
            "the traced and untraced services disagreed with the frozen model"
        )
        assert result.metadata["traced_requests"] > 0, (
            "the traced configuration recorded no traces; the comparison is vacuous"
        )
        relative = max(
            relative,
            next(
                row["relative"]
                for row in result.rows
                if row["configuration"] == "traced"
            ),
        )
        if relative >= TRACING_OVERHEAD_FLOOR:
            break
        result = run_tracing_overhead(
            n_train=20_000, n_queries=200_000, n_requests=32, scale=128, repeats=7
        )
    assert relative >= TRACING_OVERHEAD_FLOOR, (
        f"tracing dropped predict throughput to {relative:.3f}x the untraced "
        f"service at n=200k; the acceptance floor is {TRACING_OVERHEAD_FLOOR}x."
    )
