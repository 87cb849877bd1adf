"""Sharded parallel ingestion for streaming AdaWave.

The quantized grid is an associative, commutative sketch: quantizing two
shards of a dataset on two workers and merging the resulting grids produces
*exactly* the grid a single pass over the whole dataset would have produced
(the streaming tests pin this down).  That makes ingestion embarrassingly
parallel -- each worker quantizes its contiguous slice of the batch list into
a private estimator (the calling thread takes the first slice), the shard
streams are reduced with :meth:`AdaWave.merge_stream`, and one
:meth:`AdaWave.finalize` runs the cheap grid-side stages.

The shards run on a :class:`~concurrent.futures.ThreadPoolExecutor`: the
hot ingestion ops (array copy, floor-divide quantization, the consolidation
argsort) are numpy calls that release the GIL, but the Python code between
them holds it, and one :meth:`AdaWave.partial_fit` per batch (validation,
bounds check, per-axis encode: a dozen short calls) would make the shard
threads take turns at the GIL.  So a worker quantizes its whole shard in
one vectorised pass.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence

import numpy as np

from repro.core.adawave import AdaWave


def resolve_n_workers(n_workers: Optional[int], *, n_tasks: Optional[int] = None) -> int:
    """Validated worker count, defaulting to the CPUs this process may use.

    ``None`` resolves to the size of the process's CPU affinity set
    (``os.sched_getaffinity``; ``os.cpu_count()`` where the OS has none),
    capped by ``n_tasks`` when given; explicit counts below one are
    rejected.  Shared by :func:`parallel_ingest` and the multi-process
    serving pool so the two tiers size themselves identically.
    """
    if n_workers is None:
        if hasattr(os, "sched_getaffinity"):
            n_workers = len(os.sched_getaffinity(0))
        else:
            n_workers = os.cpu_count() or 1
        if n_tasks is not None:
            n_workers = min(n_workers, n_tasks)
    n_workers = int(n_workers)
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1; got {n_workers}.")
    return n_workers


def _shard_batches(batches: List[np.ndarray], n_workers: int) -> List[List[np.ndarray]]:
    """Split the batch list into up to ``n_workers`` contiguous, non-empty shards.

    Contiguous (rather than round-robin) sharding keeps the concatenation
    order of any per-point state identical to a serial pass, so non
    lookup-only parallel ingestion still reproduces serial ``labels_``
    ordering exactly.
    """
    n_shards = min(n_workers, len(batches))
    bounds_ix = np.linspace(0, len(batches), n_shards + 1).astype(int)
    return [
        batches[lo:hi] for lo, hi in zip(bounds_ix[:-1], bounds_ix[1:]) if hi > lo
    ]


def _ingest_shard(adawave_params: dict, shard: List[np.ndarray]) -> AdaWave:
    """Worker body: quantize one shard into a private estimator in one pass.

    Per-batch :meth:`AdaWave.partial_fit` calls hold the GIL between their
    numpy ops, so the worker concatenates the shard's batches (a copy of its
    rows) and quantizes them in one vectorised pass instead.  The sketch is
    associative, so this is exact: one pass over the rows in batch order
    yields the grid, ``n_seen_`` and per-point code order of the batch loop.
    A shard the one pass rejects -- a 1-D batch, batches of different
    widths, a NaN, a point outside the bounds -- is replayed batch by batch,
    so the error raised is the one ``partial_fit`` raises for the first
    offending batch.

    The final ``n_occupied`` touch forces the sketch consolidation (the sort
    over the shard's cells) to run *inside* the worker, where it
    parallelises, rather than lazily during the single-threaded merge.
    """
    try:
        estimator = AdaWave(**adawave_params).partial_fit(np.concatenate(shard))
    except ValueError:
        estimator = None
    if estimator is None:
        # The batch loop is the reference: it raises the per-batch error
        # (outside the except block, so without numpy's error chained to
        # it) or ingests what only concatenation rejects, such as an empty
        # batch of another width.
        estimator = AdaWave(**adawave_params)
        for batch in shard:
            estimator.partial_fit(batch)
    if estimator._sketch is not None:
        estimator._sketch.grid.n_occupied
    return estimator


def parallel_ingest(
    batches: Sequence[np.ndarray],
    *,
    bounds,
    n_workers: Optional[int] = None,
    finalize: bool = True,
    lookup_only: bool = True,
    **adawave_params,
) -> AdaWave:
    """Ingest ``batches`` through sharded worker threads into one AdaWave estimator.

    Parameters
    ----------
    batches:
        Sequence of ``(n_i, d)`` sample batches (any sizes, at least one
        non-empty sample overall).
    bounds:
        Explicit ``(lower, upper)`` quantization bounds, as required by
        streaming ingestion -- every shard must quantize identically.
    n_workers:
        Worker count, the calling thread included; defaults to the host CPU
        count capped by the number of batches.  ``1`` ingests on the calling
        thread alone (no pool).
    finalize:
        Run :meth:`AdaWave.finalize` on the merged stream before returning.
        Pass ``False`` to keep ingesting into the returned estimator.
    lookup_only:
        Forwarded to :class:`AdaWave`; the default ``True`` keeps no
        per-point state, making ingestion memory ``O(occupied cells)``.
        With ``False``, per-point labels come out in the serial
        batch-concatenation order.
    **adawave_params:
        Remaining :class:`AdaWave` constructor arguments (``scale``,
        ``wavelet``, ``level``, ...).

    Returns
    -------
    AdaWave
        The merged (and, by default, finalized) estimator; freeze it with
        :meth:`AdaWave.export_model` to serve it.
    """
    batches = [np.asarray(batch, dtype=np.float64) for batch in batches]
    if not batches:
        raise ValueError("parallel_ingest received no batches.")
    params = dict(adawave_params)
    params["bounds"] = bounds
    params["lookup_only"] = lookup_only
    n_workers = resolve_n_workers(n_workers, n_tasks=len(batches))

    shards = _shard_batches(batches, n_workers)
    if len(shards) <= 1 or n_workers == 1:
        merged = _ingest_shard(params, batches)
    else:
        with ThreadPoolExecutor(max_workers=len(shards) - 1) as pool:
            workers = [pool.submit(_ingest_shard, params, shard) for shard in shards[1:]]
            # The calling thread takes the first shard rather than idle.
            estimators = [_ingest_shard(params, shards[0])]
            estimators += [worker.result() for worker in workers]
        # Reduce in shard order so any per-point state stays serially ordered.
        merged = estimators[0]
        for estimator in estimators[1:]:
            merged.merge_stream(estimator)
    if merged.n_seen_ == 0:
        raise ValueError("parallel_ingest received no non-empty batches.")
    if finalize:
        merged.finalize()
    return merged
