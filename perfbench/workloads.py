"""Seeded workload inputs and the closed-loop sessions that drive the program.

Inputs are built here with numpy alone -- never through ``repro.datasets`` --
so a change to the program's dataset module cannot change a workload.  The
program only ever receives the generated arrays.

A session owns the program objects of one workload.  ``first_op`` is the cold
operation that ``setup_s`` times.  ``phases`` then lists the closed loop's
phases, each as (share of the run's seconds, round function, rounds per
cycle); the runner takes them in turn, and a round performs its operations
one after another from the single calling thread.  Every operation goes through the ``timed`` callable the
runner passes in, and every result is checked before the next operation
starts.  This module imports
``repro`` only inside the session constructors, so a fresh process can time
``import repro`` on its own.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

NOISE = -1

#: Operation kinds every workload performs.  Each has an ``<kind>_ms_p50`` and
#: ``<kind>_ms_tail`` end-to-end metric.
OP_KINDS = ("fit", "ingest", "predict")

#: Share of every stream-drift segment spent in the ingest/predict stream;
#: the window fits take the rest.  The stream gets most of it because its
#: tail needs the re-tunes of several whole cycles.
STREAM_SHARE = 0.75


class CheckFailed(AssertionError):
    """An operation returned an output that differs from the expected one."""


# -- input generation (numpy only) ---------------------------------------------


def _segment(rng, n, start, end, width):
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    direction = end - start
    normal = np.array([-direction[1], direction[0]]) / np.linalg.norm(direction)
    along = rng.uniform(0.0, 1.0, size=(n, 1))
    return start + along * direction + rng.normal(scale=width, size=(n, 1)) * normal


def _ring(rng, n, center, radius, width):
    angle = rng.uniform(0.0, 2.0 * np.pi, size=n)
    r = radius + rng.normal(scale=width, size=n)
    return np.column_stack([center[0] + r * np.cos(angle), center[1] + r * np.sin(angle)])


def _ellipse(rng, n, center, axes, angle):
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    return (rng.normal(size=(n, 2)) * np.asarray(axes)) @ rot.T + np.asarray(center)


def five_clusters(rng, n_total: int, noise: float, offset=(0.0, 0.0)):
    """The paper's Fig. 1 layout in [0, 1]^2 plus uniform noise, shuffled.

    Of ``n_total`` points, ``noise`` are uniform noise; an ellipse, two
    nested rings and two parallel segments share the rest.  Clusters are
    shifted by ``offset`` and clipped to the unit square.
    """
    n_clustered = int(round(n_total * (1.0 - noise)))
    sizes = np.full(5, n_clustered // 5)
    sizes[: n_clustered % 5] += 1
    parts = [
        _ellipse(rng, sizes[0], (0.20, 0.78), (0.050, 0.016), 0.5),
        _ring(rng, sizes[1], (0.58, 0.42), 0.150, 0.010),
        _ring(rng, sizes[2], (0.58, 0.42), 0.055, 0.010),
        _segment(rng, sizes[3], (0.08, 0.10), (0.35, 0.32), 0.005),
        _segment(rng, sizes[4], (0.14, 0.05), (0.41, 0.27), 0.005),
    ]
    clustered = np.clip(np.vstack(parts) + np.asarray(offset), 0.0, 1.0)
    n_noise = n_total - n_clustered
    points = np.vstack([clustered, rng.uniform(0.0, 1.0, size=(n_noise, 2))])
    labels = np.concatenate([np.repeat(np.arange(5), sizes), np.full(n_noise, NOISE)])
    order = rng.permutation(len(points))
    return points[order], labels[order]


#: Centres of :func:`four_blobs`' clusters in [0, 1]^4.
BLOB_CENTERS = (
    (0.25, 0.25, 0.25, 0.25),
    (0.75, 0.75, 0.25, 0.25),
    (0.25, 0.75, 0.75, 0.75),
    (0.75, 0.25, 0.75, 0.50),
)


def four_blobs(rng, n_total: int, noise: float, sigma: float = 0.05):
    """Four Gaussian blobs in [0, 1]^4 plus uniform noise, shuffled.

    Of ``n_total`` points, ``noise`` are uniform noise; the blobs, of
    standard deviation ``sigma`` around :data:`BLOB_CENTERS` and clipped to
    the unit cube, share the rest.
    """
    n_clustered = int(round(n_total * (1.0 - noise)))
    sizes = np.full(len(BLOB_CENTERS), n_clustered // len(BLOB_CENTERS))
    sizes[: n_clustered % len(BLOB_CENTERS)] += 1
    centers = np.repeat(np.asarray(BLOB_CENTERS), sizes, axis=0)
    clustered = np.clip(centers + rng.normal(scale=sigma, size=centers.shape), 0.0, 1.0)
    n_noise = n_total - n_clustered
    points = np.vstack([clustered, rng.uniform(0.0, 1.0, size=(n_noise, 4))])
    labels = np.concatenate([np.repeat(np.arange(len(sizes)), sizes), np.full(n_noise, NOISE)])
    order = rng.permutation(len(points))
    return points[order], labels[order]


def occupied_cells(points: np.ndarray, scale: int) -> int:
    """Occupied cells of a ``scale``-per-axis grid over the data's own box."""
    lower = points.min(axis=0)
    span = np.where(points.max(axis=0) > lower, points.max(axis=0) - lower, 1.0)
    cells = np.minimum(((points - lower) / (span * (1 + 1e-9)) * scale).astype(np.int64), scale - 1)
    codes = np.ravel_multi_index(tuple(cells.T), (scale,) * points.shape[1])
    return int(len(np.unique(codes)))


@dataclass
class Inputs:
    """Everything one workload run feeds the program, built from one seed."""

    workload: str
    arrays: Dict[str, np.ndarray]
    params: Dict[str, object]
    properties: Dict[str, object] = field(default_factory=dict)


# Sizes: "full" is the benchmark; "tiny" keeps the smoke test fast.
SIZES = {
    "fit-2d-points": {"full": dict(n=1_000_000), "tiny": dict(n=20_000)},
    "fit-4d-grid": {"full": dict(n=200_000), "tiny": dict(n=20_000)},
    "stream-drift": {
        "full": dict(batches=40, batch=15_000, query=20_000),
        "tiny": dict(batches=8, batch=2_000, query=1_000),
    },
}

WORKLOADS = tuple(SIZES)

#: The fit workloads' layout generator and grid scale.
FIT_LAYOUTS = {"fit-2d-points": (five_clusters, 128), "fit-4d-grid": (four_blobs, 32)}


def make_inputs(workload: str, seed: int, size: str = "full") -> Inputs:
    """Build the inputs of ``workload`` from ``seed`` (same seed, same arrays)."""
    spec = SIZES[workload][size]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "stream-drift":
        return _stream_inputs(rng, spec)
    layout, scale = FIT_LAYOUTS[workload]
    X, y = layout(rng, spec["n"], 0.75)
    props = dict(
        n=len(X),
        d=X.shape[1],
        occupied_cells=occupied_cells(X, scale),
        true_cluster_share=round(float(np.mean(y != NOISE)), 4),
    )
    return Inputs(workload, dict(X=X, y=y), dict(scale=scale, ingest_chunks=8), props)


def _stream_inputs(rng, spec) -> Inputs:
    """A drifting 2-D stream: the phase walks 0 -> 1 -> 0 over one cycle.

    Batch ``k`` shifts the Fig. 1 layout by ``phase * (0.15, 0.10)`` while
    the noise share rises from 30% to 75% with the phase.  Each batch has the
    same size; two held-out query sets of the same phase go with it.
    """
    n_batches, batch, query = spec["batches"], spec["batch"], spec["query"]
    half = n_batches // 2
    batches, queries, query_labels = [], [], []
    for k in range(n_batches):
        phase = 1.0 - abs(1.0 - k / half)
        noise = 0.30 + 0.45 * phase
        offset = (0.15 * phase, 0.10 * phase)
        batches.append(five_clusters(rng, batch, noise, offset)[0])
        pair = [five_clusters(rng, query, noise, offset) for _ in range(2)]
        queries.append([q for q, _ in pair])
        query_labels.append([lab for _, lab in pair])
    arrays = dict(
        batches=np.stack(batches),
        queries=np.stack([np.stack(q) for q in queries]),
        query_labels=np.stack([np.stack(lab) for lab in query_labels]),
    )
    props = dict(
        n=n_batches * batch,
        d=2,
        batches_per_cycle=n_batches,
        batch_points=batch,
        occupied_cells=occupied_cells(np.vstack(batches), 256),
        true_cluster_share=round(float(np.mean(arrays["query_labels"] != NOISE)), 4),
        query_points=query,
    )
    params = dict(window=4, base_scale=256, fit_scale=128)
    return Inputs("stream-drift", arrays, params, props)


# -- sessions ------------------------------------------------------------------

Timed = Callable[..., object]


def _digest(labels: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(labels).tobytes()).hexdigest()


def _check_labels(labels, n: int, what: str) -> None:
    if not isinstance(labels, np.ndarray) or labels.shape != (n,):
        raise CheckFailed(f"{what} returned {getattr(labels, 'shape', type(labels))}, not ({n},) labels")


class FitSession:
    """One-shot fits on a large batch, with the two checks users rely on.

    A round is three operations on the whole input: an ``AdaWave.fit``
    (``fit``); the same points streamed through ``partial_fit`` in
    ``ingest_chunks`` batches and finalized, against the fit's bounds
    (``ingest``); and ``export_model().predict`` of the fit input
    (``predict``).  Both must return the fit's labels bit for bit.
    """

    #: Rounds a traced run counts twice to check the counts repeat.
    count_rounds = 2
    #: Rounds the tracemalloc pass covers.
    memory_rounds = 1

    def __init__(self, inputs: Inputs) -> None:
        from repro import AdaWave

        self._AdaWave = AdaWave
        self.X = inputs.arrays["X"]
        self.y = inputs.arrays["y"]
        self.scale = inputs.params["scale"]
        self.chunks = np.array_split(self.X, inputs.params["ingest_chunks"])
        self.bounds = (self.X.min(axis=0), self.X.max(axis=0))
        self.labels: Optional[np.ndarray] = None
        self.model = None
        self.phases = ((1.0, self.run_round, 1),)

    def first_op(self):
        self.model = self._AdaWave(scale=self.scale).fit(self.X)
        return self.model

    def verify_first(self) -> None:
        """Pin the first fit's labels as the reference of every later check."""
        self.labels = self.model.labels_
        _check_labels(self.labels, len(self.X), "fit")

    def streamed_fit(self) -> np.ndarray:
        model = self._AdaWave(scale=self.scale, bounds=self.bounds)
        for chunk in self.chunks:
            model.partial_fit(chunk)
        return model.finalize().labels_

    def run_round(self, r: int, timed: Timed) -> None:
        model = timed("fit", self._AdaWave(scale=self.scale).fit, self.X)
        if not np.array_equal(model.labels_, self.labels):
            raise CheckFailed(f"fit {r} labels differ from the first fit's")
        if not np.array_equal(timed("ingest", self.streamed_fit), self.labels):
            raise CheckFailed(f"streamed partial_fit {r} labels differ from the one-shot fit")
        frozen = model.export_model()
        if not np.array_equal(timed("predict", frozen.predict, self.X), self.labels):
            raise CheckFailed(f"export_model().predict(X) {r} differs from labels_")

    def ami(self) -> float:
        from repro.metrics import ami_on_true_clusters

        return float(ami_on_true_clusters(self.y, self.labels))

    def close(self) -> None:
        pass


class StreamSession:
    """A ``StreamController`` fed a drifting stream, with predicts between ingests.

    The warm-up publish ingests batch 0.  Stream round ``r`` then ingests
    batch ``r + 1`` (mod the cycle) and sends two held-out predict requests
    of that phase through the controller's service.  A second phase, run
    between stretches of the stream, fits ``AdaWave`` from scratch on the raw
    points of each ``window``-batch window the controller holds in turn --
    the batch alternative to the incremental control plane.
    """

    def __init__(self, inputs: Inputs) -> None:
        from repro import AdaWave, StreamController

        self._AdaWave = AdaWave
        self.batches = inputs.arrays["batches"]
        self.queries = inputs.arrays["queries"]
        self.query_truth = inputs.arrays["query_labels"]
        self.window = inputs.params["window"]
        self.fit_scale = inputs.params["fit_scale"]
        self.cycle = self.count_rounds = self.memory_rounds = len(self.batches)
        self.controller = StreamController(
            "live",
            ([0.0, 0.0], [1.0, 1.0]),
            2,
            base_scale=inputs.params["base_scale"],
            warmup=self.batches.shape[1],
            check_every=1,
            window=self.window,
        )
        self.fit_digests: Dict[int, str] = {}
        #: Served labels and truth of the first cycle, scored by :meth:`ami`.
        self.served: List[tuple] = []
        self.retunes_at: List[int] = []
        self.phases = (
            (STREAM_SHARE, self.run_round, self.cycle),
            (1.0 - STREAM_SHARE, self.window_fit, self.cycle),
        )

    def first_op(self):
        self.controller.ingest(self.batches[0])
        if self.controller.model_ is None:
            raise CheckFailed("warm-up ingest did not publish a model")
        return self.controller

    def verify_first(self) -> None:
        """Nothing to pin: ``first_op`` already checked the warm-up publish."""

    def run_round(self, r: int, timed: Timed) -> None:
        k = (r + 1) % self.cycle
        if r % self.cycle == 0:
            self.retunes_at.append(self.controller.n_retunes_)
        report = timed("ingest", self.controller.ingest, self.batches[k])
        if report is None:
            raise CheckFailed(f"ingest {r} ran no drift check")
        for j in range(2):
            labels = timed("predict", self.controller.predict, self.queries[k, j])
            _check_labels(labels, self.queries.shape[2], "predict")
            if r < self.cycle:
                self.served.append((labels, self.query_truth[k, j]))

    def window_fit(self, r: int, timed: Timed) -> None:
        """Fit the window of batches ``k - window + 1 .. k`` (mod the cycle)."""
        k = r % self.cycle
        points = np.concatenate([self.batches[(k - i) % self.cycle] for i in range(self.window)])
        model = timed("fit", self._AdaWave(scale=self.fit_scale).fit, points)
        _check_labels(model.labels_, len(points), "fit")
        digest = _digest(model.labels_)
        if self.fit_digests.setdefault(k, digest) != digest:
            raise CheckFailed(f"window fit {r} labels differ from the same window's earlier fit")

    def retunes_per_cycle(self) -> Optional[int]:
        if len(self.retunes_at) < 2:
            return None
        return self.retunes_at[1] - self.retunes_at[0]

    def ami(self) -> float:
        from repro.metrics import ami_on_true_clusters

        scores = [ami_on_true_clusters(t, p) for p, t in self.served]
        return float(np.mean(scores)) if scores else 0.0

    def close(self) -> None:
        self.controller.close()


def make_session(inputs: Inputs):
    return StreamSession(inputs) if inputs.workload == "stream-drift" else FitSession(inputs)
