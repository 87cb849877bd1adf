"""Outside-in layer tracing: wrap each layer's public entry point from here.

Nothing in ``src/`` records spans.  :func:`install` replaces each entry point
by a wrapper, on the class for methods and, for functions, in the module
namespace where the caller looks the name up (``from x import f`` binds ``f``
in the caller's module, so that is the binding that must change).  A wrapper
opens a span only while the tracer is enabled and an operation is open;
otherwise it costs one attribute test.

A span records its name, start, end, parent span and op id.  Spans stay in
memory and are written out when the run ends.  A span's self time is its
duration minus the time its child spans cover; the op's own root span keeps
the time no layer span covers.  Counts are taken at the same boundaries, from
the arguments and results, only while ``counting`` is on.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

#: Per-layer time metrics: metric name -> the public entry point it wraps.
LAYER_TARGETS = {
    "grid.quantize": "GridQuantizer.fit_transform",
    "grid.label": "LookupTable.label_points_from_arrays (its CellLabelIndex lookup included)",
    "grid.line_gather": "SparseGrid.line_matrix",
    "core.transform": "wavelet_smooth_grid, as repro.core.pipeline calls it",
    "wavelets.kernel": "repro.core.transform.approx_lines",
    "core.threshold": "select_threshold, as repro.core.pipeline calls it",
    "core.extract": "extract_clusters, as repro.core.pipeline calls it",
    "grid.components": "label_components_array, as repro.core.pipeline calls it",
    "core.pipeline": "run_grid_pipeline, as repro.core.adawave / stream.drift / tune.sweep call it",
    "stream.sketch_ingest": "StreamSketch.ingest",
    "stream.drift_check": "DriftMonitor.assess and DriftMonitor.rebase",
    "grid.coarsen": "SparseGrid.coarsen",
    "grid.consolidate": "SparseGrid._consolidate (the fold of pending cell additions) outside other layers",
    "tune.sweep": "tune_pyramid, as repro.stream.controller calls it",
    "serve.swap": "ClusteringService.swap",
    "grid.lookup_predict": "CellLabelIndex.lookup under ClusterModel.predict",
    "grid.lookup_drift": "CellLabelIndex.lookup under the drift monitor",
    "grid.lookup_tune": "CellLabelIndex.lookup under the tune sweep",
    "grid.quantize_mask": "GridQuantizer.transform_with_mask",
    "serve.model_predict": "ClusterModel.predict",
    "serve.service": "ClusteringService.predict",
    "serve.telemetry": "Telemetry.record_predict / record_trace / record_swap / record_stage / record_drift_check",
}

COUNT_NAMES = (
    "grid.points",
    "grid.occupied_cells",
    "grid.lines",
    "core.transformed_cells",
    "core.survivor_cells",
    "core.clusters",
    "tune.candidates",
    "tune.sweeps",
    "stream.checks",
    "stream.retunes",
    "stream.changed",
    "serve.requests",
    "serve.swaps",
    "serve.failed",
)

_LOOKUP_BY_PARENT = {
    "serve.model_predict": "grid.lookup_predict",
    "stream.drift_check": "grid.lookup_drift",
    "tune.sweep": "grid.lookup_tune",
    # The fit's own labelling pass: its lookup stays in grid.label.
    "grid.label": None,
}


class Tracer:
    """Span stack, per-(op kind, layer) self times and counts of one run."""

    def __init__(self) -> None:
        self.enabled = False
        self.counting = False
        self.counts: Counter = Counter()
        self.self_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.spans: List[tuple] = []
        #: The model the next counted swap replaces (set by the runner first).
        self.last_swapped = None
        self._stack: List[list] = []
        self._next_id = 0
        self._op_id = 0
        self._op_kind = ""

    # -- spans -------------------------------------------------------------------

    @property
    def parent(self) -> Optional[str]:
        return self._stack[-1][0] if self._stack else None

    def enter(self, name: str) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        # [name, start, seconds covered by children, span id, parent id]
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id, parent])
        self._next_id += 1

    def exit(self) -> float:
        end = time.perf_counter()
        name, start, child, span_id, parent = self._stack.pop()
        duration = end - start
        self.self_s[(self._op_kind, name)] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        self.spans.append((span_id, name, start, end, parent, self._op_id))
        return duration

    def op(self, kind: str, fn: Callable, *args):
        """Run one operation under a root span ``op.<kind>``; returns (result, seconds)."""
        self._op_id += 1
        self._op_kind = kind
        self.enter("op." + kind)
        try:
            result = fn(*args)
        finally:
            seconds = self.exit()
        return result, seconds

    def dump(self, path) -> None:
        """Write the recorded spans as JSON lines."""
        keys = ("id", "name", "start", "end", "parent", "op")
        with open(path, "w") as handle:
            for span in sorted(self.spans):
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")

    # -- wrapping ----------------------------------------------------------------

    def wrap(
        self,
        name: Union[str, Callable[[Optional[str]], Optional[str]]],
        fn: Callable,
        count: Optional[Callable] = None,
        failed: Optional[str] = None,
    ) -> Callable:
        """A traced stand-in for ``fn``; ``name`` may depend on the parent span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not (tracer.enabled and tracer._stack):
                return fn(*args, **kwargs)
            span = name(tracer.parent) if callable(name) else name
            if span is None:
                return fn(*args, **kwargs)
            tracer.enter(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if failed is not None and tracer.counting:
                    _add(tracer, failed, 1)
                raise
            finally:
                tracer.exit()
            if count is not None and tracer.counting:
                count(tracer, args, kwargs, result)
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced


def _add(tracer: Tracer, key: str, value: int) -> None:
    tracer.counts[key] += int(value)


def _swap_count(tracer: Tracer, args, kwargs, result) -> None:
    """Count a swap, and whether the published cell map differs from the last."""
    model = args[2]
    previous, tracer.last_swapped = tracer.last_swapped, model
    _add(tracer, "serve.swaps", 1)
    _add(tracer, "stream.retunes", 1)
    changed = previous is None or not (
        previous.grid_shape == model.grid_shape
        and previous.level == model.level
        and np.array_equal(previous.cell_coords, model.cell_coords)
        and np.array_equal(previous.cell_labels, model.cell_labels)
    )
    _add(tracer, "stream.changed", changed)


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the already imported ``repro`` package."""
    import repro.core.adawave as adawave
    import repro.core.pipeline as pipeline
    import repro.core.transform as transform
    import repro.stream.controller as controller
    import repro.stream.drift as drift
    import repro.tune.sweep as sweep
    from repro.grid.lookup import CellLabelIndex, LookupTable
    from repro.grid.quantizer import GridQuantizer
    from repro.grid.sparse_grid import SparseGrid
    from repro.serve.metrics import Telemetry
    from repro.serve.model import ClusterModel
    from repro.serve.service import ClusteringService
    from repro.stream.drift import DriftMonitor
    from repro.stream.sketch import StreamSketch

    def patch(owner, attr, name, count=None, failed=None):
        original = getattr(owner, attr)
        if getattr(original, "__wrapped_by_perfbench__", False):
            raise RuntimeError(f"{owner.__name__}.{attr} is already traced")
        setattr(owner, attr, tracer.wrap(name, original, count, failed))

    def points(t, args, kwargs, result):
        _add(t, "grid.points", len(args[1]))

    def pipeline_count(t, args, kwargs, result):
        _add(t, "grid.occupied_cells", args[0].n_occupied)
        _add(t, "core.clusters", result.n_clusters)

    patch(GridQuantizer, "fit_transform", "grid.quantize", points)
    patch(GridQuantizer, "transform_with_mask", "grid.quantize_mask", points)
    patch(StreamSketch, "ingest", "stream.sketch_ingest", points)
    patch(LookupTable, "label_points_from_arrays", "grid.label")
    patch(
        SparseGrid, "line_matrix", "grid.line_gather",
        lambda t, a, k, r: _add(t, "grid.lines", len(r[0])),
    )
    patch(SparseGrid, "coarsen", "grid.coarsen")
    # Inside quantize or transform the fold is part of that layer's work; a
    # span of its own only where an op calls it directly (a streamed pass's
    # finalize folding every ingested batch).
    patch(
        SparseGrid, "_consolidate",
        lambda parent: "grid.consolidate" if parent.startswith("op.") else None,
    )
    patch(
        CellLabelIndex, "lookup",
        lambda parent: _LOOKUP_BY_PARENT.get(parent, "grid.lookup_" + str(parent)),
    )
    patch(
        pipeline, "wavelet_smooth_grid", "core.transform",
        lambda t, a, k, r: _add(t, "core.transformed_cells", r[0].n_occupied),
    )
    patch(transform, "approx_lines", "wavelets.kernel")
    patch(pipeline, "select_threshold", "core.threshold")
    patch(
        pipeline, "extract_clusters", "core.extract",
        lambda t, a, k, r: _add(t, "core.survivor_cells", len(r[0])),
    )
    patch(pipeline, "label_components_array", "grid.components")
    for module in (adawave, drift, sweep):
        patch(module, "run_grid_pipeline", "core.pipeline", pipeline_count)
    patch(
        DriftMonitor, "assess", "stream.drift_check",
        lambda t, a, k, r: _add(t, "stream.checks", 1),
    )
    patch(DriftMonitor, "rebase", "stream.drift_check")
    patch(
        controller, "tune_pyramid", "tune.sweep",
        lambda t, a, k, r: (_add(t, "tune.sweeps", 1), _add(t, "tune.candidates", len(r.scores))),
    )
    patch(ClusteringService, "swap", "serve.swap", _swap_count)
    patch(ClusterModel, "predict", "serve.model_predict")
    patch(
        ClusteringService, "predict", "serve.service",
        lambda t, a, k, r: _add(t, "serve.requests", 1), failed="serve.failed",
    )
    for method in ("record_predict", "record_trace", "record_swap", "record_stage", "record_drift_check"):
        patch(Telemetry, method, "serve.telemetry")

