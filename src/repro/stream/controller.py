"""The drift-aware online control plane: ingest -> detect -> re-tune -> swap.

:class:`StreamController` closes the loop the rest of the repo leaves open:
batches flow into a fine-resolution :class:`~repro.stream.StreamSketch`, a
:class:`~repro.stream.DriftMonitor` checks the live sketch against the
currently served model on a cadence, and a confirmed drift triggers an
*incremental re-tune* -- :func:`repro.tune.tune_pyramid` re-run straight
from the live sketch.  The expensive part of a fit is the pass over the
points; the sketch already holds that quantization, so a re-tune is just
``S`` ``O(cells)`` grid-side passes plus the model freeze -- never a refit.

Publication goes through the blue/green
:meth:`~repro.serve.ModelRegistry.swap`: the new model is registered under a
fresh version name and the serving alias is rebound atomically, so
``predict`` traffic running concurrently with a re-tune never observes a
missing or torn model (in-flight micro-batches finish against the version
they started with).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs.slo import fire_contained
from repro.obs.trace import Trace, new_trace_id
from repro.serve.metrics import Telemetry
from repro.serve.model import ClusterModel
from repro.serve.service import ClusteringService
from repro.stream.drift import DriftMonitor, DriftReport
from repro.stream.sketch import StreamSketch
from repro.tune.pyramid import default_base_scale, is_power_of_two
from repro.tune.select import tune_pyramid
from repro.utils.validation import NotFittedError, check_positive_int


class StreamController:
    """Drift-aware online clustering: one name, always served, self re-tuning.

    Parameters
    ----------
    name:
        Serving name the live model is published under (the registry alias
        the blue/green swaps rebind).
    bounds:
        Explicit ``(lower, upper)`` feature-space bounds of the stream.
    n_features:
        Dimensionality of the stream.
    service:
        Optional externally managed :class:`~repro.serve.ClusteringService`;
        a private one is created (and owned, i.e. closed by
        :meth:`close`) when omitted.
    base_scale:
        Power-of-two resolution the sketch ingests at; defaults to the
        tuning subsystem's per-dimensionality base
        (:func:`repro.tune.default_base_scale`) -- ingest fine, serve
        coarse.
    levels:
        Wavelet decomposition levels the re-tune sweep evaluates.
    warmup:
        Minimum ingested samples before the first model is published.
    check_every:
        Run a drift check every this many ingested batches (once a model is
        published).
    window:
        Optional sliding-window length in batches for the sketch: the last
        ``window`` batches carry full weight and older ones are dropped
        exactly, so after a shift the sketch converges to a pure sample of
        the new distribution without losing effective sample size.  ``None``
        accumulates the full history.
    decay:
        Optional per-batch exponential forgetting factor in ``(0, 1]``
        applied to the sketch before each batch -- the smooth alternative to
        ``window`` (recent batches dominate geometrically).  Decay trades
        effective sample size for recency; prefer ``window`` when batches
        are large enough to re-tune from.  ``None`` keeps every batch at
        full weight.
    monitor:
        Optional pre-configured :class:`DriftMonitor`; a default one using
        this controller's pipeline parameters is created when omitted.
    on_drift:
        Optional alert callback fired (with the :class:`DriftReport`) every
        time a drift check flags drift, before the re-tune runs.  Exceptions
        it raises are contained -- counted in telemetry and in
        ``callback_errors_`` -- and never propagate into the control loop.
    on_swap:
        Optional callback fired (with ``(version, model)``) after every
        blue/green publication, the warmup publish included.  Contained the
        same way as ``on_drift``.  Both callbacks run on the ingesting
        thread inside the control loop's lock: keep them quick, and never
        call back into the controller from one (hand off to a queue or
        thread instead).
    wavelet, threshold, threshold_method, connectivity, min_cluster_cells,
    angle_divisor:
        Grid-side pipeline parameters used by both the re-tune sweep and the
        drift monitor's fresh-partition pass.  ``wavelet`` may be a sequence
        and ``threshold`` may be ``"tune"``: both widen the re-tune sweep's
        axes (every re-tune re-picks the basis / level policy from the live
        sketch), and the winners are published in the swapped model's
        metadata (``wavelet`` / ``threshold_method``) so the monitor's fresh
        pass follows the served configuration.

    Attributes
    ----------
    telemetry:
        The :class:`~repro.serve.metrics.Telemetry` this controller reports
        into -- the service's own instance, so swap counts, drift-check
        history and contained callback errors all land in one
        ``telemetry.snapshot()``.
    callback_errors_:
        Contained exceptions raised by ``on_drift`` / ``on_swap`` so far.
    sketch:
        The live :class:`StreamSketch`.
    monitor:
        The :class:`DriftMonitor` watching it.
    service:
        The serving front door; :meth:`predict` delegates to it.
    model_:
        The most recently published :class:`~repro.serve.ClusterModel`.
    version_:
        Registry version name of the live model (``"<name>@v<k>"``).
    n_retunes_:
        Models published so far (the initial publish included).
    history_:
        The most recent :class:`DriftReport` results (bounded by
        ``history_limit`` so an always-on controller never accumulates
        unbounded state; ``n_checks_`` keeps the full count).
    """

    def __init__(
        self,
        name: str,
        bounds: Tuple[Sequence[float], Sequence[float]],
        n_features: int,
        *,
        service: Optional[ClusteringService] = None,
        base_scale: Optional[Union[int, Sequence[int]]] = None,
        levels: Sequence[int] = (1,),
        warmup: int = 1000,
        check_every: int = 1,
        window: Optional[int] = None,
        decay: Optional[float] = None,
        history_limit: int = 256,
        monitor: Optional[DriftMonitor] = None,
        on_drift: Optional[Callable[[DriftReport], None]] = None,
        on_swap: Optional[Callable[[str, ClusterModel], None]] = None,
        wavelet: str = "bior2.2",
        threshold="hard",
        threshold_method: str = "auto",
        connectivity: str = "auto",
        min_cluster_cells: int = 3,
        angle_divisor: float = 3.0,
    ) -> None:
        self.name = str(name)
        self._owns_service = service is None
        self.service = service if service is not None else ClusteringService()
        if base_scale is None:
            base_scale = default_base_scale(n_features)
        # The re-tune pyramid needs dyadically nesting resolutions; failing
        # here beats discovering it at the first publish, after a whole
        # warmup stream has been ingested.
        entries = (base_scale,) if np.isscalar(base_scale) else tuple(base_scale)
        if not all(is_power_of_two(int(s)) for s in entries):
            raise ValueError(
                f"base_scale must be a power of two per dimension (the "
                f"re-tune grid pyramid requires nesting dyadic resolutions); "
                f"got {base_scale!r}."
            )
        self.sketch = StreamSketch(
            bounds=bounds, scale=base_scale, n_features=n_features, window=window
        )
        self.levels = tuple(check_positive_int(lv, name="levels") for lv in levels)
        if not self.levels:
            raise ValueError("levels must contain at least one decomposition level.")
        self.warmup = check_positive_int(warmup, name="warmup")
        self.check_every = check_positive_int(check_every, name="check_every")
        if decay is not None:
            decay = float(decay)
            if not 0.0 < decay <= 1.0:
                raise ValueError(f"decay must be in (0, 1] or None; got {decay}.")
        self.decay = decay
        if not (isinstance(threshold, str) and threshold == "tune"):
            from repro.wavelets.thresholding import LevelPolicy

            LevelPolicy.parse(threshold)  # fail fast, before warmup is spent
        self._pipeline_params: Dict[str, object] = dict(
            wavelet=wavelet,
            threshold=threshold,
            threshold_method=threshold_method,
            connectivity=connectivity,
            min_cluster_cells=min_cluster_cells,
            angle_divisor=angle_divisor,
        )
        self.monitor = (
            monitor if monitor is not None else DriftMonitor(**self._pipeline_params)
        )
        self.on_drift = on_drift
        self.on_swap = on_swap
        # Share the service's telemetry so swap counts (recorded by
        # service.swap), drift history and callback errors read out of one
        # snapshot.
        self.telemetry: Telemetry = self.service.telemetry
        self.callback_errors_: int = 0
        self.model_: Optional[ClusterModel] = None
        self.version_: Optional[str] = None
        self.n_retunes_: int = 0
        self.n_checks_: int = 0
        self.history_: Deque[DriftReport] = deque(
            maxlen=check_positive_int(history_limit, name="history_limit")
        )
        self.last_report_: Optional[DriftReport] = None
        self.last_retune_seconds_: Optional[float] = None
        self._batches_since_check = 0
        # Batch count at which the settling re-tune is due.  A model re-tuned
        # the moment drift is flagged is built from a window that still mixes
        # pre- and post-shift batches; once the window has fully turned over
        # since the shift began (it began no later than one check interval
        # before the first flag), one more re-tune republishes from a clean
        # window.  Only meaningful for windowed sketches.
        self._resettle_at: Optional[int] = None
        # One writer mutates the sketch / publishes models at a time;
        # predict traffic goes through the service's own locks and is never
        # blocked by this.
        self._lock = threading.Lock()

    # -- online loop ------------------------------------------------------------

    def ingest(self, X_batch) -> Optional[DriftReport]:
        """Feed one batch through the control plane.

        Accumulates the batch into the sketch (after the optional decay),
        publishes the first model once ``warmup`` samples have arrived, and
        thereafter runs a drift check every ``check_every`` batches --
        re-tuning and hot-swapping the served model when drift is flagged.
        Returns the :class:`DriftReport` when a check ran, else ``None``.
        """
        with self._lock:
            if self.decay is not None:
                self.sketch.decay(self.decay)
            self.sketch.ingest(X_batch)
            if self.model_ is None:
                if self.sketch.n_seen >= self.warmup:
                    self._retune_locked()
                return None
            self._batches_since_check += 1
            if self._batches_since_check < self.check_every:
                return None
            self._batches_since_check = 0
            report = self.monitor.assess(self.sketch)
            self.n_checks_ += 1
            self.history_.append(report)
            self.last_report_ = report
            # Each drift check gets its own trace id so a check, the alert
            # it fired and the re-tune it triggered correlate across the
            # telemetry stream and the JSON logs.
            self.telemetry.record_drift_check(report, trace_id=new_trace_id())
            if report.drifted:
                self._fire(self.on_drift, "on_drift", report)
            settling_due = (
                self._resettle_at is not None
                and self.sketch.n_batches >= self._resettle_at
            )
            if report.drifted or settling_due:
                self._retune_locked()
                if settling_due:
                    # The window has fully turned over since the shift began;
                    # this re-tune came from a clean window, ending the
                    # episode (later drifts start a new one).
                    self._resettle_at = None
                elif self.sketch.window is not None and self._resettle_at is None:
                    self._resettle_at = (
                        self.sketch.n_batches - self.check_every + self.sketch.window
                    )
            return report

    def retune(self) -> ClusterModel:
        """Re-tune from the live sketch and hot-swap the served model now.

        The manual trigger for what a drifted check does automatically:
        re-run the grid-pyramid sweep over the sketch (one quantization
        already in hand), freeze the winner into a
        :class:`~repro.serve.ClusterModel` and publish it with an atomic
        blue/green swap.  Raises ``ValueError`` when the sketch is empty or
        every candidate resolution is degenerate.
        """
        with self._lock:
            return self._retune_locked()

    def _retune_locked(self) -> ClusterModel:
        if self.sketch.n_seen == 0:
            raise ValueError("cannot publish a model from an empty sketch.")
        trace = Trace()
        with trace.span("tune-sweep"):
            # The sweep coarsens its base grid in place along the pyramid;
            # give it a copy so the live sketch keeps accumulating
            # undisturbed.
            tune_result = tune_pyramid(
                self.sketch.grid.copy(), levels=self.levels, **self._pipeline_params
            )
        best = tune_result.best.candidate
        # The model is complete before it is published: workers that load it
        # from an artifact store see the metadata the in-process copy holds.
        metadata = {
            "n_seen": int(self.sketch.n_seen),
            "sketch_mass": float(self.sketch.total_mass()),
            "retune_index": self.n_retunes_,
            "tuning": tune_result.provenance(),
            "stage_seconds": dict(best.pipeline.stage_seconds),
            "retune_stage_seconds": trace.stage_seconds(),
            "wavelet": best.wavelet,
            "threshold_method": best.threshold_method,
        }
        with trace.span("publish"):
            model = ClusterModel(
                lower=self.sketch.lower,
                upper=self.sketch.upper,
                grid_shape=best.scale,
                level=best.pipeline.level,
                threshold=best.pipeline.threshold.threshold,
                cell_coords=best.pipeline.cell_coords,
                cell_labels=best.pipeline.cell_labels,
                n_clusters=best.n_clusters,
                metadata=metadata,
            )
            self.version_ = self.service.swap(self.name, model)
        # The control-plane stages feed the same per-stage histograms the
        # serving path fills, so one scrape shows where re-tunes spend their
        # time too.
        for stage, seconds in trace.stage_seconds().items():
            self.telemetry.record_stage(stage, seconds)
        self.model_ = model
        self.monitor.rebase(model, self.sketch)
        self.n_retunes_ += 1
        self._batches_since_check = 0
        self.last_retune_seconds_ = time.monotonic() - trace.started
        self._fire(self.on_swap, "on_swap", self.version_, model)
        return model

    def _fire(self, callback, where: str, *args) -> None:
        """Run a user alert callback, containing (and counting) any failure.

        User code must never be able to take the control loop down: a
        raising callback is recorded in telemetry (``callbacks`` in the
        snapshot) and in ``callback_errors_``, then ingestion continues.
        Shares :func:`repro.obs.slo.fire_contained` with the SLO alerting
        plane -- one containment idiom for every user hook.
        """
        if fire_contained(callback, where, self.telemetry, *args) is False:
            self.callback_errors_ += 1

    # -- serving ----------------------------------------------------------------

    def predict(self, X) -> np.ndarray:
        """Labels of ``X`` under the live served model (via the service)."""
        if self.model_ is None:
            raise NotFittedError(
                f"no model has been published under {self.name!r} yet; ingest "
                "at least `warmup` samples (or call retune()) first."
            )
        return self.service.predict(self.name, X)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Release the serving resources this controller owns.

        Closes the service only when the controller created it; an
        externally supplied service is left running (other consumers may
        still depend on it).
        """
        if self._owns_service:
            self.service.close()

    def __enter__(self) -> "StreamController":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamController(name={self.name!r}, n_seen={self.sketch.n_seen}, "
            f"retunes={self.n_retunes_}, version={self.version_!r})"
        )
