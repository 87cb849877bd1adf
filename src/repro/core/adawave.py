"""The AdaWave clustering estimator (Algorithm 1).

AdaWave clusters arbitrarily shaped groups in highly noisy data by:

1. quantizing the feature space into ``scale`` intervals per dimension and
   storing only occupied cells ("grid labeling", Algorithm 2);
2. applying a per-dimension discrete wavelet transform to the cell densities
   and keeping only the scale-space coefficients (Algorithm 3);
3. adaptively picking a density threshold with the elbow criterion and
   removing the noise cells (Algorithm 4);
4. finding the connected components of the surviving transformed cells,
   labelling them and mapping the labels back to the objects through the
   lookup table.

The algorithm is deterministic, parameter free in the sense that the default
``scale = 128`` and the CDF(2,2) wavelet are used for every experiment in the
paper, runs in ``O(n * m)`` time (``n`` objects, ``m`` occupied cells) and
never computes pairwise distances.

All stages run as numpy array passes over the COO grid (the vectorized
engine).  The literal per-cell implementations live in
:mod:`repro.engine.reference` as the ground truth of the golden-regression
tests (:func:`repro.engine.reference.fit_reference` runs them end to end).

The one knob the paper leaves hand-set -- ``scale`` -- can now be chosen by
the estimator itself: ``AdaWave(scale="tune")`` quantizes once at a fine
power-of-two base resolution, derives every coarser dyadic resolution from
that single sketch (:meth:`repro.grid.SparseGrid.coarsen` is exact for
power-of-two scales) and picks the resolution whose clustering is most
stable, all without ground-truth labels.  See :mod:`repro.tune`.

Because the quantized grid is a mergeable sketch, AdaWave also supports
out-of-core / streaming ingestion: :meth:`AdaWave.partial_fit` accumulates
batches into the grid (requires explicit ``bounds`` so every batch quantizes
identically) and :meth:`AdaWave.finalize` runs the cheap grid-side stages
(transform, threshold, components, lookup).  Any batch split of a dataset
yields exactly the labels a one-shot :meth:`fit` with the same bounds gives.
With ``scale="tune"`` the stream ingests at the fine base resolution and the
resolution choice happens at finalize time from the accumulated sketch --
ingest fine, serve coarse.

The sketch itself lives in :class:`repro.stream.StreamSketch`;
:meth:`partial_fit` / :meth:`merge_stream` are thin adapters over it, and
the same object powers the drift-aware online control plane
(:class:`repro.stream.StreamController`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.pipeline import (
    CONNECTIVITIES,
    THRESHOLD_METHODS,
    GridPipelineResult,
    run_grid_pipeline,
)
from repro.core.threshold import ThresholdDiagnostics
from repro.grid.lookup import LookupTable, NOISE_LABEL
from repro.grid.quantizer import GridQuantizer, QuantizationResult
from repro.grid.sparse_grid import SparseGrid
from repro.utils.validation import NotFittedError, check_array, check_positive_int
from repro.wavelets.thresholding import LevelPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.serve.model import ClusterModel
    from repro.stream.sketch import StreamSketch
    from repro.tune.select import TuneResult


@dataclass
class AdaWaveResult:
    """All intermediate artefacts of one AdaWave run.

    Exposed so the examples and the ablation experiments can inspect every
    stage of the pipeline without re-running it.  ``level`` is the number of
    decomposition levels the transform applied.
    """

    labels: np.ndarray
    quantization: QuantizationResult
    transformed_grid: SparseGrid
    threshold: ThresholdDiagnostics
    cell_coords: np.ndarray
    cell_labels: np.ndarray
    n_clusters: int = 0
    level: int = 1

    @property
    def noise_mask(self) -> np.ndarray:
        """Boolean mask of the objects AdaWave classified as noise."""
        return self.labels == NOISE_LABEL

    @property
    def cluster_sizes(self) -> Dict[int, int]:
        """Number of objects per detected cluster (noise excluded)."""
        sizes: Dict[int, int] = {}
        for label in self.labels:
            if label == NOISE_LABEL:
                continue
            sizes[int(label)] = sizes.get(int(label), 0) + 1
        return sizes


def build_result(
    quantization: QuantizationResult, pipe: GridPipelineResult
) -> AdaWaveResult:
    """Map a grid-side pipeline output back to objects as an :class:`AdaWaveResult`.

    The single place where surviving transformed cells become per-object
    labels; shared by :meth:`AdaWave.fit`/:meth:`AdaWave.finalize` and
    :class:`~repro.core.multiresolution.MultiResolutionAdaWave`: the
    occupied cells' codes are looked up once in the pipeline's index, at
    the level its transform applied, and gathered through the inverse.
    """
    grid = quantization.grid
    occupied_labels = LookupTable(level=pipe.level).label_points_from_arrays(
        grid.codec, grid.codes, pipe.index
    )
    return AdaWaveResult(
        labels=occupied_labels[quantization.inverse],
        quantization=quantization,
        transformed_grid=pipe.transformed,
        threshold=pipe.threshold,
        cell_coords=pipe.cell_coords,
        cell_labels=pipe.cell_labels,
        n_clusters=pipe.n_clusters,
        level=pipe.level,
    )


class AdaWave:
    """Adaptive wavelet clustering for highly noisy data.

    Parameters
    ----------
    scale:
        Number of quantization intervals per dimension (paper default: 128).
        Either a single integer, one value per dimension, ``"auto"`` to
        derive a power-of-two scale from the data size so that small,
        high-dimensional datasets are not quantized into an almost-empty
        grid, or ``"tune"`` to let the estimator select the scale itself:
        one quantization at a fine power-of-two base resolution, a dyadic
        grid pyramid derived from it, and a label-free stability sweep over
        the pyramid (see :mod:`repro.tune`).  Non-power-of-two scales remain
        reachable through an explicit integer.
    wavelet:
        Wavelet basis; the paper uses the Cohen-Daubechies-Feauveau (2,2)
        biorthogonal spline (``"bior2.2"``).  A sequence of names turns the
        basis into a tuning axis: the fit routes through the grid-pyramid
        sweep (one shared quantization) and the label-free scoring picks
        the family, exactly like ``scale="tune"`` picks the resolution.
    threshold:
        Denoising level policy: a :class:`~repro.wavelets.LevelPolicy` or
        one of ``"hard"`` (default -- the paper's pipeline, where the
        adaptive elbow is itself the global hard cut), ``"soft"``,
        ``"per-level-hard"``, ``"per-level-soft"`` (MAD-scaled VisuShrink
        shrinkage in the wavelet domain, re-estimated per decomposition
        level for the per-level variants), or ``"tune"`` to sweep all four
        policies from the one shared quantization and keep the one the
        label-free scoring prefers.  The resolved canonical name is exposed
        as :attr:`threshold_method_` and recorded in exported artifacts.
    level:
        Number of wavelet decomposition levels; each level halves the grid
        resolution and produces a coarser clustering (multi-resolution
        property).
    threshold_method:
        ``"auto"`` (three-segment fit of Fig. 6 with chord fallback),
        ``"segments"``, ``"angle"`` (the literal Algorithm 4 scan),
        ``"distance"``, or ``"none"`` to skip threshold filtering entirely
        (the WaveCluster-like ablation).
    connectivity:
        ``"face"``, ``"full"`` or ``"auto"`` (full for up to 3-D data, face
        otherwise); controls which transformed cells count as adjacent when
        forming clusters.
    min_cluster_cells:
        Connected components with fewer transformed cells than this are
        reclassified as noise.  The default of 3 suppresses the spurious
        one-or-two-cell components that isolated surviving noise cells would
        otherwise create in extremely noisy data; genuine clusters occupy far
        more cells at the default scale.
    angle_divisor:
        The Algorithm 4 constant (stop when the turning angle falls to the
        sharpest turn divided by this value).
    bounds:
        Optional explicit ``(lower, upper)`` feature-space bounds forwarded
        to the quantizer.  Required for :meth:`partial_fit` (every batch must
        quantize against the same grid); optional for :meth:`fit`.
    tune_levels:
        Decomposition levels the ``scale="tune"`` sweep evaluates in addition
        to the resolutions; defaults to ``(level,)``.  Ignored unless
        ``scale="tune"``.
    lookup_only:
        When true, the streaming path (:meth:`partial_fit` /
        :meth:`finalize`) retains no per-point state: ingestion is
        ``O(occupied cells)`` regardless of the number of samples, and
        :attr:`labels_` comes out empty after :meth:`finalize`.  Label
        points -- training or new -- through :meth:`predict` instead.

    Attributes
    ----------
    labels_:
        Cluster label per object after :meth:`fit` / :meth:`finalize`;
        ``-1`` marks noise.
    n_clusters_:
        Number of detected clusters.
    threshold_:
        Density threshold selected by the adaptive rule.
    threshold_method_:
        Canonical name of the level policy the fitted run used
        (``"global-hard"``, ..., with ``threshold="tune"`` resolved to the
        winner); recorded as ``threshold_method`` in exported artifacts.
    wavelet_:
        Name of the wavelet basis the fitted run used (a swept basis
        resolved to the winner).
    result_:
        Full :class:`AdaWaveResult` with every intermediate artefact.
    tune_result_:
        :class:`~repro.tune.TuneResult` with the per-candidate score table
        when the last fit / finalize resolved ``scale="tune"``; ``None``
        otherwise.
    n_seen_:
        Number of samples ingested so far via :meth:`partial_fit`.
    """

    def __init__(
        self,
        scale: Union[int, Sequence[int], str] = 128,
        wavelet: str = "bior2.2",
        level: int = 1,
        threshold_method: str = "auto",
        connectivity: str = "auto",
        min_cluster_cells: int = 3,
        angle_divisor: float = 3.0,
        bounds: Optional[Tuple[Sequence[float], Sequence[float]]] = None,
        lookup_only: bool = False,
        tune_levels: Optional[Sequence[int]] = None,
        threshold: Union[str, LevelPolicy] = "hard",
    ) -> None:
        self.scale = scale
        if isinstance(wavelet, (list, tuple)):
            wavelet = tuple(wavelet)
            if not wavelet:
                raise ValueError("a swept wavelet sequence must not be empty.")
        self.wavelet = wavelet
        if not (isinstance(threshold, str) and threshold == "tune"):
            # Fail fast on typos; the spec itself (string or LevelPolicy) is
            # kept verbatim so repr/get_params round-trip.
            LevelPolicy.parse(threshold)
        self.threshold = threshold
        self.level = check_positive_int(level, name="level")
        if threshold_method not in THRESHOLD_METHODS:
            raise ValueError(
                "threshold_method must be 'auto', 'segments', 'angle', 'distance' or 'none'; "
                f"got {threshold_method!r}."
            )
        self.threshold_method = threshold_method
        if connectivity not in CONNECTIVITIES:
            raise ValueError(
                f"connectivity must be 'auto', 'face' or 'full'; got {connectivity!r}."
            )
        self.connectivity = connectivity
        self.min_cluster_cells = check_positive_int(min_cluster_cells, name="min_cluster_cells")
        self.angle_divisor = float(angle_divisor)
        self.bounds = bounds
        self.lookup_only = bool(lookup_only)
        if tune_levels is not None:
            tune_levels = tuple(
                check_positive_int(lv, name="tune_levels") for lv in tune_levels
            )
            if not tune_levels:
                raise ValueError("tune_levels must contain at least one level.")
        self.tune_levels = tune_levels

        self.labels_: Optional[np.ndarray] = None
        self.n_clusters_: Optional[int] = None
        self.threshold_: Optional[float] = None
        self.threshold_method_: Optional[str] = None
        self.wavelet_: Optional[str] = None
        self.result_: Optional[AdaWaveResult] = None
        self.tune_result_: Optional["TuneResult"] = None
        self.stage_seconds_: Optional[Dict[str, float]] = None
        self.n_seen_: int = 0

        # Streaming state (populated by partial_fit).  The sketch owns the
        # quantization geometry, the COO grid and the ingest counters
        # (repro.stream.StreamSketch); the estimator only keeps the
        # per-point cell codes needed to emit labels_ at finalize time.
        self._sketch: Optional["StreamSketch"] = None
        self._stream_cell_chunks: List[np.ndarray] = []
        # True while partial_fit batches have been ingested but not yet
        # clustered by finalize(); guards against fit() silently discarding
        # a stream in flight.
        self._stream_dirty: bool = False
        # Cached frozen artifact backing predict(); invalidated per (re)fit.
        self._served_model: Optional["ClusterModel"] = None

    # -- pipeline stages ------------------------------------------------------

    def _resolve_scale(self, n_samples: int, n_features: int) -> Union[int, Tuple[int, ...]]:
        scale = self.scale
        if isinstance(scale, str):
            if scale == "tune":
                raise ValueError(
                    "scale='tune' is resolved by the tuning sweep, not here; "
                    "this is a bug in the caller."
                )
            if scale != "auto":
                raise ValueError(
                    f"scale must be an int, a sequence, 'auto' or 'tune'; got {scale!r}."
                )
            return self.auto_scale(n_samples, n_features)
        if not np.isscalar(scale):
            values = tuple(scale)
            if len(values) != n_features:
                raise ValueError(
                    f"scale has {len(values)} entries but the data has "
                    f"{n_features} features; pass one interval count per dimension."
                )
        return scale

    def _pipeline_params(self) -> Dict[str, object]:
        """The grid-side stage parameters, as :func:`run_grid_pipeline` kwargs.

        ``wavelet`` may be a sequence and ``threshold`` may be ``"tune"``;
        both are sweep-axis specs the tuning path expands, so this dict only
        feeds :func:`run_grid_pipeline` directly when :meth:`_wants_sweep`
        is false.
        """
        return dict(
            wavelet=self.wavelet,
            threshold=self.threshold,
            threshold_method=self.threshold_method,
            connectivity=self.connectivity,
            min_cluster_cells=self.min_cluster_cells,
            angle_divisor=self.angle_divisor,
        )

    def _wants_sweep(self) -> bool:
        """Whether any constructor axis routes the fit through the tuner."""
        if isinstance(self.scale, str) and self.scale == "tune":
            return True
        if isinstance(self.threshold, str) and self.threshold == "tune":
            return True
        return isinstance(self.wavelet, tuple)

    def _finish(
        self, quantization: QuantizationResult, pipe: GridPipelineResult
    ) -> "AdaWave":
        """Map the grid-side pipeline output back to objects and publish it."""
        result = build_result(quantization, pipe)
        self.labels_ = result.labels
        self.n_clusters_ = result.n_clusters
        self.threshold_ = result.threshold.threshold
        self.result_ = result
        # Wall-clock breakdown of the winning grid-side run; rides into
        # artifact metadata so a served model carries its fit provenance.
        self.stage_seconds_ = dict(pipe.stage_seconds)
        self.threshold_method_ = pipe.threshold_policy
        self.wavelet_ = pipe.wavelet
        self._served_model = None
        return self

    def _run_pipeline(self, quantization: QuantizationResult, n_features: int) -> "AdaWave":
        """Stages 2-4 (transform, threshold, components, lookup) on a grid."""
        pipe = run_grid_pipeline(
            quantization.grid, level=self.level, **self._pipeline_params()
        )
        self.tune_result_ = None
        return self._finish(quantization, pipe)

    def _run_tuned(
        self,
        quantizer: GridQuantizer,
        base_grid: SparseGrid,
        base_inverse: np.ndarray,
        factors: Optional[Sequence[int]] = None,
    ) -> "AdaWave":
        """Sweep the grid pyramid axes and publish the winning configuration.

        ``base_grid`` is the quantization at the base scale; coarser
        resolution candidates are derived from it with
        :meth:`SparseGrid.coarsen` (exact -- no second pass over the points).
        ``base_inverse`` maps every point to its row in ``base_grid`` and
        may be empty for lookup-only streams.  ``factors``
        restricts the pyramid's coarsening factors; ``(1,)`` keeps the fit at
        the base resolution so only the non-resolution axes (wavelet family,
        threshold policy) are swept.
        """
        from repro.tune.select import tune_pyramid

        tune_result = tune_pyramid(
            base_grid,
            levels=self.tune_levels or (self.level,),
            factors=factors,
            **self._pipeline_params(),
        )
        best = tune_result.best.candidate
        shape = best.scale
        widths = (quantizer.upper_ - quantizer.lower_) / np.asarray(shape, dtype=np.float64)
        inverse = base_inverse
        if best.factor > 1 and len(inverse):
            # Each base cell's row in the winning grid, gathered per point.
            coarse_codes = base_grid.codec.coarsen_codes(base_grid.codes, best.factor)
            inverse = best.grid.codec.rows(best.grid.codes, coarse_codes)[inverse]
        quantization = QuantizationResult(
            grid=best.grid,
            inverse=inverse,
            lower=quantizer.lower_.copy(),
            upper=quantizer.upper_.copy(),
            widths=widths,
        )
        self._finish(quantization, best.pipeline)
        # Keep the provenance surface (score table, chosen config) but drop
        # the losing candidates' grids and label arrays.
        self.tune_result_ = tune_result.compact()
        return self

    # -- public API ------------------------------------------------------------

    @staticmethod
    def auto_scale(n_samples: int, n_features: int) -> int:
        """Data-driven grid resolution used when ``scale="auto"``.

        Aims for roughly two objects per occupied cell so the densities the
        threshold step sees remain informative even for small or
        high-dimensional datasets, rounded to the nearest power of two so
        auto-scaled models stay compatible with the dyadic grid pyramid
        (:meth:`SparseGrid.coarsen`, :func:`repro.serve.parallel_ingest`
        shard merging, ``scale="tune"``).  Never exceeds the paper's default
        of 128 intervals or falls below 4; non-power-of-two resolutions stay
        reachable via an explicit integer ``scale``.
        """
        n_samples = check_positive_int(n_samples, name="n_samples")
        n_features = check_positive_int(n_features, name="n_features")
        target = (max(n_samples, 2) / 2.0) ** (1.0 / n_features) * 2.0
        exponent = int(round(np.log2(max(target, 1.0))))
        return int(min(128, max(4, 2**exponent)))

    def fit(self, X) -> "AdaWave":
        """Cluster the data matrix ``X`` of shape ``(n_samples, n_features)``."""
        if self._stream_dirty:
            raise ValueError(
                "fit() called mid-stream: partial_fit batches have been "
                "ingested but not clustered. Call finalize() to cluster them "
                "or reset() to discard the stream before fitting."
            )
        X = check_array(X, name="X")
        if X.shape[0] < 2 and self.bounds is None:
            raise ValueError(
                "AdaWave cannot infer a quantization grid from a single sample; "
                "provide at least 2 samples or explicit bounds=(lower, upper)."
            )
        self._reset_stream()
        self.n_seen_ = X.shape[0]
        if self._wants_sweep():
            # Quantize once; every candidate is derived from this one sketch.
            # With scale="tune" the base is the fine power-of-two resolution
            # and the pyramid spans all coarser dyadic scales; with a fixed
            # scale the pyramid is pinned to factor 1 and only the
            # non-resolution axes (wavelet family, threshold policy) sweep.
            if isinstance(self.scale, str) and self.scale == "tune":
                from repro.tune.pyramid import default_base_scale

                base_scale = default_base_scale(X.shape[1])
                factors = None
            else:
                base_scale = self._resolve_scale(X.shape[0], X.shape[1])
                factors = (1,)
            quantizer = GridQuantizer(scale=base_scale, bounds=self.bounds)
            quantization = quantizer.fit_transform(X)
            return self._run_tuned(
                quantizer, quantization.grid, quantization.inverse, factors=factors
            )
        # Step 1: quantize the feature space into a sparse grid.
        scale = self._resolve_scale(X.shape[0], X.shape[1])
        quantizer = GridQuantizer(scale=scale, bounds=self.bounds)
        quantization = quantizer.fit_transform(X)
        # Steps 2-4 are shared with the streaming path.
        return self._run_pipeline(quantization, X.shape[1])

    # -- streaming / out-of-core API -------------------------------------------

    def _reset_stream(self) -> None:
        self._sketch = None
        self._stream_cell_chunks = []
        self._stream_dirty = False
        self.n_seen_ = 0

    def reset(self) -> "AdaWave":
        """Discard all fitted and streaming state, returning to pristine.

        The explicit escape hatch for abandoning a stream mid-flight:
        :meth:`fit` refuses to run while unfinalized :meth:`partial_fit`
        batches exist, so call this first to intentionally drop them.
        """
        self._reset_stream()
        self.labels_ = None
        self.n_clusters_ = None
        self.threshold_ = None
        self.threshold_method_ = None
        self.wavelet_ = None
        self.result_ = None
        self.tune_result_ = None
        self.stage_seconds_ = None
        self._served_model = None
        return self

    def _streaming_scale(self, n_features: int) -> Union[int, Tuple[int, ...]]:
        """The quantization scale a stream ingests at; raises for ``"auto"``.

        ``scale="tune"`` streams ingest at the fine power-of-two base
        resolution (a function of the dimensionality only, so every shard and
        every batch split agrees on the grid) and pick the serving resolution
        at :meth:`finalize` time from the accumulated sketch.  ``"auto"``
        cannot work mid-stream -- it depends on the full dataset size, which
        a stream never knows -- so it raises with the two workable options.
        """
        if isinstance(self.scale, str):
            if self.scale == "tune":
                from repro.tune.pyramid import default_base_scale

                return default_base_scale(n_features)
            if self.scale != "auto":
                raise ValueError(
                    f"scale must be an int, a sequence, 'auto' or 'tune'; "
                    f"got {self.scale!r}."
                )
            raise ValueError(
                "partial_fit cannot resolve scale='auto': the heuristic "
                "depends on the full dataset size, which a stream never "
                "knows. Either pass an explicit power-of-two scale (e.g. "
                f"scale={self.auto_scale(100_000, n_features)}) or use "
                "scale='tune' to ingest at a fine base resolution and let "
                "finalize() pick the serving resolution from the accumulated "
                "sketch."
            )
        return self._resolve_scale(2, n_features)

    def _new_sketch(self, n_features: int) -> "StreamSketch":
        """A fresh :class:`~repro.stream.StreamSketch` for this configuration."""
        from repro.stream.sketch import StreamSketch

        return StreamSketch(
            bounds=self.bounds,
            scale=self._streaming_scale(n_features),
            n_features=n_features,
        )

    def partial_fit(self, X_batch) -> "AdaWave":
        """Ingest one batch of samples into the streaming sparse grid.

        The grid is a mergeable sketch, so batches may arrive in any order
        and any split: after :meth:`finalize`, the labels are identical to a
        one-shot :meth:`fit` on the concatenated data.  Explicit ``bounds``
        are required (data-derived bounds would depend on which batches have
        been seen), and ``scale`` must be concrete or ``"tune"``
        (``"auto"`` depends on the full dataset size and raises; with
        ``"tune"`` the stream ingests at the power-of-two base resolution
        and :meth:`finalize` picks the serving resolution from the sketch).
        Batches containing values outside the bounds raise ``ValueError``
        rather than silently clipping into the edge cells.  Empty batches
        are no-ops.
        """
        if self.bounds is None:
            raise ValueError(
                "partial_fit requires explicit bounds=(lower, upper): streaming "
                "batches must all quantize against the same grid, which "
                "data-derived bounds cannot guarantee."
            )
        X = check_array(X_batch, name="X_batch", allow_empty=True)
        if isinstance(self.scale, str) and self.scale == "auto":
            self._streaming_scale(X.shape[1])  # raises the actionable error
        if X.shape[0] == 0:
            return self
        if self._sketch is None:
            # Starting a new stream: drop any leftover state (n_seen_ from a
            # prior fit) so the counter matches exactly what this stream saw.
            self._reset_stream()
            self._sketch = self._new_sketch(X.shape[1])
        codes = self._sketch.ingest(X)
        if not self.lookup_only:
            # Per-point codes are only needed to emit labels_ for the
            # ingested points; lookup-only streams label through predict()
            # and keep ingestion memory proportional to the occupied cells.
            self._stream_cell_chunks.append(codes)
        self._stream_dirty = True
        self.n_seen_ = self._sketch.n_seen
        return self

    def finalize(self) -> "AdaWave":
        """Run the grid-side stages on everything ingested via :meth:`partial_fit`.

        Cheap relative to ingestion: the transform, threshold and component
        stages only touch the (much smaller) occupied-cell arrays, so a
        streaming consumer can finalize repeatedly to get intermediate
        clusterings while batches keep arriving.
        """
        if self._sketch is None or self.n_seen_ == 0:
            raise ValueError("finalize() called before any non-empty partial_fit batch.")
        sketch = self._sketch
        grid = sketch.grid.copy()
        # Every kept point code's row among the occupied cells: the
        # quantization inverse of the whole stream.
        chunks = self._stream_cell_chunks
        inverse = (
            grid.codec.rows(grid.codes, np.concatenate(chunks))
            if chunks
            else np.empty(0, dtype=np.int64)
        )
        if self._wants_sweep():
            # The stream ingested at the base resolution; pick the serving
            # configuration now, from the accumulated sketch alone.  With a
            # fixed scale only the wavelet / threshold axes sweep (factor 1).
            # A raising sweep (tuning can legitimately fail on degenerate
            # data) must leave the stream dirty so the fit()-mid-stream
            # guard keeps protecting the ingested batches.
            tune_scale = isinstance(self.scale, str) and self.scale == "tune"
            self._run_tuned(
                sketch.quantizer,
                grid,
                inverse,
                factors=None if tune_scale else (1,),
            )
            self._stream_dirty = False
            return self
        quantization = QuantizationResult(
            grid=grid,
            inverse=inverse,
            lower=sketch.lower.copy(),
            upper=sketch.upper.copy(),
            widths=sketch.widths,
        )
        self._run_pipeline(quantization, sketch.ndim)
        self._stream_dirty = False
        return self

    def merge_stream(self, other: "AdaWave") -> "AdaWave":
        """Merge another estimator's streaming state into this one.

        The quantized grid is an associative, commutative sketch, so two
        estimators that ingested disjoint shards of a dataset (against the
        same bounds and scale) can be reduced into one -- this is what makes
        sharded parallel ingestion (:func:`repro.serve.parallel_ingest`)
        exact rather than approximate.  ``other`` is left untouched.
        """
        if not isinstance(other, AdaWave):
            raise TypeError(f"can only merge another AdaWave; got {type(other).__name__}.")
        if other._sketch is None or other.n_seen_ == 0:
            return self
        if self._sketch is None:
            if self.bounds is None:
                raise ValueError("merge_stream requires explicit bounds on both estimators.")
            self._reset_stream()
            # Build the sketch from *this* estimator's configuration; the
            # compatibility check inside StreamSketch.merge then genuinely
            # verifies the shards quantized against the same grid instead of
            # adopting theirs.  _streaming_scale raises the actionable error
            # for scale='auto' and resolves scale='tune' to the shared base
            # resolution.
            self._sketch = self._new_sketch(other._sketch.ndim)
        self._sketch.merge(other._sketch)
        if not self.lookup_only:
            if other.lookup_only:
                raise ValueError(
                    "cannot merge a lookup-only stream into one that tracks "
                    "per-point labels; the merged labels_ would be incomplete."
                )
            # Chunk arrays are append-only (finalize just concatenates and
            # reads), so sharing them instead of copying keeps parallel
            # ingestion at the serial path's peak memory.
            self._stream_cell_chunks.extend(other._stream_cell_chunks)
        self._stream_dirty = True
        self.n_seen_ = self._sketch.n_seen
        return self

    def fit_predict(self, X) -> np.ndarray:
        """Convenience wrapper: :meth:`fit` then return :attr:`labels_`."""
        return self.fit(X).labels_

    # -- serving API -------------------------------------------------------------

    def export_model(self) -> "ClusterModel":
        """Freeze the fitted clustering into a shippable, queryable artifact.

        The returned :class:`~repro.serve.ClusterModel` holds only the
        quantizer bounds, the surviving transformed-cell -> cluster map and
        the threshold/level metadata -- ``O(occupied cells)`` memory, no
        reference to the training points -- and supports versioned
        ``save``/``load`` plus vectorized ``predict``.
        """
        from repro.serve.model import ClusterModel

        if self.result_ is None:
            raise NotFittedError(
                "this AdaWave instance is not fitted yet; call fit() (or "
                "partial_fit batches followed by finalize()) before exporting "
                "a ClusterModel."
            )
        return ClusterModel.from_estimator(self)

    def predict(self, X) -> np.ndarray:
        """Label arbitrary points against the fitted clustering.

        A pure lookup: points are quantized with the fitted bounds, mapped to
        transformed-space cells and matched against the surviving-cell index
        in one encode and one :meth:`~repro.grid.codec.CellCodec.rows` pass
        (see :meth:`repro.serve.ClusterModel.predict`).  Points in unmapped cells --
        including anything outside the fitted bounds -- get the noise label.
        Requires :meth:`fit` or :meth:`finalize` first; never touches the
        training points.
        """
        if self.result_ is None:
            raise NotFittedError(
                "this AdaWave instance is not fitted yet; call fit() (or "
                "partial_fit batches followed by finalize()) before predict()."
            )
        if self._served_model is None:
            self._served_model = self.export_model()
        return self._served_model.predict(X)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AdaWave(scale={self.scale}, wavelet={self.wavelet!r}, "
            f"level={self.level}, "
            f"threshold_method={self.threshold_method!r})"
        )
