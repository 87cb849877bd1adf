"""The live stream sketch: quantization geometry + COO grid + counters.

Streaming AdaWave used to keep its sketch state (quantizer, grid, sample
counter) inline on the estimator.  :class:`StreamSketch` extracts it into a
free-standing object so the same machinery serves every online consumer --
the estimator's ``partial_fit``/``finalize``, sharded
:func:`repro.serve.parallel_ingest`, and the drift-aware
:class:`~repro.stream.controller.StreamController` -- without each of them
re-implementing bounds discipline, merge compatibility and consolidation.

A sketch is *frozen geometry plus mutable mass*: the bounds and interval
counts are fixed at construction (every batch must quantize against the same
grid, which is what makes the sketch associative and commutative), while the
occupied-cell densities accumulate.  Two sketches with identical geometry
merge into exactly the sketch the concatenated streams would have produced;
sketches with different geometry refuse loudly (see :meth:`StreamSketch.merge`)
because their cell coordinates do not describe the same regions of space.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Sequence, Tuple, Union

import numpy as np

from repro.grid.quantizer import GridQuantizer, column_extents, outside_bounds
from repro.grid.sparse_grid import SparseGrid
from repro.utils.validation import check_array, check_positive_int, column_or_row


def _format_bounds(lower: np.ndarray, upper: np.ndarray) -> str:
    fmt = lambda a: np.array2string(np.asarray(a, dtype=np.float64), precision=6)
    return f"lower={fmt(lower)}, upper={fmt(upper)}"


@dataclass(frozen=True)
class SketchSnapshot:
    """An immutable point-in-time copy of a :class:`StreamSketch`.

    Drift monitoring compares *successive* states of a live stream; a
    snapshot decouples that comparison from ongoing ingestion (the grid is a
    deep copy, so the sketch may keep mutating underneath).
    """

    grid: SparseGrid
    n_seen: int
    n_batches: int
    lower: np.ndarray
    upper: np.ndarray

    @property
    def shape(self) -> Tuple[int, ...]:
        """Interval counts of the sketch grid."""
        return self.grid.shape

    @property
    def ndim(self) -> int:
        """Dimensionality of the sketched feature space."""
        return self.grid.ndim

    def total_mass(self) -> float:
        """Sum of all stored densities (equals ``n_seen`` unless decayed)."""
        return self.grid.total_mass()


class StreamSketch:
    """Mergeable fine-resolution sketch of a point stream.

    Parameters
    ----------
    bounds:
        Explicit ``(lower, upper)`` feature-space bounds.  Mandatory: every
        batch of a stream must quantize against the same grid, which
        data-derived bounds cannot guarantee.
    scale:
        Interval counts per dimension (an integer or one value per
        dimension).  For downstream dyadic re-tuning
        (:func:`repro.tune.tune_pyramid`) this should be a power of two.
    n_features:
        Dimensionality of the stream.
    window:
        Optional sliding-window length in batches.  ``None`` (default)
        accumulates forever -- the exact cumulative sketch streaming AdaWave
        relies on.  An integer keeps only the most recent ``window``
        ingested batches at full weight and drops older ones *exactly* (each
        batch's sub-sketch is retained separately and the live grid is their
        merge), so the sketch tracks the recent stream -- the forgetting
        policy drift-aware re-tuning wants: no ghost mass from a superseded
        distribution, no loss of effective sample size.

    Attributes
    ----------
    n_seen:
        Raw number of samples ingested (never decayed, never windowed out).
    n_batches:
        Number of non-empty batches ingested or merged.
    """

    def __init__(
        self,
        bounds: Tuple[Sequence[float], Sequence[float]],
        scale: Union[int, Sequence[int]],
        n_features: int,
        *,
        window: Optional[int] = None,
    ) -> None:
        n_features = check_positive_int(n_features, name="n_features")
        if bounds is None:
            raise ValueError(
                "StreamSketch requires explicit bounds=(lower, upper): every "
                "batch must quantize against the same grid, which data-derived "
                "bounds cannot guarantee."
            )
        lower = column_or_row(bounds[0], n_features, name="bounds[0]")
        upper = column_or_row(bounds[1], n_features, name="bounds[1]")
        quantizer = GridQuantizer(scale=scale, bounds=(lower, upper))
        # fit() only needs samples inside the bounds to validate; the bounds
        # rows themselves are the canonical such samples.
        quantizer.fit(np.vstack([lower, upper]).astype(np.float64))
        self._quantizer = quantizer
        self._grid = SparseGrid(quantizer.shape_)
        self._window = (
            None if window is None else check_positive_int(window, name="window")
        )
        # Per-batch sub-sketches of the current window (windowed mode only);
        # _grid is their merge, rebuilt lazily when marked stale.
        self._window_grids: Deque[Tuple[SparseGrid, int]] = deque()
        self._grid_stale = False
        self.n_seen: int = 0
        self.n_batches: int = 0

    # -- geometry ---------------------------------------------------------------

    @property
    def quantizer(self) -> GridQuantizer:
        """The fitted quantizer (frozen geometry) every batch maps through."""
        return self._quantizer

    @property
    def grid(self) -> SparseGrid:
        """The live sparse grid (mutated in place by :meth:`ingest`).

        In windowed mode this is the merge of the retained batches,
        rebuilt lazily after the window slides.
        """
        if self._grid_stale:
            merged = SparseGrid(self._quantizer.shape_)
            for batch_grid, _ in self._window_grids:
                merged.merge(batch_grid)
            self._grid = merged
            self._grid_stale = False
        return self._grid

    @property
    def window(self) -> Optional[int]:
        """Sliding-window length in batches (``None`` = cumulative)."""
        return self._window

    @property
    def n_window(self) -> int:
        """Samples currently inside the window (equals :attr:`n_seen` when
        cumulative)."""
        if self._window is None:
            return self.n_seen
        return sum(count for _, count in self._window_grids)

    @property
    def shape(self) -> Tuple[int, ...]:
        """Interval counts per dimension."""
        return self._quantizer.shape_

    @property
    def ndim(self) -> int:
        """Dimensionality of the sketched feature space."""
        return len(self._quantizer.shape_)

    @property
    def lower(self) -> np.ndarray:
        """Fitted per-dimension lower bounds."""
        return self._quantizer.lower_

    @property
    def upper(self) -> np.ndarray:
        """Fitted per-dimension upper bounds (post edge-expansion)."""
        return self._quantizer.upper_

    @property
    def widths(self) -> np.ndarray:
        """Per-dimension cell widths."""
        return self._quantizer.widths_.copy()

    def total_mass(self) -> float:
        """Sum of stored densities (equals :attr:`n_seen` unless decayed or
        windowed)."""
        return self.grid.total_mass()

    # -- first-class operations -------------------------------------------------

    def ingest(self, X) -> np.ndarray:
        """Quantize one batch into the sketch; returns the per-point cell codes.

        The codes are in the sketch grid's codec (``sketch.grid.codec``);
        ``codec.decode`` turns them into cell coordinates.

        Batches may arrive in any order and any split -- the sketch is
        associative and commutative -- but every batch must lie inside the
        configured bounds (quantization cannot extend the grid after the
        fact) and match the sketch dimensionality.  Empty batches are no-ops.
        """
        X = check_array(X, name="X_batch", allow_empty=True)
        if X.shape[1] != self.ndim:
            raise ValueError(
                f"batch has {X.shape[1]} features but the stream was started "
                f"with {self.ndim}."
            )
        codec = self._grid.codec
        if X.shape[0] == 0:
            return codec.empty()
        quantizer = self._quantizer
        if outside_bounds(column_extents(X), quantizer.lower_, quantizer.upper_):
            raise ValueError(
                "batch contains values outside the configured bounds; streaming "
                "quantization cannot extend the grid after the fact."
            )
        codes = codec.encode_points(X, quantizer.lower_, quantizer.widths_)
        if self._window is None:
            self._grid.add_points(codes)
        else:
            batch_grid, _ = SparseGrid.from_point_codes(self.shape, codes, inverse=False)
            self._window_grids.append((batch_grid, X.shape[0]))
            while len(self._window_grids) > self._window:
                self._window_grids.popleft()
            self._grid_stale = True
        self.n_seen += X.shape[0]
        self.n_batches += 1
        return codes

    def merge(self, other: "StreamSketch") -> "StreamSketch":
        """Accumulate another sketch into this one (exact shard reduction).

        Both sketches must share identical geometry.  Coordinates from grids
        quantized against different bounds describe *different regions of
        space*, so merging them would silently produce wrong cells -- the
        mismatch raises instead, naming both geometries.
        """
        if not isinstance(other, StreamSketch):
            raise TypeError(
                f"can only merge another StreamSketch; got {type(other).__name__}."
            )
        if self._window is not None or other._window is not None:
            raise ValueError(
                "windowed sketches cannot be merged: the shards' batch "
                "arrival orders are not comparable, so a merged window would "
                "be ill-defined. Merge cumulative sketches (window=None)."
            )
        if self.shape != other.shape:
            raise ValueError(
                "cannot merge sketches quantized against different grids: this "
                f"sketch has shape {self.shape} but the other has {other.shape}; "
                "both streams must share identical bounds and scale."
            )
        if not (
            np.allclose(self.lower, other.lower)
            and np.allclose(self.upper, other.upper)
        ):
            raise ValueError(
                "cannot merge sketches quantized against different grids: this "
                f"sketch spans {_format_bounds(self.lower, self.upper)} but the "
                f"other spans {_format_bounds(other.lower, other.upper)}. Cell "
                "coordinates from the two quantizations describe different "
                "regions of space, so merging would silently corrupt the "
                "densities. Re-quantize one stream's raw points against the "
                "other's bounds (re-ingest the batches into a sketch built "
                "with those bounds) before merging."
            )
        self._grid.merge(other._grid)
        self.n_seen += other.n_seen
        self.n_batches += other.n_batches
        return self

    def coarsen(self, factor: Union[int, Sequence[int]]) -> SparseGrid:
        """The sketch mass at a dyadically coarser resolution (exact).

        Delegates to :meth:`repro.grid.SparseGrid.coarsen`: for power-of-two
        scales the result is bit-for-bit what quantizing the original stream
        at ``scale // factor`` would have produced.
        """
        return self.grid.coarsen(factor)

    def decay(self, factor: float) -> "StreamSketch":
        """Multiply every stored density by ``factor`` (exponential forgetting).

        Applied once per batch by drift-aware consumers, this makes the
        sketch an exponentially weighted view of the stream: mass from ``k``
        batches ago carries weight ``factor ** k``, so a drifted distribution
        dominates the sketch after a handful of batches instead of having to
        out-mass the entire history.  Composes with (but is usually an
        alternative to) the exact ``window`` policy.  :attr:`n_seen` keeps
        the raw count.
        """
        factor = float(factor)
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"decay factor must be in (0, 1]; got {factor}.")
        if factor < 1.0:
            for batch_grid, _ in self._window_grids:
                batch_grid.scale_values(factor)
            if not self._grid_stale:
                self._grid.scale_values(factor)
        return self

    def snapshot(self) -> SketchSnapshot:
        """Frozen deep copy of the current sketch state."""
        return SketchSnapshot(
            grid=self.grid.copy(),
            n_seen=self.n_seen,
            n_batches=self.n_batches,
            lower=self.lower.copy(),
            upper=self.upper.copy(),
        )

    def clear(self) -> "StreamSketch":
        """Drop all accumulated mass and counters, keeping the geometry."""
        self._grid = SparseGrid(self._quantizer.shape_)
        self._window_grids.clear()
        self._grid_stale = False
        self.n_seen = 0
        self.n_batches = 0
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamSketch(shape={self.shape}, n_seen={self.n_seen}, "
            f"occupied={self.grid.n_occupied})"
        )
