"""Feature-space quantization (Algorithm 2 of the paper).

The quantizer divides the domain of every dimension into ``scale`` intervals,
assigns each object to the grid cell containing it and accumulates cell
densities into a :class:`~repro.grid.sparse_grid.SparseGrid`.  Each point is
encoded once, from float straight to cell code, and the pass grouping the
codes (:meth:`~repro.grid.codec.CellCodec.group`: a count over the code space
for bounded grids, a sort otherwise) also yields each point's occupied-cell
row (the *quantization inverse*): all the lookup-table step needs to label
the objects.  Bounds and bounds checks walk the data one column at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.grid.codec import CellCodec
from repro.grid.sparse_grid import SparseGrid
from repro.utils.validation import check_array, check_positive_int, column_or_row


def column_extents(X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-column minima and maxima of the ``(n, d)`` samples ``X``.

    Reduced one column at a time: ``X.min(axis=0)`` on a C-ordered array
    walks its rows ``d`` values at a time, an order of magnitude slower.
    """
    mins = np.array([column.min() for column in X.T])
    maxs = np.array([column.max() for column in X.T])
    return mins, maxs


def outside_bounds(
    extents: Tuple[np.ndarray, np.ndarray], lower: np.ndarray, upper: np.ndarray
) -> bool:
    """Whether samples with :func:`column_extents` ``extents`` leave
    ``[lower, upper]`` by more than 1e-12."""
    mins, maxs = extents
    return bool(np.any(mins < lower - 1e-12) or np.any(maxs > upper + 1e-12))


@dataclass
class QuantizationResult:
    """Everything the rest of the pipeline needs from the quantization step.

    Attributes
    ----------
    grid:
        Sparse grid of cell densities.
    inverse:
        ``(n_samples,)`` row of every point's cell in the grid's canonical
        arrays; a per-cell quantity reaches the points as ``per_cell[inverse]``.
    lower, upper:
        Per-dimension domain bounds used for the quantization.
    widths:
        Per-dimension cell widths.
    """

    grid: SparseGrid
    inverse: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    widths: np.ndarray

    @property
    def n_samples(self) -> int:
        """Number of quantized objects."""
        return len(self.inverse)

    @property
    def cell_ids(self) -> np.ndarray:
        """``(n_samples, n_features)`` cell coordinates of every point,
        decoded on demand (the pipeline itself never builds them)."""
        return self.grid.coords[self.inverse]


class GridQuantizer:
    """Quantize a feature space into ``scale`` intervals per dimension.

    Parameters
    ----------
    scale:
        Number of intervals per dimension -- either a single integer applied
        to every dimension (the paper's default of 128) or a sequence with one
        value per dimension.
    bounds:
        Optional explicit ``(lower, upper)`` arrays.  When omitted the bounds
        are taken from the data with a tiny relative margin so the maximum
        values fall inside the last interval rather than on its open edge.
    """

    def __init__(
        self,
        scale: Union[int, Sequence[int]] = 128,
        bounds: Optional[Tuple[Sequence[float], Sequence[float]]] = None,
    ) -> None:
        self.scale = scale
        self.bounds = bounds
        self.lower_: Optional[np.ndarray] = None
        self.upper_: Optional[np.ndarray] = None
        self.shape_: Optional[Tuple[int, ...]] = None
        self.widths_: Optional[np.ndarray] = None

    def _resolve_scale(self, n_features: int) -> Tuple[int, ...]:
        if np.isscalar(self.scale):
            value = check_positive_int(self.scale, name="scale", minimum=2)
            return (value,) * n_features
        values = tuple(check_positive_int(v, name="scale", minimum=2) for v in self.scale)
        if len(values) != n_features:
            raise ValueError(
                f"scale has {len(values)} entries but the data has {n_features} features."
            )
        return values

    def fit(self, X) -> "GridQuantizer":
        """Learn the per-dimension bounds and interval counts from ``X``."""
        return self._fit(check_array(X, name="X"))

    def _fit(self, X: np.ndarray) -> "GridQuantizer":
        """:meth:`fit` on an array :func:`check_array` already validated."""
        n_features = X.shape[1]
        self.shape_ = self._resolve_scale(n_features)
        extents = column_extents(X)
        if self.bounds is not None:
            lower = column_or_row(self.bounds[0], n_features, name="bounds[0]")
            upper = column_or_row(self.bounds[1], n_features, name="bounds[1]")
            if np.any(upper <= lower):
                bad = int(np.flatnonzero(upper <= lower)[0])
                raise ValueError(
                    f"bounds are degenerate in dimension {bad}: upper "
                    f"({upper[bad]}) must be strictly greater than lower ({lower[bad]})."
                )
        else:
            lower, upper = extents
        span = upper - lower
        # Degenerate dimensions -- constant, or so narrow (a subnormal span)
        # that the cell width underflows to zero -- get a unit span so every
        # point lands in interval 0 instead of dividing by zero.
        shape = np.asarray(self.shape_, dtype=np.float64)
        span = np.where(span <= 0, 1.0, span)
        # Expand the top edge slightly: paper intervals are right-open, so the
        # maximum value must fall strictly inside the last cell.
        upper = lower + span * (1.0 + 1e-9)
        span = np.where((upper - lower) / shape > 0, span, 1.0)
        upper = lower + span * (1.0 + 1e-9)
        if outside_bounds(extents, lower, upper):
            raise ValueError("some samples fall outside the provided bounds.")
        self.lower_ = np.asarray(lower, dtype=np.float64)
        self.upper_ = np.asarray(upper, dtype=np.float64)
        self.widths_ = (self.upper_ - self.lower_) / np.asarray(self.shape_, dtype=np.float64)
        return self

    @classmethod
    def from_fitted(
        cls,
        lower: Sequence[float],
        upper: Sequence[float],
        shape: Sequence[int],
    ) -> "GridQuantizer":
        """Rebuild a fitted quantizer from frozen bounds and interval counts.

        This is the deserialization path of the serving layer: a saved
        :class:`~repro.serve.ClusterModel` stores exactly ``(lower_, upper_,
        shape_)``, and this constructor restores a quantizer that maps new
        points onto the identical grid without ever seeing the training data.
        """
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        shape = tuple(check_positive_int(s, name="shape", minimum=1) for s in shape)
        if lower.ndim != 1 or lower.shape != upper.shape or len(shape) != len(lower):
            raise ValueError(
                "lower, upper and shape must be 1-D and of equal length; got "
                f"{lower.shape}, {upper.shape} and {len(shape)} entries."
            )
        if np.any(upper <= lower):
            bad = int(np.flatnonzero(upper <= lower)[0])
            raise ValueError(
                f"bounds are degenerate in dimension {bad}: upper "
                f"({upper[bad]}) must be strictly greater than lower ({lower[bad]})."
            )
        quantizer = cls(scale=shape)
        quantizer.shape_ = shape
        quantizer.lower_ = lower.copy()
        quantizer.upper_ = upper.copy()
        quantizer.widths_ = (upper - lower) / np.asarray(shape, dtype=np.float64)
        return quantizer

    def coarsen(self, factor: int) -> "GridQuantizer":
        """The quantizer mapping points to their cell here ``// factor``.

        One fused encode against ``factor`` times the cell width: for a
        power-of-two ``factor`` that is exact, clipping included, because
        scaling by a power of two commutes with floating-point rounding.
        """
        self._check_fitted()
        factor = check_positive_int(factor, name="factor")
        if factor & (factor - 1):
            raise ValueError(f"factor must be a power of two; got {factor}.")
        coarse = GridQuantizer.from_fitted(
            self.lower_, self.upper_, self.codec.coarsen(factor).shape
        )
        coarse.widths_ = self.widths_ * factor
        return coarse

    def _check_fitted(self) -> None:
        if self.lower_ is None or self.upper_ is None or self.shape_ is None:
            raise RuntimeError("GridQuantizer must be fitted before use.")

    @property
    def codec(self) -> CellCodec:
        """The :class:`~repro.grid.codec.CellCodec` of the fitted grid."""
        self._check_fitted()
        return CellCodec(self.shape_)

    def _points(self, X, allow_empty: bool = False) -> np.ndarray:
        """``X`` validated against the fitted grid's dimensionality."""
        self._check_fitted()
        X = check_array(X, name="X", allow_empty=allow_empty)
        if X.shape[1] != len(self.shape_):
            raise ValueError(
                f"X has {X.shape[1]} features but the quantizer was fitted on {len(self.shape_)}."
            )
        return X

    def transform(self, X) -> np.ndarray:
        """Map points to ``(n_samples, d)`` cell coordinates (the test oracle)."""
        X = self._points(X)
        cells = np.floor((X - self.lower_) / self.widths_).astype(np.int64)
        # Clip to the valid range so points exactly on the closed upper bound
        # (or passed through explicit bounds) stay inside the grid.
        cells = np.clip(cells, 0, np.asarray(self.shape_, dtype=np.int64) - 1)
        return cells

    def transform_with_mask(self, X) -> Tuple[np.ndarray, np.ndarray]:
        """Encode arbitrary points, flagging the ones outside the grid.

        The serving-side entry point: new points may fall anywhere.  Returns
        ``(codes, inside)``, the cell codes in :attr:`codec` and a mask of
        the points within the fitted bounds; outside points are clipped into
        edge cells (in float, so |x| ~ 1e30 encodes cleanly) and should be
        ignored (the serving layer labels them noise).
        """
        X = self._points(X, allow_empty=True)
        inside = np.ones(len(X), dtype=bool)
        for axis, column in enumerate(X.T):
            inside &= (column >= self.lower_[axis]) & (column <= self.upper_[axis])
        return self.codec.encode_points(X, self.lower_, self.widths_), inside

    def fit_transform(self, X) -> QuantizationResult:
        """Fit the bounds and quantize ``X`` in one call (Algorithm 2).

        ``X`` is validated once; the validated array both fits the bounds
        and is quantized.
        """
        X = check_array(X, name="X")
        return self._fit(X)._quantize(X)

    def quantize(self, X) -> QuantizationResult:
        """Quantize ``X`` into a :class:`QuantizationResult` using fitted bounds."""
        return self._quantize(self._points(X))

    def _quantize(self, X: np.ndarray) -> QuantizationResult:
        """:meth:`quantize` on a validated array of the fitted width."""
        codes = self.codec.encode_points(X, self.lower_, self.widths_)
        grid, inverse = SparseGrid.from_point_codes(self.shape_, codes)
        return QuantizationResult(
            grid=grid,
            inverse=inverse,
            lower=self.lower_.copy(),
            upper=self.upper_.copy(),
            widths=self.widths_.copy(),
        )

    def cell_centers(self, cells: Sequence[Tuple[int, ...]]) -> np.ndarray:
        """Feature-space centre coordinates of the given cells."""
        self._check_fitted()
        cells_arr = np.asarray(list(cells), dtype=np.float64)
        if cells_arr.ndim != 2 or cells_arr.shape[1] != len(self.shape_):
            raise ValueError("cells must be a sequence of d-dimensional coordinates.")
        return self.lower_ + (cells_arr + 0.5) * self.widths_
