"""The dyadic grid pyramid: every power-of-two resolution from one pass.

Quantizing ``n`` points is the only stage of the AdaWave pipeline that
touches the data; everything after it runs over the (much smaller) occupied
cells.  Because cell coordinates at ``s`` intervals are exactly the cell
coordinates at ``2s`` intervals floor-divided by two
(:meth:`repro.grid.SparseGrid.coarsen`), one quantization at a fine
power-of-two base scale determines the quantization at *every* coarser
dyadic scale -- exactly, bit for bit, in ``O(cells)`` per level.

:class:`GridPyramid` materializes that ladder.  The tuning sweep evaluates
the clustering pipeline on each level; the streaming path uses the same
identity to ingest at the fine base resolution and serve at whichever coarser
resolution the sweep picks ("ingest fine, serve coarse"), which settles the
dyadic case of the grid re-binning question.  Rescaling between
*non*-power-of-two resolutions remains impossible without re-quantizing the
points (cell boundaries do not nest), which is why the pyramid insists on
power-of-two base scales.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.grid.sparse_grid import SparseGrid

#: Fine base resolution per dimensionality used by ``scale="tune"``.  A
#: function of the dimensionality alone -- never of the sample count -- so
#: one-shot fits, streams and shards of the same data all agree on the base
#: grid and streaming tuning stays exactly order- and split-invariant.
_DEFAULT_BASE_SCALES = {1: 256, 2: 256, 3: 128, 4: 64, 5: 32, 6: 32}
_DEFAULT_BASE_SCALE_HIGH_DIM = 16

#: Coarsest useful resolution: below 8 intervals the wavelet transform
#: (which halves the grid again) leaves too few cells to cluster.
DEFAULT_MIN_SCALE = 8


def default_base_scale(n_features: int) -> int:
    """The fine power-of-two base resolution ``scale="tune"`` quantizes at."""
    if n_features < 1:
        raise ValueError(f"n_features must be >= 1; got {n_features}.")
    return _DEFAULT_BASE_SCALES.get(n_features, _DEFAULT_BASE_SCALE_HIGH_DIM)


def is_power_of_two(value: int) -> bool:
    """True when ``value`` is a positive power of two."""
    value = int(value)
    return value >= 1 and (value & (value - 1)) == 0


@dataclass
class PyramidLevel:
    """One resolution of the pyramid.

    Attributes
    ----------
    factor:
        Downsampling factor from the base grid (1, 2, 4, ...).
    scale:
        Interval counts of this level (``base_scale // factor``).
    grid:
        The quantization sketch at this resolution -- identical to what
        quantizing the original points at ``scale`` would have produced.
    """

    factor: int
    scale: Tuple[int, ...]
    grid: SparseGrid


class GridPyramid:
    """Dyadic ladder of quantizations derived from one fine base grid.

    Parameters
    ----------
    base_grid:
        Quantization of the data at the (power-of-two) base resolution.
    min_scale:
        Stop coarsening once the smallest dimension would fall below this
        many intervals (default 8).
    factors:
        Explicit downsampling factors instead of the automatic ladder; each
        must be a power of two that divides every base-scale entry.

    Attributes
    ----------
    levels:
        The :class:`PyramidLevel` list, finest (factor 1) first.
    """

    def __init__(
        self,
        base_grid: SparseGrid,
        *,
        min_scale: int = DEFAULT_MIN_SCALE,
        factors: Optional[Sequence[int]] = None,
    ) -> None:
        base_scale = base_grid.shape
        # A single-level "pyramid" (explicit factors all 1) never coarsens,
        # so nesting is moot and any base scale works -- this is how the
        # non-resolution sweep axes (wavelet, threshold policy) stay
        # reachable at explicit non-power-of-two scales.
        trivial = factors is not None and all(int(f) == 1 for f in factors)
        if not trivial:
            for size in base_scale:
                if not is_power_of_two(size):
                    raise ValueError(
                        f"grid pyramids require power-of-two base scales so that "
                        f"cell boundaries nest exactly across levels; got shape "
                        f"{base_scale}. Use a power-of-two scale (e.g. "
                        f"AdaWave.auto_scale) or an explicit integer scale "
                        f"without tuning."
                    )
        if factors is None:
            factors = []
            factor = 1
            while min(base_scale) // factor >= max(int(min_scale), 1):
                factors.append(factor)
                factor *= 2
            if not factors:
                factors = [1]
        else:
            factors = [int(f) for f in factors]
            for factor in factors:
                if not is_power_of_two(factor):
                    raise ValueError(
                        f"pyramid factors must be powers of two; got {factor}."
                    )
                if factor > min(base_scale):
                    raise ValueError(
                        f"factor {factor} exceeds the smallest base-scale "
                        f"entry of {min(base_scale)}."
                    )
            if sorted(set(factors)) != factors:
                raise ValueError(
                    f"pyramid factors must be strictly increasing and unique; "
                    f"got {factors}."
                )
        self.base_scale: Tuple[int, ...] = base_scale
        self.levels: List[PyramidLevel] = []
        # Each level coarsens the previous one by the factor ratio -- floor
        # division composes, so this equals coarsening the base directly but
        # touches far fewer cells on the deep levels.
        current = base_grid
        current_factor = 1
        for factor in factors:
            step = factor // current_factor
            if step > 1:
                current = current.coarsen(step)
                current_factor = factor
            scale = tuple(size // factor for size in base_scale)
            self.levels.append(PyramidLevel(factor=factor, scale=scale, grid=current))

    @property
    def factors(self) -> Tuple[int, ...]:
        """The downsampling factors, finest first."""
        return tuple(level.factor for level in self.levels)

    def __iter__(self):
        return iter(self.levels)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GridPyramid(base={self.base_scale}, factors={self.factors}, "
            f"occupied={self.levels[0].grid.n_occupied if self.levels else 0})"
        )
