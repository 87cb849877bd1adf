"""Reference (dict-based) implementations of the AdaWave pipeline stages.

These are the straightforward per-cell Python implementations the project
started from: a dict count of the points' cells for quantization, dense lines
grouped in a dict for the wavelet pass, hash probing for connected components
and a memoised per-point loop for the final label lookup.  They borrow none
of the production grid machinery (no line grouping, code grouping, neighbour
join or vectorized labeling); :class:`~repro.grid.sparse_grid.SparseGrid`
only holds their results, built from ``{cell: density}`` dicts and read back
with :meth:`~repro.grid.sparse_grid.SparseGrid.items`.  They are kept for
three reasons:

* :func:`fit_reference` runs the whole pipeline through them, which is what
  the golden-regression layer and the runtime benchmark compare the
  vectorized engine against;
* the Hypothesis equivalence tests assert stage-by-stage agreement between
  the two engines on random inputs;
* they document the algorithm in its most literal form.

They are deliberately *not* optimised -- the vectorized versions living in
:mod:`repro.grid`, :mod:`repro.core.transform` and :mod:`repro.spatial` are
the production path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.grid.connectivity import neighbor_offsets
from repro.grid.lookup import NOISE_LABEL
from repro.grid.quantizer import GridQuantizer, QuantizationResult
from repro.grid.sparse_grid import SparseGrid
from repro.spatial.union_find import UnionFind
from repro.wavelets.dwt import dwt
from repro.wavelets.filters import build_wavelet

Cell = Tuple[int, ...]

_NEGLIGIBLE = 1e-9


def quantize_reference(quantizer: GridQuantizer, X: np.ndarray) -> QuantizationResult:
    """Per-point accumulation of the cell counts (Algorithm 2, literal)."""
    point_cells = list(map(tuple, quantizer.transform(X).tolist()))
    counts: Dict[Cell, int] = {}
    for cell in point_cells:
        counts[cell] = counts.get(cell, 0) + 1  # G.get(gid) += 1
    row_of = {cell: row for row, cell in enumerate(sorted(counts))}
    return QuantizationResult(
        grid=SparseGrid(quantizer.shape_, counts),
        inverse=np.array([row_of[cell] for cell in point_cells], dtype=np.int64),
        lower=quantizer.lower_.copy(),
        upper=quantizer.upper_.copy(),
        widths=quantizer.widths_.copy(),
    )


def lines_reference(grid: SparseGrid, axis: int) -> Dict[Cell, np.ndarray]:
    """The occupied lines of ``grid`` along ``axis`` as dense density vectors.

    Keyed by the cell with its ``axis`` entry removed; only lines holding at
    least one occupied cell appear.
    """
    lines: Dict[Cell, np.ndarray] = {}
    for cell, density in grid.items():
        key = cell[:axis] + cell[axis + 1 :]
        if key not in lines:
            lines[key] = np.zeros(grid.shape[axis])
        lines[key][cell[axis]] = density
    return lines


def _transform_axis_reference(grid: SparseGrid, wavelet, axis: int) -> SparseGrid:
    """Single-level low-pass transform along one axis, one line at a time."""
    new_shape = list(grid.shape)
    new_shape[axis] = (grid.shape[axis] + 1) // 2
    transformed: Dict[Cell, float] = {}
    for key, line in lines_reference(grid, axis).items():
        approx, _detail = dwt(line, wavelet, mode="periodization")
        for position, value in enumerate(approx):
            if abs(value) > _NEGLIGIBLE:
                transformed[key[:axis] + (position,) + key[axis:]] = float(value)
    return SparseGrid(new_shape, transformed)


def wavelet_smooth_grid_reference(
    grid: SparseGrid, wavelet: str = "bior2.2", level: int = 1
) -> Tuple[SparseGrid, int]:
    """Per-line wavelet smoothing of the grid (Algorithm 3, literal).

    Returns the transformed grid and the number of levels applied: the pass
    stops once an axis is down to one cell.
    """
    if level < 1:
        raise ValueError(f"level must be >= 1; got {level}.")
    bank = build_wavelet(wavelet)
    current = grid
    applied = 0
    while applied < level and min(current.shape) >= 2:
        for axis in range(current.ndim):
            current = _transform_axis_reference(current, bank, axis)
        applied += 1
    return current, applied


def connected_components_reference(cells, connectivity: str = "face") -> Dict[Cell, int]:
    """Hash-probing connected components with sorted-cell deterministic labels.

    Every cell probes its positive neighbour offsets in a set of the
    occupied cells and unions the hits; labels ``0, 1, 2, ...`` go to the
    components in order of their first cell.
    """
    cell_list = sorted(set(tuple(int(c) for c in cell) for cell in cells))
    if not cell_list:
        return {}
    ndim = len(cell_list[0])
    if any(len(cell) != ndim for cell in cell_list):
        raise ValueError("all cells must have the same dimensionality.")
    offsets = neighbor_offsets(ndim, connectivity)
    occupied = set(cell_list)
    union = UnionFind(cell_list)
    for cell in cell_list:
        for offset in offsets:
            neighbor = tuple(c + o for c, o in zip(cell, offset))
            if neighbor in occupied:
                union.union(cell, neighbor)
    root_to_label: Dict[Cell, int] = {}
    return {
        cell: root_to_label.setdefault(union.find(cell), len(root_to_label))
        for cell in cell_list
    }


def label_points_reference(
    point_cells: np.ndarray,
    transformed_labels: Dict[Cell, int],
    level: int,
) -> np.ndarray:
    """Memoised per-point label lookup (the original ``label_points``).

    An original cell ``c`` takes the label of its transformed cell
    ``c // 2 ** level``, where ``level`` is the number of levels the
    transform applied.
    """
    transformed = np.asarray(point_cells, dtype=np.int64) // 2**level
    labels = np.full(transformed.shape[0], NOISE_LABEL, dtype=np.int64)
    cache: Dict[Cell, int] = {}
    for index, cell in enumerate(map(tuple, transformed.tolist())):
        if cell not in cache:
            cache[cell] = transformed_labels.get(cell, NOISE_LABEL)
        labels[index] = cache[cell]
    return labels


@dataclass
class ReferenceFitResult:
    """Output of a one-shot :func:`fit_reference` run (pipeline artefacts)."""

    labels: np.ndarray
    n_clusters: int
    threshold: float
    surviving_cells: Dict[Cell, int]
    quantization: QuantizationResult
    transformed_grid: SparseGrid


def fit_reference(
    X: np.ndarray,
    *,
    scale=128,
    wavelet: str = "bior2.2",
    level: int = 1,
    threshold_method: str = "auto",
    connectivity: str = "auto",
    min_cluster_cells: int = 3,
    angle_divisor: float = 3.0,
    bounds=None,
) -> ReferenceFitResult:
    """Run the whole AdaWave pipeline through the reference implementations.

    The literal-engine counterpart of ``AdaWave(...).fit(X)``, with the same
    parameter semantics (threshold selection is shared with the vectorized
    path -- it operates on a plain density vector either way).  This is the
    entry point the golden-regression and engine-equivalence tests compare
    the vectorized estimator against.
    """
    from repro.core.pipeline import resolve_connectivity, select_threshold

    X = np.asarray(X, dtype=np.float64)
    quantizer = GridQuantizer(scale=scale, bounds=bounds)
    quantizer.fit(X)
    quantization = quantize_reference(quantizer, X)
    transformed, applied = wavelet_smooth_grid_reference(
        quantization.grid, wavelet=wavelet, level=level
    )
    threshold = select_threshold(transformed, threshold_method, angle_divisor)
    surviving = extract_clusters_reference(
        transformed,
        threshold.threshold,
        resolve_connectivity(connectivity, X.shape[1]),
        min_cluster_cells,
    )
    labels = label_points_reference(quantization.cell_ids, surviving, applied)
    return ReferenceFitResult(
        labels=labels,
        n_clusters=len(set(surviving.values())) if surviving else 0,
        threshold=threshold.threshold,
        surviving_cells=surviving,
        quantization=quantization,
        transformed_grid=transformed,
    )


def extract_clusters_reference(
    transformed: SparseGrid,
    threshold: float,
    connectivity: str,
    min_cluster_cells: int,
) -> Dict[Cell, int]:
    """Threshold filter + components + small-component suppression (literal).

    Uses the same tie-stable cut as the vectorized extraction
    (:func:`repro.core.pipeline.snapped_cut`), so reference (convolution)
    and vectorized (lifting) survivor sets agree even on exact density ties
    at the threshold.
    """
    from repro.core.pipeline import snapped_cut

    cut = snapped_cut(threshold)
    surviving = [cell for cell, density in transformed.items() if density > cut]
    if not surviving:
        return {}
    labels = connected_components_reference(surviving, connectivity=connectivity)
    if min_cluster_cells > 1:
        sizes: Dict[int, int] = {}
        for label in labels.values():
            sizes[label] = sizes.get(label, 0) + 1
        keep = {label for label, size in sizes.items() if size >= min_cluster_cells}
        relabel = {old: new for new, old in enumerate(sorted(keep))}
        labels = {cell: relabel[label] for cell, label in labels.items() if label in keep}
    return labels
