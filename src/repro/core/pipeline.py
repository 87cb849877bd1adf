"""The grid-side AdaWave pipeline stages as reusable free functions.

Everything that happens *after* quantization -- the per-dimension wavelet
transform (Algorithm 3), the adaptive threshold (Algorithm 4), the
connected-component cluster extraction and the small-component suppression --
only ever touches the occupied-cell arrays, never the points.  This module
packages those stages as one function over a :class:`SparseGrid` so that the
three consumers share a single implementation:

* :class:`~repro.core.adawave.AdaWave` runs it once per fit / finalize;
* :class:`~repro.core.multiresolution.MultiResolutionAdaWave` runs it once
  per decomposition level over one shared quantization;
* the :mod:`repro.tune` sweep runs it once per grid-pyramid level, which is
  what makes evaluating many resolutions cost ``O(cells)`` each instead of a
  full refit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.core.threshold import TIE_SNAP_RELATIVE, ThresholdDiagnostics, adaptive_threshold
from repro.core.transform import applied_level, wavelet_smooth_grid
from repro.grid.connectivity import label_components_array
from repro.grid.lookup import CellLabelIndex
from repro.grid.sparse_grid import SparseGrid
from repro.obs.trace import Trace
from repro.wavelets.thresholding import LevelPolicy

#: Dimensionalities up to which ``connectivity="auto"`` resolves to "full".
_FULL_CONNECTIVITY_MAX_DIM = 3

THRESHOLD_METHODS = ("auto", "segments", "angle", "distance", "none")
CONNECTIVITIES = ("auto", "face", "full")

def snapped_cut(threshold: float) -> float:
    """Tie-stable survivor cut for a selected density threshold.

    Cells survive when their density exceeds ``threshold`` by more than a
    relative epsilon, so the survivor set is the same whether the
    coefficients came from lifting or from convolution, even where their
    rounding differs on exact ties.  Shared by the vectorized extraction and
    the reference engine.
    """
    return threshold + TIE_SNAP_RELATIVE * max(1.0, abs(threshold))


def resolve_connectivity(connectivity: str, ndim: int) -> str:
    """Resolve ``"auto"`` connectivity: full for up to 3-D data, face beyond."""
    if connectivity != "auto":
        return connectivity
    return "full" if ndim <= _FULL_CONNECTIVITY_MAX_DIM else "face"


def select_threshold(
    transformed: SparseGrid, method: str, angle_divisor: float = 3.0
) -> ThresholdDiagnostics:
    """Pick the density threshold on a transformed grid (Algorithm 4)."""
    if method not in THRESHOLD_METHODS:
        raise ValueError(
            f"threshold_method must be one of {THRESHOLD_METHODS}; got {method!r}."
        )
    densities = transformed.values
    if method == "none":
        sorted_densities = np.sort(densities)[::-1]
        return ThresholdDiagnostics(
            threshold=0.0, index=len(densities) - 1, method="none",
            sorted_densities=sorted_densities,
        )
    if method == "distance":
        from repro.core.threshold import elbow_threshold_distance

        return elbow_threshold_distance(densities)
    if method == "segments":
        from repro.core.threshold import elbow_threshold_segments

        return elbow_threshold_segments(densities)
    if method == "angle":
        from repro.core.threshold import elbow_threshold_angle

        diagnostics = elbow_threshold_angle(densities, angle_divisor=angle_divisor)
        if diagnostics is None:
            raise RuntimeError(
                "the angle criterion did not trigger; use threshold_method='auto' "
                "to fall back to the chord rule."
            )
        return diagnostics
    return adaptive_threshold(densities)


def extract_clusters(
    transformed: SparseGrid,
    threshold: float,
    ndim: int,
    connectivity: str,
    min_cluster_cells: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Surviving transformed cells and their component labels (vectorized).

    Prunes cells at or below ``threshold`` (with the tie-stable
    :func:`snapped_cut`, so kernel rounding cannot flip exact density
    ties), labels the connected components of the survivors and drops
    components smaller than ``min_cluster_cells`` (relabelling the
    remainder to a dense ``0..k-1`` range).  Returns the ``(k,)`` sorted
    codes of the surviving cells in ``transformed.codec`` and the aligned
    ``(k,)`` labels.
    """
    surviving = transformed.prune(snapped_cut(threshold))
    codes = surviving.codes
    if len(codes) == 0:
        return codes, np.empty(0, dtype=np.int64)
    resolved = resolve_connectivity(connectivity, ndim)
    labels = label_components_array(surviving.coords, connectivity=resolved)
    if min_cluster_cells > 1 and len(labels):
        counts = np.bincount(labels)
        keep = counts >= min_cluster_cells
        if not keep.all():
            relabel = np.cumsum(keep) - 1
            cell_keep = keep[labels]
            codes = codes[cell_keep]
            labels = relabel[labels[cell_keep]]
    return codes, labels


@dataclass
class GridPipelineResult:
    """Everything the grid-side stages produce for one (grid, level) run.

    ``index`` holds the surviving transformed cells (codes of
    ``transformed.codec``) and their cluster ids; ``n_clusters`` counts the
    distinct ids.  ``level`` counts the levels the transform applied
    (:func:`~repro.core.transform.applied_level`), so an input cell ``c``
    maps to ``c // 2 ** level``.  The result is point-free: objects are
    labelled by a separate lookup in ``index``.

    ``stage_seconds`` is the wall-clock breakdown of this run over the three
    grid-side stages (``transform`` / ``threshold`` / ``extract``) -- the
    :meth:`~repro.obs.trace.Trace.stage_seconds` of the run's spans, the
    same record the serving plane keeps per request, here available for
    tuning provenance and artifact metadata.  ``wavelet`` records the
    basis and ``threshold_policy`` the canonical level-policy name the run
    used (provenance for artifacts).
    """

    transformed: SparseGrid
    threshold: ThresholdDiagnostics
    index: CellLabelIndex
    n_clusters: int
    level: int
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    wavelet: str = "bior2.2"
    threshold_policy: str = "global-hard"

    @property
    def cell_coords(self) -> np.ndarray:
        """``(k, d)`` surviving transformed cells, in sorted order."""
        return self.index.codec.decode(self.index.codes)

    @property
    def cell_labels(self) -> np.ndarray:
        """``(k,)`` cluster ids aligned with :attr:`cell_coords`."""
        return self.index.labels


def run_grid_pipeline(
    grid: SparseGrid,
    *,
    wavelet="bior2.2",
    level: int = 1,
    threshold="hard",
    threshold_method: str = "auto",
    connectivity: str = "auto",
    min_cluster_cells: int = 3,
    angle_divisor: float = 3.0,
) -> GridPipelineResult:
    """Run transform, threshold and component extraction on one grid.

    Cost is ``O(occupied cells * scale)`` -- it never touches the points, so
    callers holding one quantization can afford to run it many times (per
    decomposition level, per pyramid resolution, ...).

    Each stage runs in a :meth:`~repro.obs.trace.Trace.span`; the per-run
    breakdown is ``GridPipelineResult.stage_seconds``.

    ``threshold`` selects the denoising level policy
    (:class:`~repro.wavelets.LevelPolicy` or one of its spellings --
    ``"hard"``, ``"soft"``, ``"per-level-hard"``, ``"per-level-soft"``).
    The default ``"hard"`` (global-hard) is the paper's pipeline: the
    adaptive elbow criterion is itself the global hard cut, so no extra
    wavelet-domain pass runs.  The other policies add a MAD-scaled
    VisuShrink shrinkage in the wavelet domain before the elbow; the elbow
    selection (``threshold_method``) and survivor extraction are unchanged.
    """
    policy = LevelPolicy.parse(threshold)
    trace = Trace()
    with trace.span("transform"):
        transformed, _shape = wavelet_smooth_grid(
            grid, wavelet=wavelet, level=level,
            shrink=policy if policy.denoises else None,
        )
    with trace.span("threshold"):
        diagnostics = select_threshold(transformed, threshold_method, angle_divisor)
    with trace.span("extract"):
        cell_codes, cell_labels = extract_clusters(
            transformed, diagnostics.threshold, grid.ndim, connectivity,
            min_cluster_cells,
        )
    n_clusters = int(cell_labels.max()) + 1 if len(cell_labels) else 0
    return GridPipelineResult(
        transformed=transformed,
        threshold=diagnostics,
        index=CellLabelIndex(transformed.codec, cell_codes, cell_labels),
        n_clusters=n_clusters,
        level=applied_level(grid.shape, level),
        stage_seconds=trace.stage_seconds(),
        wavelet=getattr(wavelet, "name", None) or str(wavelet),
        threshold_policy=policy.name,
    )
