"""Evaluate the clustering pipeline on every grid-pyramid level.

The expensive part of an AdaWave fit is the single pass over the points
(quantization plus the final label lookup); the grid-side stages cost only
``O(occupied cells * scale)``.  The sweep exploits that: given a pyramid
derived from one quantization, it runs transform + threshold + components on
every (resolution, decomposition-level) candidate and collects label-free
diagnostics for the scoring step -- so sweeping ``S`` resolutions costs
about one fit plus ``S`` cheap grid passes, not ``S`` fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.pipeline import GridPipelineResult, run_grid_pipeline
from repro.core.transform import applied_level
from repro.grid.lookup import NOISE_LABEL, transformed_codes
from repro.grid.sparse_grid import SparseGrid
from repro.tune.pyramid import GridPyramid, PyramidLevel
from repro.wavelets.thresholding import LevelPolicy

#: Level policies ``threshold="tune"`` sweeps, default (the paper's
#: global-hard pipeline) first so score ties resolve to it.
DEFAULT_THRESHOLD_SWEEP = ("hard", "soft", "per-level-hard", "per-level-soft")


@dataclass
class Candidate:
    """One evaluated (resolution, decomposition level) configuration.

    Attributes
    ----------
    factor:
        Downsampling factor of the pyramid level the candidate ran on.
    scale:
        Interval counts of that level.
    level:
        Wavelet decomposition levels the pipeline's transform applied (the
        requested level, or fewer once an axis is down to one cell).
    n_clusters:
        Number of clusters the candidate produced.
    noise_fraction:
        Fraction of the total point mass that falls in filtered (noise)
        cells.  Computed from cell densities, not labels.
    grid:
        The quantization sketch at this resolution (shared with the
        pyramid).  ``None`` after :meth:`~repro.tune.TuneResult.compact`.
    pipeline:
        The grid-side pipeline output (transformed grid, threshold
        diagnostics, surviving cells and their cluster ids).  ``None``
        after :meth:`~repro.tune.TuneResult.compact`.
    base_cell_labels:
        Cluster id per *base-grid* occupied cell under this candidate's
        clustering (noise = -1), aligned with the base grid's ``codes``.
        This is what lets the scoring step compare two candidates'
        partitions -- mass-weighted over cells -- without touching points.
        ``None`` after :meth:`~repro.tune.TuneResult.compact`.
    wavelet:
        Name of the wavelet basis the candidate ran with (a sweep axis when
        the estimator is given a sequence of bases).
    threshold_method:
        Canonical level-policy name the candidate ran with (a sweep axis
        under ``threshold="tune"``).
    """

    factor: int
    scale: Tuple[int, ...]
    level: int
    n_clusters: int
    noise_fraction: float
    grid: Optional[SparseGrid]
    pipeline: Optional[GridPipelineResult]
    base_cell_labels: Optional[np.ndarray]
    wavelet: str = "bior2.2"
    threshold_method: str = "global-hard"


def evaluate_candidate(
    pyramid_level: PyramidLevel,
    base: SparseGrid,
    *,
    level: int = 1,
    base_factor: int = 1,
    **pipeline_params,
) -> Candidate:
    """Run the grid pipeline on one pyramid level and derive its diagnostics.

    ``base`` is the grid every candidate is compared over -- the pyramid's
    *finest materialized* level, whose own downsampling factor is
    ``base_factor`` (1 unless the pyramid was built with explicit factors
    that skip 1).  Every candidate's per-cell cluster assignment is
    expressed over its occupied cells so candidates at different
    resolutions are directly comparable.
    """
    pipe = run_grid_pipeline(pyramid_level.grid, level=level, **pipeline_params)
    # A comparison cell's transformed-space cell under this candidate:
    # coarsen from the comparison resolution to the candidate resolution
    # (// relative factor), then apply the levels the transform applied
    # (// 2**level) -- one combined shift.  Factors are powers of two and
    # increasing, so the division is exact.
    base_cell_labels = pipe.index.lookup(
        transformed_codes(
            base.codec, base.codes, pipe.level, pyramid_level.factor // base_factor
        )
    )
    base_values = base.values
    total_mass = float(base_values.sum())
    if total_mass > 0:
        noise_mass = float(base_values[base_cell_labels == NOISE_LABEL].sum())
        noise_fraction = noise_mass / total_mass
    else:
        noise_fraction = 1.0
    return Candidate(
        factor=pyramid_level.factor,
        scale=pyramid_level.scale,
        level=pipe.level,
        n_clusters=pipe.n_clusters,
        noise_fraction=noise_fraction,
        grid=pyramid_level.grid,
        pipeline=pipe,
        base_cell_labels=base_cell_labels,
        wavelet=pipe.wavelet,
        threshold_method=pipe.threshold_policy,
    )


def sweep_pyramid(
    pyramid: GridPyramid,
    *,
    levels: Sequence[int] = (1,),
    **pipeline_params,
) -> List[Candidate]:
    """Evaluate every (pyramid x decomposition x wavelet x policy) candidate.

    Returns the candidates grouped by (decomposition level, wavelet,
    threshold policy), finest resolution first within each group -- the
    order the scoring step's adjacent-scale comparisons expect.  A pyramid
    grid too coarse for a requested level runs the levels it can take
    (:func:`~repro.core.transform.applied_level`), so two requested levels
    can name one candidate; each distinct (factor, applied level, wavelet,
    policy) is evaluated once, at the first requested level that reaches it.
    ``pipeline_params`` are the grid-side stage parameters; two of them are
    sweep axes rather than scalars: a ``wavelet`` *sequence* sweeps the
    basis family, and ``threshold="tune"`` sweeps the level policies in
    :data:`DEFAULT_THRESHOLD_SWEEP` (default policy first, so score ties
    resolve to the paper's global-hard pipeline).
    """
    levels = [int(lv) for lv in levels]
    if not levels or any(lv < 1 for lv in levels):
        raise ValueError(f"levels must be a non-empty sequence of ints >= 1; got {levels}.")
    wavelet_spec = pipeline_params.pop("wavelet", "bior2.2")
    if isinstance(wavelet_spec, (list, tuple)):
        wavelets = tuple(wavelet_spec)
        if not wavelets:
            raise ValueError("a swept wavelet sequence must not be empty.")
    else:
        wavelets = (wavelet_spec,)
    threshold_spec = pipeline_params.pop("threshold", "hard")
    if isinstance(threshold_spec, str) and threshold_spec == "tune":
        thresholds = DEFAULT_THRESHOLD_SWEEP
    else:
        thresholds = (threshold_spec,)
    for spec in thresholds:
        LevelPolicy.parse(spec)  # fail fast, before any candidate runs
    base = pyramid.levels[0].grid
    base_factor = pyramid.levels[0].factor
    candidates: List[Candidate] = []
    seen = set()
    for level, wavelet, threshold, pyramid_level in product(
        levels, wavelets, thresholds, pyramid.levels
    ):
        key = (
            pyramid_level.factor,
            applied_level(pyramid_level.grid.shape, level),
            getattr(wavelet, "name", None) or str(wavelet),
            LevelPolicy.parse(threshold).name,
        )
        if key in seen:
            continue
        seen.add(key)
        candidates.append(
            evaluate_candidate(
                pyramid_level,
                base,
                level=level,
                base_factor=base_factor,
                wavelet=wavelet,
                threshold=threshold,
                **pipeline_params,
            )
        )
    return candidates
