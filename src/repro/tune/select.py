"""Candidate selection and the :class:`TuneResult` provenance record."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.grid.sparse_grid import SparseGrid
from repro.tune.pyramid import DEFAULT_MIN_SCALE, GridPyramid
from repro.tune.scoring import CandidateScore, score_candidates
from repro.tune.sweep import sweep_pyramid


@dataclass
class TuneResult:
    """Outcome of one grid-pyramid tuning sweep.

    Attributes
    ----------
    best:
        The winning :class:`~repro.tune.scoring.CandidateScore`.
    scores:
        Every scored candidate, in sweep order (per decomposition level,
        finest resolution first).
    base_scale:
        Interval counts of the base quantization the pyramid was built from.
    """

    best: CandidateScore
    scores: List[CandidateScore]
    base_scale: Tuple[int, ...]

    def __post_init__(self) -> None:
        # Snapshot everything the provenance surface needs, so compact()
        # can release the per-candidate sweep intermediates afterwards.
        self._threshold = float(self.best.candidate.pipeline.threshold.threshold)
        self._rows: List[Dict[str, Any]] = []
        for score in self.scores:
            candidate = score.candidate
            self._rows.append(
                {
                    "scale": "x".join(str(s) for s in candidate.scale)
                    if len(set(candidate.scale)) > 1
                    else int(candidate.scale[0]),
                    "level": candidate.level,
                    "wavelet": candidate.wavelet,
                    "threshold_method": candidate.threshold_method,
                    "n_clusters": candidate.n_clusters,
                    "noise_fraction": float(candidate.noise_fraction),
                    "threshold": float(candidate.pipeline.threshold.threshold),
                    "stability": score.stability,
                    "noise_sanity": score.noise_sanity,
                    "sharpness": score.sharpness,
                    "concentration": score.concentration,
                    "cluster_prior": score.cluster_prior,
                    "retention": score.retention,
                    "score": score.total,
                    "selected": score is self.best,
                }
            )

    @property
    def scale(self) -> Union[int, Tuple[int, ...]]:
        """The selected resolution (an int when isotropic)."""
        scale = self.best.candidate.scale
        if len(set(scale)) == 1:
            return int(scale[0])
        return scale

    @property
    def level(self) -> int:
        """The decomposition levels the selected candidate's transform applied."""
        return self.best.candidate.level

    @property
    def wavelet(self) -> str:
        """The selected wavelet basis (trivial unless the basis was swept)."""
        return self.best.candidate.wavelet

    @property
    def threshold_method(self) -> str:
        """The selected level policy's canonical name (e.g. ``"global-hard"``)."""
        return self.best.candidate.threshold_method

    @property
    def threshold(self) -> float:
        """The adaptive threshold the winning candidate selected."""
        return self._threshold

    def table(self) -> List[Dict[str, Any]]:
        """Per-candidate score table (one plain dict per candidate).

        Render with :func:`repro.experiments.format_table` via an
        ``ExperimentResult``, or consume directly; every row is
        JSON-serializable.  Available before and after :meth:`compact`.
        """
        return [dict(row) for row in self._rows]

    def compact(self) -> "TuneResult":
        """Release the sweep intermediates, keeping the provenance surface.

        Each candidate's coarsened grid, transformed grid and per-base-cell
        label array are only needed during selection; an estimator that
        retains the :class:`TuneResult` for provenance would otherwise pin
        several megabytes of sweep scratch for its lifetime.  The score
        table, chosen scale/level/threshold and every scalar diagnostic
        survive compaction.
        """
        for score in self.scores:
            score.candidate.grid = None
            score.candidate.pipeline = None
            score.candidate.base_cell_labels = None
        return self

    def provenance(self) -> Dict[str, Any]:
        """JSON-able record of how the scale was chosen (for model artifacts).

        Persisted into :class:`~repro.serve.ClusterModel` metadata so a
        served model carries the evidence for its own resolution.
        """
        return {
            "method": "grid-pyramid sweep",
            "base_scale": list(self.base_scale),
            "chosen_scale": list(self.best.candidate.scale),
            "chosen_level": self.level,
            "chosen_wavelet": self.wavelet,
            "chosen_threshold_method": self.threshold_method,
            "n_candidates": len(self.scores),
            "candidates": self.table(),
        }


def select_best(scores: Sequence[CandidateScore]) -> CandidateScore:
    """The highest-scoring candidate; ties go to the finer resolution.

    Raises ``ValueError`` when every candidate is degenerate (score 0 with
    fewer than two clusters everywhere) -- there is nothing defensible to
    pick, and silently serving a no-cluster model would be worse.
    """
    if not scores:
        raise ValueError("no candidates to select from.")
    best = max(scores, key=lambda s: (s.total, -s.candidate.factor, -s.candidate.level))
    if best.total <= 0 and best.candidate.n_clusters < 2:
        raise ValueError(
            "tuning failed: no candidate resolution produced at least two "
            "clusters. The data may be all noise or a single cluster at every "
            "dyadic scale; fit with an explicit scale to inspect the result."
        )
    return best


def tune_pyramid(
    base_grid: SparseGrid,
    *,
    levels: Sequence[int] = (1,),
    min_scale: int = DEFAULT_MIN_SCALE,
    factors: Optional[Sequence[int]] = None,
    **pipeline_params,
) -> TuneResult:
    """Build the pyramid from one base quantization, sweep, score and select.

    The complete tuning pass: ``O(cells)`` per candidate after the single
    quantization that produced ``base_grid``.  ``pipeline_params`` are the
    grid-side stage parameters; a ``wavelet`` sequence and
    ``threshold="tune"`` widen the sweep beyond resolutions (see
    :func:`repro.tune.sweep.sweep_pyramid`), all from this one shared
    quantization.  ``factors=(1,)`` pins the resolution to the base scale so
    only the non-resolution axes sweep.
    """
    pyramid = GridPyramid(base_grid, min_scale=min_scale, factors=factors)
    candidates = sweep_pyramid(pyramid, levels=levels, **pipeline_params)
    scores = score_candidates(candidates, pyramid.levels[0].grid.values)
    return TuneResult(
        best=select_best(scores), scores=scores, base_scale=pyramid.base_scale
    )
