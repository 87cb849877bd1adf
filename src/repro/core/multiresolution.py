"""Multi-resolution clustering (Section IV-F, last property).

Because the wavelet transform is layered (the Mallat algorithm decomposes the
approximation again at every level), a single quantization of the data can be
clustered at several resolutions: low levels preserve fine structure, high
levels merge nearby groups.  ``MultiResolutionAdaWave`` shares the work the
way the tuning sweep does: the data is quantized *once*, the shared
grid-side pipeline (:func:`repro.core.pipeline.run_grid_pipeline`, the same
function the :mod:`repro.tune` sweep runs per pyramid level) runs once per
requested level over that sketch, and only the final label lookup touches
the points again -- so clustering ``L`` levels costs about one fit plus
``L`` cheap grid passes, not ``L`` full fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.adawave import AdaWave, AdaWaveResult, build_result
from repro.grid.quantizer import GridQuantizer
from repro.utils.validation import check_array


@dataclass
class ResolutionLevel:
    """Clustering produced at one decomposition level."""

    level: int
    labels: np.ndarray
    n_clusters: int
    threshold: float
    result: AdaWaveResult


class MultiResolutionAdaWave:
    """Run AdaWave at several wavelet decomposition levels.

    Parameters
    ----------
    scale:
        Quantization intervals per dimension (shared by every level);
        ``"auto"`` resolves through :meth:`AdaWave.auto_scale`.  For
        data-driven *scale* selection use ``AdaWave(scale="tune",
        tune_levels=...)`` instead, which sweeps resolutions and levels
        jointly.
    wavelet:
        Wavelet basis name.
    levels:
        Iterable of decomposition levels to evaluate (default ``(1, 2, 3)``).
    **adawave_kwargs:
        Remaining keyword arguments forwarded to :class:`AdaWave`.

    Attributes
    ----------
    levels_:
        List of :class:`ResolutionLevel`, one per requested level, in order.
    labels_:
        Labels of the *selected* level (see ``select``), populated by
        :meth:`fit`.
    """

    def __init__(
        self,
        scale: Union[int, Sequence[int], str] = 128,
        wavelet: str = "bior2.2",
        levels: Sequence[int] = (1, 2, 3),
        select: str = "finest",
        **adawave_kwargs,
    ) -> None:
        if not levels:
            raise ValueError("levels must contain at least one decomposition level.")
        if any(int(level) < 1 for level in levels):
            raise ValueError(f"every level must be >= 1; got {list(levels)}.")
        if select not in ("finest", "coarsest", "most_clusters"):
            raise ValueError(
                f"select must be 'finest', 'coarsest' or 'most_clusters'; got {select!r}."
            )
        if isinstance(scale, str) and scale == "tune":
            raise ValueError(
                "MultiResolutionAdaWave evaluates fixed decomposition levels; "
                "for joint scale + level selection use "
                "AdaWave(scale='tune', tune_levels=...)."
            )
        self.scale = scale
        self.wavelet = wavelet
        self.levels = [int(level) for level in levels]
        self.select = select
        self.adawave_kwargs = adawave_kwargs

        self.levels_: List[ResolutionLevel] = []
        self.labels_: Optional[np.ndarray] = None
        self.selected_level_: Optional[int] = None

    def fit(self, X) -> "MultiResolutionAdaWave":
        """Cluster ``X`` at every requested level over one shared quantization."""
        from repro.core.pipeline import run_grid_pipeline

        X = check_array(X, name="X")
        # A template estimator validates the configuration and carries the
        # shared parameter resolution (scale heuristic, pipeline params).
        template = AdaWave(
            scale=self.scale,
            wavelet=self.wavelet,
            level=self.levels[0],
            **self.adawave_kwargs,
        )
        if X.shape[0] < 2 and template.bounds is None:
            raise ValueError(
                "AdaWave cannot infer a quantization grid from a single sample; "
                "provide at least 2 samples or explicit bounds=(lower, upper)."
            )
        scale = template._resolve_scale(X.shape[0], X.shape[1])
        quantizer = GridQuantizer(scale=scale, bounds=template.bounds)
        quantization = quantizer.fit_transform(X)
        # One grid-side pipeline pass per level over the shared sketch (the
        # same machinery the tuning sweep runs per pyramid level).
        self.levels_ = []
        for level in self.levels:
            pipe = run_grid_pipeline(
                quantization.grid, level=level, **template._pipeline_params()
            )
            result = build_result(quantization, pipe)
            self.levels_.append(
                ResolutionLevel(
                    level=level,
                    labels=result.labels,
                    n_clusters=result.n_clusters,
                    threshold=result.threshold.threshold,
                    result=result,
                )
            )
        selected = self._select_level()
        self.selected_level_ = selected.level
        self.labels_ = selected.labels
        return self

    def fit_predict(self, X) -> np.ndarray:
        """Fit at every level and return the labels of the selected level."""
        return self.fit(X).labels_

    def _select_level(self) -> ResolutionLevel:
        if self.select == "finest":
            return min(self.levels_, key=lambda item: item.level)
        if self.select == "coarsest":
            return max(self.levels_, key=lambda item: item.level)
        return max(self.levels_, key=lambda item: item.n_clusters)

    def labels_by_level(self) -> Dict[int, np.ndarray]:
        """Mapping of level to label vector (after :meth:`fit`)."""
        return {item.level: item.labels for item in self.levels_}

    def cluster_counts(self) -> Dict[int, int]:
        """Mapping of level to number of detected clusters."""
        return {item.level: item.n_clusters for item in self.levels_}
