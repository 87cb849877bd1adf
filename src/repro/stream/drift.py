"""Label-free drift detection between a live sketch and a served model.

A served :class:`~repro.serve.ClusterModel` is a frozen claim about where
the clusters are; the live :class:`~repro.stream.StreamSketch` keeps saying
where the mass actually is.  :class:`DriftMonitor` compares the two with the
same label-free criteria the tuning sweep uses (:mod:`repro.tune.scoring`),
entirely over occupied cells -- no points, no ground-truth labels:

* **noise-band mass shift** -- the fraction of the sketch mass that falls in
  cells the served model filters as noise.  At publish time this fraction is
  recorded as the baseline; a distribution shift (clusters moving out from
  under their cells, the noise floor rising) drags the live fraction away
  from it.
* **partition-stability drop** -- re-run the cheap grid-side pipeline
  (transform, threshold, components) on the live sketch coarsened to the
  serving resolution and compare the resulting partition of the sketch cells
  against the served model's partition, mass-weighted
  (:func:`~repro.tune.scoring.weighted_partition_nmi`).  While the
  distribution is stationary the fresh partition reproduces the served one
  and the agreement stays near 1; once the structure moves, it drops.

Both checks cost ``O(cells)`` plus one grid-side pipeline pass at the
serving resolution -- cheap enough to run every few batches on a live
stream.  The sketch cells' transformed-cell codes are computed once per
check and looked up in the served model's own index and the fresh run's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.pipeline import run_grid_pipeline
from repro.grid.lookup import NOISE_LABEL, transformed_codes
from repro.grid.sparse_grid import SparseGrid
from repro.serve.model import ClusterModel
from repro.tune.scoring import weighted_partition_nmi
from repro.utils.validation import NotFittedError


@dataclass(frozen=True)
class DriftReport:
    """Outcome of one drift check of a live sketch against a served model.

    Attributes
    ----------
    drifted:
        True when at least one criterion crossed its threshold.
    stability:
        Mass-weighted NMI between the served partition and a fresh pipeline
        partition of the live sketch at the serving resolution (1 = the
        served model still explains the stream perfectly).
    noise_fraction:
        Fraction of the live sketch mass falling in cells the served model
        labels as noise.
    noise_shift:
        ``|noise_fraction - baseline|`` where the baseline was recorded when
        the served model was published.
    n_seen:
        Raw samples the sketch had ingested at check time.
    reasons:
        Human-readable criterion violations (empty when not drifted).
    """

    drifted: bool
    stability: float
    noise_fraction: float
    noise_shift: float
    n_seen: int
    reasons: Tuple[str, ...] = ()


class DriftMonitor:
    """Flags when a served model no longer explains the live sketch.

    Parameters
    ----------
    min_stability:
        Drift is flagged when the mass-weighted partition agreement between
        the served model and a fresh pipeline run on the live sketch falls
        below this value.
    max_noise_shift:
        Drift is flagged when the live noise-band mass fraction moves more
        than this far from the fraction recorded at publish time.
    wavelet, threshold, threshold_method, connectivity, min_cluster_cells,
    angle_divisor:
        Grid-side pipeline parameters for the fresh partition; use the same
        values the serving models are tuned with.  Sweep-axis specs are
        resolved against the served model at check time: a ``wavelet``
        sequence or ``threshold="tune"`` makes the fresh pass adopt the
        basis / level policy the served model's metadata records (falling
        back to the defaults when the artifact predates that provenance),
        so the drift score measures distribution shift rather than a
        configuration mismatch.

    Attributes
    ----------
    model_:
        The served model currently monitored (set by :meth:`rebase`).
    baseline_noise_fraction_:
        Noise-band mass fraction of the sketch at publish time.
    """

    def __init__(
        self,
        *,
        min_stability: float = 0.7,
        max_noise_shift: float = 0.15,
        wavelet: str = "bior2.2",
        threshold="hard",
        threshold_method: str = "auto",
        connectivity: str = "auto",
        min_cluster_cells: int = 3,
        angle_divisor: float = 3.0,
    ) -> None:
        if not 0.0 <= min_stability <= 1.0:
            raise ValueError(f"min_stability must be in [0, 1]; got {min_stability}.")
        if not 0.0 < max_noise_shift <= 1.0:
            raise ValueError(f"max_noise_shift must be in (0, 1]; got {max_noise_shift}.")
        self.min_stability = float(min_stability)
        self.max_noise_shift = float(max_noise_shift)
        if not (isinstance(threshold, str) and threshold == "tune"):
            from repro.wavelets.thresholding import LevelPolicy

            LevelPolicy.parse(threshold)  # fail fast on typos
        self._pipeline_params = dict(
            wavelet=wavelet,
            threshold=threshold,
            threshold_method=threshold_method,
            connectivity=connectivity,
            min_cluster_cells=min_cluster_cells,
            angle_divisor=angle_divisor,
        )
        self.model_: Optional[ClusterModel] = None
        self.baseline_noise_fraction_: Optional[float] = None

    def _fresh_params(self) -> dict:
        """Pipeline params for the fresh pass, sweep specs pinned to the model.

        A re-tuning controller hands this monitor the same widened axis
        specs it sweeps with (``threshold="tune"``, a wavelet sequence); the
        fresh partition must instead reproduce the *served* configuration,
        which the swapped model's metadata records.  Artifacts that predate
        the provenance keys fall back to the defaults.
        """
        params = dict(self._pipeline_params)
        metadata = self.model_.metadata if self.model_ is not None else {}
        threshold = params.get("threshold", "hard")
        if isinstance(threshold, str) and threshold == "tune":
            params["threshold"] = metadata.get("threshold_method") or "hard"
        wavelet = params.get("wavelet", "bior2.2")
        if isinstance(wavelet, (list, tuple)):
            params["wavelet"] = metadata.get("wavelet") or "bior2.2"
        return params

    # -- geometry ---------------------------------------------------------------

    def _serving_factors(self, sketch) -> np.ndarray:
        """Per-dimension downsampling from the sketch grid to the model grid."""
        sketch_shape = np.asarray(sketch.shape, dtype=np.int64)
        model_shape = np.asarray(self.model_.grid_shape, dtype=np.int64)
        if sketch_shape.shape != model_shape.shape:
            raise ValueError(
                f"served model is {len(model_shape)}-D but the sketch is "
                f"{len(sketch_shape)}-D."
            )
        factors = sketch_shape // model_shape
        if np.any(factors < 1) or np.any(factors * model_shape != sketch_shape):
            raise ValueError(
                f"served model resolution {tuple(model_shape)} does not nest in "
                f"the sketch resolution {tuple(sketch_shape)}; the model must be "
                "tuned from (a dyadic coarsening of) the sketch grid."
            )
        if not (
            np.allclose(sketch.lower, self.model_.lower)
            and np.allclose(sketch.upper, self.model_.upper)
        ):
            raise ValueError(
                "served model and sketch were quantized against different "
                "bounds; drift scores between them are meaningless."
            )
        return factors

    def _served_partition(
        self, sketch, factors: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Served label, transformed-cell code and mass per live sketch
        cell, and the noise fraction."""
        grid: SparseGrid = sketch.grid
        values = grid.values
        codes = transformed_codes(grid.codec, grid.codes, self.model_.level, factors)
        served = self.model_.index.lookup(codes)
        total = float(values.sum())
        if total > 0:
            noise_fraction = float(values[served == NOISE_LABEL].sum()) / total
        else:
            noise_fraction = 1.0
        return served, codes, values, noise_fraction

    # -- public API -------------------------------------------------------------

    def rebase(self, model: ClusterModel, sketch) -> "DriftMonitor":
        """Adopt ``model`` as the served baseline for the given sketch state.

        Called at publish time (and after every re-tune): records the model
        and the sketch's current noise-band mass fraction under it, so later
        :meth:`assess` calls measure the *shift* since publication rather
        than the absolute level.
        """
        if not isinstance(model, ClusterModel):
            raise TypeError(
                f"can only monitor ClusterModel artifacts; got {type(model).__name__}."
            )
        self.model_ = model
        factors = self._serving_factors(sketch)
        _, _, _, noise_fraction = self._served_partition(sketch, factors)
        self.baseline_noise_fraction_ = noise_fraction
        return self

    def assess(self, sketch) -> DriftReport:
        """Score the live sketch against the served baseline.

        ``sketch`` is a :class:`~repro.stream.StreamSketch` or
        :class:`~repro.stream.SketchSnapshot`.  Requires :meth:`rebase`
        first.
        """
        if self.model_ is None or self.baseline_noise_fraction_ is None:
            raise NotFittedError(
                "DriftMonitor.assess called before rebase(); publish a served "
                "model first so there is a baseline to drift from."
            )
        factors = self._serving_factors(sketch)
        served, codes, values, noise_fraction = self._served_partition(sketch, factors)

        # Fresh partition of the same cells: what the pipeline says *now*
        # about the mass the sketch holds, at the serving resolution and the
        # served level (so its transformed grid is the served one).
        coarse = sketch.grid.coarsen(factors)
        pipe = run_grid_pipeline(coarse, level=self.model_.level, **self._fresh_params())
        fresh = pipe.index.lookup(codes)
        stability = weighted_partition_nmi(served, fresh, values)

        noise_shift = abs(noise_fraction - self.baseline_noise_fraction_)
        reasons = []
        if stability < self.min_stability:
            reasons.append(
                f"partition stability {stability:.3f} fell below "
                f"{self.min_stability:.3f}"
            )
        if noise_shift > self.max_noise_shift:
            reasons.append(
                f"noise-band mass fraction shifted by {noise_shift:.3f} "
                f"(baseline {self.baseline_noise_fraction_:.3f}, "
                f"live {noise_fraction:.3f}, tolerance {self.max_noise_shift:.3f})"
            )
        return DriftReport(
            drifted=bool(reasons),
            stability=float(stability),
            noise_fraction=float(noise_fraction),
            noise_shift=float(noise_shift),
            n_seen=int(sketch.n_seen),
            reasons=tuple(reasons),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DriftMonitor(min_stability={self.min_stability}, "
            f"max_noise_shift={self.max_noise_shift}, "
            f"baseline={self.baseline_noise_fraction_})"
        )
