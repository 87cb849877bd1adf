"""E9 -- grid-pyramid auto-tuning: quality and overhead (this repo).

Two questions the tuning subsystem must answer with numbers:

* **Quality** -- does ``AdaWave(scale="tune")`` pick, without ground-truth
  labels, a resolution whose noise-aware AMI is competitive with the best
  fixed power-of-two scale?  :func:`run_tuning_comparison` sweeps the
  paper's synthetic noise suite and reports tuned-vs-fixed AMI per noise
  level.
* **Overhead** -- does sweeping ``S`` resolutions really cost about one fit
  plus ``S`` cheap grid passes, rather than ``S`` fits?
  :func:`run_tune_overhead` times a single fixed-scale fit, a pyramid sweep
  over several scales reusing that fit's quantization sketch, and the naive
  alternative of refitting per scale.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from repro.core.adawave import AdaWave
from repro.datasets.synthetic import noise_sweep_dataset, scaled_runtime_dataset
from repro.experiments.runner import ExperimentResult
from repro.grid.lookup import transformed_codes
from repro.grid.quantizer import GridQuantizer
from repro.metrics import ami_on_true_clusters
from repro.tune import tune_pyramid


def run_tuning_comparison(
    noise_fractions: Sequence[float] = (0.3, 0.5, 0.75, 0.9),
    n_per_cluster: int = 1500,
    fixed_scales: Sequence[int] = (8, 16, 32, 64, 128, 256),
    seed: int = 0,
) -> ExperimentResult:
    """Tuned-vs-fixed AMI on the synthetic noise suite (one row per fit).

    For every noise level, every fixed power-of-two scale is fitted and
    scored with the noise-aware AMI protocol, then ``AdaWave(scale="tune")``
    runs once (never seeing the labels) and is scored the same way.  The
    metadata reports the per-noise-level ratio of tuned AMI to the best
    fixed AMI; the acceptance bar elsewhere in the repo is 0.95.
    """
    result = ExperimentResult(
        experiment="E9: tuned vs fixed scale (noise suite)",
        columns=["noise", "scale", "ami", "n_clusters", "seconds", "tuned"],
        metadata={
            "noise_fractions": list(noise_fractions),
            "n_per_cluster": n_per_cluster,
            "fixed_scales": list(fixed_scales),
            "seed": seed,
        },
    )
    ratios = {}
    for noise in noise_fractions:
        dataset = noise_sweep_dataset(
            noise_fraction=noise, n_per_cluster=n_per_cluster, seed=seed
        )
        best_fixed = 0.0
        for scale in fixed_scales:
            model = AdaWave(scale=scale)
            start = time.perf_counter()
            model.fit(dataset.points)
            elapsed = time.perf_counter() - start
            ami = ami_on_true_clusters(dataset.labels, model.labels_)
            best_fixed = max(best_fixed, ami)
            result.add_row(
                noise=noise, scale=scale, ami=float(ami),
                n_clusters=model.n_clusters_, seconds=float(elapsed), tuned="",
            )
        tuned = AdaWave(scale="tune")
        start = time.perf_counter()
        tuned.fit(dataset.points)
        elapsed = time.perf_counter() - start
        tuned_ami = ami_on_true_clusters(dataset.labels, tuned.labels_)
        result.add_row(
            noise=noise,
            scale=tuned.tune_result_.scale,
            ami=float(tuned_ami),
            n_clusters=tuned.n_clusters_,
            seconds=float(elapsed),
            tuned="<- tuned",
        )
        ratios[noise] = float(tuned_ami / best_fixed) if best_fixed > 0 else 1.0
    result.metadata["tuned_to_best_fixed_ratio"] = ratios
    result.metadata["min_ratio"] = min(ratios.values()) if ratios else 1.0
    return result


def run_tune_overhead(
    n_points: int = 100_000,
    base_scale: int = 128,
    factors: Sequence[int] = (1, 2, 4, 8),
    noise_fraction: float = 0.75,
    seed: int = 0,
    repeats: int = 3,
    include_default_tune: bool = True,
) -> ExperimentResult:
    """Wall-clock cost of the pyramid sweep against single and repeated fits.

    Three timed configurations, best of ``repeats`` each:

    * ``fixed fit`` -- one ``AdaWave(scale=base_scale)`` fit, the baseline;
    * ``pyramid sweep`` -- quantize once at ``base_scale``, evaluate every
      ``factors`` resolution from that one sketch (:func:`tune_pyramid`) and
      label the points at the winning resolution: the tentpole claim is that
      this costs about one fit plus ``len(factors)`` grid passes;
    * ``refit per scale`` -- the naive alternative the sweep replaces: one
      full fit per resolution.

    ``include_default_tune`` adds the end-to-end ``AdaWave(scale="tune")``
    default (finer base, more resolutions) as an informational row.
    Metadata carries ``sweep_ratio`` (sweep / fixed fit) -- the benchmark
    floor asserts it stays <= 2 -- and ``refit_ratio`` for contrast.
    """
    dataset = scaled_runtime_dataset(n_points, noise_fraction=noise_fraction, seed=seed)
    X = dataset.points
    scales = [base_scale // factor for factor in factors]

    def _best(fn) -> float:
        best = np.inf
        for _ in range(max(repeats, 1)):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    def _sweep() -> None:
        quantization = GridQuantizer(scale=base_scale).fit_transform(X)
        tuned = tune_pyramid(quantization.grid, factors=tuple(factors))
        best = tuned.best.candidate
        grid = quantization.grid
        best.pipeline.index.lookup(
            transformed_codes(grid.codec, grid.codes, best.pipeline.level, best.factor)
        )[quantization.inverse]

    def _refit_all() -> None:
        for scale in scales:
            AdaWave(scale=scale).fit(X)

    seconds_fixed = _best(lambda: AdaWave(scale=base_scale).fit(X))
    seconds_sweep = _best(_sweep)
    seconds_refit = _best(_refit_all)

    result = ExperimentResult(
        experiment="E9: pyramid-sweep overhead",
        columns=["configuration", "scales", "seconds", "ratio_to_fixed"],
        metadata={
            "n_points": dataset.n_samples,
            "base_scale": base_scale,
            "factors": list(factors),
            "noise_fraction": noise_fraction,
            "seed": seed,
            "sweep_ratio": float(seconds_sweep / max(seconds_fixed, 1e-9)),
            "refit_ratio": float(seconds_refit / max(seconds_fixed, 1e-9)),
        },
    )
    result.add_row(
        configuration="fixed fit", scales=str(base_scale),
        seconds=float(seconds_fixed), ratio_to_fixed=1.0,
    )
    result.add_row(
        configuration=f"pyramid sweep ({len(scales)} scales)",
        scales=",".join(map(str, scales)),
        seconds=float(seconds_sweep),
        ratio_to_fixed=result.metadata["sweep_ratio"],
    )
    result.add_row(
        configuration="refit per scale",
        scales=",".join(map(str, scales)),
        seconds=float(seconds_refit),
        ratio_to_fixed=result.metadata["refit_ratio"],
    )
    if include_default_tune:
        seconds_default = _best(lambda: AdaWave(scale="tune").fit(X))
        result.metadata["default_tune_ratio"] = float(
            seconds_default / max(seconds_fixed, 1e-9)
        )
        result.add_row(
            configuration="AdaWave(scale='tune') default",
            scales="auto (dyadic pyramid)",
            seconds=float(seconds_default),
            ratio_to_fixed=result.metadata["default_tune_ratio"],
        )
    return result


def run_widened_sweep_overhead(
    n_points: int = 100_000,
    base_scale: int = 128,
    noise_fraction: float = 0.75,
    seed: int = 0,
    repeats: int = 3,
) -> ExperimentResult:
    """Wall-clock cost of the threshold-policy sweep against a single fit.

    ``AdaWave(threshold="tune")`` at a fixed scale quantizes once and runs
    one grid pass per level policy ({hard, soft} x {global, per-level MAD}),
    so the widened sweep must cost a small multiple of one fit -- the
    grid-side stages are ``O(cells)``, never ``O(points)``.  Metadata
    carries ``widened_ratio`` (widened sweep / fixed fit); the benchmark
    ceiling pins it at 2.5x for the n = 100k configuration.
    """
    dataset = scaled_runtime_dataset(n_points, noise_fraction=noise_fraction, seed=seed)
    X = dataset.points

    def _best(fn) -> float:
        best = np.inf
        for _ in range(max(repeats, 1)):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    seconds_fixed = _best(lambda: AdaWave(scale=base_scale).fit(X))
    widened = AdaWave(scale=base_scale, threshold="tune")
    seconds_widened = _best(lambda: widened.fit(X))

    result = ExperimentResult(
        experiment="E9: widened threshold-sweep overhead",
        columns=["configuration", "policies", "seconds", "ratio_to_fixed"],
        metadata={
            "n_points": dataset.n_samples,
            "base_scale": base_scale,
            "noise_fraction": noise_fraction,
            "seed": seed,
            "chosen_threshold_method": widened.threshold_method_,
            "widened_ratio": float(seconds_widened / max(seconds_fixed, 1e-9)),
        },
    )
    result.add_row(
        configuration="fixed fit",
        policies="global-hard",
        seconds=float(seconds_fixed),
        ratio_to_fixed=1.0,
    )
    result.add_row(
        configuration="threshold sweep (4 policies)",
        policies="{hard,soft} x {global,per-level}",
        seconds=float(seconds_widened),
        ratio_to_fixed=result.metadata["widened_ratio"],
    )
    return result
