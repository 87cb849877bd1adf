"""E6 -- the runtime comparison of Fig. 10.

The paper scales the number of objects (noise fixed at 75 %) and measures
wall-clock time for AdaWave, SkinnyDip, k-means, DBSCAN and EM.  The expected
shape: AdaWave grows linearly and ranks second fastest behind SkinnyDip,
while the distance-based methods grow much faster.  Absolute times depend on
the machine and implementation language (the paper mixes Python, R and Java
implementations and explicitly compares only asymptotic trends), so this
experiment reports seconds per algorithm per size and the fitted growth
exponent ``time ~ n**exponent``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

import numpy as np

from repro.baselines import DBSCAN, EMClustering, KMeans, SkinnyDip
from repro.core.adawave import AdaWave
from repro.datasets.synthetic import scaled_runtime_dataset
from repro.experiments.runner import ExperimentResult


def _fit_growth_exponent(sizes: Sequence[int], seconds: Sequence[float]) -> float:
    """Least-squares slope of log(time) against log(n)."""
    sizes_arr = np.asarray(sizes, dtype=np.float64)
    seconds_arr = np.maximum(np.asarray(seconds, dtype=np.float64), 1e-6)
    if len(sizes_arr) < 2:
        return 0.0
    design = np.vstack([np.log(sizes_arr), np.ones_like(sizes_arr)]).T
    slope, _intercept = np.linalg.lstsq(design, np.log(seconds_arr), rcond=None)[0]
    return float(slope)


def run_runtime_comparison(
    sizes: Sequence[int] = (2000, 4000, 8000, 16000),
    noise_fraction: float = 0.75,
    seed: int = 0,
    adawave_scale: int = 128,
    max_points_quadratic: int = 8000,
) -> ExperimentResult:
    """Regenerate the Fig. 10 runtime series.

    Returns one row per (algorithm, n) with the measured seconds, plus one
    summary row per algorithm with the fitted growth exponent.  Quadratic
    algorithms are skipped above ``max_points_quadratic`` so the experiment
    finishes in reasonable time; the skip itself reproduces the paper's point
    that they do not scale.
    """
    algorithms = {
        "AdaWave": lambda k: AdaWave(scale=adawave_scale),
        "SkinnyDip": lambda k: SkinnyDip(alpha=0.05, n_boot=50),
        "k-means": lambda k: KMeans(n_clusters=k, n_init=3, random_state=seed),
        "EM": lambda k: EMClustering(n_components=k, random_state=seed, max_iter=50),
        "DBSCAN": lambda k: DBSCAN(eps=0.05, min_samples=8),
    }
    quadratic = {"DBSCAN", "EM"}

    result = ExperimentResult(
        experiment="E6: runtime comparison (Fig. 10)",
        columns=["algorithm", "n", "seconds"],
        metadata={
            "sizes": list(sizes),
            "noise_fraction": noise_fraction,
            "seed": seed,
            "paper_reference": "AdaWave linear, second fastest after SkinnyDip",
        },
    )
    timings: Dict[str, List[float]] = {name: [] for name in algorithms}
    measured_sizes: Dict[str, List[int]] = {name: [] for name in algorithms}

    for n_total in sizes:
        dataset = scaled_runtime_dataset(n_total, noise_fraction=noise_fraction, seed=seed)
        true_k = max(dataset.n_clusters, 1)
        for name, factory in algorithms.items():
            if name in quadratic and dataset.n_samples > max_points_quadratic:
                continue
            estimator = factory(true_k)
            start = time.perf_counter()
            estimator.fit_predict(dataset.points)
            elapsed = time.perf_counter() - start
            result.add_row(algorithm=name, n=dataset.n_samples, seconds=float(elapsed))
            timings[name].append(float(elapsed))
            measured_sizes[name].append(dataset.n_samples)

    for name in algorithms:
        if len(timings[name]) >= 2:
            exponent = _fit_growth_exponent(measured_sizes[name], timings[name])
            result.add_row(algorithm=f"{name} (growth exponent)", n=None, seconds=exponent)
    return result


def run_engine_speedup(
    n_points: int = 100_000,
    scale: int = 128,
    noise_fraction: float = 0.75,
    seed: int = 0,
    repeats: int = 1,
) -> ExperimentResult:
    """Head-to-head runtime of the vectorized and reference AdaWave engines.

    Both engines run the identical pipeline (same grid, transform, threshold
    and labeling semantics -- the golden-regression tests pin that down), so
    the ratio isolates the cost of the per-cell Python data structures the
    vectorized engine replaced.  Reports one row per engine with the best
    wall-clock over ``repeats`` runs, plus a ``speedup`` summary row, and
    asserts nothing itself -- the benchmark layer does.
    """
    from repro.engine.reference import fit_reference

    dataset = scaled_runtime_dataset(n_points, noise_fraction=noise_fraction, seed=seed)
    result = ExperimentResult(
        experiment="engine speedup: vectorized vs reference",
        columns=["engine", "n", "seconds"],
        metadata={
            "n_points": dataset.n_samples,
            "scale": scale,
            "noise_fraction": noise_fraction,
            "seed": seed,
        },
    )
    runners = {
        "vectorized": lambda: AdaWave(scale=scale).fit_predict(dataset.points),
        "reference": lambda: fit_reference(dataset.points, scale=scale).labels,
    }
    seconds: Dict[str, float] = {}
    labels: Dict[str, np.ndarray] = {}
    for engine, runner in runners.items():
        best = np.inf
        for _ in range(max(repeats, 1)):
            start = time.perf_counter()
            labels[engine] = runner()
            best = min(best, time.perf_counter() - start)
        seconds[engine] = best
        result.add_row(engine=engine, n=dataset.n_samples, seconds=float(best))
    result.metadata["labels_identical"] = bool(
        np.array_equal(labels["vectorized"], labels["reference"])
    )
    result.add_row(
        engine="speedup (reference / vectorized)",
        n=None,
        seconds=float(seconds["reference"] / max(seconds["vectorized"], 1e-9)),
    )
    return result


def run_backend_speedup(
    n_points: int = 100_000,
    scale: int = 128,
    wavelet: str = "bior2.2",
    noise_fraction: float = 0.75,
    seed: int = 0,
    repeats: int = 10,
) -> ExperimentResult:
    """Transform-kernel time at the acceptance size: ``approx_lines`` vs ``dwt_batch``.

    Quantizes the n = 100k acceptance dataset once, extracts the real line
    matrix the fit would transform, and times
    :func:`repro.core.transform.approx_lines` (approximation half only)
    against the full ``dwt_batch`` (both halves) it replaces.  Reports one
    ``transform`` row per kernel (best of ``repeats`` x a small inner loop)
    and one ``speedup vs dwt_batch`` row; asserts nothing itself -- the
    benchmark layer does.
    """
    from repro.core.transform import approx_lines
    from repro.grid.quantizer import GridQuantizer
    from repro.wavelets.dwt import dwt_batch

    dataset = scaled_runtime_dataset(n_points, noise_fraction=noise_fraction, seed=seed)
    quantized = GridQuantizer(scale=scale).fit_transform(dataset.points)
    _keys, matrix = quantized.grid.line_matrix(0)

    result = ExperimentResult(
        experiment="transform kernel speedup: approx_lines vs full dwt_batch",
        columns=["kernel", "stage", "seconds"],
        metadata={
            "n_points": dataset.n_samples,
            "scale": scale,
            "wavelet": wavelet,
            "line_matrix_shape": list(matrix.shape),
            "seed": seed,
        },
    )

    inner = 5  # kernel calls per timing sample; the matrix transforms in ~100us

    def _best_of(call) -> float:
        best = np.inf
        for _ in range(max(repeats, 1)):
            start = time.perf_counter()
            for _ in range(inner):
                call()
            best = min(best, (time.perf_counter() - start) / inner)
        return float(best)

    baseline = _best_of(lambda: dwt_batch(matrix, wavelet))
    result.add_row(kernel="dwt_batch (full)", stage="transform", seconds=baseline)
    kernel = _best_of(lambda: approx_lines(matrix, wavelet))
    result.add_row(kernel="approx_lines", stage="transform", seconds=kernel)
    result.add_row(
        kernel="approx_lines",
        stage="speedup vs dwt_batch",
        seconds=float(baseline / max(kernel, 1e-12)),
    )
    return result
