"""E9 benchmark -- grid-pyramid auto-tuning overhead and quality.

The fast tier-1 budgets guard the tentpole claim two ways:

* evaluating a 4-scale dyadic pyramid from one quantization sketch must
  cost at most 2x a single fixed-scale fit, and the 4-policy threshold
  sweep at most 2.5x, at n = 1M, d = 2 -- the sweeps reuse the sketch, they
  do not refit per scale (the naive refit-per-scale alternative is timed in
  the same table for contrast and lands near 4x).  The ratios are taken at
  n = 1M because the fixed fit they divide by is linear in n while the
  sweep's grid passes are not: at n = 100k the grid passes dominate and the
  ratio no longer tells a sweep that re-touches the points from one that
  does not;
* at n = 100k, each sweep passes the points through the cell codec's point
  encode exactly once.

The slow-marked deep sweep runs the tuned-vs-fixed AMI comparison across
the synthetic noise suite and prints the full tables (run with
``pytest benchmarks/ -m slow``).
"""

import pytest

from repro.core.adawave import AdaWave
from repro.datasets import scaled_runtime_dataset
from repro.experiments import (
    format_table,
    run_tune_overhead,
    run_tuning_comparison,
    run_widened_sweep_overhead,
)

SWEEP_OVERHEAD_CEILING = 2.0    # 4-scale sweep vs single fixed-scale fit
WIDENED_SWEEP_CEILING = 2.5     # 4-policy threshold sweep vs single fit
TUNED_AMI_FLOOR = 0.95          # tuned noise-aware AMI vs best fixed pow2 scale


def test_bench_tune_sweep_overhead(benchmark):
    """A 4-scale pyramid sweep must cost <= 2x one fixed-scale fit.

    n = 1M, d = 2, base scale 128 with factors (1, 2, 4, 8): the sweep
    quantizes once, derives the coarser grids by exact coarsening and runs
    only the cheap grid-side stages per scale.  If this ratio regresses, the
    sweep has started re-touching the points.
    """
    result = benchmark.pedantic(
        lambda: run_tune_overhead(
            n_points=1_000_000,
            base_scale=128,
            factors=(1, 2, 4, 8),
            repeats=3,
            include_default_tune=True,
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(result))
    sweep_ratio = result.metadata["sweep_ratio"]
    assert sweep_ratio <= SWEEP_OVERHEAD_CEILING, (
        f"a 4-scale pyramid sweep costs {sweep_ratio:.2f}x a single fixed fit; "
        f"the ceiling is {SWEEP_OVERHEAD_CEILING}x -- the sweep must reuse the "
        "quantization sketch rather than refit."
    )
    # Sanity on the contrast row: refitting per scale must cost clearly more
    # than sweeping the same scales from one sketch.
    assert result.metadata["refit_ratio"] > result.metadata["sweep_ratio"]


def test_bench_tune_sweep_encodes_points_once(encoded_points):
    """``AdaWave(scale="tune")`` at n = 100k encodes the points once: every
    coarser resolution comes from the one sketch."""
    X = scaled_runtime_dataset(100_000, seed=0).points
    AdaWave(scale="tune").fit(X)
    assert encoded_points == [len(X)]


def test_bench_widened_sweep_overhead(benchmark):
    """Sweeping all four threshold policies must cost <= 2.5x one fit.

    n = 1M, d = 2, fixed scale 128: ``AdaWave(threshold="tune")``
    quantizes once and reruns only the ``O(cells)`` grid-side stages per
    level policy, so the widened axis stays a small multiple of a single
    fixed fit.  A regression here means a policy pass started re-touching
    the points (or re-quantizing per candidate).
    """
    result = benchmark.pedantic(
        lambda: run_widened_sweep_overhead(
            n_points=1_000_000, base_scale=128, repeats=3
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(result))
    widened_ratio = result.metadata["widened_ratio"]
    assert widened_ratio <= WIDENED_SWEEP_CEILING, (
        f"the 4-policy threshold sweep costs {widened_ratio:.2f}x a single "
        f"fixed fit; the ceiling is {WIDENED_SWEEP_CEILING}x -- the sweep "
        "must reuse the one quantization sketch."
    )


def test_bench_widened_sweep_encodes_points_once(encoded_points):
    """``AdaWave(threshold="tune")`` at n = 100k encodes the points once:
    every level policy runs on the one sketch."""
    X = scaled_runtime_dataset(100_000, seed=0).points
    AdaWave(scale=128, threshold="tune").fit(X)
    assert encoded_points == [len(X)]


@pytest.mark.slow
def test_bench_tune_quality_deep_sweep(benchmark):
    """Tuned-vs-fixed AMI across the noise suite, plus the overhead table at
    a larger size; asserts the 0.95 quality floor the tier-1 tests pin on
    two noise levels holds across the whole sweep."""
    def _sweep():
        quality = run_tuning_comparison(
            noise_fractions=(0.2, 0.3, 0.5, 0.65, 0.75, 0.9),
            n_per_cluster=5600,
            seed=0,
        )
        overhead = run_tune_overhead(n_points=500_000, repeats=2)
        return quality, overhead

    quality, overhead = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print()
    print(format_table(quality))
    print()
    print(format_table(overhead))
    assert quality.metadata["min_ratio"] >= TUNED_AMI_FLOOR, (
        f"worst tuned/best-fixed AMI ratio is {quality.metadata['min_ratio']:.3f}; "
        f"the floor is {TUNED_AMI_FLOOR}."
    )
