"""Tests for repro.core.threshold and repro.core.transform."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import threshold as threshold_module
from repro.core.threshold import (
    ThresholdDiagnostics,
    adaptive_threshold,
    elbow_threshold_angle,
    elbow_threshold_distance,
    elbow_threshold_segments,
)
from repro.core.transform import grid_energy, wavelet_smooth_grid
from repro.grid.quantizer import GridQuantizer
from repro.grid.sparse_grid import SparseGrid


def three_regime_densities(rng=None, n_signal=30, n_middle=80, n_noise=600):
    """Synthetic density curve with the Fig. 6 structure: signal / middle / noise."""
    rng = rng or np.random.default_rng(0)
    signal = rng.uniform(60.0, 100.0, n_signal)
    middle = rng.uniform(12.0, 40.0, n_middle)
    noise = rng.uniform(0.0, 6.0, n_noise)
    return np.concatenate([signal, middle, noise])


def _full_broadcast_breakpoints(densities, max_curve_points=400):
    """The three-segment search scoring every breakpoint pair in one array."""
    values = np.sort(np.asarray(densities, dtype=np.float64))[::-1]
    curve = threshold_module._normalized_curve(values)
    if len(curve) > max_curve_points:
        sample_index = np.unique(
            np.round(np.linspace(0, len(curve) - 1, max_curve_points)).astype(int)
        )
    else:
        sample_index = np.arange(len(curve))
    x, y = curve[sample_index, 0], curve[sample_index, 1]
    n = len(sample_index)
    prefix = {
        key: np.concatenate([[0.0], np.cumsum(column)])
        for key, column in (("x", x), ("y", y), ("xx", x * x), ("yy", y * y), ("xy", x * y))
    }
    i_candidates = np.arange(2, n - 3)
    j_candidates = np.arange(4, n - 1)
    head = threshold_module._segment_sse(prefix, 0, i_candidates)
    tail = threshold_module._segment_sse(prefix, j_candidates, n)
    middle = threshold_module._segment_sse(prefix, i_candidates[:, None], j_candidates[None, :])
    total = head[:, None] + middle + tail[None, :]
    total[j_candidates[None, :] < i_candidates[:, None] + 2] = np.inf
    flat = int(np.argmin(total))
    i = int(i_candidates[flat // len(j_candidates)])
    j = int(j_candidates[flat % len(j_candidates)])
    return int(sample_index[i]), int(sample_index[j])


class TestSegmentsThreshold:
    @given(
        levels=st.lists(st.integers(min_value=0, max_value=6), min_size=6, max_size=900),
        scale=st.sampled_from([1.0, 0.1, 37.5]),
    )
    def test_blocked_search_matches_full_broadcast(self, levels, scale):
        """Ties, plateaus and the 400/401-point subsampling edge included."""
        densities = np.asarray(levels, dtype=np.float64) * scale
        result = elbow_threshold_segments(densities)
        if result.method == "degenerate":
            return
        assert result.breakpoints == _full_broadcast_breakpoints(densities)

    def test_threshold_separates_noise_from_middle(self):
        densities = three_regime_densities()
        result = elbow_threshold_segments(densities)
        assert result.method == "segments"
        # The chosen threshold must fall between the bulk of the noise and the
        # bulk of the middle regime.
        assert 3.0 <= result.threshold <= 20.0

    def test_result_contains_sorted_curve(self):
        result = elbow_threshold_segments(three_regime_densities())
        assert np.all(np.diff(result.sorted_densities) <= 0)
        assert result.breakpoints is not None and len(result.breakpoints) == 2

    def test_degenerate_constant_input(self):
        result = elbow_threshold_segments(np.full(20, 3.0))
        assert result.method == "degenerate"

    def test_too_few_values(self):
        result = elbow_threshold_segments([5.0, 1.0, 0.5])
        assert result.method == "degenerate"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            elbow_threshold_segments([])

    def test_subsampling_gives_similar_threshold(self):
        densities = three_regime_densities(n_noise=5000)
        coarse = elbow_threshold_segments(densities, max_curve_points=200)
        fine = elbow_threshold_segments(densities, max_curve_points=1200)
        assert abs(coarse.threshold - fine.threshold) < 15.0


class TestDistanceThreshold:
    def test_finds_knee_of_curve(self):
        result = elbow_threshold_distance(three_regime_densities())
        assert 0.0 < result.threshold < 60.0
        assert result.method == "distance"

    def test_degenerate_input(self):
        assert elbow_threshold_distance([1.0, 1.0]).method == "degenerate"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            elbow_threshold_distance([])

    def test_tied_points_pick_the_first_whatever_the_rounding(self):
        # A centrally symmetric curve has two points equally far from the
        # chord; the two engines round its densities differently in the last
        # ulps, which must not move the pick.
        for ulp in (0.0, 1e-14, -1e-14):
            assert elbow_threshold_distance([52.25, 51.75 + ulp, 8.25, 7.75]).index == 1
            assert elbow_threshold_distance([52.25, 51.75, 8.25 + ulp, 7.75]).index == 1
        # A straight curve has no knee: its distances are rounding noise and
        # the pick stays where exact arithmetic puts it.
        for ulp in (0.0, 1e-14, -1e-14):
            assert elbow_threshold_distance([42.75, 37.75, 32.75 + ulp, 27.75]).index == 0


class TestAngleThreshold:
    def test_returns_diagnostics_or_none(self):
        result = elbow_threshold_angle(three_regime_densities())
        assert result is None or isinstance(result, ThresholdDiagnostics)

    def test_invalid_divisor(self):
        with pytest.raises(ValueError):
            elbow_threshold_angle([3.0, 2.0, 1.0, 0.5], angle_divisor=1.0)

    def test_short_input_returns_none(self):
        assert elbow_threshold_angle([1.0, 2.0]) is None


class TestAdaptiveThreshold:
    def test_prefers_segments(self):
        result = adaptive_threshold(three_regime_densities())
        assert result.method == "segments"

    def test_returns_the_segment_fit_even_below_the_chord_threshold(self):
        densities = np.concatenate(
            [np.linspace(100.0, 50.0, 40), np.linspace(30.0, 5.0, 48), np.linspace(3.0, 0.0, 15)]
        )
        segments = elbow_threshold_segments(densities)
        assert segments.method == "segments"
        assert elbow_threshold_distance(densities).threshold > segments.threshold
        result = adaptive_threshold(densities)
        assert (result.method, result.threshold) == ("segments", segments.threshold)
        assert result.breakpoints == segments.breakpoints

    def test_falls_back_to_the_chord_rule_below_six_densities(self):
        densities = [10.0, 9.0, 1.0, 0.5, 0.2]
        assert elbow_threshold_segments(densities).method == "degenerate"
        chord = elbow_threshold_distance(densities)
        result = adaptive_threshold(densities)
        assert (result.method, result.threshold) == ("distance", chord.threshold)

    def test_falls_back_on_tiny_input(self):
        result = adaptive_threshold([5.0, 1.0])
        assert result.method in ("distance", "degenerate")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            adaptive_threshold([])

    def test_filtering_keeps_most_cluster_cells(self):
        """End-to-end property: the adaptive threshold removes the vast
        majority of noise cells while keeping most signal cells."""
        rng = np.random.default_rng(1)
        signal = rng.uniform(50.0, 90.0, 50)
        noise = rng.uniform(0.0, 5.0, 1000)
        threshold = adaptive_threshold(np.concatenate([signal, noise])).threshold
        assert np.mean(signal > threshold) > 0.9
        assert np.mean(noise > threshold) < 0.1


class TestWaveletSmoothGrid:
    def _make_grid(self):
        rng = np.random.default_rng(2)
        points = np.vstack(
            [
                rng.normal(loc=[0.3, 0.3], scale=0.02, size=(400, 2)),
                rng.uniform(size=(200, 2)),
            ]
        )
        return GridQuantizer(scale=32).fit_transform(points).grid

    def test_resolution_halves_per_level(self):
        grid = self._make_grid()
        transformed, shape = wavelet_smooth_grid(grid, "bior2.2", level=1)
        assert shape == (16, 16)
        transformed2, shape2 = wavelet_smooth_grid(grid, "bior2.2", level=2)
        assert shape2 == (8, 8)

    def test_mass_is_approximately_preserved_up_to_normalisation(self):
        grid = self._make_grid()
        transformed, _ = wavelet_smooth_grid(grid, "haar", level=1)
        # Each 1-D Haar pass scales the total mass by 1/sqrt(2); two passes
        # (one per dimension) give a factor of 1/2.
        assert transformed.total_mass() * 2.0 == pytest.approx(grid.total_mass(), rel=1e-6)

    def test_dense_cluster_cell_dominates_after_transform(self):
        grid = self._make_grid()
        transformed, _ = wavelet_smooth_grid(grid, "bior2.2", level=1)
        densities = np.sort(transformed.values)[::-1]
        # The dense Gaussian blob must still stand far above the noise cells.
        assert densities[0] > 5 * np.median(densities)

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            wavelet_smooth_grid(SparseGrid((8, 8), {(0, 0): 1.0}), level=0)

    def test_tiny_grid_stops_early(self):
        grid = SparseGrid((2, 2), {(0, 0): 1.0, (1, 1): 2.0})
        transformed, shape = wavelet_smooth_grid(grid, "haar", level=5)
        assert min(shape) >= 1

    def test_grid_energy_helper(self):
        grid = SparseGrid((4,), {(0,): 3.0, (1,): 4.0})
        assert grid_energy(grid) == pytest.approx(25.0)
