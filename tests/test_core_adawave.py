"""Tests for repro.core.adawave and repro.core.multiresolution."""

import numpy as np
import pytest

from repro.core.adawave import AdaWave, AdaWaveResult
from repro.core.multiresolution import MultiResolutionAdaWave
from repro.datasets.shapes import gaussian_blob, ring, uniform_noise
from repro.datasets.synthetic import running_example
from repro.metrics import ami_on_true_clusters, contingency_matrix


def two_blob_dataset(seed=0, noise_fraction=0.5, n_per_cluster=400):
    rng = np.random.default_rng(seed)
    blob_a = gaussian_blob(n_per_cluster, center=[0.25, 0.25], std=0.02, random_state=rng)
    blob_b = gaussian_blob(n_per_cluster, center=[0.75, 0.75], std=0.02, random_state=rng)
    n_noise = int(2 * n_per_cluster * noise_fraction / (1 - noise_fraction))
    noise = uniform_noise(n_noise, [0, 0], [1, 1], random_state=rng)
    points = np.vstack([blob_a, blob_b, noise])
    labels = np.concatenate([np.zeros(n_per_cluster), np.ones(n_per_cluster), -np.ones(n_noise)])
    return points, labels.astype(int)


class TestAdaWaveBasics:
    def test_finds_two_blobs_in_noise(self):
        points, labels = two_blob_dataset()
        model = AdaWave(scale=64).fit(points)
        assert model.n_clusters_ == 2
        # Blob cores are recovered; some boundary points fall into filtered
        # cells and are reported as noise, which caps the score.
        assert ami_on_true_clusters(labels, model.labels_) > 0.7

    def test_labels_shape_and_values(self):
        points, _ = two_blob_dataset()
        labels = AdaWave(scale=64).fit_predict(points)
        assert labels.shape == (points.shape[0],)
        assert set(np.unique(labels)).issubset({-1, 0, 1})

    def test_deterministic(self):
        points, _ = two_blob_dataset()
        first = AdaWave(scale=64).fit_predict(points)
        second = AdaWave(scale=64).fit_predict(points)
        np.testing.assert_array_equal(first, second)

    def test_order_insensitive(self):
        points, labels = two_blob_dataset()
        permutation = np.random.default_rng(3).permutation(len(points))
        original = AdaWave(scale=64).fit_predict(points)
        shuffled = AdaWave(scale=64).fit_predict(points[permutation])
        # Same partition up to label names: compare through the contingency table.
        table = contingency_matrix(original[permutation], shuffled)
        # Every original cluster maps to exactly one shuffled cluster.
        assert (np.count_nonzero(table, axis=1) == 1).all()

    def test_noise_points_marked(self):
        points, labels = two_blob_dataset(noise_fraction=0.7)
        model = AdaWave(scale=64).fit(points)
        detected_noise_fraction = np.mean(model.labels_ == -1)
        assert 0.3 < detected_noise_fraction < 0.95

    def test_result_object_populated(self):
        points, _ = two_blob_dataset()
        model = AdaWave(scale=64).fit(points)
        result = model.result_
        assert isinstance(result, AdaWaveResult)
        assert result.n_clusters == model.n_clusters_
        assert result.transformed_grid.n_occupied > 0
        assert result.threshold.threshold == model.threshold_
        assert result.quantization.n_samples == points.shape[0]
        assert sum(result.cluster_sizes.values()) == int(np.sum(~result.noise_mask))

    def test_detects_ring_shape_among_other_clusters(self):
        """Ring-shaped clusters are recovered in the paper's setting: several
        clusters plus heavy noise (the sorted density curve then has the three
        regimes the adaptive threshold expects)."""
        rng = np.random.default_rng(5)
        ring_points = ring(1200, center=(0.62, 0.62), radius=0.2, width=0.008, random_state=rng)
        blob = gaussian_blob(1200, center=[0.2, 0.2], std=0.02, random_state=rng)
        noise = uniform_noise(2400, [0, 0], [1, 1], random_state=rng)
        points = np.vstack([ring_points, blob, noise])
        labels = np.concatenate(
            [np.zeros(1200), np.ones(1200), -np.ones(2400)]
        ).astype(int)
        model = AdaWave(scale=128).fit(points)
        assert model.n_clusters_ >= 2
        assert ami_on_true_clusters(labels, model.labels_) > 0.55

    def test_separates_nested_rings(self):
        rng = np.random.default_rng(6)
        outer = ring(1500, center=(0.5, 0.5), radius=0.35, width=0.01, random_state=rng)
        inner = ring(1500, center=(0.5, 0.5), radius=0.12, width=0.01, random_state=rng)
        noise = uniform_noise(3000, [0, 0], [1, 1], random_state=rng)
        points = np.vstack([outer, inner, noise])
        labels = np.concatenate(
            [np.zeros(1500), np.ones(1500), -np.ones(3000)]
        ).astype(int)
        model = AdaWave(scale=64).fit(points)
        assert model.n_clusters_ >= 2
        assert ami_on_true_clusters(labels, model.labels_) > 0.6


class TestAdaWaveParameters:
    def test_invalid_threshold_method(self):
        with pytest.raises(ValueError):
            AdaWave(threshold_method="magic")

    def test_invalid_connectivity(self):
        with pytest.raises(ValueError):
            AdaWave(connectivity="knight")

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            AdaWave(level=0)

    def test_threshold_none_keeps_everything(self):
        points, _ = two_blob_dataset()
        filtered = AdaWave(scale=64, threshold_method="auto").fit(points)
        unfiltered = AdaWave(scale=64, threshold_method="none").fit(points)
        assert np.mean(unfiltered.labels_ == -1) <= np.mean(filtered.labels_ == -1)

    def test_min_cluster_cells_reduces_cluster_count(self):
        points, _ = two_blob_dataset(noise_fraction=0.8, n_per_cluster=600)
        many = AdaWave(scale=64, min_cluster_cells=1).fit(points)
        few = AdaWave(scale=64, min_cluster_cells=5).fit(points)
        assert few.n_clusters_ <= many.n_clusters_

    def test_face_connectivity_accepted(self):
        points, _ = two_blob_dataset()
        model = AdaWave(scale=64, connectivity="face").fit(points)
        assert model.n_clusters_ >= 2

    def test_higher_level_coarsens(self):
        points, _ = two_blob_dataset()
        fine = AdaWave(scale=64, level=1).fit(points)
        coarse = AdaWave(scale=64, level=2).fit(points)
        assert coarse.result_.transformed_grid.shape == (16, 16)
        assert fine.result_.transformed_grid.shape == (32, 32)

    def test_works_in_higher_dimensions(self):
        rng = np.random.default_rng(7)
        blob_a = rng.normal(loc=0.0, scale=0.3, size=(300, 5))
        blob_b = rng.normal(loc=4.0, scale=0.3, size=(300, 5))
        points = np.vstack([blob_a, blob_b])
        labels = np.concatenate([np.zeros(300), np.ones(300)]).astype(int)
        model = AdaWave(scale=16).fit(points)
        assert model.n_clusters_ == 2
        # In 5-D the per-cell counts are small, so a noticeable share of
        # boundary points ends up in filtered cells.
        assert ami_on_true_clusters(labels, model.labels_) > 0.5

    def test_auto_scale_heuristic(self):
        assert AdaWave.auto_scale(20000, 2) == 128
        assert 4 <= AdaWave.auto_scale(150, 4) <= 16
        assert AdaWave.auto_scale(100, 30) == 4

    def test_auto_scale_returns_powers_of_two(self):
        """Satellite: auto-scaled models must be pyramid- and merge-compatible,
        so the heuristic snaps to the nearest power of two in [4, 128]."""
        for n in (10, 100, 1000, 20000, 10**6):
            for d in (1, 2, 3, 5, 10):
                value = AdaWave.auto_scale(n, d)
                assert 4 <= value <= 128
                assert value & (value - 1) == 0, f"auto_scale({n}, {d}) = {value}"

    def test_auto_scale_string_accepted(self):
        points, labels = two_blob_dataset()
        model = AdaWave(scale="auto").fit(points)
        assert model.n_clusters_ >= 1

    def test_invalid_scale_string_rejected(self):
        points, _ = two_blob_dataset()
        with pytest.raises(ValueError, match="scale"):
            AdaWave(scale="huge").fit(points)

    def test_rejects_1d_input(self):
        with pytest.raises(ValueError):
            AdaWave().fit(np.arange(10.0))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            AdaWave().fit(np.array([[0.0, np.nan]]))

    def test_repr_mentions_parameters(self):
        assert "scale=64" in repr(AdaWave(scale=64))


class TestInputValidation:
    def test_fit_checks_its_input_twice(self, monkeypatch):
        # Each check_array is an np.isfinite pass over all of X (about 2 ms
        # per million 2-D points): AdaWave.fit checks X once and
        # GridQuantizer.fit_transform once more, then fits the bounds and
        # quantizes from that one validated array.
        import sys

        from repro.utils import validation

        original = validation.check_array
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs.get("name"))
            return original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if (
                getattr(module, "__name__", "").startswith("repro")
                and getattr(module, "check_array", None) is original
            ):
                monkeypatch.setattr(module, "check_array", counting)
        points, _ = two_blob_dataset()
        AdaWave(scale=64).fit(points)
        assert calls == ["X", "X"]


class TestAdaWaveEdgeCases:
    def test_single_sample_raises_clear_error(self):
        with pytest.raises(ValueError, match="single sample"):
            AdaWave(scale=8).fit(np.array([[0.5, 0.5]]))

    def test_single_sample_allowed_with_explicit_bounds(self):
        model = AdaWave(
            scale=8, bounds=([0.0, 0.0], [1.0, 1.0]), min_cluster_cells=1,
            threshold_method="none",
        ).fit(np.array([[0.5, 0.5]]))
        assert model.labels_.shape == (1,)

    def test_constant_feature_dimension_is_handled(self):
        rng = np.random.default_rng(9)
        points = np.column_stack([rng.uniform(size=300), np.full(300, 2.5)])
        model = AdaWave(scale=16).fit(points)
        assert model.labels_.shape == (300,)

    def test_degenerate_explicit_bounds_raise(self):
        points = np.random.default_rng(0).uniform(size=(50, 2))
        with pytest.raises(ValueError, match="degenerate"):
            AdaWave(scale=16, bounds=([0.0, 1.0], [1.0, 1.0])).fit(points)

    def test_scale_sequence_length_mismatch_raises(self):
        points = np.random.default_rng(0).uniform(size=(50, 2))
        with pytest.raises(ValueError, match="entries"):
            AdaWave(scale=(8, 8, 8)).fit(points)

    def test_auto_scale_rejects_invalid_counts(self):
        with pytest.raises(ValueError, match="n_samples"):
            AdaWave.auto_scale(0, 2)
        with pytest.raises(ValueError, match="n_features"):
            AdaWave.auto_scale(100, 0)
        with pytest.raises(TypeError, match="n_features"):
            AdaWave.auto_scale(100, 2.5)

    def test_vectorized_engine_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            AdaWave()  # must not raise

    def test_reference_module_stays_importable(self):
        from repro.engine import reference

        assert hasattr(reference, "quantize_reference")
        assert hasattr(reference, "fit_reference")


class TestAdaWavePredict:
    def test_predict_on_training_points_matches_labels(self):
        points, _ = two_blob_dataset(seed=3)
        model = AdaWave(scale=64).fit(points)
        np.testing.assert_array_equal(model.predict(points), model.labels_)

    def test_predict_on_fresh_points_is_lookup_consistent(self):
        points, _ = two_blob_dataset(seed=3)
        model = AdaWave(scale=64).fit(points)
        rng = np.random.default_rng(0)
        fresh = rng.uniform(size=(500, 2))
        labels = model.predict(fresh)
        # Predicting twice is deterministic, and jittering a point within its
        # own grid cell cannot change its label.
        np.testing.assert_array_equal(labels, model.predict(fresh))
        assert labels.shape == (500,)
        assert set(np.unique(labels)) <= set(range(-1, model.n_clusters_))

    def test_predict_before_fit_raises_not_fitted(self):
        from repro.utils.validation import NotFittedError

        points, _ = two_blob_dataset(seed=3)
        model = AdaWave(scale=64)
        with pytest.raises(NotFittedError, match="not fitted"):
            model.predict(points)
        streaming = AdaWave(
            scale=64, bounds=(points.min(axis=0), points.max(axis=0))
        )
        streaming.partial_fit(points[:50])  # ingested but not finalized
        with pytest.raises(NotFittedError, match="not fitted"):
            streaming.predict(points)

    def test_predict_cache_invalidated_by_refit(self):
        points_a, _ = two_blob_dataset(seed=3)
        points_b, _ = two_blob_dataset(seed=4, noise_fraction=0.3)
        model = AdaWave(scale=64).fit(points_a)
        model.predict(points_a)  # populate the cached artifact
        model.fit(points_b)
        np.testing.assert_array_equal(model.predict(points_b), model.labels_)


class TestAdaWaveOnRunningExample:
    def test_recovers_five_clusters_in_heavy_noise(self):
        data = running_example(noise_fraction=0.75, n_per_cluster=1500, seed=0)
        model = AdaWave(scale=128).fit(data.points)
        # The five true clusters are recovered; a few extra small components
        # of surviving noise cells are tolerated.
        assert 4 <= model.n_clusters_ <= 14
        assert ami_on_true_clusters(data.labels, model.labels_) > 0.6


class TestMultiResolution:
    def test_runs_all_levels(self):
        points, _ = two_blob_dataset()
        model = MultiResolutionAdaWave(scale=64, levels=(1, 2)).fit(points)
        assert sorted(model.cluster_counts()) == [1, 2]
        assert model.selected_level_ == 1
        assert set(model.labels_by_level()) == {1, 2}

    def test_selection_strategies(self):
        points, _ = two_blob_dataset()
        coarsest = MultiResolutionAdaWave(scale=64, levels=(1, 2), select="coarsest").fit(points)
        assert coarsest.selected_level_ == 2
        most = MultiResolutionAdaWave(scale=64, levels=(1, 2), select="most_clusters").fit(points)
        assert most.selected_level_ in (1, 2)

    def test_fit_predict_returns_selected_labels(self):
        points, _ = two_blob_dataset()
        model = MultiResolutionAdaWave(scale=64, levels=(1,))
        labels = model.fit_predict(points)
        np.testing.assert_array_equal(labels, model.labels_)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            MultiResolutionAdaWave(levels=())
        with pytest.raises(ValueError):
            MultiResolutionAdaWave(levels=(0,))
        with pytest.raises(ValueError):
            MultiResolutionAdaWave(select="best")

    def test_single_sample_without_bounds_raises(self):
        """Regression: the shared-quantization refactor must keep AdaWave's
        single-sample guard."""
        with pytest.raises(ValueError, match="single sample"):
            MultiResolutionAdaWave(scale=16).fit(np.array([[1.0, 2.0]]))

    def test_matches_per_level_adawave_fits_exactly(self):
        """The shared-quantization path is a pure refactor: labels per level
        must equal fresh AdaWave fits at those levels."""
        points, _ = two_blob_dataset()
        multi = MultiResolutionAdaWave(scale=64, levels=(1, 2)).fit(points)
        for level in (1, 2):
            solo = AdaWave(scale=64, level=level).fit(points)
            np.testing.assert_array_equal(multi.labels_by_level()[level], solo.labels_)
