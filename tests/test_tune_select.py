"""End-to-end behaviour of the grid-pyramid auto-tuning subsystem.

The acceptance bar: ``AdaWave(scale="tune")`` must -- without ever seeing
ground-truth labels -- pick a resolution whose noise-aware AMI (the repo's standard quality metric) is within 5 %
of the best fixed power-of-two scale on the paper's seeded synthetic noise
suites.  Plus: exactness of the tuned fit vs the fixed fit at the chosen
scale, streaming (finalize-time) tuning invariance, provenance in exported
artifacts, and the scoring-layer units.
"""

import numpy as np
import pytest

from repro.core.adawave import AdaWave
from repro.datasets.synthetic import noise_sweep_dataset, running_example
from repro.metrics import ami_on_true_clusters
from repro.tune import select_best, tune_pyramid, weighted_partition_nmi
from repro.tune.scoring import (
    CandidateScore,
    cluster_prior,
    noise_sanity,
)

FIXED_POW2_SCALES = (8, 16, 32, 64, 128, 256)


def _best_fixed_pow2(dataset):
    """Best noise-aware AMI over the fixed power-of-two scales."""
    return max(
        ami_on_true_clusters(
            dataset.labels, AdaWave(scale=scale).fit(dataset.points).labels_
        )
        for scale in FIXED_POW2_SCALES
    )


class TestTunedScaleQuality:
    """Acceptance: tuned AMI within 5 % of the best fixed pow2 scale."""

    @pytest.mark.parametrize("noise_fraction", [0.3, 0.75])
    def test_within_5_percent_of_best_fixed_scale(self, noise_fraction):
        dataset = noise_sweep_dataset(
            noise_fraction=noise_fraction, n_per_cluster=1500, seed=0
        )
        tuned = AdaWave(scale="tune").fit(dataset.points)
        tuned_ami = ami_on_true_clusters(dataset.labels, tuned.labels_)
        best = _best_fixed_pow2(dataset)
        assert tuned_ami >= 0.95 * best, (
            f"tuned scale {tuned.tune_result_.scale} scores AMI {tuned_ami:.3f}; "
            f"the best fixed pow2 scale scores {best:.3f}."
        )

    def test_running_example_within_5_percent(self):
        dataset = running_example(noise_fraction=0.8, n_per_cluster=1500, seed=0)
        tuned = AdaWave(scale="tune").fit(dataset.points)
        tuned_ami = ami_on_true_clusters(dataset.labels, tuned.labels_)
        assert tuned_ami >= 0.95 * _best_fixed_pow2(dataset)

    def test_tuned_fit_equals_fixed_fit_at_chosen_scale(self):
        """The pyramid is exact, so the tuned result must be bit-identical to
        a fixed fit at whatever scale the sweep selected."""
        dataset = running_example(noise_fraction=0.75, n_per_cluster=800, seed=0)
        tuned = AdaWave(scale="tune").fit(dataset.points)
        chosen = tuned.tune_result_.scale
        fixed = AdaWave(scale=chosen, level=tuned.tune_result_.level).fit(dataset.points)
        np.testing.assert_array_equal(tuned.labels_, fixed.labels_)
        assert tuned.n_clusters_ == fixed.n_clusters_
        assert tuned.threshold_ == fixed.threshold_


class TestTuneResultSurface:
    @pytest.fixture(scope="class")
    def tuned(self):
        dataset = running_example(noise_fraction=0.75, n_per_cluster=800, seed=0)
        return AdaWave(scale="tune").fit(dataset.points), dataset

    def test_tune_result_populated(self, tuned):
        model, _ = tuned
        result = model.tune_result_
        assert result is not None
        assert result.scale in FIXED_POW2_SCALES
        assert result.level == 1
        assert result.threshold == model.threshold_
        assert len(result.scores) >= 4

    def test_score_table_rows(self, tuned):
        model, _ = tuned
        rows = model.tune_result_.table()
        assert sum(row["selected"] for row in rows) == 1
        for row in rows:
            assert 0.0 <= row["score"] <= 1.0
            assert 0.0 <= row["noise_fraction"] <= 1.0
        selected = next(row for row in rows if row["selected"])
        assert selected["scale"] == model.tune_result_.scale
        assert selected["score"] == max(row["score"] for row in rows)

    def test_provenance_in_exported_model(self, tuned, tmp_path):
        import json

        from repro.serve.model import ClusterModel

        model, dataset = tuned
        frozen = model.export_model()
        provenance = frozen.metadata["tuning"]
        assert provenance["method"] == "grid-pyramid sweep"
        assert provenance["chosen_scale"] == list(model.result_.quantization.grid.shape)
        json.dumps(provenance)  # must be JSON-serializable for the header
        path = tmp_path / "tuned.npz"
        frozen.save(path)
        loaded = ClusterModel.load(path)
        assert loaded.metadata["tuning"] == provenance
        np.testing.assert_array_equal(loaded.predict(dataset.points), model.labels_)

    def test_untuned_fit_clears_tune_result(self, tuned):
        model, dataset = tuned
        refit = AdaWave(scale=64).fit(dataset.points)
        assert refit.tune_result_ is None
        assert "tuning" not in refit.export_model().metadata

    def test_tune_levels_sweeps_decomposition_levels(self):
        dataset = running_example(noise_fraction=0.75, n_per_cluster=800, seed=0)
        model = AdaWave(scale="tune", tune_levels=(1, 2)).fit(dataset.points)
        levels_seen = {score.candidate.level for score in model.tune_result_.scores}
        assert levels_seen == {1, 2}
        assert model.tune_result_.level in (1, 2)
        assert model.result_.level == model.tune_result_.level

    def test_each_distinct_candidate_is_evaluated_once(self):
        # Level 4 stops at 3 on the pyramid's 8 x 8 grid, so it names the
        # level-3 candidate there; it is evaluated once, at level 3.
        dataset = running_example(noise_fraction=0.75, n_per_cluster=800, seed=0)
        model = AdaWave(scale="tune", tune_levels=(1, 2, 3, 4)).fit(dataset.points)
        keys = [
            (c.factor, c.scale, c.level, c.wavelet, c.threshold_method)
            for c in (score.candidate for score in model.tune_result_.scores)
        ]
        assert len(keys) == len(set(keys)) == 23
        assert keys.count((32, (8, 8), 3, "bior2.2", "global-hard")) == 1
        rows = model.tune_result_.table()
        assert len(rows) == len(keys)

    def test_default_level_sweep_keeps_every_candidate(self):
        dataset = running_example(noise_fraction=0.75, n_per_cluster=800, seed=0)
        model = AdaWave(scale="tune", threshold="tune").fit(dataset.points)
        scales = {score.candidate.scale for score in model.tune_result_.scores}
        assert len(model.tune_result_.scores) == 4 * len(scales)


class TestStreamingTuning:
    """scale='tune' streams ingest fine and pick the resolution at finalize."""

    @pytest.fixture(scope="class")
    def data(self):
        dataset = running_example(noise_fraction=0.75, n_per_cluster=800, seed=1)
        bounds = (dataset.points.min(axis=0), dataset.points.max(axis=0))
        return dataset, bounds

    def test_stream_matches_one_shot_tune(self, data):
        dataset, bounds = data
        one_shot = AdaWave(scale="tune", bounds=bounds).fit(dataset.points)
        stream = AdaWave(scale="tune", bounds=bounds)
        for batch in np.array_split(dataset.points, 7):
            stream.partial_fit(batch)
        stream.finalize()
        np.testing.assert_array_equal(stream.labels_, one_shot.labels_)
        assert stream.tune_result_.scale == one_shot.tune_result_.scale
        assert stream.threshold_ == one_shot.threshold_

    def test_lookup_only_stream_tunes(self, data):
        dataset, bounds = data
        one_shot = AdaWave(scale="tune", bounds=bounds).fit(dataset.points)
        stream = AdaWave(scale="tune", bounds=bounds, lookup_only=True)
        for batch in np.array_split(dataset.points, 5):
            stream.partial_fit(batch)
        stream.finalize()
        np.testing.assert_array_equal(
            stream.predict(dataset.points), one_shot.labels_
        )
        assert stream.tune_result_.scale == one_shot.tune_result_.scale

    def test_merge_stream_tunes_identically(self, data):
        dataset, bounds = data
        one_shot = AdaWave(scale="tune", bounds=bounds).fit(dataset.points)
        shards = []
        for batch in np.array_split(dataset.points, 3):
            shard = AdaWave(scale="tune", bounds=bounds, lookup_only=True)
            shard.partial_fit(batch)
            shards.append(shard)
        merged = AdaWave(scale="tune", bounds=bounds, lookup_only=True)
        for shard in shards:
            merged.merge_stream(shard)
        merged.finalize()
        np.testing.assert_array_equal(
            merged.predict(dataset.points), one_shot.labels_
        )

    def test_failed_finalize_tuning_keeps_stream_guarded(self, data):
        """Regression: when the finalize-time sweep raises (no resolution
        yields >= 2 clusters), the stream must stay dirty so fit() keeps
        refusing to silently discard the ingested batches."""
        dataset, bounds = data
        model = AdaWave(scale="tune", bounds=bounds)
        # 50 identical points: one occupied cell at every resolution, so no
        # candidate can produce two clusters and selection must fail.
        model.partial_fit(np.full((50, 2), 0.5))
        with pytest.raises(ValueError, match="tuning failed"):
            model.finalize()
        with pytest.raises(ValueError, match="mid-stream"):
            model.fit(dataset.points)
        model.reset()
        model.fit(dataset.points)  # reset is still the escape hatch

    def test_compacted_tune_result_keeps_provenance_surface(self, data):
        """After a fit, the retained TuneResult has released the sweep
        intermediates but still serves the score table and chosen config."""
        dataset, bounds = data
        model = AdaWave(scale="tune", bounds=bounds).fit(dataset.points)
        result = model.tune_result_
        for score in result.scores:
            assert score.candidate.grid is None
            assert score.candidate.pipeline is None
            assert score.candidate.base_cell_labels is None
        assert result.scale == model.result_.quantization.grid.shape[0]
        assert result.threshold == model.threshold_
        rows = result.table()
        assert len(rows) == len(result.scores)
        assert sum(row["selected"] for row in rows) == 1
        assert all(row["n_clusters"] >= 0 for row in rows)

    def test_partial_fit_with_auto_scale_raises_actionable_error(self, data):
        """Satellite regression test: the mid-stream 'auto' error must name
        both workable options instead of a generic complaint."""
        dataset, bounds = data
        model = AdaWave(scale="auto", bounds=bounds)
        with pytest.raises(ValueError) as excinfo:
            model.partial_fit(dataset.points[:100])
        message = str(excinfo.value)
        assert "scale='tune'" in message
        assert "power-of-two" in message
        assert "finalize()" in message

    def test_merge_stream_with_auto_scale_raises_actionable_error(self, data):
        dataset, bounds = data
        shard = AdaWave(scale=256, bounds=bounds, lookup_only=True)
        shard.partial_fit(dataset.points[:100])
        merged = AdaWave(scale="auto", bounds=bounds, lookup_only=True)
        with pytest.raises(ValueError, match="scale='tune'"):
            merged.merge_stream(shard)


class TestScoringUnits:
    def test_noise_sanity_band(self):
        assert noise_sanity(0.5) == 1.0
        assert noise_sanity(0.02) == 1.0
        assert noise_sanity(0.98) == 1.0
        assert noise_sanity(0.0) == 0.0
        assert noise_sanity(1.0) == 0.0
        assert 0.0 < noise_sanity(0.99) < 1.0

    def test_cluster_prior(self):
        assert cluster_prior(0) == 0.0
        assert cluster_prior(1) == 0.0
        assert cluster_prior(2) == 1.0
        assert cluster_prior(32) == 1.0
        assert cluster_prior(64) == 0.5

    def test_weighted_partition_nmi(self):
        labels = np.array([0, 0, 1, 1, -1])
        weights = np.ones(5)
        assert weighted_partition_nmi(labels, labels, weights) == pytest.approx(1.0)
        permuted = np.array([1, 1, 0, 0, -1])
        assert weighted_partition_nmi(labels, permuted, weights) == pytest.approx(1.0)
        # Weights matter: zero-weight disagreements do not count.
        other = np.array([0, 0, 1, 1, 0])
        masked = np.array([1.0, 1.0, 1.0, 1.0, 0.0])
        assert weighted_partition_nmi(labels, other, masked) == pytest.approx(1.0)
        with pytest.raises(ValueError, match="equal"):
            weighted_partition_nmi(labels, labels, weights[:3])

    def test_select_best_raises_when_all_degenerate(self):
        from repro.grid.quantizer import GridQuantizer

        rng = np.random.default_rng(0)
        # Pure uniform noise: no resolution yields >= 2 clusters ... but some
        # might; build the failure case directly from the scoring layer.
        base = GridQuantizer(scale=16).fit_transform(rng.uniform(size=(40, 2))).grid
        try:
            result = tune_pyramid(base, levels=(1,), min_scale=8)
        except ValueError as error:
            assert "tuning failed" in str(error)
        else:
            assert result.best.candidate.n_clusters >= 2

    def test_select_best_rejects_empty(self):
        with pytest.raises(ValueError, match="no candidates"):
            select_best([])

    def test_tune_rejects_invalid_levels(self):
        from repro.grid.quantizer import GridQuantizer

        rng = np.random.default_rng(0)
        base = GridQuantizer(scale=32).fit_transform(rng.uniform(size=(100, 2))).grid
        with pytest.raises(ValueError, match="levels"):
            tune_pyramid(base, levels=())

    def test_explicit_factors_not_starting_at_one_keep_diagnostics(self):
        """Regression: with factors=(2, 4) the comparison cells come from the
        factor-2 level, so every candidate's noise_fraction (and scores) must
        match the same candidate evaluated in a factors-starting-at-1 sweep."""
        from repro.grid.quantizer import GridQuantizer

        dataset = running_example(noise_fraction=0.75, n_per_cluster=800, seed=0)
        base = GridQuantizer(scale=256).fit_transform(dataset.points).grid
        full = tune_pyramid(base, factors=(1, 2, 4))
        shifted = tune_pyramid(base, factors=(2, 4))
        by_factor_full = {
            s.candidate.factor: s.candidate for s in full.scores
        }
        for score in shifted.scores:
            twin = by_factor_full[score.candidate.factor]
            assert score.candidate.noise_fraction == pytest.approx(
                twin.noise_fraction
            )
            assert score.candidate.n_clusters == twin.n_clusters


class TestTuneParameterValidation:
    def test_invalid_scale_string_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="tune"):
            AdaWave(scale="huge").fit(rng.uniform(size=(50, 2)))

    def test_invalid_tune_levels(self):
        with pytest.raises(ValueError, match="tune_levels"):
            AdaWave(scale="tune", tune_levels=(0,))
        with pytest.raises(ValueError, match="at least one"):
            AdaWave(scale="tune", tune_levels=())

    def test_multiresolution_rejects_tune(self):
        from repro.core.multiresolution import MultiResolutionAdaWave

        with pytest.raises(ValueError, match="tune_levels"):
            MultiResolutionAdaWave(scale="tune")

    def test_sweep_rejects_unknown_threshold_method(self):
        """Regression: the pipeline entry points the tuning subsystem exposes
        must reject typo'd threshold methods instead of silently falling back
        to the 'auto' rule."""
        from repro.grid.quantizer import GridQuantizer

        rng = np.random.default_rng(0)
        base = GridQuantizer(scale=32).fit_transform(rng.uniform(size=(200, 2))).grid
        with pytest.raises(ValueError, match="threshold_method"):
            tune_pyramid(base, threshold_method="sgements")

    def test_streaming_typo_scale_gets_generic_message(self):
        """Regression: a typo'd scale string mid-stream must not be blamed on
        scale='auto'."""
        model = AdaWave(scale="tunee", bounds=([0.0, 0.0], [1.0, 1.0]))
        with pytest.raises(ValueError, match="got 'tunee'"):
            model.partial_fit(np.random.default_rng(0).uniform(size=(10, 2)))
