"""Tests for repro.metrics: contingency, (adjusted) mutual information, ARI."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.metrics import (
    adjusted_mutual_info,
    adjusted_rand_index,
    ami_on_true_clusters,
    contingency_matrix,
    entropy,
    evaluate_clustering,
    expected_mutual_info,
    mutual_info,
    normalized_mutual_info,
    purity_score,
)


class TestContingency:
    def test_simple_table(self):
        table = contingency_matrix([0, 0, 1, 1], [0, 1, 1, 1])
        np.testing.assert_array_equal(table, [[1, 1], [0, 2]])

    def test_handles_negative_noise_labels(self):
        table = contingency_matrix([-1, 0, 0], [0, 0, 1])
        assert table.shape == (2, 2)
        assert table.sum() == 3

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            contingency_matrix([0, 1], [0, 1, 2])

    def test_entropy_uniform(self):
        assert entropy([0, 1, 2, 3]) == pytest.approx(np.log(4))

    def test_entropy_single_class_is_zero(self):
        assert entropy([5, 5, 5]) == 0.0

    def test_purity_perfect(self):
        assert purity_score([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_purity_half(self):
        assert purity_score([0, 1, 0, 1], [0, 0, 0, 0]) == 0.5


class TestMutualInfo:
    def test_identical_partitions(self):
        labels = [0, 0, 1, 1, 2, 2]
        assert mutual_info(labels, labels) == pytest.approx(entropy(labels))

    def test_independent_partitions_near_zero(self):
        labels_true = [0, 0, 1, 1]
        labels_pred = [0, 1, 0, 1]
        assert mutual_info(labels_true, labels_pred) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 4, 100)
        b = rng.integers(0, 3, 100)
        assert mutual_info(a, b) >= 0.0

    def test_expected_mi_small_example(self):
        # For a 2x2 table with marginals (2,2)/(2,2) over 4 items the EMI is
        # strictly between 0 and the maximal MI log(2).
        emi = expected_mutual_info(np.array([2, 2]), np.array([2, 2]))
        assert 0.0 < emi < np.log(2)

    def test_expected_mi_mismatched_totals(self):
        with pytest.raises(ValueError):
            expected_mutual_info(np.array([2, 2]), np.array([3, 2]))


class TestAdjustedMutualInfo:
    def test_perfect_agreement_is_one(self):
        labels = [0, 0, 1, 1, 2, 2, 2]
        assert adjusted_mutual_info(labels, labels) == pytest.approx(1.0)

    def test_label_permutation_invariance(self):
        labels_true = [0, 0, 1, 1, 2, 2]
        labels_pred = [5, 5, 9, 9, 1, 1]
        assert adjusted_mutual_info(labels_true, labels_pred) == pytest.approx(1.0)

    def test_random_labels_near_zero(self):
        rng = np.random.default_rng(1)
        labels_true = rng.integers(0, 5, 400)
        labels_pred = rng.integers(0, 5, 400)
        assert abs(adjusted_mutual_info(labels_true, labels_pred)) < 0.05

    def test_expected_mi_matches_permutation_simulation(self):
        """E[MI] under the permutation model, checked by direct Monte Carlo."""
        rng = np.random.default_rng(0)
        labels_true = np.array([0, 0, 1, 1, 2, 2, 0, 1, 2, 0])
        labels_pred = np.array([0, 0, 1, 2, 2, 2, 1, 0, 1, 2])
        table = contingency_matrix(labels_true, labels_pred)
        analytic = expected_mutual_info(table.sum(axis=1), table.sum(axis=0))
        simulated = np.mean(
            [mutual_info(labels_true, rng.permutation(labels_pred)) for _ in range(3000)]
        )
        assert analytic == pytest.approx(simulated, abs=0.02)

    def test_average_methods_differ(self):
        labels_true = [0, 0, 0, 1, 1, 2]
        labels_pred = [0, 0, 1, 1, 2, 2]
        arithmetic = adjusted_mutual_info(labels_true, labels_pred, "arithmetic")
        maximum = adjusted_mutual_info(labels_true, labels_pred, "max")
        assert maximum <= arithmetic + 1e-12

    def test_invalid_average_method(self):
        with pytest.raises(ValueError):
            adjusted_mutual_info([0, 1], [0, 1], "harmonic")

    def test_single_cluster_both_sides(self):
        assert adjusted_mutual_info([0, 0, 0], [1, 1, 1]) == 1.0

    def test_symmetry(self):
        a = [0, 0, 1, 1, 2, 2, 0]
        b = [0, 1, 1, 2, 2, 0, 0]
        assert adjusted_mutual_info(a, b) == pytest.approx(adjusted_mutual_info(b, a))


class TestNormalizedMutualInfo:
    def test_perfect(self):
        assert normalized_mutual_info([0, 1, 0, 1], [1, 0, 1, 0]) == pytest.approx(1.0)

    def test_reference_value(self):
        # Hand computation: MI = log 2, H(U) = log 2, H(V) = (3/2) log 2 + ...
        # giving MI / mean(H) = 0.8 with arithmetic averaging.
        value = normalized_mutual_info([0, 0, 1, 1], [0, 0, 1, 2])
        assert value == pytest.approx(0.8, abs=1e-9)

    def test_bounded(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 3, 50)
        b = rng.integers(0, 4, 50)
        assert 0.0 <= normalized_mutual_info(a, b) <= 1.0


class TestAdjustedRandIndex:
    def test_perfect(self):
        assert adjusted_rand_index([0, 0, 1, 1], [1, 1, 0, 0]) == pytest.approx(1.0)

    def test_reference_value(self):
        # sklearn adjusted_rand_score([0,0,1,2],[0,0,1,1]) = 0.5714285...
        assert adjusted_rand_index([0, 0, 1, 2], [0, 0, 1, 1]) == pytest.approx(0.571428, abs=1e-5)

    def test_random_near_zero(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 4, 300)
        b = rng.integers(0, 4, 300)
        assert abs(adjusted_rand_index(a, b)) < 0.05

    def test_symmetry(self):
        a = [0, 0, 1, 1, 2]
        b = [0, 1, 1, 2, 2]
        assert adjusted_rand_index(a, b) == pytest.approx(adjusted_rand_index(b, a))


class TestNoiseAwareProtocol:
    def test_noise_points_excluded(self):
        labels_true = [0, 0, 1, 1, -1, -1]
        # Predictions are perfect on the true clusters, nonsense on the noise.
        labels_pred = [5, 5, 7, 7, 5, 7]
        assert ami_on_true_clusters(labels_true, labels_pred) == pytest.approx(1.0)

    def test_all_noise_rejected(self):
        with pytest.raises(ValueError, match="noise"):
            ami_on_true_clusters([-1, -1], [0, 1])

    def test_evaluate_clustering_bundle(self):
        labels_true = [0, 0, 1, 1, -1]
        labels_pred = [0, 0, 1, 1, -1]
        scores = evaluate_clustering(labels_true, labels_pred)
        assert scores.ami == pytest.approx(1.0)
        assert scores.n_clusters_detected == 2
        assert scores.noise_fraction_detected == pytest.approx(0.2)
        assert set(scores.as_dict()) == {
            "ami",
            "nmi",
            "ari",
            "n_clusters_detected",
            "noise_fraction_detected",
        }

    def test_evaluate_without_restriction(self):
        labels_true = [0, 0, 1, 1]
        labels_pred = [0, 1, 1, 1]
        scores = evaluate_clustering(labels_true, labels_pred, restrict_to_true_clusters=False)
        assert 0.0 <= scores.ami <= 1.0


def test_import_repro_does_not_load_scipy():
    """scipy is loaded by the AMI computation that needs it, not by
    ``import repro``: a cold start pays only for what it uses."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = "import sys, repro; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
