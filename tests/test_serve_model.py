"""Frozen ClusterModel artifacts: extraction, predict, and versioned save/load.

The acceptance bar for the serving layer: on every golden dataset,
``save -> load -> predict(X_train)`` must reproduce the frozen seed labels
bit-for-bit, corrupted or incompatible files must be rejected loudly, and
the artifact's memory must scale with the occupied cells, never with the
training-set size.
"""

import json
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.core.adawave import AdaWave
from repro.serve import FORMAT_MAGIC, FORMAT_VERSION, ClusterModel
from repro.utils.validation import NotFittedError

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

GOLDEN_NAMES = (
    "running_example",
    "two_moons_noise",
    "roadmap_case",
    "gaussians_4d",
    "uniform_noise_only",
    "single_cluster",
)


def _load_golden(name):
    path = GOLDEN_DIR / f"{name}.npz"
    if not path.exists():
        pytest.skip(f"golden fixture {path.name} missing; run generate_golden.py")
    return np.load(path)


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(7)
    blob_a = np.clip(rng.normal(0.3, 0.04, size=(800, 2)), 0.0, 1.0)
    blob_b = np.clip(rng.normal(0.7, 0.04, size=(800, 2)), 0.0, 1.0)
    noise = rng.uniform(size=(3000, 2))
    X = np.vstack([blob_a, blob_b, noise])
    return X, AdaWave(scale=64).fit(X)


class TestClusterModelExtraction:
    def test_from_estimator_matches_fit_labels(self, fitted):
        X, estimator = fitted
        model = estimator.export_model()
        np.testing.assert_array_equal(model.predict(X), estimator.labels_)
        assert model.n_clusters == estimator.n_clusters_
        assert model.n_features == 2
        assert model.threshold == estimator.threshold_

    def test_adawave_predict_matches_export(self, fitted):
        X, estimator = fitted
        np.testing.assert_array_equal(
            estimator.predict(X), estimator.export_model().predict(X)
        )

    def test_unfitted_export_raises_not_fitted(self):
        with pytest.raises(NotFittedError, match="not fitted"):
            AdaWave(scale=64).export_model()

    def test_unfitted_predict_raises_not_fitted(self):
        with pytest.raises(NotFittedError, match="not fitted"):
            AdaWave(scale=64).predict(np.zeros((3, 2)))

    def test_not_fitted_error_is_value_error(self):
        # Satellite requirement: NotFittedError-style *ValueError*.
        with pytest.raises(ValueError):
            AdaWave(scale=64).predict(np.zeros((3, 2)))

    def test_metadata_records_provenance(self, fitted):
        _, estimator = fitted
        model = estimator.export_model()
        assert model.metadata["wavelet"] == "bior2.2"
        assert model.metadata["n_seen"] == estimator.n_seen_

    def test_cell_map_is_sorted_coo(self, fitted):
        _, estimator = fitted
        model = estimator.export_model()
        order = np.lexsort(model.cell_coords.T[::-1])
        np.testing.assert_array_equal(order, np.arange(len(order)))

    def test_shuffled_construction_is_canonicalised(self, fitted):
        X, estimator = fitted
        model = estimator.export_model()
        rng = np.random.default_rng(0)
        shuffle = rng.permutation(model.n_cells)
        shuffled = ClusterModel(
            lower=model.lower,
            upper=model.upper,
            grid_shape=model.grid_shape,
            level=model.level,
            threshold=model.threshold,
            cell_coords=model.cell_coords[shuffle],
            cell_labels=model.cell_labels[shuffle],
            n_clusters=model.n_clusters,
        )
        np.testing.assert_array_equal(shuffled.cell_coords, model.cell_coords)
        np.testing.assert_array_equal(shuffled.predict(X), model.predict(X))


class TestClusterModelPredict:
    def test_out_of_bounds_points_are_noise(self, fitted):
        _, estimator = fitted
        model = estimator.export_model()
        far = np.array([[10.0, 10.0], [-5.0, 0.5], [0.5, 2.5]])
        np.testing.assert_array_equal(model.predict(far), [-1, -1, -1])

    def test_huge_finite_points_are_noise_without_cast_warning(self):
        """|x| ~ 1e30 is clipped in float before the integer cast."""
        rng = np.random.default_rng(11)
        X = np.vstack([rng.normal(0.5, 0.05, size=(600, 2)), rng.uniform(size=(600, 2))])
        model = AdaWave(scale=16).fit(X).export_model()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels = model.predict(np.array([[1e30, 0.5], [-1e30, 0.5]]))
        np.testing.assert_array_equal(labels, [-1, -1])

    def test_empty_query_allowed(self, fitted):
        _, estimator = fitted
        assert estimator.export_model().predict(np.empty((0, 2))).shape == (0,)

    def test_feature_mismatch_raises(self, fitted):
        _, estimator = fitted
        with pytest.raises(ValueError, match="features"):
            estimator.export_model().predict(np.zeros((3, 5)))

    def test_row_blocked_predict_matches_small_batches(self, fitted):
        """An input of several row blocks (and a ragged last one) labels as
        its small batches do, out-of-bounds points included."""
        X, estimator = fitted
        model = estimator.export_model()
        rng = np.random.default_rng(5)
        queries = np.vstack([
            X[rng.integers(len(X), size=60_000)],
            rng.uniform(-0.5, 1.5, size=(40_007, 2)),
        ])[rng.permutation(100_007)]
        expected = np.concatenate([model.predict(q) for q in np.array_split(queries, 200)])
        labels = model.predict(queries)
        assert labels.dtype == np.int64
        np.testing.assert_array_equal(labels, expected)
        assert (labels == -1).any() and (labels >= 0).any()

    def test_row_blocked_predict_rejects_a_late_non_finite_row(self, fitted):
        _, estimator = fitted
        queries = np.full((100_000, 2), 0.5)
        queries[-1, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            estimator.export_model().predict(queries)

    def test_memory_does_not_scale_with_training_size(self):
        """8x the training data must not grow the artifact appreciably."""
        def _artifact_bytes(n):
            rng = np.random.default_rng(3)
            blob = np.clip(rng.normal(0.4, 0.05, size=(n // 2, 2)), 0.0, 1.0)
            noise = rng.uniform(size=(n // 2, 2))
            model = AdaWave(
                scale=64, bounds=([0.0, 0.0], [1.0, 1.0])
            ).fit(np.vstack([blob, noise])).export_model()
            arrays = (model.lower, model.upper, model.cell_coords, model.cell_labels)
            return sum(a.nbytes for a in arrays), model

        small_bytes, small = _artifact_bytes(4_000)
        large_bytes, large = _artifact_bytes(32_000)
        assert large.metadata["n_seen"] == 8 * small.metadata["n_seen"]
        # The cell map is bounded by grid occupancy, not sample count.
        assert large_bytes < 2 * small_bytes
        assert large.n_cells < 4_000


class TestClusterModelGoldenRoundTrips:
    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_save_load_predict_reproduces_frozen_labels(self, name, tmp_path):
        data = _load_golden(name)
        estimator = AdaWave(scale=int(data["scale"])).fit(data["points"])
        np.testing.assert_array_equal(estimator.labels_, data["labels"])
        path = estimator.export_model().save(tmp_path / f"{name}.npz")
        loaded = ClusterModel.load(path)
        np.testing.assert_array_equal(
            loaded.predict(data["points"]),
            data["labels"],
            err_msg=f"save->load->predict diverged from the frozen labels on {name}",
        )
        assert loaded.n_clusters == int(data["n_clusters"])
        assert loaded.threshold == pytest.approx(float(data["threshold"]))

    def test_round_trip_preserves_all_fields(self, fitted, tmp_path):
        _, estimator = fitted
        model = estimator.export_model()
        loaded = ClusterModel.load(model.save(tmp_path / "model.npz"))
        np.testing.assert_array_equal(loaded.lower, model.lower)
        np.testing.assert_array_equal(loaded.upper, model.upper)
        np.testing.assert_array_equal(loaded.cell_coords, model.cell_coords)
        np.testing.assert_array_equal(loaded.cell_labels, model.cell_labels)
        assert loaded.grid_shape == model.grid_shape
        assert loaded.level == model.level
        assert loaded.threshold == model.threshold
        assert loaded.n_clusters == model.n_clusters
        assert loaded.metadata == model.metadata

    def test_artifact_with_transform_backend_key_still_loads(self, fitted, tmp_path):
        # Artifacts written while the transform kernel was selectable carry
        # metadata["transform_backend"]; fits no longer record it, since the
        # kernel follows from the recorded wavelet.
        X, estimator = fitted
        model = estimator.export_model()
        assert "transform_backend" not in model.metadata
        model.metadata["transform_backend"] = "lifting"
        loaded = ClusterModel.load(model.save(tmp_path / "old.npz"))
        assert loaded.metadata["transform_backend"] == "lifting"
        np.testing.assert_array_equal(loaded.predict(X), estimator.labels_)

    def test_save_is_deterministic(self, fitted, tmp_path):
        _, estimator = fitted
        model = estimator.export_model()
        path_a = model.save(tmp_path / "a.npz")
        path_b = estimator.export_model().save(tmp_path / "b.npz")
        loaded_a, loaded_b = ClusterModel.load(path_a), ClusterModel.load(path_b)
        np.testing.assert_array_equal(loaded_a.cell_coords, loaded_b.cell_coords)
        np.testing.assert_array_equal(loaded_a.cell_labels, loaded_b.cell_labels)


class TestClusterModelRejection:
    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is definitely not an npz archive")
        with pytest.raises(ValueError, match="not a readable ClusterModel"):
            ClusterModel.load(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not a readable ClusterModel"):
            ClusterModel.load(tmp_path / "missing.npz")

    def test_foreign_npz_rejected(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, stuff=np.arange(5))
        with pytest.raises(ValueError, match="header"):
            ClusterModel.load(path)

    def test_wrong_version_rejected(self, fitted, tmp_path):
        _, estimator = fitted
        model = estimator.export_model()
        header = model._header()
        header["version"] = FORMAT_VERSION + 1
        path = tmp_path / "future.npz"
        with open(path, "wb") as stream:
            np.savez(
                stream,
                header=np.frombuffer(
                    json.dumps(header).encode("utf-8"), dtype=np.uint8
                ),
                lower=model.lower,
                upper=model.upper,
                grid_shape=np.asarray(model.grid_shape, dtype=np.int64),
                cell_coords=model.cell_coords,
                cell_labels=model.cell_labels,
            )
        with pytest.raises(ValueError, match="version"):
            ClusterModel.load(path)

    def test_wrong_magic_rejected(self, fitted, tmp_path):
        _, estimator = fitted
        model = estimator.export_model()
        header = model._header()
        header["format"] = "somebody.else/model"
        path = tmp_path / "alien.npz"
        with open(path, "wb") as stream:
            np.savez(
                stream,
                header=np.frombuffer(
                    json.dumps(header).encode("utf-8"), dtype=np.uint8
                ),
                lower=model.lower,
                upper=model.upper,
                grid_shape=np.asarray(model.grid_shape, dtype=np.int64),
                cell_coords=model.cell_coords,
                cell_labels=model.cell_labels,
            )
        with pytest.raises(ValueError, match=FORMAT_MAGIC.replace("/", ".")):
            ClusterModel.load(path)

    def test_truncated_archive_rejected(self, fitted, tmp_path):
        _, estimator = fitted
        path = estimator.export_model().save(tmp_path / "model.npz")
        data = path.read_bytes()
        truncated = tmp_path / "truncated.npz"
        truncated.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError):
            ClusterModel.load(truncated)

    def test_inconsistent_cell_count_rejected(self, fitted, tmp_path):
        _, estimator = fitted
        model = estimator.export_model()
        header = model._header()
        header["n_cells"] = model.n_cells + 17
        path = tmp_path / "inconsistent.npz"
        with open(path, "wb") as stream:
            np.savez(
                stream,
                header=np.frombuffer(
                    json.dumps(header).encode("utf-8"), dtype=np.uint8
                ),
                lower=model.lower,
                upper=model.upper,
                grid_shape=np.asarray(model.grid_shape, dtype=np.int64),
                cell_coords=model.cell_coords,
                cell_labels=model.cell_labels,
            )
        with pytest.raises(ValueError, match="corrupted"):
            ClusterModel.load(path)

    @staticmethod
    def _two_by_64(level):
        return ClusterModel(
            lower=np.zeros(2), upper=np.ones(2), grid_shape=(2, 64), level=level,
            threshold=1.0, cell_coords=np.array([[0, 3], [0, 4]]),
            cell_labels=np.array([0, 0]), n_clusters=1,
        )

    def test_level_the_grid_cannot_take_rejected(self):
        # The transform of a (2, 64) grid stops after one level.
        with pytest.raises(ValueError, match="predates the applied-level fix.*refit"):
            self._two_by_64(level=3)

    @pytest.mark.parametrize("compress, mmap", [(True, False), (False, True)])
    def test_artifact_with_a_level_its_grid_cannot_take_rejected(
        self, monkeypatch, tmp_path, compress, mmap
    ):
        # Written as a fit before the applied-level fix saved it: the
        # requested level 3 in the header of a (2, 64) grid's cell map.
        model = self._two_by_64(level=1)
        header = ClusterModel._header
        monkeypatch.setattr(ClusterModel, "_header", lambda self: {**header(self), "level": 3})
        path = model.save(tmp_path / "old.npz", compress=compress)
        monkeypatch.undo()
        with pytest.raises(ValueError, match="predates the applied-level fix.*refit"):
            ClusterModel.load(path, mmap=mmap)

    @pytest.mark.parametrize("compress, mmap", [(True, False), (False, True)])
    def test_level_the_grid_takes_still_loads(self, tmp_path, compress, mmap):
        model = self._two_by_64(level=1)
        loaded = ClusterModel.load(model.save(tmp_path / "m.npz", compress=compress), mmap=mmap)
        assert loaded.level == 1
        X = np.array([[0.2, 6.5 / 64], [0.7, 9.5 / 64], [0.7, 0.9]])
        np.testing.assert_array_equal(loaded.predict(X), [0, 0, -1])
        np.testing.assert_array_equal(loaded.predict(X), model.predict(X))

    def test_saved_file_is_a_real_zip(self, fitted, tmp_path):
        _, estimator = fitted
        path = estimator.export_model().save(tmp_path / "model.npz")
        assert zipfile.is_zipfile(path)


class TestMemoryMappedLoad:
    """load(mmap=True): npz members memory-mapped so processes share pages."""

    @staticmethod
    def _backed_by_memmap(array):
        probe = array
        while probe is not None:
            if isinstance(probe, np.memmap):
                return True
            probe = getattr(probe, "base", None)
        return False

    def test_uncompressed_roundtrip_is_memory_mapped(self, fitted, tmp_path):
        X, estimator = fitted
        model = estimator.export_model()
        path = model.save(tmp_path / "model.npz", compress=False)
        served = ClusterModel.load(path, mmap=True)
        assert self._backed_by_memmap(served.cell_coords)
        assert self._backed_by_memmap(served.cell_labels)
        np.testing.assert_array_equal(served.predict(X), estimator.labels_)
        np.testing.assert_array_equal(served.cell_coords, model.cell_coords)
        assert served.metadata == model.metadata

    def test_compressed_artifact_falls_back_to_copying_read(self, fitted, tmp_path):
        X, estimator = fitted
        model = estimator.export_model()
        path = model.save(tmp_path / "model.npz")  # compressed default
        served = ClusterModel.load(path, mmap=True)
        assert not self._backed_by_memmap(served.cell_coords)
        np.testing.assert_array_equal(served.predict(X), estimator.labels_)

    def test_mmap_load_rejects_corruption_like_the_plain_path(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not an npz archive")
        with pytest.raises(ValueError, match="not a readable"):
            ClusterModel.load(path, mmap=True)

    def test_compressed_and_uncompressed_artifacts_are_equivalent(self, fitted, tmp_path):
        X, estimator = fitted
        model = estimator.export_model()
        compressed = ClusterModel.load(model.save(tmp_path / "c.npz", compress=True))
        plain = ClusterModel.load(
            model.save(tmp_path / "u.npz", compress=False), mmap=True
        )
        np.testing.assert_array_equal(compressed.predict(X), plain.predict(X))
        assert compressed.grid_shape == plain.grid_shape
        assert compressed.threshold == plain.threshold

    def test_registry_load_mmap_passthrough(self, fitted, tmp_path):
        from repro.serve import ModelRegistry

        X, estimator = fitted
        path = estimator.export_model().save(tmp_path / "model.npz", compress=False)
        registry = ModelRegistry()
        registry.load("prod", path, mmap=True)
        assert self._backed_by_memmap(registry.get("prod").cell_coords)
        np.testing.assert_array_equal(
            registry.get("prod").predict(X), estimator.labels_
        )
