"""Golden-regression layer: the engines must reproduce the frozen seed results.

The fixtures under ``tests/golden/`` were generated by the original
dict-based implementation (see ``tests/golden/generate_golden.py``) on six
canonical datasets.  Every test here runs the current pipeline -- both the
vectorized and the reference engine -- and asserts the frozen labels, cluster
counts and thresholds are reproduced, so any refactor that changes behaviour
(rather than just speed) fails loudly.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core.adawave import AdaWave
from repro.engine.reference import fit_reference

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

GOLDEN_NAMES = (
    "running_example",
    "two_moons_noise",
    "roadmap_case",
    "gaussians_4d",
    "uniform_noise_only",
    "single_cluster",
)


def _load(name):
    path = GOLDEN_DIR / f"{name}.npz"
    if not path.exists():
        pytest.skip(f"golden fixture {path.name} missing; run generate_golden.py")
    return np.load(path)


@pytest.fixture(params=GOLDEN_NAMES)
def golden(request):
    return request.param, _load(request.param)


def _cell_arrays(surviving, ndim):
    """The reference engine's ``{cell: label}`` dict as sorted arrays."""
    cells = sorted(surviving)
    coords = np.asarray(cells, dtype=np.int64).reshape(len(cells), ndim)
    labels = np.asarray([surviving[cell] for cell in cells], dtype=np.int64)
    return coords, labels


def _run_engine(engine, points, scale):
    """(labels, n_clusters, threshold, (cell_coords, cell_labels)) through either engine."""
    if engine == "reference":
        ref = fit_reference(points, scale=scale)
        cells = _cell_arrays(ref.surviving_cells, points.shape[1])
        return ref.labels, ref.n_clusters, ref.threshold, cells
    model = AdaWave(scale=scale).fit(points)
    return (
        model.labels_,
        model.n_clusters_,
        model.threshold_,
        (model.result_.cell_coords, model.result_.cell_labels),
    )


class TestGoldenRegression:
    @pytest.mark.parametrize("engine", ["vectorized", "reference"])
    def test_reproduces_frozen_results(self, golden, engine):
        name, data = golden
        labels, n_clusters, threshold, _cells = _run_engine(
            engine, data["points"], int(data["scale"])
        )
        np.testing.assert_array_equal(
            labels,
            data["labels"],
            err_msg=f"{engine} engine labels diverged from the seed on {name}",
        )
        assert n_clusters == int(data["n_clusters"])
        # The batched matmul may differ from the per-line dot product in the
        # last ulp; anything beyond that is a real regression.
        assert threshold == pytest.approx(
            float(data["threshold"]), rel=1e-9, abs=1e-9
        )

    def test_engines_agree_exactly(self, golden):
        name, data = golden
        scale = int(data["scale"])
        vec = AdaWave(scale=scale).fit(data["points"])
        ref = fit_reference(data["points"], scale=scale)
        np.testing.assert_array_equal(
            vec.labels_, ref.labels, err_msg=f"engines disagree on {name}"
        )
        assert vec.n_clusters_ == ref.n_clusters
        ref_coords, ref_labels = _cell_arrays(ref.surviving_cells, data["points"].shape[1])
        np.testing.assert_array_equal(vec.result_.cell_coords, ref_coords)
        np.testing.assert_array_equal(vec.result_.cell_labels, ref_labels)

    def test_partial_fit_matches_frozen_labels(self, golden):
        """Streaming over the golden data with the data's own bounding box
        reproduces the frozen one-shot labels."""
        name, data = golden
        points = data["points"]
        lower, upper = points.min(axis=0), points.max(axis=0)
        scale = int(data["scale"])
        one_shot = AdaWave(scale=scale, bounds=(lower, upper)).fit(points)
        stream = AdaWave(scale=scale, bounds=(lower, upper))
        for batch in np.array_split(points, 5):
            stream.partial_fit(batch)
        stream.finalize()
        np.testing.assert_array_equal(stream.labels_, one_shot.labels_)
        assert stream.n_clusters_ == one_shot.n_clusters_
        # With explicit bounds equal to the data's min/max the grid matches
        # the data-derived quantization, so the frozen labels hold as well.
        np.testing.assert_array_equal(one_shot.labels_, data["labels"])
