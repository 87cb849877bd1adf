"""Quickstart: cluster a highly noisy synthetic dataset with AdaWave.

Generates the paper's running example (five arbitrarily shaped clusters
drowned in 80 % uniform noise), runs AdaWave with its default parameters and
prints the quality metrics and a textual summary of every pipeline stage.
A second section streams the same dataset in batches through
``partial_fit`` / ``finalize`` and shows the labels come out identical.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import AdaWave
from repro.datasets import running_example
from repro.metrics import evaluate_clustering


def main() -> None:
    # 1. Generate the running example: 5 clusters + 80 % uniform noise.
    data = running_example(noise_fraction=0.8, n_per_cluster=2000, seed=0)
    print(f"dataset: {data}")

    # 2. Cluster with AdaWave.  The defaults follow the paper: 128 intervals
    #    per dimension, the CDF(2,2) wavelet and the adaptive elbow threshold.
    model = AdaWave(scale=128)
    model.fit(data.points)

    # 3. Inspect the result.
    scores = evaluate_clustering(data.labels, model.labels_)
    print(f"detected clusters : {model.n_clusters_}")
    print(f"adaptive threshold: {model.threshold_:.2f} "
          f"(selected by the {model.result_.threshold.method!r} rule)")
    print(f"AMI (non-noise)   : {scores.ami:.3f}")
    print(f"ARI               : {scores.ari:.3f}")
    print(f"noise detected    : {scores.noise_fraction_detected:.1%} "
          f"(ground truth {data.noise_fraction:.1%})")

    # 4. Every intermediate artefact is available on the result object.
    result = model.result_
    print(f"occupied grid cells        : {result.quantization.grid.n_occupied}")
    print(f"transformed grid cells     : {result.transformed_grid.n_occupied}")
    print(f"cells surviving threshold  : {len(result.cell_labels)}")
    print(f"cluster sizes (objects)    : {result.cluster_sizes}")

    # 5. Streaming / out-of-core ingestion.  The quantized grid is a
    #    mergeable sketch, so the same data fed batch by batch through
    #    partial_fit -- here in 8 arbitrary chunks -- then finalize()d yields
    #    exactly the one-shot labels.  Explicit bounds keep every batch on
    #    the same grid; with the data's own bounding box the stream matches
    #    the one-shot fit above bit for bit.
    bounds = (data.points.min(axis=0), data.points.max(axis=0))
    one_shot = AdaWave(scale=128, bounds=bounds).fit(data.points)
    stream = AdaWave(scale=128, bounds=bounds)
    for batch in np.array_split(data.points, 8):
        stream.partial_fit(batch)
    stream.finalize()
    identical = np.array_equal(stream.labels_, one_shot.labels_)
    print(f"streaming over 8 batches   : {stream.n_seen_} points ingested, "
          f"labels identical to one-shot fit: {identical}")

    # 6. Serving: the fitted clustering freezes into a tiny artifact that
    #    labels new points with a pure lookup -- no training data retained.
    #    See examples/serving.py for the full save -> load -> registry ->
    #    concurrent-service flow.
    frozen = model.export_model()
    lookup_labels = frozen.predict(data.points)
    print(f"frozen ClusterModel        : {frozen.n_cells} cells, predict "
          f"reproduces fit labels: {np.array_equal(lookup_labels, model.labels_)}")

    # 7. Letting AdaWave pick its scale: scale="tune" sweeps every dyadic
    #    resolution derived from one quantization and keeps the most stable
    #    clustering -- no ground-truth labels involved.  See
    #    examples/tuning.py for the full walkthrough.
    tuned = AdaWave(scale="tune").fit(data.points)
    print(f"scale='tune'               : chose scale {tuned.tune_result_.scale} "
          f"({tuned.n_clusters_} clusters) from "
          f"{len(tuned.tune_result_.scores)} candidates")


if __name__ == "__main__":
    main()
