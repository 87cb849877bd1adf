"""WaveCluster: the original dense-grid wavelet clustering algorithm.

Sheikholeslami et al. (VLDB 1998) quantize the feature space into a dense
grid, apply the wavelet transform, keep the cells of the approximation
subband whose density exceeds a *fixed* significance threshold and connect
them into clusters.  AdaWave keeps the pipeline but replaces the dense grid
with the sparse "grid labeling" structure and the fixed threshold with the
adaptive elbow rule; WaveCluster is therefore both a baseline in Fig. 8 and
the natural ablation reference.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.baselines.base import BaseClusterer, NOISE_LABEL
from repro.grid.codec import CellCodec
from repro.grid.connectivity import label_components_array
from repro.grid.lookup import CellLabelIndex, LookupTable
from repro.grid.quantizer import GridQuantizer
from repro.utils.validation import check_array, check_positive_int
from repro.wavelets.ndwt import dwtn
from repro.wavelets.thresholding import percentile_threshold


class WaveCluster(BaseClusterer):
    """Dense-grid wavelet clustering with a fixed percentile threshold.

    Parameters
    ----------
    scale:
        Quantization intervals per dimension.
    wavelet:
        Wavelet basis used for the grid transform.
    level:
        Decomposition levels (each halves the grid resolution).
    density_percentile:
        Cells of the transformed grid whose density falls below this
        percentile of the *non-zero* transformed densities are discarded as
        noise.  This fixed rule is exactly what AdaWave's adaptive threshold
        replaces.
    connectivity:
        Grid adjacency used to join cells into clusters.

    Notes
    -----
    The dense grid limits the method to low dimensional data: the transform
    materialises ``scale ** d`` cells.  ``fit`` refuses to run above 6
    dimensions, mirroring the memory blow-up the paper describes.
    """

    _MAX_DENSE_DIM = 6

    def __init__(
        self,
        scale: Union[int, Sequence[int]] = 128,
        wavelet: str = "bior2.2",
        level: int = 1,
        density_percentile: float = 60.0,
        connectivity: str = "full",
    ) -> None:
        self.scale = scale
        self.wavelet = wavelet
        self.level = check_positive_int(level, name="level")
        if not 0.0 <= density_percentile <= 100.0:
            raise ValueError(
                f"density_percentile must be in [0, 100]; got {density_percentile}."
            )
        self.density_percentile = float(density_percentile)
        if connectivity not in ("face", "full"):
            raise ValueError(f"connectivity must be 'face' or 'full'; got {connectivity!r}.")
        self.connectivity = connectivity

        self.labels_: Optional[np.ndarray] = None
        self.n_clusters_: Optional[int] = None
        self.threshold_: Optional[float] = None
        self.grid_shape_: Optional[tuple] = None

    def fit(self, X) -> "WaveCluster":
        """Quantize densely, wavelet-transform, threshold and connect."""
        X = check_array(X, name="X")
        if X.shape[1] > self._MAX_DENSE_DIM:
            raise ValueError(
                f"WaveCluster materialises a dense grid and supports at most "
                f"{self._MAX_DENSE_DIM} dimensions; got {X.shape[1]}. "
                "Use AdaWave for higher dimensional data."
            )
        quantizer = GridQuantizer(scale=self.scale)
        quantization = quantizer.fit_transform(X)
        dense = quantization.grid.to_dense()

        # Repeated single-level decompositions, keeping only the approximation
        # band, reproduce the multi-level transformed feature space.
        transformed = dense
        for _ in range(self.level):
            bands = dwtn(transformed, self.wavelet, mode="periodization")
            transformed = bands["a" * transformed.ndim]

        non_zero = transformed[np.abs(transformed) > 1e-12]
        if non_zero.size == 0:
            self.labels_ = np.full(X.shape[0], NOISE_LABEL, dtype=np.int64)
            self.n_clusters_ = 0
            self.threshold_ = 0.0
            self.grid_shape_ = transformed.shape
            return self
        threshold = percentile_threshold(non_zero, self.density_percentile)

        # argwhere lists cells in lexicographic order, as the labelling expects.
        surviving = np.argwhere(transformed > threshold)
        cell_labels = label_components_array(surviving, connectivity=self.connectivity)
        # The dense transform applies every level: its grid is the
        # quantization grid coarsened by 2**level.
        codec = CellCodec(transformed.shape)
        index = CellLabelIndex(codec, codec.encode(surviving), cell_labels)
        grid = quantization.grid
        occupied_labels = LookupTable(level=self.level).label_points_from_arrays(
            grid.codec, grid.codes, index
        )

        self.labels_ = occupied_labels[quantization.inverse]
        self.n_clusters_ = int(cell_labels.max()) + 1 if len(cell_labels) else 0
        self.threshold_ = threshold
        self.grid_shape_ = transformed.shape
        return self
