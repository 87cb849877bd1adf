"""Discrete wavelet transform substrate.

AdaWave's second step applies a discrete wavelet transform (DWT) to the
quantized feature space.  Because this reproduction is self-contained, the
transform is implemented here from scratch:

* :mod:`repro.wavelets.filters` -- wavelet filter banks: Haar, Daubechies
  (computed by spectral factorisation), symlets (least-asymmetric root
  selection) and the Cohen-Daubechies-Feauveau biorthogonal spline family,
  including CDF(2,2) which the paper uses.
* :mod:`repro.wavelets.dwt` -- single-level and multi-level 1-D analysis /
  synthesis with periodized, zero-padded and symmetric boundary handling.
* :mod:`repro.wavelets.lifting` -- lifting-scheme implementations of the
  CDF(2,2) (LeGall 5/3) and CDF 9/7 transforms with exact integer-free
  perfect reconstruction, and their batched approximation-only kernels for
  the grid transform.
* :mod:`repro.wavelets.ndwt` -- separable n-dimensional transforms (the 2-D
  LL/LH/HL/HH decomposition of Section III-A.2 and its d-dimensional
  generalisation).
* :mod:`repro.wavelets.thresholding` -- hard / soft / universal coefficient
  thresholding used for denoising.
"""

from repro.wavelets.filters import Wavelet, available_wavelets, build_wavelet
from repro.wavelets.dwt import (
    dwt,
    dwt_batch,
    idwt,
    wavedec,
    waverec,
    dwt_max_level,
    smooth_signal,
)
from repro.wavelets.ndwt import dwt2, idwt2, dwtn, idwtn, smooth_nd
from repro.wavelets.thresholding import (
    LEVEL_MODES,
    THRESHOLD_POLICY_NAMES,
    THRESHOLD_RULES,
    LevelPolicy,
    hard_threshold,
    level_thresholds,
    mad_sigma,
    soft_threshold,
    threshold_levels,
    universal_threshold,
    percentile_threshold,
    threshold_coefficients,
)

__all__ = [
    "Wavelet",
    "available_wavelets",
    "build_wavelet",
    "dwt",
    "dwt_batch",
    "idwt",
    "wavedec",
    "waverec",
    "dwt_max_level",
    "smooth_signal",
    "dwt2",
    "idwt2",
    "dwtn",
    "idwtn",
    "smooth_nd",
    "LEVEL_MODES",
    "THRESHOLD_POLICY_NAMES",
    "THRESHOLD_RULES",
    "LevelPolicy",
    "hard_threshold",
    "level_thresholds",
    "mad_sigma",
    "soft_threshold",
    "threshold_levels",
    "universal_threshold",
    "percentile_threshold",
    "threshold_coefficients",
]
