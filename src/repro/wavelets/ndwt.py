"""Separable multi-dimensional discrete wavelet transforms.

Section III-A.2 of the paper describes the 2-D transform as two passes of the
1-D transform: convolve along ``x`` to obtain low-pass ``L`` and high-pass
``H`` spaces, downsample, then convolve each along ``y`` producing the four
subbands ``LL`` (average signal), ``LH`` (horizontal features), ``HL``
(vertical features) and ``HH`` (diagonal features).  The same procedure
generalises to ``d`` dimensions by applying the 1-D transform along every
axis in turn, which is exactly what AdaWave does on the quantized feature
space.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.wavelets.dwt import dwt, idwt
from repro.wavelets.filters import build_wavelet


def _dwt_axis(array: np.ndarray, wavelet, mode: str, axis: int) -> Tuple[np.ndarray, np.ndarray]:
    """Single-level DWT along one axis; returns the (approx, detail) arrays."""
    moved = np.moveaxis(array, axis, -1)
    flat = moved.reshape(-1, moved.shape[-1])
    approx_rows: List[np.ndarray] = []
    detail_rows: List[np.ndarray] = []
    for row in flat:
        approx, detail = dwt(row, wavelet, mode=mode)
        approx_rows.append(approx)
        detail_rows.append(detail)
    approx_arr = np.stack(approx_rows).reshape(moved.shape[:-1] + (len(approx_rows[0]),))
    detail_arr = np.stack(detail_rows).reshape(moved.shape[:-1] + (len(detail_rows[0]),))
    return np.moveaxis(approx_arr, -1, axis), np.moveaxis(detail_arr, -1, axis)


def _idwt_axis(
    approx: np.ndarray,
    detail: np.ndarray,
    wavelet,
    mode: str,
    axis: int,
    output_length: Optional[int],
) -> np.ndarray:
    """Inverse of :func:`_dwt_axis` along one axis."""
    approx_moved = np.moveaxis(approx, axis, -1)
    detail_moved = np.moveaxis(detail, axis, -1)
    flat_a = approx_moved.reshape(-1, approx_moved.shape[-1])
    flat_d = detail_moved.reshape(-1, detail_moved.shape[-1])
    rows = [
        idwt(a_row, d_row, wavelet, mode=mode, output_length=output_length)
        for a_row, d_row in zip(flat_a, flat_d)
    ]
    stacked = np.stack(rows).reshape(approx_moved.shape[:-1] + (len(rows[0]),))
    return np.moveaxis(stacked, -1, axis)


def dwtn(data, wavelet, mode: str = "periodization") -> Dict[str, np.ndarray]:
    """Single-level n-dimensional DWT.

    Returns a dict keyed by subband name: one letter per axis, ``"a"`` for the
    approximation (low-pass) branch and ``"d"`` for the detail (high-pass)
    branch.  For a 2-D input the keys are ``"aa"``, ``"ad"``, ``"da"`` and
    ``"dd"``, corresponding to the paper's ``LL``, ``LH``, ``HL``, ``HH``.
    """
    array = np.asarray(data, dtype=np.float64)
    if array.ndim < 1:
        raise ValueError("dwtn requires at least a 1-D array.")
    bank = build_wavelet(wavelet)
    subbands: Dict[str, np.ndarray] = {"": array}
    for axis in range(array.ndim):
        next_subbands: Dict[str, np.ndarray] = {}
        for key, band in subbands.items():
            approx, detail = _dwt_axis(band, bank, mode, axis)
            next_subbands[key + "a"] = approx
            next_subbands[key + "d"] = detail
        subbands = next_subbands
    return subbands


def idwtn(
    coefficients: Dict[str, np.ndarray],
    wavelet,
    mode: str = "periodization",
    output_shape: Optional[Tuple[int, ...]] = None,
) -> np.ndarray:
    """Inverse of :func:`dwtn`.

    Missing subbands are treated as zero, so passing only the ``"aa...a"``
    band reconstructs the low-pass smoothed array.
    """
    if not coefficients:
        raise ValueError("idwtn needs at least one subband.")
    bank = build_wavelet(wavelet)
    ndim = len(next(iter(coefficients)))
    if ndim == 0:
        raise ValueError("subband keys must have one letter per axis.")
    for key in coefficients:
        if len(key) != ndim or any(c not in "ad" for c in key):
            raise ValueError(f"invalid subband key {key!r}.")

    reference_shape = next(iter(coefficients.values())).shape
    current: Dict[str, np.ndarray] = {}
    for key in ("".join(bits) for bits in product("ad", repeat=ndim)):
        band = coefficients.get(key)
        current[key] = (
            np.zeros(reference_shape) if band is None else np.asarray(band, dtype=np.float64)
        )

    for axis in reversed(range(ndim)):
        length = None if output_shape is None else output_shape[axis]
        merged: Dict[str, np.ndarray] = {}
        prefixes = sorted({key[:axis] + key[axis + 1 :] for key in current})
        for reduced in prefixes:
            key_a = reduced[:axis] + "a" + reduced[axis:]
            key_d = reduced[:axis] + "d" + reduced[axis:]
            merged[reduced] = _idwt_axis(current[key_a], current[key_d], bank, mode, axis, length)
        current = merged
    return current[""]


def dwt2(data, wavelet, mode: str = "periodization") -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Single-level 2-D DWT returning ``(LL, (LH, HL, HH))``.

    ``LL`` is the average signal, ``LH`` the horizontal features, ``HL`` the
    vertical features and ``HH`` the diagonal features (paper Fig. 5).
    """
    array = np.asarray(data, dtype=np.float64)
    if array.ndim != 2:
        raise ValueError(f"dwt2 expects a 2-D array; got shape {array.shape}.")
    bands = dwtn(array, wavelet, mode=mode)
    return bands["aa"], (bands["ad"], bands["da"], bands["dd"])


def idwt2(
    approx,
    details: Tuple[np.ndarray, np.ndarray, np.ndarray],
    wavelet,
    mode: str = "periodization",
    output_shape: Optional[Tuple[int, int]] = None,
) -> np.ndarray:
    """Inverse 2-D DWT from ``(LL, (LH, HL, HH))``; ``None`` bands are zeros."""
    horizontal, vertical, diagonal = details
    reference = approx if approx is not None else next(
        band for band in (horizontal, vertical, diagonal) if band is not None
    )
    reference = np.asarray(reference, dtype=np.float64)
    bands = {
        "aa": np.asarray(approx, dtype=np.float64) if approx is not None else np.zeros(reference.shape),
        "ad": np.asarray(horizontal, dtype=np.float64) if horizontal is not None else np.zeros(reference.shape),
        "da": np.asarray(vertical, dtype=np.float64) if vertical is not None else np.zeros(reference.shape),
        "dd": np.asarray(diagonal, dtype=np.float64) if diagonal is not None else np.zeros(reference.shape),
    }
    return idwtn(bands, wavelet, mode=mode, output_shape=output_shape)


def smooth_nd(data, wavelet, level: int = 1, mode: str = "periodization") -> np.ndarray:
    """Low-pass smooth an n-dimensional array by repeated detail suppression.

    At every level the array is decomposed with :func:`dwtn`, every detail
    subband is discarded and the approximation band alone is reconstructed to
    the original shape.  This is the dense-array counterpart of the per-
    dimension smoothing AdaWave applies to its sparse grid and is what the
    WaveCluster baseline uses directly.
    """
    array = np.asarray(data, dtype=np.float64)
    if level < 1:
        raise ValueError(f"level must be >= 1; got {level}.")
    smoothed = array
    for _ in range(level):
        bands = dwtn(smoothed, wavelet, mode=mode)
        approx_key = "a" * array.ndim
        smoothed = idwtn({approx_key: bands[approx_key]}, wavelet, mode=mode, output_shape=array.shape)
    return smoothed
