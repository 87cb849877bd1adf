"""One-dimensional discrete wavelet transform (Mallat filter-bank algorithm).

The transforms follow the textbook analysis / synthesis scheme of Fig. 3 in
the paper: the signal is correlated with the analysis low-pass and high-pass
filters and downsampled by two; synthesis upsamples, filters with the dual
bank and sums.  Three boundary modes are provided:

``periodization``
    The signal is treated as one period of a periodic sequence.  This is the
    default mode: it is non-redundant (``len(cA) == ceil(n / 2)``) and gives
    exact perfect reconstruction for both orthogonal and biorthogonal banks.
``zero``
    The signal is extended with zeros.
``symmetric``
    The signal is extended by half-sample symmetric reflection.

``zero`` and ``symmetric`` produce the slightly redundant
``floor((n + L - 1) / 2)`` coefficients familiar from other wavelet
libraries; perfect reconstruction in those modes is guaranteed for the
orthogonal families.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.wavelets.filters import Wavelet, build_wavelet

_MODES = ("periodization", "zero", "symmetric")


def _check_mode(mode: str) -> str:
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}; got {mode!r}.")
    return mode


def _as_signal(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D signal; got shape {arr.shape}.")
    if arr.size == 0:
        raise ValueError("cannot transform an empty signal.")
    return arr


def _extend(signal: np.ndarray, pad: int, mode: str) -> np.ndarray:
    """Extend ``signal`` by ``pad`` samples on each side according to ``mode``."""
    if pad == 0:
        return signal
    if mode == "zero":
        return np.concatenate([np.zeros(pad), signal, np.zeros(pad)])
    if mode == "symmetric":
        n = len(signal)
        period = 2 * n
        left_positions = np.mod(np.arange(-pad, 0), period)
        right_positions = np.mod(np.arange(n, n + pad), period)
        left = signal[np.where(left_positions >= n, period - 1 - left_positions, left_positions)]
        right = signal[np.where(right_positions >= n, period - 1 - right_positions, right_positions)]
        return np.concatenate([left, signal, right])
    raise ValueError(f"unsupported extension mode {mode!r}.")


def dwt_max_level(data_length: int, filter_length: int) -> int:
    """Maximum useful number of decomposition levels for a signal.

    Mirrors the usual convention: the deepest level at which the
    approximation is still at least as long as the filter.
    """
    if filter_length < 2 or data_length < filter_length:
        return 0
    return int(np.floor(np.log2(data_length / (filter_length - 1.0))))


# ---------------------------------------------------------------------------
# Periodized transform (exact, non-redundant).
# ---------------------------------------------------------------------------

# The periodized analysis pass is a gather (``signal[idx]``) followed by a
# filter dot product.  The gather index matrices depend only on the wavelet
# and the (even) signal length, so they are memoised here: the per-dimension
# grid transform applies the same-length DWT to every occupied line of the
# grid and would otherwise rebuild the indices once per line.
_PERIODIZED_INDEX_CACHE: dict = {}
_PERIODIZED_INDEX_CACHE_MAX = 64


def _periodized_indices(wavelet: Wavelet, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cached ``(lo_idx, hi_idx)`` gather matrices for an even length ``n``."""
    # The key captures everything the index matrices depend on, so two banks
    # sharing a name but differing in support (e.g. a hand-built Wavelet)
    # never collide in the cache.
    key = (
        wavelet.name,
        len(wavelet.dec_lo),
        len(wavelet.dec_hi),
        wavelet.dec_lo_offset,
        wavelet.dec_hi_offset,
        n,
    )
    cached = _PERIODIZED_INDEX_CACHE.get(key)
    if cached is not None:
        return cached
    half = n // 2
    even_positions = 2 * np.arange(half)[:, None]
    # a[k] = sum_m dec_lo[m] * x[(2k + m - offset) mod n], the inner product of
    # the signal with the analysis filter shifted by 2k on the circle.
    lo_idx = np.mod(even_positions + np.arange(len(wavelet.dec_lo))[None, :] - wavelet.dec_lo_offset, n)
    hi_idx = np.mod(even_positions + np.arange(len(wavelet.dec_hi))[None, :] - wavelet.dec_hi_offset, n)
    if len(_PERIODIZED_INDEX_CACHE) >= _PERIODIZED_INDEX_CACHE_MAX:
        _PERIODIZED_INDEX_CACHE.pop(next(iter(_PERIODIZED_INDEX_CACHE)))
    _PERIODIZED_INDEX_CACHE[key] = (lo_idx, hi_idx)
    return lo_idx, hi_idx


def _dwt_periodized(signal: np.ndarray, wavelet: Wavelet) -> Tuple[np.ndarray, np.ndarray]:
    n = len(signal)
    if n % 2 == 1:
        # Pad to even length by repeating the final sample; the caller trims
        # back to the original length after synthesis.
        signal = np.concatenate([signal, signal[-1:]])
        n += 1
    lo_idx, hi_idx = _periodized_indices(wavelet, n)
    approx = signal[lo_idx] @ wavelet.dec_lo
    detail = signal[hi_idx] @ wavelet.dec_hi
    return approx, detail


def even_line_matrix(signals) -> np.ndarray:
    """``signals`` as a 2-D float64 ``(batch, n)`` array of even ``n``.

    Odd-length rows are padded to even length by repeating their final
    sample, as every periodized transform here does.
    """
    signals = np.asarray(signals, dtype=np.float64)
    if signals.ndim != 2:
        raise ValueError(f"signals must be a 2-D (batch, n) array; got shape {signals.shape}.")
    if signals.shape[1] == 0:
        raise ValueError("cannot transform empty signals.")
    if signals.shape[1] % 2 == 1:
        signals = np.concatenate([signals, signals[:, -1:]], axis=1)
    return signals


def dwt_batch(signals, wavelet, mode: str = "periodization", approx_only: bool = False):
    """Single-level DWT of many equal-length signals at once.

    Parameters
    ----------
    signals:
        ``(batch, n)`` array; every row is transformed independently.
    wavelet:
        Wavelet name or :class:`Wavelet`.
    mode:
        Only ``"periodization"`` is supported (the non-redundant mode the
        grid transform uses).
    approx_only:
        Skip the detail (high-pass) half entirely and return just ``cA``.
        The grid transform discards the detail coefficients unconditionally
        (Algorithm 3 keeps only the scale space), so computing them would be
        pure waste on that path -- this flag roughly halves the work.

    Returns
    -------
    (cA, cD), or cA alone when ``approx_only``:
        Arrays of shape ``(batch, ceil(n / 2))``, row ``i`` being exactly
        ``dwt(signals[i], wavelet, mode)``.
    """
    if mode != "periodization":
        raise ValueError(f"dwt_batch only supports mode='periodization'; got {mode!r}.")
    signals = even_line_matrix(signals)
    bank = build_wavelet(wavelet)
    lo_idx, hi_idx = _periodized_indices(bank, signals.shape[1])
    # The fancy-indexed gather is not C-contiguous (the advanced-index dims
    # are moved), which routes the matmul through a layout-dependent kernel.
    # Copying to contiguous first keeps the numerics layout-independent (so
    # the Haar lifting kernel can be pinned bit-for-bit against this path) and
    # lets the stacked matmul use the fast contiguous loop.
    approx = np.ascontiguousarray(signals[:, lo_idx]) @ bank.dec_lo
    if approx_only:
        return approx
    detail = np.ascontiguousarray(signals[:, hi_idx]) @ bank.dec_hi
    return approx, detail


def _idwt_periodized(
    approx: np.ndarray,
    detail: np.ndarray,
    wavelet: Wavelet,
    output_length: Optional[int],
) -> np.ndarray:
    if len(approx) != len(detail):
        raise ValueError(
            f"cA and cD must have equal length in periodization mode; "
            f"got {len(approx)} and {len(detail)}."
        )
    half = len(approx)
    n = 2 * half
    reconstructed = np.zeros(n)
    even_positions = 2 * np.arange(half)

    # x[(2k + m - offset) mod n] += rec_lo[m] * a[k]  (and likewise for cD):
    # superposition of the synthesis filters shifted by 2k on the circle.
    for m, coeff in enumerate(wavelet.rec_lo):
        targets = np.mod(even_positions + m - wavelet.rec_lo_offset, n)
        np.add.at(reconstructed, targets, coeff * approx)
    for m, coeff in enumerate(wavelet.rec_hi):
        targets = np.mod(even_positions + m - wavelet.rec_hi_offset, n)
        np.add.at(reconstructed, targets, coeff * detail)

    if output_length is not None:
        reconstructed = reconstructed[:output_length]
    return reconstructed


# ---------------------------------------------------------------------------
# Padded transforms (zero / symmetric extension).
# ---------------------------------------------------------------------------


def _dwt_padded(signal: np.ndarray, wavelet: Wavelet, mode: str) -> Tuple[np.ndarray, np.ndarray]:
    pad = wavelet.filter_length - 1
    extended = _extend(signal, pad, mode)
    # Correlate (not convolve) with the analysis filters: slide the filter and
    # take inner products, then keep the odd phases.
    approx_full = np.correlate(extended, wavelet.dec_lo, mode="valid")
    detail_full = np.correlate(extended, wavelet.dec_hi, mode="valid")
    return approx_full[1::2], detail_full[1::2]


def _idwt_padded(
    approx: np.ndarray,
    detail: np.ndarray,
    wavelet: Wavelet,
    output_length: Optional[int],
) -> np.ndarray:
    if len(approx) != len(detail):
        raise ValueError(
            f"cA and cD must have equal length; got {len(approx)} and {len(detail)}."
        )
    filter_len = wavelet.filter_length
    upsampled_a = np.zeros(2 * len(approx))
    upsampled_d = np.zeros(2 * len(detail))
    upsampled_a[::2] = approx
    upsampled_d[::2] = detail
    mixed = np.convolve(upsampled_a, wavelet.rec_lo) + np.convolve(upsampled_d, wavelet.rec_hi)
    # Drop the filter transient on each side (standard trim of L - 2 samples).
    trim = filter_len - 2
    if trim > 0 and len(mixed) > 2 * trim:
        mixed = mixed[trim:-trim]
    if output_length is not None:
        mixed = mixed[:output_length]
    return mixed


# ---------------------------------------------------------------------------
# Public API.
# ---------------------------------------------------------------------------


def dwt(data, wavelet, mode: str = "periodization") -> Tuple[np.ndarray, np.ndarray]:
    """Single-level 1-D discrete wavelet transform.

    Parameters
    ----------
    data:
        1-D array-like signal.
    wavelet:
        Wavelet name (e.g. ``"db2"``, ``"bior2.2"``) or :class:`Wavelet`.
    mode:
        Boundary handling; see the module docstring.

    Returns
    -------
    (cA, cD):
        Approximation (scale-space) and detail (wavelet-space) coefficients.
    """
    signal = _as_signal(data)
    bank = build_wavelet(wavelet)
    mode = _check_mode(mode)
    if mode == "periodization":
        return _dwt_periodized(signal, bank)
    return _dwt_padded(signal, bank, mode)


def idwt(
    approx,
    detail,
    wavelet,
    mode: str = "periodization",
    output_length: Optional[int] = None,
) -> np.ndarray:
    """Single-level inverse DWT.

    Either coefficient array may be ``None`` in which case it is treated as a
    zero array of the same length as the other -- this is how low-pass
    smoothing (detail suppression) is expressed.
    """
    bank = build_wavelet(wavelet)
    mode = _check_mode(mode)
    if approx is None and detail is None:
        raise ValueError("at least one of cA / cD must be provided.")
    if approx is None:
        approx = np.zeros_like(np.asarray(detail, dtype=np.float64))
    if detail is None:
        detail = np.zeros_like(np.asarray(approx, dtype=np.float64))
    approx = np.asarray(approx, dtype=np.float64)
    detail = np.asarray(detail, dtype=np.float64)
    if mode == "periodization":
        return _idwt_periodized(approx, detail, bank, output_length)
    return _idwt_padded(approx, detail, bank, output_length)


def wavedec(data, wavelet, level: Optional[int] = None, mode: str = "periodization") -> List[np.ndarray]:
    """Multi-level decomposition ``[cA_L, cD_L, cD_{L-1}, ..., cD_1]``.

    ``level=None`` selects the maximum useful depth for the signal length and
    filter, matching the layered structure of the Mallat algorithm.
    """
    signal = _as_signal(data)
    bank = build_wavelet(wavelet)
    mode = _check_mode(mode)
    if level is None:
        level = max(dwt_max_level(len(signal), bank.filter_length), 1)
    if level < 1:
        raise ValueError(f"level must be >= 1; got {level}.")

    details: List[np.ndarray] = []
    approx = signal
    for _ in range(level):
        if len(approx) < 2:
            break
        approx, detail = dwt(approx, bank, mode=mode)
        details.append(detail)
    coefficients = [approx] + details[::-1]
    return coefficients


def waverec(
    coefficients: Sequence[np.ndarray],
    wavelet,
    mode: str = "periodization",
    output_length: Optional[int] = None,
) -> np.ndarray:
    """Reconstruct a signal from :func:`wavedec` output."""
    if len(coefficients) < 2:
        raise ValueError("waverec needs at least [cA, cD].")
    bank = build_wavelet(wavelet)
    mode = _check_mode(mode)
    approx = np.asarray(coefficients[0], dtype=np.float64)
    for detail in coefficients[1:]:
        detail = np.asarray(detail, dtype=np.float64)
        if len(detail) != len(approx):
            # Levels produced from odd-length intermediates differ by one
            # coefficient; truncate the approximation to match.
            approx = approx[: len(detail)]
        approx = idwt(approx, detail, bank, mode=mode)
    if output_length is not None:
        approx = approx[:output_length]
    return approx


def smooth_signal(data, wavelet, level: int = 1, mode: str = "periodization") -> np.ndarray:
    """Low-pass smooth ``data`` by zeroing all detail coefficients.

    This is the denoising primitive AdaWave applies along every grid
    dimension: decompose to ``level`` scales, discard the wavelet (detail)
    spaces entirely, and reconstruct from the scale space only.  The output
    has the same length as the input.
    """
    signal = _as_signal(data)
    if level < 1:
        raise ValueError(f"level must be >= 1; got {level}.")
    coefficients = wavedec(signal, wavelet, level=level, mode=mode)
    smoothed = [coefficients[0]] + [np.zeros_like(c) for c in coefficients[1:]]
    return waverec(smoothed, wavelet, mode=mode, output_length=len(signal))
