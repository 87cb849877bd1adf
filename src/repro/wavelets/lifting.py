"""Lifting-scheme implementations of the CDF wavelets.

The lifting scheme (Sweldens) factors a wavelet filter bank into a sequence
of predict / update steps on the even and odd polyphase components.  Each
step is trivially invertible, so perfect reconstruction holds by construction
and the transform runs in-place in O(n).

Two transforms are provided:

* :func:`lifting_cdf53` / :func:`inverse_lifting_cdf53` -- the CDF(2,2)
  LeGall 5/3 wavelet the paper uses, with rational lifting coefficients.
* :func:`lifting_cdf97` / :func:`inverse_lifting_cdf97` -- the CDF 9/7
  wavelet (JPEG 2000 irreversible transform), provided as an alternative
  smoother basis for the multi-resolution experiments.

Both operate on even-length signals with periodic boundary handling, matching
the ``periodization`` mode of :mod:`repro.wavelets.dwt`.

:func:`lifting_approx_batch` runs the same factorisations (and the Haar
pairing) over every row of a line matrix at once and returns only the
approximation half: the grid transform's kernel
(:func:`repro.core.transform.approx_lines`).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.wavelets.filters import Wavelet

# CDF 9/7 lifting constants (Daubechies & Sweldens 1998).
_ALPHA = -1.586134342059924
_BETA = -0.052980118572961
_GAMMA = 0.882911075530934
_DELTA = 0.443506852043971
_ZETA = 1.149604398860241

_SQRT2 = np.sqrt(2.0)

#: Canonical filter-bank names :func:`lifting_approx_batch` covers (``haar``
#: builds as ``db1``).
LIFTING_WAVELETS = ("db1", "bior1.1", "bior2.2", "bior4.4")


def _split(signal) -> Tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(signal, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D signal; got shape {arr.shape}.")
    if len(arr) % 2 != 0 or len(arr) < 2:
        raise ValueError(
            f"lifting transforms require an even-length signal of at least 2 samples; got {len(arr)}."
        )
    return arr[0::2].copy(), arr[1::2].copy()


def _merge(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    signal = np.empty(2 * len(even))
    signal[0::2] = even
    signal[1::2] = odd
    return signal


def _lift_cdf53(even: np.ndarray, odd: np.ndarray) -> None:
    """The CDF 5/3 predict and update steps, in place along the last axis."""
    # Predict: detail = odd - average of the two neighbouring evens.
    odd -= 0.5 * (even + np.roll(even, -1, axis=-1))
    # Update: approximation = even + quarter of the two neighbouring details.
    even += 0.25 * (odd + np.roll(odd, 1, axis=-1))


def _lift_cdf97(even: np.ndarray, odd: np.ndarray) -> None:
    """The four CDF 9/7 lifting steps, in place along the last axis."""
    odd += _ALPHA * (even + np.roll(even, -1, axis=-1))
    even += _BETA * (odd + np.roll(odd, 1, axis=-1))
    odd += _GAMMA * (even + np.roll(even, -1, axis=-1))
    even += _DELTA * (odd + np.roll(odd, 1, axis=-1))


def lifting_cdf53(signal) -> Tuple[np.ndarray, np.ndarray]:
    """Forward LeGall 5/3 (CDF(2,2)) lifting transform.

    Returns ``(approx, detail)`` with the same ``sqrt(2)`` normalisation as
    the convolution implementation, so energy comparisons across the two code
    paths are direct.
    """
    even, odd = _split(signal)
    _lift_cdf53(even, odd)
    return even * _SQRT2, odd / _SQRT2


def inverse_lifting_cdf53(approx, detail) -> np.ndarray:
    """Exact inverse of :func:`lifting_cdf53`."""
    even = np.asarray(approx, dtype=np.float64) / np.sqrt(2.0)
    odd = np.asarray(detail, dtype=np.float64) * np.sqrt(2.0)
    if len(even) != len(odd):
        raise ValueError(f"cA and cD must have equal length; got {len(even)} and {len(odd)}.")
    even = even - 0.25 * (odd + np.roll(odd, 1))
    odd = odd + 0.5 * (even + np.roll(even, -1))
    return _merge(even, odd)


def lifting_cdf97(signal) -> Tuple[np.ndarray, np.ndarray]:
    """Forward CDF 9/7 lifting transform (JPEG 2000 irreversible filter)."""
    even, odd = _split(signal)
    _lift_cdf97(even, odd)
    return even * _ZETA, odd / _ZETA


def inverse_lifting_cdf97(approx, detail) -> np.ndarray:
    """Exact inverse of :func:`lifting_cdf97`."""
    even = np.asarray(approx, dtype=np.float64) / _ZETA
    odd = np.asarray(detail, dtype=np.float64) * _ZETA
    if len(even) != len(odd):
        raise ValueError(f"cA and cD must have equal length; got {len(even)} and {len(odd)}.")
    even = even - _DELTA * (odd + np.roll(odd, 1))
    odd = odd - _GAMMA * (even + np.roll(even, -1))
    even = even - _BETA * (odd + np.roll(odd, 1))
    odd = odd - _ALPHA * (even + np.roll(even, -1))
    return _merge(even, odd)


def lifting_approx_batch(matrix: np.ndarray, bank: Wavelet) -> np.ndarray:
    """Approximation half of one periodized DWT level of every row, by lifting.

    ``matrix`` is a 2-D float64 ``(batch, n)`` array with even ``n``;
    ``bank`` is one of :data:`LIFTING_WAVELETS`.  Returns a new ``(batch,
    n // 2)`` array equal to ``dwt_batch(matrix, bank, approx_only=True)``:
    bit for bit for the Haar family, within a few ulps of the row magnitude
    for CDF 5/3 and 9/7.  The detail half is only an intermediate of the
    update steps.  ``matrix`` is never written: the polyphase split copies
    explicitly, because a column slice of a ``(1, 2)`` or Fortran-ordered
    matrix is already contiguous and ``np.ascontiguousarray`` would return
    a view of it.
    """
    if bank.name in ("db1", "bior1.1"):
        # The Haar pairs are adjacent samples, so the polyphase split is a
        # contiguous reshape.  Keeping the reduction as the same contiguous
        # stacked matmul the reference uses is what makes this path
        # bit-identical to ``dwt_batch`` for every shape (an elementwise
        # even*h0 + odd*h1 rounds differently).
        pairs = np.ascontiguousarray(matrix).reshape(matrix.shape[0], matrix.shape[1] // 2, 2)
        return pairs @ bank.dec_lo
    even = matrix[:, 0::2].copy()
    odd = matrix[:, 1::2].copy()
    if bank.name == "bior2.2":
        _lift_cdf53(even, odd)
        even *= _SQRT2
    elif bank.name == "bior4.4":
        _lift_cdf97(even, odd)
        even *= _ZETA
    else:
        raise ValueError(
            f"no lifting kernel for wavelet {bank.name!r}; "
            f"supported: {', '.join(LIFTING_WAVELETS)}."
        )
    return even


def lifting_smooth(signal, *, transform: str = "cdf53", level: int = 1) -> np.ndarray:
    """Low-pass smooth a signal with repeated lifting analysis / synthesis.

    Equivalent to :func:`repro.wavelets.dwt.smooth_signal` but using the
    lifting fast path; details are zeroed at every level.
    """
    arr = np.asarray(signal, dtype=np.float64)
    if level < 1:
        raise ValueError(f"level must be >= 1; got {level}.")
    if transform == "cdf53":
        forward, inverse = lifting_cdf53, inverse_lifting_cdf53
    elif transform == "cdf97":
        forward, inverse = lifting_cdf97, inverse_lifting_cdf97
    else:
        raise ValueError(f"transform must be 'cdf53' or 'cdf97'; got {transform!r}.")

    original_length = len(arr)
    padded = arr if original_length % 2 == 0 else np.concatenate([arr, arr[-1:]])
    approx_stack = []
    current = padded
    for _ in range(level):
        if len(current) < 2 or len(current) % 2 != 0:
            break
        approx, _detail = forward(current)
        approx_stack.append(len(current))
        current = approx
    for length in reversed(approx_stack):
        current = inverse(current, np.zeros_like(current))[:length]
    return current[:original_length]
