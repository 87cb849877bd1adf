"""Adaptive threshold selection ("elbow theory", Algorithm 4).

After the wavelet transform the sorted grid densities fall into three roughly
linear pieces (Fig. 6 of the paper): a steep "signal" segment of dense cluster
cells, a "middle" segment of boundary cells, and an almost horizontal "noise"
segment.  The best filtering threshold sits where the middle segment meets the
noise segment.

Two detectors are implemented:

``elbow_threshold_angle``
    The paper's Algorithm 4: walk the sorted density curve, measure the
    turning angle between consecutive difference vectors, remember the
    sharpest turn seen so far, and stop at the first point where the curve
    has straightened back out to a third of that sharpest turn.  The curve is
    normalised to the unit square first so the angles are scale free.

``elbow_threshold_segments``
    The description of Fig. 6 taken literally: fit the sorted curve with
    three line segments by least squares over all breakpoint pairs and return
    the density at the junction of the middle and noise segments.  This is
    the default because it is the most faithful to the stated criterion ("the
    position where the 'middle line' and the 'noise line' intersects is
    generally the best threshold") and markedly more robust than the raw
    per-point angle scan on large grids.

``elbow_threshold_distance``
    A robust fallback (the classic "knee" rule): the point of the sorted
    curve with maximum distance to the chord joining its endpoints.

``adaptive_threshold`` applies the three-segment rule and falls back to the
chord rule when the segment fit is degenerate (fewer than a handful of
distinct densities).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


#: Relative epsilon of the tie snaps.  The lifting kernel and the reference
#: engine's convolution round the same coefficient differently at the last
#: few ulps, so without a snap an exact tie could fall one way in one engine
#: and the other way in the other: a density at the threshold (snapped by
#: :func:`repro.core.pipeline.snapped_cut`) or two points equally far from
#: the chord of the unit-square curve (:func:`elbow_threshold_distance`).
TIE_SNAP_RELATIVE = 1e-9


@dataclass(frozen=True)
class ThresholdDiagnostics:
    """Details of how the threshold was chosen (used by the ablation bench).

    Attributes
    ----------
    threshold:
        Selected density threshold; cells with density strictly above it
        survive the filtering step.
    index:
        Index into the descending sorted density curve where the elbow was
        detected.
    method:
        ``"angle"`` when Algorithm 4 triggered, ``"distance"`` for the chord
        fallback, ``"degenerate"`` when there were too few distinct densities
        to detect anything.
    sorted_densities:
        The descending density curve the decision was made on.
    """

    threshold: float
    index: int
    method: str
    sorted_densities: np.ndarray
    breakpoints: Optional[tuple] = None


def _normalized_curve(sorted_densities: np.ndarray) -> np.ndarray:
    """Map the sorted curve into the unit square so angles are scale free."""
    n = len(sorted_densities)
    x = np.linspace(0.0, 1.0, n)
    span = sorted_densities[0] - sorted_densities[-1]
    if span <= 0:
        y = np.zeros(n)
    else:
        y = (sorted_densities - sorted_densities[-1]) / span
    return np.column_stack([x, y])


def elbow_threshold_angle(densities, angle_divisor: float = 3.0) -> Optional[ThresholdDiagnostics]:
    """Algorithm 4: turning-angle detection of the middle / noise intersection.

    Parameters
    ----------
    densities:
        Grid densities (any order); the routine sorts them in descending
        order internally.
    angle_divisor:
        The paper stops at the first point whose turning angle is at most the
        sharpest turn seen so far divided by 3; this parameter exposes that
        constant for the ablation study.

    Returns
    -------
    ThresholdDiagnostics or None
        ``None`` when the criterion never triggers (caller should fall back).
    """
    values = np.sort(np.asarray(densities, dtype=np.float64))[::-1]
    if len(values) < 3 or values[0] == values[-1]:
        return None
    if angle_divisor <= 1.0:
        raise ValueError(f"angle_divisor must be > 1; got {angle_divisor}.")

    curve = _normalized_curve(values)
    # Forward difference vectors along the descending curve.
    segments = curve[:-1] - curve[1:]
    norms = np.linalg.norm(segments, axis=1)

    sharpest_turn = 0.0
    seen_turn = False
    for i in range(1, len(segments)):
        if norms[i - 1] < 1e-15 or norms[i] < 1e-15:
            continue
        cosine = np.clip(
            np.dot(segments[i - 1], segments[i]) / (norms[i - 1] * norms[i]), -1.0, 1.0
        )
        turning_angle = float(np.arccos(cosine))
        if turning_angle > sharpest_turn:
            sharpest_turn = turning_angle
            seen_turn = sharpest_turn > 1e-3
            continue
        if seen_turn and turning_angle <= sharpest_turn / angle_divisor:
            return ThresholdDiagnostics(
                threshold=float(values[i]),
                index=i,
                method="angle",
                sorted_densities=values,
            )
    return None


def elbow_threshold_distance(densities) -> ThresholdDiagnostics:
    """Chord rule: elbow = point of maximum distance to the endpoint chord."""
    values = np.sort(np.asarray(densities, dtype=np.float64))[::-1]
    if len(values) == 0:
        raise ValueError("cannot choose a threshold from an empty density set.")
    if len(values) < 3 or values[0] == values[-1]:
        return ThresholdDiagnostics(
            threshold=float(values[-1]) if len(values) else 0.0,
            index=len(values) - 1 if len(values) else 0,
            method="degenerate",
            sorted_densities=values,
        )
    curve = _normalized_curve(values)
    start, end = curve[0], curve[-1]
    chord = end - start
    chord_norm = np.linalg.norm(chord)
    relative = curve - start
    # Perpendicular distance of every curve point to the chord.
    cross = np.abs(relative[:, 0] * chord[1] - relative[:, 1] * chord[0])
    distances = cross / max(chord_norm, 1e-15)
    # Distances (in the unit square) within the tie snap of the largest are
    # tied and the first wins, as exact arithmetic would pick; a straight
    # curve, all of whose distances are rounding noise, keeps index 0.
    index = int(np.argmax(distances >= distances.max() - TIE_SNAP_RELATIVE))
    return ThresholdDiagnostics(
        threshold=float(values[index]),
        index=index,
        method="distance",
        sorted_densities=values,
    )


#: Breakpoint rows scored per broadcast block of the three-segment search.
_ELBOW_BLOCK_ROWS = 32


def _segment_sse(prefix: dict, start, end) -> np.ndarray:
    """Sum of squared residuals of the least-squares line over ``[start, end)``.

    Uses the precomputed prefix sums of x, y, x^2, y^2 and x*y so each segment
    evaluation is O(1).  ``start``/``end`` may be scalars or broadcastable
    integer arrays; the result follows the broadcast shape, so a whole grid
    of candidate breakpoints evaluates in one vectorized pass.
    """
    start = np.asarray(start)
    end = np.asarray(end)
    n = end - start
    sum_x = prefix["x"][end] - prefix["x"][start]
    sum_y = prefix["y"][end] - prefix["y"][start]
    sum_xx = prefix["xx"][end] - prefix["xx"][start]
    sum_yy = prefix["yy"][end] - prefix["yy"][start]
    sum_xy = prefix["xy"][end] - prefix["xy"][start]
    safe_n = np.where(n < 2, 2, n)
    var_x = sum_xx - sum_x * sum_x / safe_n
    var_y = sum_yy - sum_y * sum_y / safe_n
    cov_xy = sum_xy - sum_x * sum_y / safe_n
    with np.errstate(divide="ignore", invalid="ignore"):
        fitted = var_y - cov_xy * cov_xy / var_x
    sse = np.where(var_x <= 1e-18, np.maximum(var_y, 0.0), np.maximum(fitted, 0.0))
    return np.where(n < 2, 0.0, sse)


def elbow_threshold_segments(densities, max_curve_points: int = 400) -> ThresholdDiagnostics:
    """Three-segment least-squares fit of the sorted density curve (Fig. 6).

    The descending density curve is (sub)sampled to at most
    ``max_curve_points`` positions, every pair of breakpoints is scored by the
    total squared error of fitting one line per segment, and the density at
    the junction between the middle and the noise segments of the best fit is
    returned as the threshold.
    """
    values = np.sort(np.asarray(densities, dtype=np.float64))[::-1]
    if len(values) == 0:
        raise ValueError("cannot choose a threshold from an empty density set.")
    if len(values) < 6 or values[0] == values[-1]:
        return ThresholdDiagnostics(
            threshold=float(values[-1]),
            index=len(values) - 1,
            method="degenerate",
            sorted_densities=values,
        )

    curve = _normalized_curve(values)
    # Subsample long curves so the O(points^2) breakpoint search stays cheap.
    if len(curve) > max_curve_points:
        sample_index = np.unique(
            np.round(np.linspace(0, len(curve) - 1, max_curve_points)).astype(int)
        )
    else:
        sample_index = np.arange(len(curve))
    x = curve[sample_index, 0]
    y = curve[sample_index, 1]
    n_points = len(sample_index)

    prefix = {
        "x": np.concatenate([[0.0], np.cumsum(x)]),
        "y": np.concatenate([[0.0], np.cumsum(y)]),
        "xx": np.concatenate([[0.0], np.cumsum(x * x)]),
        "yy": np.concatenate([[0.0], np.cumsum(y * y)]),
        "xy": np.concatenate([[0.0], np.cumsum(x * y)]),
    }

    # Breakpoints i < j split the curve into [0, i), [i, j), [j, n), with at
    # least 2 middle points.  Total error head(i) + middle(i, j) + tail(j) is
    # scored over cache-sized blocks of i rows; row r admits j >= r + 4, so a
    # block from row lo skips the columns before lo.  The first minimum in
    # flat (i, j) order wins: a later block must be strictly smaller.
    i_candidates = np.arange(2, n_points - 3)
    j_candidates = np.arange(4, n_points - 1)
    head = _segment_sse(prefix, 0, i_candidates)
    tail = _segment_sse(prefix, j_candidates, n_points)
    best_total, best_breaks = np.inf, None
    for lo in range(0, len(i_candidates), _ELBOW_BLOCK_ROWS):
        rows = i_candidates[lo : lo + _ELBOW_BLOCK_ROWS, None]
        cols = j_candidates[None, lo:]
        total = head[lo : lo + _ELBOW_BLOCK_ROWS, None] + _segment_sse(prefix, rows, cols)
        total += tail[None, lo:]
        total[cols < rows + 2] = np.inf
        row, col = divmod(int(np.argmin(total)), total.shape[1])
        if best_breaks is None or total[row, col] < best_total:
            best_total = total[row, col]
            best_breaks = (int(rows[row, 0]), int(cols[0, col]))

    junction = int(sample_index[best_breaks[1]])
    return ThresholdDiagnostics(
        threshold=float(values[junction]),
        index=junction,
        method="segments",
        sorted_densities=values,
        breakpoints=(int(sample_index[best_breaks[0]]), junction),
    )


def adaptive_threshold(densities) -> ThresholdDiagnostics:
    """Paper rule with a fallback: the three-segment fit, else the chord rule.

    The three-segment fit (:func:`elbow_threshold_segments`) matches Fig. 6
    and is returned whenever it finds its breakpoints.  When the curve is
    degenerate -- fewer than six densities, or all of them equal -- the fit
    has nothing to place, and the chord (knee) rule of
    :func:`elbow_threshold_distance` decides instead.
    """
    values = np.asarray(densities, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot choose a threshold from an empty density set.")
    segments = elbow_threshold_segments(values)
    if segments.method == "segments":
        return segments
    return elbow_threshold_distance(values)
