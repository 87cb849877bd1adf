"""Per-dimension wavelet decomposition of the sparse grid (Algorithm 3).

The quantized feature space is a d-dimensional density array stored sparsely.
AdaWave applies a one-dimensional DWT along every dimension in turn and keeps
only the scale-space (approximation) coefficients, discarding the wavelet
(detail) coefficients entirely -- they "usually correspond to the noise part"
(Section IV-B).  Each pass halves the resolution along its dimension, so after
``level`` passes over all dimensions the transformed grid is the
``LL...L`` subband at resolution ``scale / 2**level``.

Two layouts run the same per-line kernel (:func:`approx_lines`), with the
same results bit for bit.  A grid whose box is small next to its occupied
cells (the codec's size rule, :meth:`~repro.grid.codec.CellCodec.fits_dense`)
is scattered once into a dense array, and every pass runs the kernel over
every line of the box with that axis moved last.  Above the rule the
transform never materialises the dense d-dimensional grid: it gathers the
occupied 1-D lines of the sparse grid (there are at most as many lines as
occupied cells) into one ``(n_lines, scale)`` matrix, which keeps the cost
``O(number of occupied cells * scale)`` however large the box, the memory
bound Algorithm 2's sparse storage is there for.  Both layouts drop the
coefficients that :data:`_NEGLIGIBLE` calls zero after every pass.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Tuple

import numpy as np

from repro.grid.sparse_grid import SparseGrid
from repro.wavelets.dwt import dwt_batch, even_line_matrix
from repro.wavelets.filters import build_wavelet
from repro.wavelets.lifting import LIFTING_WAVELETS, lifting_approx_batch
from repro.wavelets.thresholding import (
    LevelPolicy,
    hard_threshold,
    soft_threshold,
    universal_threshold,
)

# Coefficients with magnitude below this fraction of one object's mass are
# treated as numerically zero and not stored (they arise from the filter
# side-lobes spreading into empty cells).
_NEGLIGIBLE = 1e-9

# Rows reach the kernel in blocks of at most this many elements, so a block
# and the kernel's temporaries stay cache-sized.  On the 32.5k x 32 line
# matrices of a 200k-point 4-D fit at scale 32 (2-CPU host) the blocks ran
# as fast as a thread pool over row chunks, and faster than one call over
# the whole matrix.  Rows are independent, so the blocked output is
# bit-identical to one call.
_BLOCK_ELEMENTS = 1 << 16


def approx_lines(matrix, wavelet) -> np.ndarray:
    """Low-pass transform every row of ``matrix``: the cA half of one DWT level.

    The batched lifting kernels
    (:func:`~repro.wavelets.lifting.lifting_approx_batch`) run for the Haar
    family, CDF 5/3 (``bior2.2``) and CDF 9/7 (``bior4.4``); every other
    wavelet goes through ``dwt_batch(..., approx_only=True)``.  Odd-length
    rows are padded by repeating their last sample, as in
    :func:`~repro.wavelets.dwt_batch`.  Returns a new ``(n_rows, ceil(n /
    2))`` array; ``matrix`` is never written.
    """
    bank = build_wavelet(wavelet)
    matrix = even_line_matrix(matrix)
    if bank.name in LIFTING_WAVELETS:
        kernel = partial(lifting_approx_batch, bank=bank)
    else:
        kernel = partial(dwt_batch, wavelet=bank, approx_only=True)
    n_rows, width = matrix.shape
    rows = max(1, _BLOCK_ELEMENTS // width)
    if n_rows <= rows:
        return kernel(matrix)
    approx = np.empty((n_rows, width // 2))
    for start in range(0, n_rows, rows):
        approx[start : start + rows] = kernel(matrix[start : start + rows])
    return approx


def _transform_axis(grid: SparseGrid, wavelet, axis: int) -> SparseGrid:
    """Single-level low-pass transform of the grid along one axis."""
    new_shape = list(grid.shape)
    new_shape[axis] = (grid.shape[axis] + 1) // 2
    keys, matrix = grid.line_matrix(axis)
    if len(keys) == 0:
        return SparseGrid(new_shape)
    approx = approx_lines(matrix, wavelet)
    mask = np.abs(approx) > _NEGLIGIBLE
    line_index, position = np.nonzero(mask)
    coords = np.empty((len(line_index), grid.ndim), dtype=np.int64)
    coords[:, :axis] = keys[line_index, :axis]
    coords[:, axis] = position
    coords[:, axis + 1 :] = keys[line_index, axis:]
    return SparseGrid.from_coo(new_shape, coords, approx[mask])


def _transform_dense(
    grid: SparseGrid, wavelet, levels: int, rule: Optional[str]
) -> SparseGrid:
    """``levels`` transform levels of the grid over its dense box.

    The densities are scattered through their codes into one C-order array;
    every pass moves its axis last and runs :func:`approx_lines` over the
    ``(lines, length)`` reshape, then zeroes the coefficients
    :func:`_transform_axis` would not store.  ``rule`` adds
    :func:`_shrink_grid`'s per-level pass between levels, on the non-zero
    cells in code order.  The non-zero cells are read back in code order,
    so the result is the grid the per-axis passes of :func:`_transform_axis`
    build, bit for bit.
    """
    dense = np.zeros(grid.codec.size)
    dense[grid.codes] = grid.values
    dense = dense.reshape(grid.shape)
    for _ in range(levels):
        for axis in range(dense.ndim):
            lines = np.moveaxis(dense, axis, -1)
            approx = approx_lines(lines.reshape(-1, lines.shape[-1]), wavelet)
            approx[~(np.abs(approx) > _NEGLIGIBLE)] = 0.0
            dense = np.moveaxis(approx.reshape(lines.shape[:-1] + (-1,)), -1, axis)
        if rule is not None:
            flat = dense.ravel()
            cells = np.flatnonzero(flat)
            shrunk = _shrink_values(flat[cells], rule)
            if shrunk is not None:
                flat[cells] = shrunk
                dense = flat.reshape(dense.shape)
    flat = dense.ravel()
    cells = np.flatnonzero(flat)
    return SparseGrid._from_sorted(dense.shape, cells, flat[cells])


def _shrink_values(values: np.ndarray, rule: str) -> Optional[np.ndarray]:
    """One MAD-scaled VisuShrink pass over approximation coefficients.

    Estimates the universal threshold from the values
    (:func:`repro.wavelets.universal_threshold` -- MAD sigma with std
    fallback) and applies the hard or soft rule; the cells it zeroes drop
    out.  Returns ``None`` where the pass leaves the band as it is: an
    unestimable noise scale (empty or constant band), a cut that would
    erase every cell rather than hand the threshold stage an empty band,
    or a hard cut that zeroes nothing.
    """
    if len(values) == 0:
        return None
    try:
        cut = universal_threshold(values)
    except ValueError:
        return None
    if cut <= 0.0:
        return None
    shrunk = soft_threshold(values, cut) if rule == "soft" else hard_threshold(values, cut)
    kept = shrunk != 0.0
    if not kept.any() or (kept.all() and rule == "hard"):
        return None
    return shrunk


def _shrink_grid(grid: SparseGrid, rule: str) -> SparseGrid:
    """:func:`_shrink_values` over a grid's cells, dropping the zeroed ones."""
    shrunk = _shrink_values(grid.values, rule)
    if shrunk is None:
        return grid
    kept = shrunk != 0.0
    return SparseGrid._from_sorted(grid.shape, grid.codes[kept], shrunk[kept])


def applied_level(shape, level: int) -> int:
    """Levels :func:`wavelet_smooth_grid` applies to a grid of ``shape``.

    Each level halves every axis (``ceil(s / 2)``); the transform stops once
    an axis is down to one cell, so ``(2, 64)`` takes one level at most.
    """
    applied = 0
    while applied < level and min(shape) >= 2:
        shape = [(size + 1) // 2 for size in shape]
        applied += 1
    return applied


def wavelet_smooth_grid(
    grid: SparseGrid,
    wavelet: str = "bior2.2",
    level: int = 1,
    shrink: Optional[LevelPolicy] = None,
) -> Tuple[SparseGrid, Tuple[int, ...]]:
    """Transform a sparse grid into its level-``level`` approximation subband.

    Parameters
    ----------
    grid:
        Quantized feature space (cell densities).
    wavelet:
        Wavelet basis name or :class:`~repro.wavelets.filters.Wavelet`.  The
        paper uses the Cohen-Daubechies-Feauveau (2,2) biorthogonal spline.
    level:
        Number of decomposition levels; every level halves the resolution in
        each dimension.  The transform stops early once an axis is down to
        one cell (:func:`applied_level`).
    shrink:
        Optional :class:`~repro.wavelets.LevelPolicy` adding a MAD-scaled
        VisuShrink denoising pass in the wavelet domain.  Per-level policies
        re-estimate the noise scale and cut after every decomposition level;
        ``global-soft`` shrinks the final approximation band once.
        ``global-hard`` (and ``None``) add nothing here -- the adaptive
        elbow criterion downstream already is the global hard cut.

    Returns
    -------
    (transformed_grid, shape):
        The transformed sparse grid (scale-space coefficients only) and its
        shape.  Negative coefficients produced by the filter side-lobes are
        preserved; the subsequent threshold filtering removes them together
        with the other low-value cells.
    """
    if level < 1:
        raise ValueError(f"level must be >= 1; got {level}.")
    bank = build_wavelet(wavelet)
    rule = shrink.rule if shrink is not None and shrink.mode == "per-level" else None
    levels = applied_level(grid.shape, level)
    if levels and grid.codec.fits_dense(grid.n_occupied):
        current = _transform_dense(grid, bank, levels, rule)
    else:
        current = grid
        for _ in range(levels):
            for axis in range(current.ndim):
                current = _transform_axis(current, bank, axis)
            if rule is not None:
                current = _shrink_grid(current, rule)
    if shrink is not None and shrink.mode == "global" and shrink.rule == "soft":
        current = _shrink_grid(current, "soft")
    return current, current.shape


def grid_energy(grid: SparseGrid) -> float:
    """Sum of squared densities -- used by tests to check energy compaction."""
    return float(np.sum(grid.values**2))
