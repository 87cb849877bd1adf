"""The sparse cell/density grid data structure ("grid labeling").

Algorithm 2 of the paper quantizes the feature space and stores *only* the
grids with non-zero density.  :class:`SparseGrid` is that structure: sorted
unique cell codes (:class:`~repro.grid.codec.CellCodec`, whose order is
lexicographic cell order) plus an ``(m,)`` density vector, coordinates
decoded on demand -- so every operation (accumulation, merging,
coarsening, line extraction for the wavelet pass) is a vectorized array
pass over codes.  Additions land in one pending buffer of code / density
chunks, folded into the canonical arrays on the next read.  The literal
per-cell form of the algorithm lives in :mod:`repro.engine.reference`.

Canonical ordering makes the structure a *mergeable sketch*: two grids built
from disjoint batches of points merge into exactly the grid the union of the
batches would have produced, which is what enables the streaming
``AdaWave.partial_fit`` path.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.grid.codec import CellCodec, run_starts

Cell = Tuple[int, ...]


class SparseGrid:
    """A d-dimensional grid that stores only occupied cells.

    Parameters
    ----------
    shape:
        Number of intervals along each dimension.
    cells:
        Optional initial ``{cell: density}`` mapping, added with one
        :meth:`add_many` call.
    """

    def __init__(self, shape: Sequence[int], cells: Mapping[Cell, float] = None) -> None:
        shape = tuple(int(s) for s in shape)
        if len(shape) == 0:
            raise ValueError("SparseGrid needs at least one dimension.")
        if any(s < 1 for s in shape):
            raise ValueError(f"every dimension must have at least one interval; got {shape}.")
        self._shape = shape
        self._codec = CellCodec(shape)
        # Canonical storage: sorted unique cell codes and their densities.
        # Coordinates are decoded from the codes on first use.
        self._codes = self._codec.empty()
        self._values = np.empty(0, dtype=np.float64)
        self._coords: Optional[np.ndarray] = None
        self._pending_chunks: List[Tuple[np.ndarray, np.ndarray]] = []
        if cells:
            self.add_many(list(cells), list(cells.values()))

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_coo(cls, shape: Sequence[int], coords, values) -> "SparseGrid":
        """Build a grid from parallel coordinate / density arrays.

        Duplicate coordinates are accumulated.  This is the vectorized bulk
        constructor the quantizer and the wavelet transform use.
        """
        grid = cls(shape)
        grid.add_many(coords, values)
        grid._consolidate()
        return grid

    @classmethod
    def from_point_codes(
        cls, shape: Sequence[int], codes, *, inverse: bool = True
    ) -> Tuple["SparseGrid", Optional[np.ndarray]]:
        """Count unit-mass points given by their cell codes (Algorithm 2).

        Returns the grid and the quantization inverse: every point's row in
        the grid's canonical arrays, read off the same :meth:`CellCodec.group`
        pass that counts the points, so a per-cell quantity reaches the
        points with one gather.  ``inverse=False`` skips the inverse and
        returns ``None`` in its place.
        """
        cells, counts, rows = CellCodec(shape).group(codes, inverse=inverse)
        return cls._from_sorted(shape, cells, counts.astype(np.float64)), rows

    @classmethod
    def _from_sorted(cls, shape: Sequence[int], codes, values) -> "SparseGrid":
        """Internal fast path: adopt already-canonical (sorted, unique) arrays."""
        grid = cls(shape)
        grid._codes = codes
        grid._values = values
        return grid

    # -- pending-buffer management -------------------------------------------

    def _consolidate(self) -> None:
        """Fold the pending code / density chunks into the canonical arrays."""
        if not self._pending_chunks:
            return
        codes = np.concatenate([self._codes] + [c for c, _ in self._pending_chunks])
        values = np.concatenate([self._values] + [v for _, v in self._pending_chunks])
        self._pending_chunks = []

        # Stable, so duplicate densities are summed in insertion order.
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        starts = np.flatnonzero(run_starts(sorted_codes))
        self._values = np.add.reduceat(values[order], starts)
        self._codes = sorted_codes[starts]
        self._coords = None

    # -- basic container protocol -------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        """Number of intervals along each dimension."""
        return self._shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return len(self._shape)

    @property
    def n_occupied(self) -> int:
        """Number of cells with stored density."""
        self._consolidate()
        return len(self._values)

    @property
    def n_total_cells(self) -> int:
        """Total number of cells the dense grid would have (``prod(shape)``)."""
        return int(np.prod([float(s) for s in self._shape]))

    @property
    def coords(self) -> np.ndarray:
        """``(m, d)`` occupied cell coordinates in lexicographic order.

        The returned array is the grid's internal storage -- treat it as
        read-only.
        """
        self._consolidate()
        if self._coords is None:
            self._coords = self._codec.decode(self._codes)
        return self._coords

    @property
    def codes(self) -> np.ndarray:
        """``(m,)`` sorted unique cell codes aligned with :attr:`coords`
        (in :attr:`codec`; read-only)."""
        self._consolidate()
        return self._codes

    @property
    def codec(self) -> CellCodec:
        """The :class:`~repro.grid.codec.CellCodec` of this grid's cells."""
        return self._codec

    @property
    def values(self) -> np.ndarray:
        """``(m,)`` densities aligned with :attr:`coords` (read-only view)."""
        self._consolidate()
        return self._values

    def __len__(self) -> int:
        return self.n_occupied

    def items(self) -> List[Tuple[Cell, float]]:
        """``(cell, density)`` pairs in lexicographic cell order."""
        return list(zip(map(tuple, self.coords.tolist()), self.values.tolist()))

    # -- mutation -------------------------------------------------------------

    def _validate_coords(self, coords) -> np.ndarray:
        coords = np.asarray(coords, dtype=np.int64)
        if coords.ndim != 2 or coords.shape[1] != self.ndim:
            raise ValueError(
                f"coords must have shape (k, {self.ndim}); got {coords.shape}."
            )
        inside = self._codec.contains(coords)
        if not inside.all():
            bad = coords[~inside][0]
            raise ValueError(
                f"cell {tuple(int(c) for c in bad)} is outside the grid of shape {self._shape}."
            )
        return coords

    def add_many(self, coords, values) -> None:
        """Accumulate densities into many cells at once (vectorized).

        Parameters
        ----------
        coords:
            ``(k, d)`` integer cell coordinates; duplicates accumulate.
        values:
            Scalar or ``(k,)`` array of densities.
        """
        self.add_codes(self._codec.encode(self._validate_coords(coords)), values)

    def add_codes(self, codes: np.ndarray, values) -> None:
        """:meth:`add_many` for cells given by their codes in :attr:`codec`."""
        values = np.broadcast_to(
            np.asarray(values, dtype=np.float64), (len(codes),)
        ).copy()
        if len(codes):
            self._pending_chunks.append((codes, values))

    def add_points(self, codes: np.ndarray) -> None:
        """Accumulate unit-mass points given by their cell codes.

        The codes wait in the pending buffer like :meth:`add_codes`'s and are
        folded into the canonical arrays once they outnumber the occupied
        cells, so a stream of batches holds at most one entry per occupied
        cell plus one batch of codes, never one per point.  The stable sort
        of a fold runs over the already-sorted cells plus the new codes, so
        folding as the stream goes costs about what one fold at the end
        would.
        """
        self.add_codes(codes, 1.0)
        if sum(len(chunk) for chunk, _ in self._pending_chunks) > len(self._values):
            self._consolidate()

    def merge(self, other: "SparseGrid") -> "SparseGrid":
        """Accumulate every cell of ``other`` into this grid (in place).

        Both grids must share the same shape.  Because the storage is a
        canonical COO sketch, merging per-batch grids is equivalent to having
        quantized the concatenated batches in one pass.
        """
        if not isinstance(other, SparseGrid):
            raise TypeError(f"can only merge another SparseGrid; got {type(other).__name__}.")
        if other.shape != self._shape:
            raise ValueError(
                f"cannot merge a grid of shape {other.shape} into one of shape {self._shape}."
            )
        other._consolidate()
        if len(other._values):
            self._pending_chunks.append((other._codes.copy(), other._values.copy()))
        return self

    def prune(self, threshold: float) -> "SparseGrid":
        """Return a new grid keeping only cells with ``density > threshold``."""
        self._consolidate()
        mask = self._values > threshold
        return SparseGrid._from_sorted(self._shape, self._codes[mask], self._values[mask])

    def scale_values(self, factor: float) -> "SparseGrid":
        """Multiply every stored density by ``factor`` in place.

        The exponential-forgetting primitive of the streaming layer
        (:meth:`repro.stream.StreamSketch.decay`): applied once per batch it
        turns the sketch into an exponentially weighted view of the stream.
        """
        self._consolidate()
        self._values *= float(factor)
        return self

    def copy(self) -> "SparseGrid":
        """Deep copy of the grid."""
        self._consolidate()
        return SparseGrid._from_sorted(self._shape, self._codes.copy(), self._values.copy())

    def coarsen(self, factor: Union[int, Sequence[int]]) -> "SparseGrid":
        """Merge blocks of ``factor`` cells per dimension into one cell.

        Coordinates are floor-divided by ``factor`` (on the cell codes,
        :meth:`CellCodec.coarsen_codes`) and the densities of the cells
        landing in the same coarse cell are summed, in one ``O(m log m)``
        pass over the occupied cells -- no access to the original points.

        This is the exact dyadic-rescale primitive of the tuning subsystem:
        because ``floor(x / (2w)) == floor(x / w) // 2`` for any cell width
        ``w``, coarsening a quantization at ``2s`` intervals reproduces the
        quantization at ``s`` intervals *bit for bit*::

            quantize(X, s) == quantize(X, 2 * s).coarsen(2)

        (for the same bounds), and factors compose:
        ``g.coarsen(2).coarsen(2) == g.coarsen(4)``.  That identity is what
        lets a whole pyramid of resolutions be evaluated from a single pass
        over the data.

        Parameters
        ----------
        factor:
            Block size per dimension -- a positive integer applied to every
            dimension or one value per dimension.  ``1`` leaves a dimension
            untouched.  The coarse shape is ``ceil(shape / factor)`` per
            dimension.
        """
        if np.isscalar(factor):
            factors = np.full(self.ndim, int(factor), dtype=np.int64)
        else:
            factors = np.asarray([int(f) for f in factor], dtype=np.int64)
            if factors.shape != (self.ndim,):
                raise ValueError(
                    f"factor must be a scalar or one value per dimension "
                    f"({self.ndim}); got {len(factors)} entries."
                )
        if np.any(factors < 1):
            raise ValueError(f"every coarsening factor must be >= 1; got {factors.tolist()}.")
        if np.all(factors == 1):
            return self.copy()
        self._consolidate()
        coarse = SparseGrid(self._codec.coarsen(factors).shape)
        coarse.add_codes(self._codec.coarsen_codes(self._codes, factors), self._values)
        coarse._consolidate()
        return coarse

    # -- conversions -----------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """Materialise the grid as a dense array (low-dimensional use only)."""
        if self.ndim > 6:
            raise ValueError(
                f"refusing to densify a {self.ndim}-D grid; it would need "
                f"{self.n_total_cells} cells."
            )
        self._consolidate()
        dense = np.zeros(self._shape)
        if len(self._values):
            dense[tuple(self.coords.T)] = self._values
        return dense

    # -- structure queries -------------------------------------------------------

    def _line_grouping(self, axis: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Group the occupied cells into 1-D lines parallel to ``axis``.

        Returns ``(keys, line_ids, positions, values)`` where ``keys`` is the
        ``(n_lines, d-1)`` array of distinct line keys in lexicographic order
        and ``line_ids``/``positions``/``values`` describe every occupied cell
        (``line_ids[i]`` indexes into ``keys``).
        """
        if not 0 <= axis < self.ndim:
            raise ValueError(f"axis must be in [0, {self.ndim}); got {axis}.")
        self._consolidate()
        codec = self._codec
        if self.ndim == 1:
            keys = np.empty((1 if len(self._codes) else 0, 0), dtype=np.int64)
            line_ids = np.zeros(len(self._codes), dtype=np.int64)
            return keys, line_ids, codec.digit(self._codes, 0), self._values
        line_keys, positions = codec.line_keys(self._codes, axis)
        values = self._values
        if axis != self.ndim - 1:
            # Cells sorted by (line key, position): the key scaled by the
            # line length plus the position is unique, so any sort will do.
            order = np.argsort(line_keys * self._shape[axis] + positions)
            line_keys, positions, values = line_keys[order], positions[order], values[order]
        new_line = run_starts(line_keys)
        line_ids = np.cumsum(new_line) - 1
        return codec.without(axis).decode(line_keys[new_line]), line_ids, positions, values

    def line_matrix(self, axis: int) -> Tuple[np.ndarray, np.ndarray]:
        """Dense matrix of every occupied line along ``axis`` (vectorized).

        Returns ``(keys, matrix)``: ``keys`` is ``(n_lines, d - 1)`` and
        ``matrix`` is ``(n_lines, shape[axis])`` with the density vectors of
        the lines as rows, in sorted key order.
        """
        keys, line_ids, positions, values = self._line_grouping(axis)
        matrix = np.zeros((len(keys), self._shape[axis]))
        matrix[line_ids, positions] = values
        return keys, matrix

    def total_mass(self) -> float:
        """Sum of all stored densities."""
        self._consolidate()
        return float(self._values.sum())

    def memory_cells(self) -> int:
        """Number of stored entries -- the paper's memory-saving metric.

        A dense representation would store :attr:`n_total_cells` values; the
        sparse "grid labeling" representation stores only this many.
        """
        return self.n_occupied

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SparseGrid(shape={self._shape}, occupied={self.n_occupied}, "
            f"total={self.n_total_cells})"
        )
