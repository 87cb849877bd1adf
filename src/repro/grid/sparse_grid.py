"""The sparse cell/density grid data structure ("grid labeling").

Algorithm 2 of the paper quantizes the feature space and stores *only* the
grids with non-zero density.  :class:`SparseGrid` is that structure: sorted
unique cell codes (:class:`~repro.grid.codec.CellCodec`, whose order is
lexicographic cell order) plus an ``(m,)`` density vector, coordinates
decoded on demand -- so every hot operation (accumulation, merging,
coarsening, line extraction for the wavelet pass, neighbour joins) is a
vectorized array pass over codes.  The dict-flavoured scalar API of the
original implementation (``add``/``get``/``items``/``in``) is preserved on
top: scalar mutations land in a small pending buffer folded into the
canonical arrays on the next read.

Canonical ordering makes the structure a *mergeable sketch*: two grids built
from disjoint batches of points merge into exactly the grid the union of the
batches would have produced, which is what enables the streaming
``AdaWave.partial_fit`` path.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

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
        Optional initial ``{cell: density}`` mapping; densities accumulate if
        the same cell is given multiple times via :meth:`add`.
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
        self._pending_scalar: Dict[Cell, float] = {}
        if cells:
            for cell, density in cells.items():
                self.add(cell, density)

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

    def _dirty(self) -> bool:
        return bool(self._pending_chunks or self._pending_scalar)

    def _consolidate(self) -> None:
        """Fold pending scalar / bulk additions into the canonical arrays."""
        if not self._dirty():
            return
        parts_c: List[np.ndarray] = [self._codes]
        parts_v: List[np.ndarray] = [self._values]
        parts_c.extend(codes for codes, _ in self._pending_chunks)
        parts_v.extend(vals for _, vals in self._pending_chunks)
        if self._pending_scalar:
            cells = np.array(list(self._pending_scalar.keys()), dtype=np.int64)
            parts_c.append(self._codec.encode(cells))
            parts_v.append(np.fromiter(self._pending_scalar.values(), dtype=np.float64))
        codes = np.concatenate(parts_c)
        values = np.concatenate(parts_v)
        self._pending_chunks = []
        self._pending_scalar = {}

        # Stable, so duplicate densities are summed in insertion order.
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        starts = np.flatnonzero(run_starts(sorted_codes))
        self._values = np.add.reduceat(values[order], starts)
        self._codes = sorted_codes[starts]
        self._coords = None

    def _find_row(self, cell: Cell) -> int:
        """Row index of ``cell`` in the canonical arrays, or -1 if absent."""
        self._consolidate()
        if len(self._values) == 0:
            return -1
        code = self._codec.encode(np.asarray([cell], dtype=np.int64))[0]
        row = int(np.searchsorted(self._codes, code))
        if row < len(self._codes) and self._codes[row] == code:
            return row
        return -1

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

    def __iter__(self) -> Iterator[Cell]:
        for row in self.coords.tolist():
            yield tuple(row)

    def __contains__(self, cell: Cell) -> bool:
        return self._find_row(tuple(cell)) >= 0

    def __getitem__(self, cell: Cell) -> float:
        row = self._find_row(tuple(cell))
        if row < 0:
            raise KeyError(tuple(cell))
        return float(self._values[row])

    def get(self, cell: Cell, default: float = 0.0) -> float:
        """Density of ``cell`` (0.0 when the cell is unoccupied)."""
        row = self._find_row(tuple(cell))
        return float(self._values[row]) if row >= 0 else default

    def items(self) -> Iterable[Tuple[Cell, float]]:
        """Iterate over ``(cell, density)`` pairs in lexicographic cell order."""
        return list(zip(map(tuple, self.coords.tolist()), self.values.tolist()))

    def cells(self) -> List[Cell]:
        """List of occupied cell coordinates (lexicographic order)."""
        return [tuple(row) for row in self.coords.tolist()]

    def densities(self) -> np.ndarray:
        """Densities of the occupied cells, aligned with :meth:`cells`."""
        self._consolidate()
        return self._values.copy()

    # -- mutation -------------------------------------------------------------

    def _validate_cell(self, cell: Cell) -> Cell:
        cell = tuple(int(c) for c in cell)
        if len(cell) != self.ndim:
            raise ValueError(f"cell {cell} has {len(cell)} coordinates; grid is {self.ndim}-D.")
        for coordinate, size in zip(cell, self._shape):
            if not 0 <= coordinate < size:
                raise ValueError(f"cell {cell} is outside the grid of shape {self._shape}.")
        return cell

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

    def add(self, cell: Cell, density: float = 1.0) -> None:
        """Accumulate ``density`` into ``cell`` (Algorithm 2's ``G.get(gid) += 1``)."""
        cell = self._validate_cell(cell)
        self._pending_scalar[cell] = self._pending_scalar.get(cell, 0.0) + float(density)

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

    def set(self, cell: Cell, density: float) -> None:
        """Overwrite the density of ``cell``."""
        cell = self._validate_cell(cell)
        row = self._find_row(cell)
        if row >= 0:
            self._values[row] = float(density)
        else:
            self._pending_scalar[cell] = float(density)

    def discard(self, cell: Cell) -> None:
        """Remove ``cell`` if present."""
        cell = tuple(int(c) for c in cell)
        row = self._find_row(cell)
        if row >= 0:
            self._codes = np.delete(self._codes, row)
            self._values = np.delete(self._values, row)
            self._coords = None

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

    @classmethod
    def from_dense(cls, array: np.ndarray, *, tolerance: float = 0.0) -> "SparseGrid":
        """Build a sparse grid from a dense array, skipping ``|value| <= tolerance``."""
        array = np.asarray(array, dtype=np.float64)
        mask = np.abs(array) > tolerance
        coords = np.argwhere(mask)
        return cls.from_coo(array.shape, coords, array[mask])

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

    def lines_along(self, axis: int) -> Iterator[Tuple[Cell, np.ndarray]]:
        """Iterate over the occupied 1-D lines parallel to ``axis``.

        Yields ``(key, values)`` where ``key`` is the cell coordinate with the
        ``axis`` entry removed and ``values`` is the dense length-``shape[axis]``
        density vector of that line.  Only lines containing at least one
        occupied cell are produced, in sorted key order.
        """
        keys, line_ids, positions, values = self._line_grouping(axis)
        length = self._shape[axis]
        # line_ids is non-decreasing, so every line is a contiguous slice.
        starts = np.searchsorted(line_ids, np.arange(len(keys)))
        ends = np.append(starts[1:], len(line_ids))
        for line_index, key in enumerate(tuple(row) for row in keys.tolist()):
            lo, hi = starts[line_index], ends[line_index]
            dense = np.zeros(length)
            dense[positions[lo:hi]] = values[lo:hi]
            yield key, dense

    def line_matrix(self, axis: int) -> Tuple[np.ndarray, np.ndarray]:
        """Dense matrix of every occupied line along ``axis`` (vectorized).

        Returns ``(keys, matrix)``: ``keys`` is ``(n_lines, d - 1)`` and
        ``matrix`` is ``(n_lines, shape[axis])`` with the density vectors of
        the lines as rows, in the same (sorted) order as :meth:`lines_along`.
        """
        keys, line_ids, positions, values = self._line_grouping(axis)
        matrix = np.zeros((len(keys), self._shape[axis]))
        matrix[line_ids, positions] = values
        return keys, matrix

    def neighbor_pairs(self, connectivity: str = "face") -> Tuple[np.ndarray, np.ndarray]:
        """Index pairs of adjacent occupied cells (sort-based neighbour join).

        For every positive neighbour offset the occupied cell codes are
        shifted and matched against the canonical (sorted) codes with a
        binary search (:meth:`CellCodec.join`), so the join costs
        ``O(offsets * m log m)`` instead of a hash probe per cell and offset.
        Returns ``(a, b)`` row-index arrays into :attr:`coords`; each adjacent
        pair appears exactly once.
        """
        from repro.grid.connectivity import neighbor_offsets

        offsets = neighbor_offsets(self.ndim, connectivity)
        return self._codec.join(self.codes, offsets)

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
