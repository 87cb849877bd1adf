"""The cell codec: how a grid cell becomes one integer and back.

:class:`CellCodec` is the only code that knows the cell-code format: C-order
(row-major) codes over a box of cells, so code order is lexicographic cell
order.  Boxes of :data:`MAX_ENCODABLE` cells or more (e.g. 128 intervals in
9+ dimensions) keep exact Python-int codes in ``object`` arrays, on which
sorting, ``searchsorted`` and decoding behave the same: one code path serves
both regimes.

The codec also owns the two point-side primitives of the grid layer,
:meth:`CellCodec.group` (codes -> occupied cells, their counts and each
code's cell row) and :meth:`CellCodec.rows` (codes -> their row, or label, in
a sorted set of cells), and with them the one choice between counting and
sorting.  Counting fills and scans a table over the whole box (``np.bincount``
and one gather, linear in the codes plus the box); sorting costs
``O(n log n)`` (``argsort``) or ``O(n log k)`` (``searchsorted``) and nothing
per box cell.  The size rules, from timing both paths of both primitives:
``n`` codes are grouped by counting when the box has at most
``max(4 * n, 2**12)`` cells and looked up through a table when it has at most
``32 * n``; larger boxes, and always the exact regime, sort.  Both paths give
identical results.

The wavelet transform makes the same choice for a whole grid
(:meth:`CellCodec.fits_dense`): a grid of ``m`` occupied cells is
transformed as one dense array over its box when the box has at most
``max(32 * m, 2**14)`` cells, and line by line over its occupied cells
otherwise.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

#: Box size from which codes no longer fit int64 and become Python ints.
MAX_ENCODABLE = 2**62

#: The size rules' constants (see the module docstring): :meth:`CellCodec.group`
#: counts ``n`` codes when the box has at most ``max(GROUP_RATIO * n,
#: GROUP_FLOOR)`` cells, :meth:`CellCodec.rows` when it has at most
#: ``ROWS_RATIO * n``.  Past them the table costs more than the sort: grouping
#: 200k codes in a box of 2**20 cells took 12.9 ms counting and 11.5 ms sorting.
GROUP_RATIO = 4
GROUP_FLOOR = 2**12
ROWS_RATIO = 32

#: The transform's size rule (:meth:`CellCodec.fits_dense`): a grid of ``m``
#: occupied cells is transformed as one dense array when its box has at most
#: ``max(DENSE_RATIO * m, DENSE_FLOOR)`` cells.  Timed against the line
#: gather on 2-6-D blobs with 25% uniform noise (one bior2.2 level), dense
#: ran 3.4-10.3x as fast at 1-9 box cells per occupied cell, 1.5-6.8x at
#: 11-37, 1.3-3.9x at 47-181 and 0.5-1.8x at 213-1075.  A box of 2**14 cells
#: took at most 0.19 ms dense however few cells it held; one of 2**16 cells
#: holding 20 took 1.0-1.5 ms, 1.8-3.1x the line gather's time.
DENSE_RATIO = 32
DENSE_FLOOR = 2**14


def run_starts(sorted_codes: np.ndarray) -> np.ndarray:
    """Boolean mask marking the first code of every run of equal sorted codes."""
    mask = np.empty(len(sorted_codes), dtype=bool)
    mask[:1] = True
    mask[1:] = sorted_codes[1:] != sorted_codes[:-1]
    return mask


def _sort_group(
    codes: np.ndarray, inverse: bool = True
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """:meth:`CellCodec.group` by sorting (any codes, either regime)."""
    # Equal codes are interchangeable, so the sort need not be stable.
    order = np.argsort(codes)
    sorted_codes = codes[order]
    first = run_starts(sorted_codes)
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, len(codes)))
    rows = None
    if inverse:
        rows = np.empty(len(codes), dtype=np.int64)
        rows[order] = np.cumsum(first) - 1
    return sorted_codes[starts], counts, rows


def _count_group(
    codes: np.ndarray, size: int, inverse: bool = True
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """:meth:`CellCodec.group` by counting int64 codes in ``[0, size)``."""
    table = np.bincount(codes, minlength=size)
    cells = np.flatnonzero(table)
    counts = table[cells]
    if not inverse:
        return cells, counts, None
    # The count table becomes the rank table: each occupied code's row.
    table[cells] = np.arange(len(cells))
    return cells, counts, table.take(codes)


def _sort_rows(keys: np.ndarray, codes: np.ndarray, values: Optional[np.ndarray]) -> np.ndarray:
    """:meth:`CellCodec.rows` by binary search (any codes, either regime)."""
    rows = np.full(len(codes), -1, dtype=np.int64)
    if not len(keys) or not len(codes):
        return rows
    pos = np.minimum(np.searchsorted(keys, codes), len(keys) - 1)
    found = keys[pos] == codes
    rows[found] = pos[found] if values is None else values[pos[found]]
    return rows


def _count_rows(
    keys: np.ndarray, codes: np.ndarray, values: Optional[np.ndarray], size: int
) -> np.ndarray:
    """:meth:`CellCodec.rows` by one gather from a table over ``[0, size)``."""
    table = np.full(size, -1, dtype=np.int64)
    table[keys] = np.arange(len(keys)) if values is None else values
    # Negative codes wrap to huge unsigned ones: one test catches both sides.
    inside = codes.view(np.uint64) < size
    if inside.all():
        return table.take(codes)
    rows = np.full(len(codes), -1, dtype=np.int64)
    rows[inside] = table.take(codes[inside])
    return rows


class CellCodec:
    """C-order linear codes of the cells of the box ``origin + [0, shape)``.

    Parameters
    ----------
    shape:
        Number of cells along each axis of the box.
    origin:
        Coordinates of the box's first cell (zeros by default, i.e. a whole
        grid of ``shape`` intervals).
    """

    __slots__ = ("shape", "origin", "strides", "size", "dtype")

    def __init__(self, shape: Sequence[int], origin: Optional[Sequence[int]] = None) -> None:
        shape = tuple(int(s) for s in shape)
        if any(s < 1 for s in shape):
            raise ValueError(f"every axis needs at least one cell; got {shape}.")
        strides = [1] * len(shape)
        for axis in range(len(shape) - 2, -1, -1):
            strides[axis] = strides[axis + 1] * shape[axis + 1]
        size = strides[0] * shape[0] if shape else 1
        self.shape = shape
        self.strides = tuple(strides)
        self.size = size
        self.origin = np.asarray([0] * len(shape) if origin is None else origin, dtype=np.int64)
        self.dtype = np.dtype(np.int64) if size < MAX_ENCODABLE else np.dtype(object)

    @classmethod
    def bounding(cls, coords: np.ndarray) -> "CellCodec":
        """Codec over the bounding box of the (non-empty) ``(m, d)`` cells."""
        coords = np.asarray(coords, dtype=np.int64)
        mins = coords.min(axis=0)
        return cls(coords.max(axis=0) - mins + 1, mins)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def exact(self) -> bool:
        """True when codes are Python ints (the box overflows int64 codes)."""
        return self.dtype == object

    def empty(self) -> np.ndarray:
        return np.empty(0, dtype=self.dtype)

    def without(self, axis: int) -> "CellCodec":
        """Codec of the box with ``axis`` removed (the keys of its lines)."""
        keep = [a for a in range(self.ndim) if a != axis]
        return CellCodec([self.shape[a] for a in keep], self.origin[keep])

    def coarsen(self, factors: Union[int, Sequence[int]]) -> "CellCodec":
        """Codec of the grid with ``factors`` cells per axis merged into one."""
        factors = np.broadcast_to(np.asarray(factors, dtype=np.int64), (self.ndim,))
        return CellCodec([-(-s // int(f)) for s, f in zip(self.shape, factors)])

    # -- encode / decode ----------------------------------------------------------

    def _compose(self, digits: Iterable[np.ndarray], n: int) -> np.ndarray:
        """Codes of the cells whose box-relative coordinates are ``digits``.

        Every digit array must be fresh: it is scaled in place and the first
        one becomes the result.
        """
        codes = None
        for digit, stride in zip(digits, self.strides):
            if self.exact:
                digit = digit.astype(object)
            if stride != 1:
                digit *= stride
            if codes is None:
                codes = digit
            else:
                codes += digit
        return np.zeros(n, dtype=self.dtype) if codes is None else codes

    def digit(self, codes: np.ndarray, axis: int) -> np.ndarray:
        """Box-relative int64 coordinate along ``axis`` of every code."""
        digit = (codes // self.strides[axis]) % self.shape[axis]
        return digit.astype(np.int64) if self.exact else digit

    def encode(self, coords) -> np.ndarray:
        """Codes of the ``(n, d)`` cells (which must lie inside the box)."""
        coords = np.asarray(coords, dtype=np.int64)
        return self._compose(
            (coords[:, axis] - self.origin[axis] for axis in range(self.ndim)), len(coords)
        )

    def decode(self, codes) -> np.ndarray:
        """The ``(n, d)`` int64 cells of the codes (inverse of :meth:`encode`)."""
        codes = np.asarray(codes, dtype=self.dtype)
        coords = np.empty((len(codes), self.ndim), dtype=np.int64)
        for axis in range(self.ndim):
            coords[:, axis] = self.digit(codes, axis) + self.origin[axis]
        return coords

    def contains(self, coords) -> np.ndarray:
        """Boolean mask of the ``(n, d)`` cells inside the box."""
        coords = np.asarray(coords, dtype=np.int64)
        inside = np.ones(len(coords), dtype=bool)
        for axis, size in enumerate(self.shape):
            relative = coords[:, axis] - self.origin[axis]
            inside &= (relative >= 0) & (relative < size)
        return inside

    def encode_points(self, X: np.ndarray, lower: np.ndarray, widths: np.ndarray) -> np.ndarray:
        """Codes of the cells holding the points of ``X`` (grid codecs only).

        Per axis ``floor((x - lower) / width)``, clipped to the grid in float
        before the integer cast, so |x| ~ 1e30 lands in an edge cell.
        """
        def digits():
            for axis, size in enumerate(self.shape):
                digit = X[:, axis] - lower[axis]
                digit /= widths[axis]
                np.floor(digit, out=digit)
                np.clip(digit, 0, size - 1, out=digit)
                yield digit.astype(np.int64)

        return self._compose(digits(), len(X))

    # -- grouping and lookup ------------------------------------------------------

    def _counts(self, n: int, ratio: int, floor: int = 0) -> bool:
        """A size rule: whether ``n`` codes go through a code-space table."""
        return not self.exact and self.size <= max(ratio * n, floor)

    def fits_dense(self, n_occupied: int) -> bool:
        """Whether a grid of ``n_occupied`` cells in this box is transformed densely."""
        return self._counts(n_occupied, DENSE_RATIO, DENSE_FLOOR)

    def group(
        self, codes, *, inverse: bool = True
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """``(cells, counts, inverse)`` of the codes of cells inside the box.

        ``cells`` are the sorted unique codes, ``counts`` (int64) how often
        each occurs and ``inverse`` (int64) every code's row in ``cells``, so
        ``cells[inverse]`` gives the codes back; ``inverse=False`` skips that
        pass and returns ``None`` in its place.  Counted or sorted by the
        size rule, with identical results.
        """
        codes = np.asarray(codes, dtype=self.dtype)
        if self._counts(len(codes), GROUP_RATIO, GROUP_FLOOR):
            return _count_group(codes, self.size, inverse)
        return _sort_group(codes, inverse)

    def rows(self, keys: np.ndarray, codes, values: Optional[np.ndarray] = None) -> np.ndarray:
        """Row of every code among the sorted unique ``keys``, -1 where absent.

        With ``values`` (aligned with ``keys``) each code gets its key's value
        instead of its row.  Codes not among the keys, including codes
        outside the box, get -1 (the noise label).  Looked up by one gather
        from a code-space table or by binary search, per the size rule.
        """
        codes = np.asarray(codes, dtype=self.dtype)
        if self._counts(len(codes), ROWS_RATIO):
            return _count_rows(keys, codes, values, self.size)
        return _sort_rows(keys, codes, values)

    # -- arithmetic on codes --------------------------------------------------------

    def coarsen_codes(self, codes: np.ndarray, factors: Union[int, Sequence[int]]) -> np.ndarray:
        """Codes, in :meth:`coarsen`'s codec, of the cells ``// factors``."""
        factors = np.broadcast_to(np.asarray(factors, dtype=np.int64), (self.ndim,))
        target = self.coarsen(factors)
        return target._compose(
            (self.digit(codes, axis) // int(f) for axis, f in enumerate(factors)), len(codes)
        )

    def line_keys(self, codes: np.ndarray, axis: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-cell key of its line along ``axis`` and position on it.

        The key is the cell's code in :meth:`without` ``(axis)`` (in this
        codec's dtype); sorting by ``(key, position)`` orders lines and their
        cells lexicographically.
        """
        stride = self.strides[axis]
        keys = codes // (stride * self.shape[axis]) * stride + codes % stride
        return keys, self.digit(codes, axis)

    def join(self, codes: np.ndarray, offsets) -> Tuple[np.ndarray, np.ndarray]:
        """Row pairs ``(a, b)`` of sorted unique ``codes`` with ``b = a + offset``.

        The sort-based neighbour join: per offset, one shift of the codes
        that stay in the box and one binary search; pairs come offset by
        offset, in ascending source row.
        """
        if not len(codes):
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        digits = [self.digit(codes, axis) for axis in range(self.ndim)]
        sources, targets = [], []
        for offset in offsets:
            inside = np.ones(len(codes), dtype=bool)
            for digit, step, size in zip(digits, offset, self.shape):
                if step:
                    inside &= (digit + step >= 0) & (digit + step < size)
            src = np.flatnonzero(inside)
            delta = sum(int(step) * stride for step, stride in zip(offset, self.strides))
            shifted = codes[src] + delta
            pos = np.minimum(np.searchsorted(codes, shifted), len(codes) - 1)
            found = codes[pos] == shifted
            sources.append(src[found])
            targets.append(pos[found])
        return np.concatenate(sources), np.concatenate(targets)
