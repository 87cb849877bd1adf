"""The cell codec: how a grid cell becomes one integer and back.

:class:`CellCodec` is the only code that knows the cell-code format: C-order
(row-major) codes over a box of cells, so code order is lexicographic cell
order.  Boxes of :data:`MAX_ENCODABLE` cells or more (e.g. 128 intervals in
9+ dimensions) keep exact Python-int codes in ``object`` arrays, on which
sorting, ``searchsorted`` and decoding behave the same: one code path serves
both regimes.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

#: Box size from which codes no longer fit int64 and become Python ints.
MAX_ENCODABLE = 2**62


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

    __slots__ = ("shape", "origin", "strides", "dtype")

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
        """Codes of the cells whose box-relative coordinates are ``digits``."""
        codes = np.zeros(n, dtype=self.dtype)
        for digit, stride in zip(digits, self.strides):
            if self.exact:
                digit = digit.astype(object)
            codes += digit * stride if stride != 1 else digit
        return codes

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
