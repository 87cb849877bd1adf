"""Lookup table mapping transformed-space grids back to objects.

The clusters AdaWave finds live in the *transformed* feature space (the
approximation subband after ``level`` wavelet decompositions), whose grid is
coarser than the original quantization by a factor of ``2 ** level`` per
dimension: an original cell ``c`` contributes to the transformed cell
``c // 2 ** level`` (Section IV-D).  Labels reach the objects through the
quantization inverse -- one lookup per occupied cell plus one gather -- and a
served model encodes points straight to transformed-cell codes.
"""

from __future__ import annotations

import numpy as np

from repro.grid.codec import CellCodec

#: Label of unclustered points; also what :meth:`CellCodec.rows` gives codes
#: without a labelled cell.
NOISE_LABEL = -1


class CellLabelIndex:
    """Immutable cell -> cluster-label index over the surviving cells.

    The index is the heart of the lookup-only ("serving") path: it stores the
    ``(k, d)`` labelled transformed cells as codes of a
    :class:`~repro.grid.codec.CellCodec` sorted once at construction, so
    labelling ``n`` query cells afterwards is one encode plus one
    :meth:`CellCodec.rows` pass -- a gather from a label table over the
    codec's box, or a binary search over the ``k`` codes, as the codec's
    lookup size rule picks -- holding ``O(k)`` resident memory that never
    grows with the training-set size.  Cells outside the index (including
    anything outside the bounding box of the labelled cells) map to
    :data:`NOISE_LABEL`.
    Astronomically large extents (e.g. 128 intervals in 9+ dimensions) run
    the same path on the codec's exact Python-int codes.

    Parameters
    ----------
    cells:
        ``(k, d)`` integer coordinates of the labelled cells (duplicates are
        not allowed; the pipeline never produces them).
    labels:
        ``(k,)`` integer cluster labels aligned with ``cells``.
    """

    __slots__ = ("ndim", "n_cells", "codec", "_codes", "_values")

    def __init__(self, cells, labels) -> None:
        cells = np.asarray(cells, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        if cells.ndim != 2:
            raise ValueError(f"cells must be a 2-D array; got shape {cells.shape}.")
        if labels.shape != (len(cells),):
            raise ValueError(
                f"labels must have shape ({len(cells)},); got {labels.shape}."
            )
        self.ndim = cells.shape[1]
        codec = CellCodec.bounding(cells) if len(cells) else None
        self._adopt(codec, codec.encode(cells) if codec else np.empty(0, np.int64), labels)

    @classmethod
    def from_codes(cls, codec: CellCodec, codes: np.ndarray, labels) -> "CellLabelIndex":
        """Index labelled cells given by their codes in ``codec``.

        :meth:`lookup` then also accepts query codes of ``codec`` -- the
        serving path encodes points straight to them.
        """
        index = cls.__new__(cls)
        index.ndim = codec.ndim
        index._adopt(codec, np.asarray(codes, codec.dtype), np.asarray(labels, np.int64))
        return index

    def _adopt(self, codec, codes: np.ndarray, labels: np.ndarray) -> None:
        self.codec = codec
        self.n_cells = len(codes)
        order = np.argsort(codes, kind="stable")
        self._codes = codes[order]
        self._values = labels[order]

    def lookup(self, cells: np.ndarray) -> np.ndarray:
        """Labels of the query cells; unmapped cells get noise.

        ``cells`` is an ``(n, d)`` coordinate array, or an ``(n,)`` array of
        codes in :attr:`codec`.
        """
        cells = np.asarray(cells)
        if cells.ndim != 1 and (cells.ndim != 2 or cells.shape[1] != self.ndim):
            raise ValueError(
                f"query cells must have shape (n, {self.ndim}); got {cells.shape}."
            )
        if self.n_cells == 0 or len(cells) == 0:
            return np.full(len(cells), NOISE_LABEL, dtype=np.int64)
        if cells.ndim == 1:
            return self.codec.rows(self._codes, cells, self._values)
        labels = np.full(len(cells), NOISE_LABEL, dtype=np.int64)
        rows = np.flatnonzero(self.codec.contains(cells))
        labels[rows] = self.codec.rows(self._codes, self.codec.encode(cells[rows]), self._values)
        return labels


class LookupTable:
    """Maps original grid cells to transformed grid cells and labels objects.

    Parameters
    ----------
    level:
        Number of wavelet decomposition levels applied per dimension; each
        level halves the resolution, so an original coordinate ``c`` maps to
        ``c // 2 ** level``.
    """

    def __init__(self, level: int = 1) -> None:
        if level < 0:
            raise ValueError(f"level must be >= 0; got {level}.")
        self.level = int(level)
        self._factor = 2**self.level

    @property
    def downsample_factor(self) -> int:
        """Resolution reduction per dimension between original and transformed grids."""
        return self._factor

    def to_transformed_many(self, cells: np.ndarray) -> np.ndarray:
        """Transformed-space coordinates of an ``(n, d)`` array of original cells."""
        cells = np.asarray(cells, dtype=np.int64)
        if cells.ndim != 2:
            raise ValueError(f"cells must be a 2-D array; got shape {cells.shape}.")
        return cells // self._factor

    def label_points_from_arrays(
        self,
        point_cells: np.ndarray,
        label_cells: np.ndarray,
        label_values: np.ndarray,
    ) -> np.ndarray:
        """Label original-space cells from an array-shaped label table.

        ``point_cells`` is an ``(n, d)`` array of original-space cells -- the
        fit passes the *occupied* cells and gathers their labels through the
        quantization inverse.  ``label_cells`` is the ``(k, d)`` array of
        labelled transformed cells and ``label_values`` the matching ``(k,)``
        labels.  All cells are mapped in one encode / lookup pass through a
        throwaway :class:`CellLabelIndex`; cells without a labelled
        counterpart get :data:`NOISE_LABEL`.
        """
        transformed = self.to_transformed_many(point_cells)
        label_cells = np.asarray(label_cells, dtype=np.int64)
        label_values = np.asarray(label_values, dtype=np.int64)
        if len(label_cells) == 0 or len(transformed) == 0:
            return np.full(len(transformed), NOISE_LABEL, dtype=np.int64)
        if label_cells.ndim != 2 or label_cells.shape[1] != transformed.shape[1]:
            raise ValueError(
                f"label_cells must have shape (k, {transformed.shape[1]}); "
                f"got {label_cells.shape}."
            )
        return CellLabelIndex(label_cells, label_values).lookup(transformed)
