"""Lookup table mapping transformed-space grids back to objects.

The clusters AdaWave finds live in the *transformed* feature space (the
approximation subband after ``level`` wavelet decompositions), whose grid is
coarser than the original quantization by a factor of ``2 ** level`` per
dimension: an original cell ``c`` contributes to the transformed cell
``c // 2 ** level`` (Section IV-D).  Every mapping here is on cell codes:
:func:`transformed_codes` coarsens a grid's codes to the codes of their
transformed cells, and a :class:`CellLabelIndex` built once per labelled
cell set looks them up.  Labels reach the objects through the quantization
inverse -- one lookup per occupied cell plus one gather -- and a served
model encodes points straight to transformed-cell codes.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.grid.codec import CellCodec

#: Label of unclustered points; also what :meth:`CellCodec.rows` gives codes
#: without a labelled cell.
NOISE_LABEL = -1


class CellLabelIndex:
    """Immutable cell -> cluster-label index over the surviving cells.

    The index is the heart of every lookup: it stores the ``k`` labelled
    transformed cells as codes of the transformed grid's
    :class:`~repro.grid.codec.CellCodec`, sorted once at construction, so
    labelling ``n`` query codes afterwards is one :meth:`CellCodec.rows` pass
    -- a gather from a label table over the codec's box, or a binary search
    over the ``k`` codes, as the codec's lookup size rule picks -- holding
    ``O(k)`` resident memory that never grows with the training-set size.
    Codes without a labelled cell, including codes outside the box, map to
    :data:`NOISE_LABEL`.  Astronomically large grids (e.g. 128 intervals in
    9+ dimensions) run the same path on the codec's exact Python-int codes.

    Parameters
    ----------
    codec:
        The transformed grid's codec; queries are codes of it.
    codes:
        ``(k,)`` codes of the labelled cells (duplicates are not allowed;
        the pipeline never produces them).
    labels:
        ``(k,)`` integer cluster labels aligned with ``codes``.
    """

    __slots__ = ("codec", "codes", "labels")

    def __init__(self, codec: CellCodec, codes, labels) -> None:
        codes = np.asarray(codes, dtype=codec.dtype)
        labels = np.asarray(labels, dtype=np.int64)
        if codes.ndim != 1 or labels.shape != codes.shape:
            raise ValueError(
                f"codes and labels must be aligned 1-D arrays; got shapes "
                f"{codes.shape} and {labels.shape}."
            )
        order = np.argsort(codes, kind="stable")
        self.codec = codec
        self.codes = codes[order]
        self.labels = labels[order]

    def lookup(self, codes) -> np.ndarray:
        """Labels of the ``(n,)`` query codes of :attr:`codec`; unmapped codes get noise."""
        codes = np.asarray(codes)
        if codes.ndim != 1:
            raise ValueError(f"query codes must be a 1-D array; got shape {codes.shape}.")
        return self.codec.rows(self.codes, codes, self.labels)


def transformed_codes(
    codec: CellCodec, codes, level: int, factor: Union[int, Sequence[int]] = 1
) -> np.ndarray:
    """Codes of the transformed cells that the cells ``codes`` of ``codec`` map to.

    A cell ``c`` maps to ``c // (factor * 2 ** level)``: ``factor`` coarsens
    from ``codec``'s grid to the grid the wavelet transform ran on (a
    serving or pyramid resolution; 1 when it ran on ``codec``'s grid
    itself) and ``level`` is the number of levels the transform applied.
    The result holds codes of ``codec.coarsen(factor * 2 ** level)``, which
    is the transformed grid's codec.
    """
    return codec.coarsen_codes(codes, np.asarray(factor, dtype=np.int64) * 2**level)


class LookupTable:
    """Maps original grid cells to transformed grid cells and labels objects.

    Parameters
    ----------
    level:
        Number of wavelet decomposition levels applied per dimension; each
        level halves the resolution, so an original cell ``c`` maps to
        ``c // 2 ** level``.
    """

    def __init__(self, level: int = 1) -> None:
        if level < 0:
            raise ValueError(f"level must be >= 0; got {level}.")
        self.level = int(level)

    def label_points_from_arrays(
        self, codec: CellCodec, codes, index: CellLabelIndex
    ) -> np.ndarray:
        """Labels of the original-space cells ``codes`` of ``codec`` under ``index``.

        The fit passes its *occupied* cells and gathers their labels through
        the quantization inverse.  All cells are mapped in one
        :func:`transformed_codes` pass and one lookup in ``index``; cells
        without a labelled counterpart get :data:`NOISE_LABEL`.
        """
        return index.lookup(transformed_codes(codec, codes, self.level))
