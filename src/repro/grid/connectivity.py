"""Connected components over occupied grid cells.

After threshold filtering, the cells that survive are grouped into clusters:
two cells belong to the same cluster when they are adjacent in the grid.  The
paper (like WaveCluster) uses grid adjacency, so this module provides both
face adjacency (cells differing by one step along a single axis -- 2d
neighbours) and full adjacency (all ``3**d - 1`` surrounding cells, useful in
2-D where diagonal contact should connect ring-shaped clusters).

The labeling is vectorized: the occupied cells are encoded as sorted codes
over their bounding box (:class:`~repro.grid.codec.CellCodec`), each
positive neighbour offset becomes one shifted-code binary search (the
codec's sort-based neighbour join), and the resulting adjacency pairs are
merged with the array union-find of
:class:`repro.spatial.union_find.ArrayUnionFind`.  The per-cell
hash-probing labeling the property tests compare against is
:func:`repro.engine.reference.connected_components_reference`.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.grid.codec import CellCodec
from repro.spatial.union_find import ArrayUnionFind

Cell = Tuple[int, ...]

_FULL_CONNECTIVITY_MAX_DIM = 8


def neighbor_offsets(ndim: int, connectivity: str = "face") -> List[Cell]:
    """Offsets of the neighbouring cells to examine during the merge pass.

    Only "positive" offsets are returned (the first non-zero component is
    positive); the union-find makes the relation symmetric, so each adjacent
    pair only needs to be visited once.
    """
    if ndim < 1:
        raise ValueError(f"ndim must be >= 1; got {ndim}.")
    if connectivity == "face":
        offsets: List[Cell] = []
        for axis in range(ndim):
            offset = [0] * ndim
            offset[axis] = 1
            offsets.append(tuple(offset))
        return offsets
    if connectivity == "full":
        if ndim > _FULL_CONNECTIVITY_MAX_DIM:
            raise ValueError(
                f"full connectivity enumerates 3**d - 1 neighbours and is limited to "
                f"d <= {_FULL_CONNECTIVITY_MAX_DIM}; got d = {ndim}. Use 'face' instead."
            )
        offsets = []
        for offset in product((-1, 0, 1), repeat=ndim):
            if all(c == 0 for c in offset):
                continue
            first_nonzero = next(c for c in offset if c != 0)
            if first_nonzero > 0:
                offsets.append(offset)
        return offsets
    raise ValueError(f"connectivity must be 'face' or 'full'; got {connectivity!r}.")


def label_components_array(coords: np.ndarray, connectivity: str = "face") -> np.ndarray:
    """Component labels of unique, lexicographically sorted cell coordinates.

    Parameters
    ----------
    coords:
        ``(m, d)`` int array of *distinct* cells sorted in lexicographic row
        order (the canonical order of :class:`~repro.grid.sparse_grid.SparseGrid`).
    connectivity:
        ``"face"`` or ``"full"``.

    Returns
    -------
    numpy.ndarray
        ``(m,)`` dense labels ``0, 1, 2, ...`` numbered by the first
        appearance of each component in row order -- identical to the
        labelling :func:`connected_components` assigns in sorted-cell order.
    """
    coords = np.asarray(coords, dtype=np.int64)
    m = len(coords)
    if m == 0:
        return np.empty(0, dtype=np.int64)
    # Encode over the occupied bounding box so arbitrary (even negative)
    # coordinates encode compactly; cells outside the box cannot be
    # occupied, so joining against the box alone is exact.
    codec = CellCodec.bounding(coords)
    sources, targets = codec.join(
        codec.encode(coords), neighbor_offsets(coords.shape[1], connectivity)
    )
    union = ArrayUnionFind(m)
    if len(sources):
        union.union_pairs(sources, targets)
    return union.labels()


def connected_components(cells: Iterable[Cell], connectivity: str = "face") -> Dict[Cell, int]:
    """Label the connected components of a set of grid cells.

    Parameters
    ----------
    cells:
        Occupied cell coordinates (each a tuple of ints).
    connectivity:
        ``"face"`` (2d neighbours) or ``"full"`` (3**d - 1 neighbours).

    Returns
    -------
    dict
        Mapping from cell to a dense component label ``0, 1, 2, ...`` assigned
        in deterministic (sorted cell) order.
    """
    cell_list = sorted(set(tuple(int(c) for c in cell) for cell in cells))
    if not cell_list:
        return {}
    ndim = len(cell_list[0])
    if any(len(cell) != ndim for cell in cell_list):
        raise ValueError("all cells must have the same dimensionality.")
    coords = np.asarray(cell_list, dtype=np.int64)
    labels = label_components_array(coords, connectivity=connectivity)
    return dict(zip(cell_list, labels.tolist()))


def component_sizes(labels: Dict[Cell, int]) -> Dict[int, int]:
    """Number of cells in every component of a labelling."""
    sizes: Dict[int, int] = {}
    for label in labels.values():
        sizes[label] = sizes.get(label, 0) + 1
    return sizes
