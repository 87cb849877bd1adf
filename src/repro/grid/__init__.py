"""Sparse grid substrate: cell codec, quantization, connectivity and lookup.

The paper's "grid labeling" idea is that a d-dimensional quantized feature
space should never be materialised densely: only cells that actually contain
points are stored.  Every structure here keys a cell by one
:class:`CellCodec` code, whose order is lexicographic cell order, so
:class:`SparseGrid` is sorted unique codes plus densities and every stage is
a vectorized array pass on codes: accumulation, sketch merging, coarsening,
line grouping and the sort-based neighbour join.  Quantization encodes each
point once and returns its occupied-cell row (the inverse), so objects are
labelled by looking up the occupied cells and gathering through it.
"""

from repro.grid.codec import CellCodec
from repro.grid.sparse_grid import SparseGrid
from repro.grid.quantizer import GridQuantizer, QuantizationResult
from repro.grid.connectivity import (
    connected_components,
    label_components_array,
    neighbor_offsets,
)
from repro.grid.lookup import CellLabelIndex, LookupTable

__all__ = [
    "CellCodec",
    "SparseGrid",
    "GridQuantizer",
    "QuantizationResult",
    "connected_components",
    "label_components_array",
    "neighbor_offsets",
    "CellLabelIndex",
    "LookupTable",
]
