"""Hypothesis properties of the cell codec, in both of its regimes.

:class:`~repro.grid.codec.CellCodec` is the one place that turns cells into
integer codes, so every grid structure inherits its correctness.  Each
property runs on int64 codes and on the exact Python-int codes boxes of
``2**62`` cells or more fall back to:

* decode inverts encode;
* code order is ``np.lexsort`` row order;
* the fused float -> code point encode equals ``GridQuantizer.transform``
  followed by ``encode``, also through ``GridQuantizer.coarsen``;
* coarsening on codes equals coarsening on coordinates;
* the code-based line grouping equals a row-lexsort grouping;
* the sort-based neighbour join finds exactly the brute-force pairs.
"""

import numpy as np
from hypothesis import given, strategies as st

from repro.grid.codec import MAX_ENCODABLE, CellCodec
from repro.grid.connectivity import neighbor_offsets
from repro.grid.quantizer import GridQuantizer
from repro.grid.sparse_grid import SparseGrid


@st.composite
def boxes(draw, exact=None, origin=True):
    """(codec, cells): a box in either regime and cells inside it."""
    exact = draw(st.booleans()) if exact is None else exact
    if exact:
        # Two or more axes of >= 2**31 cells overflow int64 codes.
        ndim = draw(st.integers(min_value=2, max_value=4))
        size = st.integers(min_value=2**31, max_value=2**33)
    else:
        ndim = draw(st.integers(min_value=1, max_value=4))
        size = st.integers(min_value=1, max_value=12)
    shape = [draw(size) for _ in range(ndim)]
    start = [draw(st.integers(min_value=-50, max_value=50)) if origin else 0 for _ in shape]
    codec = CellCodec(shape, start)
    assert codec.exact == exact
    cell = st.tuples(
        *[st.integers(min_value=lo, max_value=lo + s - 1) for lo, s in zip(start, shape)]
    )
    cells = draw(st.lists(cell, min_size=0, max_size=40))
    return codec, np.asarray(cells, dtype=np.int64).reshape(len(cells), ndim)


def _sorted_unique(codec, cells):
    codes = np.unique(codec.encode(cells)) if len(cells) else codec.empty()
    return codes, codec.decode(codes)


def _with_neighbours(codec, cells, offsets):
    """``cells`` plus their shifts by ``offsets`` that stay inside the box,
    so sparse draws in huge boxes still have lines and neighbours."""
    shifted = [cells] + [cells + np.asarray(offset) for offset in offsets]
    cells = np.vstack(shifted)
    return cells[codec.contains(cells)]


@given(data=boxes())
def test_decode_inverts_encode(data):
    codec, cells = data
    codes = codec.encode(cells)
    assert codes.dtype == (object if codec.exact else np.int64)
    np.testing.assert_array_equal(codec.decode(codes), cells)
    assert codec.contains(cells).all()


@given(data=boxes())
def test_code_order_is_lexsort_row_order(data):
    codec, cells = data
    order = np.argsort(codec.encode(cells), kind="stable")
    np.testing.assert_array_equal(order, np.lexsort(cells.T[::-1]))


@given(
    regime=st.sampled_from([(2, 16), (3, 7), (1, 128), (9, 128)]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=60),
)
def test_fused_point_encode_matches_transform_then_encode(regime, seed, n):
    ndim, scale = regime
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3.0, 5.0, size=(n, ndim))
    quantizer = GridQuantizer(scale=scale).fit(X)
    codec = quantizer.codec
    assert codec.exact == (scale**ndim >= MAX_ENCODABLE)
    expected = codec.encode(quantizer.transform(X))
    np.testing.assert_array_equal(
        codec.encode_points(X, quantizer.lower_, quantizer.widths_), expected
    )
    codes, inside = quantizer.transform_with_mask(X)
    np.testing.assert_array_equal(codes, expected)
    assert inside.all()
    np.testing.assert_array_equal(quantizer.quantize(X).cell_ids, quantizer.transform(X))
    # The coarsened quantizer encodes straight to cell // factor, points
    # outside the bounds (clipped into edge cells) included.
    queries = np.vstack([X, rng.uniform(-40.0, 40.0, size=(n, ndim))])
    for factor in (1, 2, 4, 8):
        coarse = quantizer.coarsen(factor)
        np.testing.assert_array_equal(
            coarse.transform_with_mask(queries)[0],
            coarse.codec.encode(quantizer.transform(queries) // factor),
        )


@given(data=boxes(origin=False), factor_seed=st.integers(min_value=0, max_value=2**16))
def test_coarsening_on_codes_matches_coordinates(data, factor_seed):
    codec, cells = data
    factors = np.random.default_rng(factor_seed).integers(1, 6, size=codec.ndim)
    coarse = codec.coarsen(factors)
    assert coarse.shape == tuple(-(-s // int(f)) for s, f in zip(codec.shape, factors))
    np.testing.assert_array_equal(
        codec.coarsen_codes(codec.encode(cells), factors), coarse.encode(cells // factors)
    )


def _lexsort_grouping(coords, values, axis):
    """Reference line grouping: lexsort of the coordinate rows."""
    keys_all = np.delete(coords, axis, axis=1)
    positions = coords[:, axis]
    order = np.lexsort((positions,) + tuple(keys_all.T[::-1]))
    keys_sorted = keys_all[order]
    new_line = np.ones(len(order), dtype=bool)
    new_line[1:] = np.any(keys_sorted[1:] != keys_sorted[:-1], axis=1)
    return keys_sorted[new_line], np.cumsum(new_line) - 1, positions[order], values[order]


@given(data=boxes(origin=False), axis_seed=st.integers(min_value=0, max_value=7))
def test_code_line_grouping_matches_lexsort_grouping(data, axis_seed):
    codec, cells = data
    if codec.ndim < 2:
        return
    axis = axis_seed % codec.ndim
    step = np.eye(codec.ndim, dtype=np.int64)[axis]
    cells = _with_neighbours(codec, cells, [step, 3 * step])
    grid = SparseGrid(codec.shape)
    grid.add_many(cells, np.arange(1.0, len(cells) + 1.0))
    got = grid._line_grouping(axis)
    want = _lexsort_grouping(grid.coords, grid.values, axis)
    for mine, theirs in zip(got, want):
        np.testing.assert_array_equal(mine, theirs)


@given(data=boxes(), connectivity=st.sampled_from(["face", "full"]))
def test_join_finds_exactly_the_brute_force_pairs(data, connectivity):
    codec, cells = data
    offsets = neighbor_offsets(codec.ndim, connectivity)
    codes, coords = _sorted_unique(codec, _with_neighbours(codec, cells, offsets[:2]))
    sources, targets = codec.join(codes, offsets)
    found = {(tuple(coords[a]), tuple(coords[b])) for a, b in zip(sources, targets)}
    occupied = {tuple(row) for row in coords.tolist()}
    expected = {
        (cell, tuple(c + o for c, o in zip(cell, offset)))
        for cell in occupied
        for offset in offsets
        if tuple(c + o for c, o in zip(cell, offset)) in occupied
    }
    assert found == expected
    assert len(found) == len(sources)
