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
* the sort-based neighbour join finds exactly the brute-force pairs;
* counting codes (``group``) and looking them up through a code-space
  table (``rows``) give exactly what sorting and binary search give, dtypes
  included, on both sides of the size rules.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.grid.codec import (
    GROUP_FLOOR,
    GROUP_RATIO,
    MAX_ENCODABLE,
    ROWS_RATIO,
    CellCodec,
    _count_group,
    _count_rows,
    _sort_group,
    _sort_rows,
)
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


# -- counting == sorting -------------------------------------------------------

#: Shapes on both sides of the grouping rule's 2**12 floor, 1-D to 4-D, and
#: one box in the exact (Python-int) regime.
RULE_SHAPES = [
    (1,), (7,), (2**12,), (2**12 + 1,), (16, 16), (128, 128), (256, 257),
    (12, 9, 5), (40, 40, 41), (16, 16, 16, 16), (17, 16, 16, 16), (2**31, 2**31, 3),
]


@st.composite
def code_draws(draw):
    """(codec, codes): codes of cells inside a box, duplicates included.

    ``n`` runs from none to enough codes for the ``n``-proportional arms of
    both size rules to count boxes above the floor, and draws concentrate on
    a few cells or spread over the whole box.
    """
    codec = CellCodec(draw(st.sampled_from(RULE_SHAPES)))
    n = draw(st.sampled_from([0, 1, 2, 17, 300, 9_000, 40_000]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    spread = draw(st.sampled_from([1, 5, None]))
    high = codec.size if spread is None else min(codec.size, spread)
    if codec.exact:
        digits = [rng.integers(0, min(size, 2**40), size=n) for size in codec.shape]
        codes = codec.encode(np.column_stack(digits).reshape(n, codec.ndim))
    else:
        codes = rng.integers(0, high, size=n)
    return codec, codes


def _assert_same(got, want):
    assert len(got) == len(want)
    for mine, theirs in zip(got, want):
        assert mine.dtype == theirs.dtype
        np.testing.assert_array_equal(mine, theirs)


@given(data=code_draws())
def test_counted_group_equals_sorted_group(data):
    codec, codes = data
    want = _sort_group(codes)
    cells, counts, inverse = want
    np.testing.assert_array_equal(cells[inverse], codes)
    assert counts.sum() == len(codes)
    _assert_same(codec.group(codes), want)
    if not codec.exact:
        _assert_same(_count_group(codes, codec.size), want)
    # Without the inverse: the same cells and counts, and no inverse.
    cells, counts, none = codec.group(codes, inverse=False)
    assert none is None
    _assert_same([cells, counts], want[:2])


@given(data=code_draws(), key_seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_counted_rows_equal_sorted_rows(data, key_seed):
    codec, codes = data
    rng = np.random.default_rng(key_seed)
    # Keys: a random part of the queried cells plus cells nobody queries,
    # so queries hit present and absent keys alike.
    keys = np.unique(codes[rng.random(len(codes)) < 0.5])
    if not codec.exact and codec.size > 2:
        keys = np.union1d(keys, rng.integers(0, codec.size, size=3))
    values = rng.integers(0, 9, size=len(keys))
    queries = codes
    if not codec.exact:
        # Codes outside the box: negative and past its last cell.
        queries = np.concatenate([codes, [-1, -(2**40), codec.size, codec.size + 5]])
    for labels in (None, values):
        want = _sort_rows(keys, queries, labels)
        table = dict(zip(keys.tolist(), range(len(keys)) if labels is None else labels.tolist()))
        np.testing.assert_array_equal(want, [table.get(code, -1) for code in queries.tolist()])
        _assert_same([codec.rows(keys, queries, labels)], [want])
        if not codec.exact:
            _assert_same([_count_rows(keys, queries, labels, codec.size)], [want])


@pytest.mark.parametrize(
    "shape, n, counts",
    [
        ((GROUP_FLOOR,), 0, True),                         # boxes up to the floor count
        ((GROUP_FLOOR + 1,), 1, False),                    # past it, few codes sort
        ((GROUP_RATIO * 10_000,), 10_000, True),           # ... and enough codes count
        ((GROUP_RATIO * 10_000 + 1,), 10_000, False),
        ((128, 128), 1_000_000, True),                     # a 2-D fit at scale 128
        ((128, 128), 1_000, False),                        # a 1k-point 2-D batch sorts
        ((32,) * 4, 200_000, False),                       # a 4-D fit at scale 32 sorts
        ((2**31, 2**31, 3), 10**9, False),                 # the exact regime always sorts
    ],
)
def test_group_size_rule_sides(shape, n, counts):
    assert CellCodec(shape)._counts(n, GROUP_RATIO, GROUP_FLOOR) == counts


@pytest.mark.parametrize(
    "shape, n, counts",
    [
        ((ROWS_RATIO,), 1, True),                          # one code, a box of 32 cells
        ((ROWS_RATIO + 1,), 1, False),
        ((ROWS_RATIO * 6_250,), 6_250, True),              # a served request
        ((ROWS_RATIO * 6_250 + 1,), 6_250, False),
        ((64, 64), 10, False),                             # a lone small request sorts
        ((2**31, 2**31, 3), 10**9, False),                 # the exact regime always sorts
    ],
)
def test_rows_size_rule_sides(shape, n, counts):
    assert CellCodec(shape)._counts(n, ROWS_RATIO) == counts
