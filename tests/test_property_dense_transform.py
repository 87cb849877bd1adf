"""The dense transform builds the per-axis COO transform's grid bit for bit.

``wavelet_smooth_grid`` transforms a grid whose box is small next to its
occupied cells (``CellCodec.fits_dense``) as one dense array
(``_transform_dense``) and every other grid line by line over its occupied
cells (``_transform_axis``).  Both must give the same transformed cells and
the same values, compared exactly: the threshold, the survivors, the labels
and every artifact downstream follow from them.  The property calls both
paths directly, on grids of every size, so it needs no switch in the
program; the deterministic tests pin which path two typical grids take and
compare both with the per-line reference engine.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import transform
from repro.core.transform import applied_level, wavelet_smooth_grid
from repro.engine.reference import wavelet_smooth_grid_reference
from repro.grid.codec import CellCodec
from repro.grid.quantizer import GridQuantizer
from repro.grid.sparse_grid import SparseGrid
from repro.wavelets.filters import build_wavelet
from repro.wavelets.thresholding import THRESHOLD_POLICY_NAMES, LevelPolicy

# Lifting (Haar, CDF 5/3, CDF 9/7) and one convolution wavelet (dwt_batch).
WAVELETS = ("haar", "bior2.2", "bior4.4", "db4")

# Largest axis per dimensionality, so a box stays a few thousand cells.
MAX_AXIS = {1: 64, 2: 24, 3: 12, 4: 7, 5: 5}

# Densities: point counts with exact ties, plus a few fractional and
# negative ones, some small enough that the filters' side-lobes land near
# the negligible-coefficient cut.
densities = st.one_of(
    st.integers(min_value=1, max_value=6).map(float),
    st.sampled_from([0.5, 0.25, -1.0, -0.5, 1e-9, 2.5e-9, -3e-9, 7e-10]),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False).filter(lambda v: v != 0.0),
)


@st.composite
def grids(draw):
    ndim = draw(st.integers(min_value=1, max_value=5))
    shape = tuple(
        draw(st.integers(min_value=1, max_value=MAX_AXIS[ndim])) for _ in range(ndim)
    )
    size = CellCodec(shape).size
    codes = sorted(draw(st.sets(st.integers(min_value=0, max_value=size - 1), max_size=120)))
    values = draw(st.lists(densities, min_size=len(codes), max_size=len(codes)))
    codec = CellCodec(shape)
    return SparseGrid.from_coo(
        shape, codec.decode(np.asarray(codes, dtype=np.int64)), np.asarray(values)
    )


def transform_coo(grid, bank, levels, rule):
    """The line-gather layout: ``wavelet_smooth_grid``'s per-axis COO passes."""
    current = grid
    for _ in range(levels):
        for axis in range(current.ndim):
            current = transform._transform_axis(current, bank, axis)
        if rule is not None:
            current = transform._shrink_grid(current, rule)
    return current


def assert_same_grid(dense, coo):
    assert dense.shape == coo.shape
    assert np.array_equal(dense.codes, coo.codes)
    assert np.array_equal(dense.values, coo.values)


class TestDenseEqualsCoo:
    @pytest.mark.parametrize("wavelet", WAVELETS)
    @pytest.mark.parametrize("policy", THRESHOLD_POLICY_NAMES)
    @given(grid=grids(), level=st.integers(min_value=1, max_value=4))
    def test_bit_identical_codes_and_values(self, wavelet, policy, grid, level):
        bank = build_wavelet(wavelet)
        shrink = LevelPolicy.parse(policy)
        rule = shrink.rule if shrink.mode == "per-level" else None
        levels = applied_level(grid.shape, level)
        dense = transform._transform_dense(grid, bank, levels, rule)
        coo = transform_coo(grid, bank, levels, rule)
        assert_same_grid(dense, coo)
        if shrink.mode == "global" and shrink.rule == "soft":
            assert_same_grid(
                transform._shrink_grid(dense, "soft"), transform._shrink_grid(coo, "soft")
            )


def blobs_4d(n, seed=0):
    """Four Gaussian blobs in [0, 1]^4 with 75% uniform noise."""
    rng = np.random.default_rng(seed)
    centers = np.array(
        [[0.25, 0.25, 0.25, 0.25], [0.75, 0.75, 0.25, 0.25],
         [0.25, 0.75, 0.75, 0.5], [0.75, 0.25, 0.5, 0.75]]
    )
    clustered = n // 4
    blobs = centers[rng.integers(4, size=clustered)]
    blobs = np.clip(blobs + rng.normal(scale=0.05, size=blobs.shape), 0.0, 1.0)
    return np.vstack([blobs, rng.uniform(size=(n - clustered, 4))])


def line_gathers(monkeypatch):
    """Count the calls of ``SparseGrid.line_matrix``, the COO layout's gather."""
    calls = []
    original = SparseGrid.line_matrix

    def counted(self, axis):
        calls.append(axis)
        return original(self, axis)

    monkeypatch.setattr(SparseGrid, "line_matrix", counted)
    return calls


class TestLayoutChoice:
    @pytest.mark.parametrize("level", [1, 2])
    def test_4d_blobs_take_the_dense_box(self, monkeypatch, level):
        grid = GridQuantizer(scale=32).fit_transform(blobs_4d(60_000)).grid
        assert grid.shape == (32,) * 4
        assert grid.codec.fits_dense(grid.n_occupied)
        calls = line_gathers(monkeypatch)
        transformed, _ = wavelet_smooth_grid(grid, "bior2.2", level=level)
        assert calls == []
        monkeypatch.undo()
        coo = transform_coo(grid, build_wavelet("bior2.2"), level, None)
        assert_same_grid(transformed, coo)
        if level == 1:
            reference, applied = wavelet_smooth_grid_reference(grid, "bior2.2", level)
            assert applied == level
            assert dict(transformed.items()) == pytest.approx(dict(reference.items()))

    def test_sparse_6d_grid_gathers_lines(self, monkeypatch):
        X = np.random.default_rng(0).standard_normal((2000, 6))
        grid = GridQuantizer(scale=12).fit_transform(X).grid
        assert not grid.codec.fits_dense(grid.n_occupied)
        calls = line_gathers(monkeypatch)
        transformed, _ = wavelet_smooth_grid(grid, "bior2.2", level=1)
        assert calls == list(range(6))
        reference, _ = wavelet_smooth_grid_reference(grid, "bior2.2", 1)
        assert dict(transformed.items()) == pytest.approx(dict(reference.items()))

    def test_exact_code_boxes_never_go_dense(self):
        codec = CellCodec((2**31, 2**31, 2**2))
        assert codec.exact
        assert not codec.fits_dense(2**70)

    def test_small_boxes_go_dense_however_few_cells(self):
        assert CellCodec((128, 128)).fits_dense(0)
        assert not CellCodec((256, 256)).fits_dense(2**11 - 1)
        assert CellCodec((256, 256)).fits_dense(2**11)
