"""Equivalence tests for the grid transform's one kernel, ``approx_lines``.

``approx_lines`` must agree with the ``dwt_batch`` reference on the
approximation half: bit-for-bit for the Haar family (lifting) and for every
wavelet without a lifting kernel (the reference itself), and within a few
ulps of the row magnitude for the CDF 5/3 / 9/7 lifting kernels.  Running
the rows in blocks must be bit-identical to one call, and the caller's
matrix is never written or aliased.  The default fit's golden labels are
pinned by ``tests/test_golden_regression.py``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.core.transform as transform_module
from repro.core.transform import approx_lines
from repro.wavelets.dwt import dwt_batch

# Wavelets with a lifting kernel, and the Haar family among them.
LIFTING_WAVELETS = ("haar", "db1", "bior1.1", "bior2.2", "bior4.4")
HAAR_FAMILY = ("haar", "db1", "bior1.1")
# Wavelets that run the reference convolution itself.
CONVOLUTION_WAVELETS = ("db4", "sym4", "bior1.3")

line_matrices = arrays(
    dtype=np.float64,
    shape=st.tuples(
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=1, max_value=65),  # odd lengths included
    ),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
)


def coeff_atol(matrix) -> float:
    """Agreement pin for the CDF lifting kernels against the convolution.

    The lifting factorisation rounds differently from the convolution
    (fewer, different intermediate products).  Over 4000 random matrices
    with entries up to 1e6 the two stayed within 6.1 eps x max|input|; this
    bound leaves about 10x headroom and is 1e-9 for O(1) densities.
    """
    return max(1e-9, 64 * np.finfo(float).eps * float(np.abs(matrix).max()))


class TestKernelEquivalence:
    @pytest.mark.parametrize("wavelet", LIFTING_WAVELETS)
    @given(matrix=line_matrices)
    @example(matrix=np.array([[962293.5]]))
    @settings(max_examples=40, deadline=None)
    def test_lifting_matches_reference(self, wavelet, matrix):
        reference = dwt_batch(matrix, wavelet, approx_only=True)
        approx = approx_lines(matrix, wavelet)
        assert approx.shape == reference.shape
        np.testing.assert_allclose(
            approx, reference, rtol=0.0, atol=coeff_atol(matrix),
            err_msg=f"approx_lines diverged from dwt_batch on {wavelet}",
        )

    @pytest.mark.parametrize("wavelet", HAAR_FAMILY + CONVOLUTION_WAVELETS)
    @given(matrix=line_matrices)
    @settings(max_examples=40, deadline=None)
    def test_haar_and_convolution_are_bit_identical(self, wavelet, matrix):
        reference = dwt_batch(matrix, wavelet, approx_only=True)
        np.testing.assert_array_equal(approx_lines(matrix, wavelet), reference)

    @pytest.mark.parametrize("wavelet", LIFTING_WAVELETS + CONVOLUTION_WAVELETS)
    def test_empty_batch(self, wavelet):
        matrix = np.empty((0, 16))
        reference = dwt_batch(matrix, wavelet, approx_only=True)
        assert approx_lines(matrix, wavelet).shape == reference.shape == (0, 8)

    @pytest.mark.parametrize("wavelet", LIFTING_WAVELETS)
    def test_single_line(self, wavelet):
        matrix = np.arange(32.0).reshape(1, 32)
        reference = dwt_batch(matrix, wavelet, approx_only=True)
        np.testing.assert_allclose(
            approx_lines(matrix, wavelet), reference, rtol=0.0, atol=coeff_atol(matrix)
        )

    @pytest.mark.parametrize("wavelet", LIFTING_WAVELETS)
    def test_odd_length_pads_like_reference(self, wavelet):
        rng = np.random.default_rng(7)
        matrix = rng.normal(size=(5, 33))
        reference = dwt_batch(matrix, wavelet, approx_only=True)
        approx = approx_lines(matrix, wavelet)
        assert approx.shape == (5, 17)
        np.testing.assert_allclose(approx, reference, rtol=0.0, atol=coeff_atol(matrix))

    @pytest.mark.parametrize("shape", [(3, 0), (4,), (2, 3, 4)])
    def test_bad_shapes_raise(self, shape):
        with pytest.raises(ValueError):
            approx_lines(np.zeros(shape), "bior2.2")

    def test_unknown_wavelet_raises(self):
        with pytest.raises(ValueError, match="Unknown wavelet"):
            approx_lines(np.ones((2, 8)), "nope")

    def test_approx_only_matches_full_transform(self):
        rng = np.random.default_rng(3)
        matrix = rng.normal(size=(11, 40))
        for wavelet in ("haar", "bior2.2", "bior4.4", "db4", "sym4"):
            full_approx, _detail = dwt_batch(matrix, wavelet)
            np.testing.assert_array_equal(
                dwt_batch(matrix, wavelet, approx_only=True), full_approx
            )


class TestRowBlocks:
    @pytest.mark.parametrize("wavelet", ["haar", "bior2.2", "bior4.4", "db4"])
    @pytest.mark.parametrize("block_elements", [1, 8, 40, 1000])
    def test_blocked_is_bit_identical_to_one_call(self, monkeypatch, wavelet, block_elements):
        rng = np.random.default_rng(11)
        shapes = [(7, 16), (128, 128), (33, 64), (2, 8), (9, 5), (1, 2)]
        matrices = {shape: rng.normal(size=shape) for shape in shapes}
        whole = {shape: approx_lines(matrix, wavelet) for shape, matrix in matrices.items()}
        # Blocks of one row, of a few rows with a short last block, and
        # wider than the matrix.
        monkeypatch.setattr(transform_module, "_BLOCK_ELEMENTS", block_elements)
        for shape, matrix in matrices.items():
            np.testing.assert_array_equal(
                approx_lines(matrix, wavelet),
                whole[shape],
                err_msg=f"{wavelet} in blocks of {block_elements} diverged at {shape}",
            )

    def test_default_blocks_split_a_large_matrix(self):
        # 1100 rows of 128 exceed one 2**16-element block: the last block is
        # short and the result must still equal the per-row reference.
        rng = np.random.default_rng(5)
        matrix = rng.normal(size=(1100, 128))
        assert matrix.size > transform_module._BLOCK_ELEMENTS
        np.testing.assert_array_equal(
            approx_lines(matrix, "db4"), dwt_batch(matrix, "db4", approx_only=True)
        )
        np.testing.assert_array_equal(
            approx_lines(matrix, "haar"), dwt_batch(matrix, "haar", approx_only=True)
        )


class TestInputIsNeverWritten:
    @pytest.mark.parametrize("wavelet", LIFTING_WAVELETS + CONVOLUTION_WAVELETS)
    @pytest.mark.parametrize(
        "make",
        [
            lambda: np.array([[1.0, 2.0]]),
            lambda: np.asfortranarray(np.arange(10.0).reshape(5, 2)),
            lambda: np.asfortranarray(np.arange(24.0).reshape(3, 8)),
        ],
        ids=["one-pair", "fortran-pairs", "fortran-wide"],
    )
    def test_input_unchanged_and_not_shared(self, wavelet, make):
        # A column slice of these is already contiguous, so a kernel that
        # split even and odd with np.ascontiguousarray lifted in place in
        # the caller's memory.
        matrix = make()
        before = matrix.copy()
        approx = approx_lines(matrix, wavelet)
        np.testing.assert_array_equal(matrix, before)
        assert not np.shares_memory(approx, matrix)
        np.testing.assert_allclose(
            approx, dwt_batch(before, wavelet, approx_only=True),
            rtol=0.0, atol=coeff_atol(before),
        )
