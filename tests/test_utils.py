"""Tests for RNG and linear-algebra utilities (and the tests' matrix checks)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matrix_checks import is_psd, is_unitary
from repro.utils import ensure_rng, is_hermitian, next_power_of_two, spawn_rngs
from repro.utils.linalg import BLOCK_ENTRIES, MIN_BLOCK_ROWS, row_blocks


class TestRng:
    def test_ensure_rng_from_none(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_ensure_rng_from_int_reproducible(self):
        assert ensure_rng(5).integers(1000) == ensure_rng(5).integers(1000)

    def test_ensure_rng_passthrough(self):
        rng = np.random.default_rng(0)
        assert ensure_rng(rng) is rng

    def test_spawn_rngs_independent_and_reproducible(self):
        first = [r.integers(10**9) for r in spawn_rngs(3, 4)]
        second = [r.integers(10**9) for r in spawn_rngs(3, 4)]
        assert first == second
        assert len(set(first)) == 4  # streams differ from one another

    def test_spawn_from_generator(self):
        children = spawn_rngs(np.random.default_rng(1), 2)
        assert len(children) == 2

    def test_spawn_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestLinalgPredicates:
    def test_is_hermitian(self):
        assert is_hermitian(np.array([[1, 1j], [-1j, 2]]))
        assert not is_hermitian(np.array([[1, 1], [0, 1]]))
        assert not is_hermitian(np.ones((2, 3)))

    def test_is_unitary(self):
        assert is_unitary(np.eye(3))
        theta = 0.3
        rotation = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        assert is_unitary(rotation)
        assert not is_unitary(2 * np.eye(2))

    def test_is_psd(self):
        assert is_psd(np.eye(2))
        assert not is_psd(np.diag([1.0, -1.0]))
        assert not is_psd(np.array([[0, 1], [0, 0]]))

    @given(st.integers(1, 10**6))
    def test_next_power_of_two(self, value):
        power = next_power_of_two(value)
        assert power >= value
        assert power & (power - 1) == 0
        assert power < 2 * value

    def test_next_power_of_two_rejects_zero(self):
        with pytest.raises(ValueError):
            next_power_of_two(0)


class TestRowBlocks:
    @given(
        num_rows=st.integers(0, 5000),
        row_entries=st.integers(0, 5000),
        max_entries=st.integers(1, 1 << 17),
    )
    def test_balanced_cover_without_one_row_blocks(
        self, num_rows, row_entries, max_entries
    ):
        blocks = row_blocks(num_rows, row_entries, max_entries)
        if num_rows == 0:
            assert blocks == []
            return
        starts = [start for start, _ in blocks]
        stops = [stop for _, stop in blocks]
        assert [0] + stops == starts + [num_rows]
        sizes = [stop - start for start, stop in blocks]
        assert sizes == sorted(sizes, reverse=True)
        assert not sizes or sizes[0] - sizes[-1] <= 1
        if num_rows > 1:
            assert min(sizes) >= 2
        cap = max(MIN_BLOCK_ROWS, max_entries // max(1, row_entries))
        assert max(sizes) <= cap
        assert len(blocks) == -(-num_rows // cap)

    def test_default_caps(self):
        assert BLOCK_ENTRIES == 1 << 16 and MIN_BLOCK_ROWS == 64
        # 64 rows of dimension 1024, and never fewer than 64 rows
        assert row_blocks(600, 1024)[0] == (0, 60)
        assert len(row_blocks(600, 1024)) == 10
        assert len(row_blocks(300, 512)) == 3
        assert len(row_blocks(2500, 4096)) == 40
        assert row_blocks(1, 1 << 20) == [(0, 1)]


def reference_is_hermitian(matrix, atol):
    """The one-shot form the blockwise predicate must agree with."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    return bool(np.allclose(matrix, matrix.conj().T, atol=atol))


class TestBlockwiseHermitian:
    """``is_hermitian`` compares row blocks against column blocks (several
    at n = 300); its verdict must equal the full ``allclose``."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.sampled_from([0, 1, 2, 17, 300]),
        defect=st.sampled_from(["none", "tiny", "large", "nan", "inf", "both-inf"]),
        atol=st.sampled_from([1e-10, 1e-8, 1e-3]),
    )
    def test_matches_full_allclose(self, seed, size, defect, atol):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        matrix = base + base.conj().T
        if size and defect != "none":
            row, col = (int(index) for index in rng.integers(size, size=2))
            value = {
                "tiny": matrix[row, col] + 1e-9,
                "large": matrix[row, col] + 1.0,
                "nan": np.nan,
                "inf": np.inf,
                "both-inf": np.inf,
            }[defect]
            matrix[row, col] = value
            if defect == "both-inf":
                matrix[col, row] = np.conj(value)
        assert is_hermitian(matrix, atol=atol) == reference_is_hermitian(
            matrix, atol
        )

    @pytest.mark.parametrize(
        "matrix",
        [np.ones((2, 3)), np.ones((300, 301)), np.ones(4), np.ones((2, 2, 2))],
    )
    def test_non_square_is_not_hermitian(self, matrix):
        assert not is_hermitian(matrix)

    def test_defect_in_a_late_block_is_found(self):
        matrix = np.eye(300, dtype=complex)
        matrix[299, 3] = 1e-6
        assert len(row_blocks(300, 300)) > 1
        assert not is_hermitian(matrix)
        assert is_hermitian(matrix, atol=1e-5)
