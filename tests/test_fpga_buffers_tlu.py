"""Tests for on-chip buffers, line buffers, the BCU, and the TLU."""

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from repro.fpga.buffers import BufferControlUnit, LineBuffer, OnChipBuffer
from repro.fpga.layouts import PATCH
from repro.fpga.tlu import TransposeLoadUnit


class TestOnChipBuffer:
    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            OnChipBuffer("b", rows=0)

    def test_write_read_row(self):
        buffer = OnChipBuffer("b", rows=4)
        buffer.write_row(1, np.arange(16, dtype=np.float32))
        np.testing.assert_array_equal(buffer.read_row(1),
                                      np.arange(16, dtype=np.float32))

    def test_row_overflow_rejected(self):
        buffer = OnChipBuffer("b", rows=4)
        with pytest.raises(ValueError):
            buffer.write_row(0, np.zeros(17, dtype=np.float32))

    def test_offset_write(self):
        buffer = OnChipBuffer("b", rows=2)
        buffer.write_row(0, np.ones(4, dtype=np.float32), offset=12)
        assert buffer.read_row(0)[12:].sum() == 4.0

    def test_load_matrix_wide_rows_span_buffer_rows(self):
        """A 40-word matrix row occupies three 16-word buffer rows
        (Section 4.3 alignment)."""
        buffer = OnChipBuffer("b", rows=8)
        matrix = np.arange(2 * 40, dtype=np.float32).reshape(2, 40)
        used = buffer.load_matrix(matrix)
        assert used == 6
        np.testing.assert_array_equal(buffer.read_line(0, 40), matrix[0])
        np.testing.assert_array_equal(buffer.read_line(1, 40), matrix[1])

    def test_load_matrix_capacity_check(self):
        buffer = OnChipBuffer("b", rows=2)
        with pytest.raises(ValueError):
            buffer.load_matrix(np.zeros((3, 16), dtype=np.float32))

    def test_words_capacity(self):
        assert OnChipBuffer("b", rows=256).words == 4096


class TestLineBuffer:
    def test_width_validation(self):
        with pytest.raises(ValueError):
            LineBuffer(0)

    def test_load_and_peek(self):
        line = LineBuffer(4)
        line.load(np.array([1, 2, 3, 4], dtype=np.float32))
        assert line.peek(0) == 1.0
        assert line.peek(3) == 4.0

    def test_load_size_validation(self):
        with pytest.raises(ValueError):
            LineBuffer(4).load(np.zeros(3, dtype=np.float32))

    def test_shift_semantics(self):
        line = LineBuffer(4)
        line.load(np.array([1, 2, 3, 4], dtype=np.float32))
        out = line.shift(1)
        np.testing.assert_array_equal(out, [1.0])
        np.testing.assert_array_equal(line.registers, [2, 3, 4, 0])

    def test_register_count(self):
        assert LineBuffer(10).register_count == 320

    @hypothesis.given(st.integers(1, 30), st.integers(0, 40))
    @hypothesis.settings(max_examples=30, deadline=None)
    def test_repeated_shift_drains(self, width, shifts):
        line = LineBuffer(width)
        line.load(np.arange(1, width + 1, dtype=np.float32))
        for _ in range(shifts):
            line.shift(1)
        expected_zeroes = min(shifts, width)
        assert (line.registers[width - expected_zeroes:] == 0).all()


class TestBufferControlUnit:
    def test_stitching_combines_rows(self):
        """Stitching restores a feature-map row wider than 16 words
        (Section 4.5)."""
        buffer = OnChipBuffer("fmap", rows=6)
        row = np.arange(84, dtype=np.float32)
        for part in range(6):
            chunk = row[part * 16:(part + 1) * 16]
            buffer.write_row(part, chunk)
        bcu = BufferControlUnit()
        line = bcu.stitch(buffer, range(6), width=84)
        np.testing.assert_array_equal(line.registers, row)
        assert bcu.stitch_ops == 1

    def test_stitch_width_check(self):
        buffer = OnChipBuffer("b", rows=2)
        with pytest.raises(ValueError):
            BufferControlUnit().stitch(buffer, [0], width=20)

    def test_shift_window_emits_convolution_windows(self):
        """Shifting exposes each K-word window once per cycle — the FW
        input access pattern."""
        bcu = BufferControlUnit()
        line = LineBuffer(6)
        line.load(np.arange(6, dtype=np.float32))
        windows = list(bcu.shift_window(line, window=3))
        assert len(windows) == 4
        np.testing.assert_array_equal(windows[0], [0, 1, 2])
        np.testing.assert_array_equal(windows[-1], [3, 4, 5])
        assert bcu.shift_ops == 4

    def test_scatter_distributes_to_rows(self):
        """Scattering sends PE outputs to per-channel buffer rows
        (Section 4.5)."""
        buffer = OnChipBuffer("out", rows=4)
        line = LineBuffer(3)
        line.load(np.array([7, 8, 9], dtype=np.float32))
        bcu = BufferControlUnit()
        bcu.scatter(line, buffer, [(0, 0), (1, 5), (3, 15)])
        assert buffer.read_row(0)[0] == 7.0
        assert buffer.read_row(1)[5] == 8.0
        assert buffer.read_row(3)[15] == 9.0

    def test_scatter_placement_count_check(self):
        buffer = OnChipBuffer("out", rows=1)
        line = LineBuffer(1)
        with pytest.raises(ValueError):
            BufferControlUnit().scatter(line, buffer, [(0, 0), (0, 1)])


class TestTransposeLoadUnit:
    def test_register_transpose_matches_numpy(self):
        tlu = TransposeLoadUnit()
        patch = np.arange(256, dtype=np.float32)
        tlu.stage(patch)
        np.testing.assert_array_equal(
            tlu.transpose_next(), patch.reshape(16, 16).T)

    @hypothesis.given(st.integers(0, 2 ** 31 - 1))
    @hypothesis.settings(max_examples=25, deadline=None)
    def test_transpose_property(self, seed):
        tlu = TransposeLoadUnit()
        patch = np.random.default_rng(seed).standard_normal(
            256).astype(np.float32)
        tlu.stage(patch)
        np.testing.assert_array_equal(
            tlu.transpose_next(), patch.reshape(PATCH, PATCH).T)

    def test_fifo_depth_backpressure(self):
        tlu = TransposeLoadUnit(fifo_depth=2)
        tlu.stage(np.zeros(256, dtype=np.float32))
        tlu.stage(np.zeros(256, dtype=np.float32))
        with pytest.raises(RuntimeError, match="FIFO full"):
            tlu.stage(np.zeros(256, dtype=np.float32))

    def test_transpose_without_staged_patch(self):
        with pytest.raises(RuntimeError):
            TransposeLoadUnit().transpose_next()

    def test_wrong_patch_size_rejected(self):
        with pytest.raises(ValueError):
            TransposeLoadUnit().stage(np.zeros(100, dtype=np.float32))

    def test_cycle_count_is_one_beat_per_row(self):
        assert TransposeLoadUnit().transpose_cycles() == 16

    def test_stream_counters(self):
        tlu = TransposeLoadUnit()
        patches = [np.random.default_rng(i).standard_normal(
            256).astype(np.float32) for i in range(3)]
        out = tlu.load_transposed(patches)
        assert len(out) == 3
        assert tlu.patches_transposed == 3
        assert tlu.words_loaded == 3 * 256
