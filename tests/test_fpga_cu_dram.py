"""Tests for the compute unit's functional FW/BW/GC and the DRAM model."""

import numpy as np
import pytest

from repro.fpga.cu import ComputeUnit
from repro.fpga.dram import DRAMChannel, DRAMModel, WORDS_PER_BEAT
from repro.fpga.layouts import (
    dram_image_from_fw,
    fw_layout,
    fw_layout_to_weight,
    load_fw_from_dram,
)
from repro.nn import functional as F
from repro.nn.network import LayerSpec

CONV_SPEC = LayerSpec(name="Conv1", kind="conv", in_channels=4,
                      out_channels=16, kernel=8, stride=4,
                      in_height=84, in_width=84,
                      out_height=20, out_width=20)
DENSE_SPEC = LayerSpec(name="FC", kind="dense", in_channels=40,
                       out_channels=24, kernel=1, stride=1,
                       in_height=1, in_width=1, out_height=1, out_width=1)


@pytest.fixture
def conv_data():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((16, 4, 8, 8)).astype(np.float32)
    b = rng.standard_normal(16).astype(np.float32)
    x = rng.standard_normal((2, 4, 84, 84)).astype(np.float32)
    dy = rng.standard_normal((2, 16, 20, 20)).astype(np.float32)
    return w, b, x, dy


class TestComputeUnitConv:
    def test_fw_matches_software(self, conv_data):
        w, b, x, _ = conv_data
        cu = ComputeUnit("cu")
        image = dram_image_from_fw(fw_layout(w))
        y = cu.run_fw(CONV_SPEC, x, image, b)
        expected = F.conv_forward(x, w, b, 4)
        np.testing.assert_allclose(y, expected, rtol=1e-5, atol=1e-5)

    def test_fw_with_relu(self, conv_data):
        w, b, x, _ = conv_data
        cu = ComputeUnit("cu")
        image = dram_image_from_fw(fw_layout(w))
        y = cu.run_fw(CONV_SPEC, x, image, b, apply_relu=True)
        assert (y >= 0).all()

    def test_bw_matches_software(self, conv_data):
        w, _, x, dy = conv_data
        cu = ComputeUnit("cu")
        image = dram_image_from_fw(fw_layout(w))
        dx = cu.run_bw(CONV_SPEC, dy, image, x.shape)
        expected = F.conv_backward_input(dy, w, 4, x.shape)
        np.testing.assert_array_equal(dx, expected)

    def test_bw_through_register_level_tlu(self, conv_data):
        """The shift-register TLU path yields the same gradients."""
        w, _, x, dy = conv_data
        fast = ComputeUnit("fast", use_tlu_emulation=False)
        slow = ComputeUnit("slow", use_tlu_emulation=True)
        image = dram_image_from_fw(fw_layout(w))
        np.testing.assert_array_equal(
            fast.run_bw(CONV_SPEC, dy, image, x.shape),
            slow.run_bw(CONV_SPEC, dy, image, x.shape))
        assert slow.tlus[0].patches_transposed > 0
        assert slow.tlus[1].patches_transposed > 0  # double buffering

    def test_gc_matches_software(self, conv_data):
        w, _, x, dy = conv_data
        cu = ComputeUnit("cu")
        grad_image, db = cu.run_gc(CONV_SPEC, x, dy)
        dw_expected, db_expected = F.conv_grad_params(x, dy, w.shape, 4)
        fw = fw_layout(w)
        dw = fw_layout_to_weight(
            load_fw_from_dram(grad_image, *fw.shape), w.shape)
        np.testing.assert_array_equal(dw, dw_expected)
        np.testing.assert_array_equal(db, db_expected)

    def test_traffic_accounted_on_channel(self, conv_data):
        w, b, x, _ = conv_data
        cu = ComputeUnit("cu")
        channel = DRAMChannel("local", efficiency=1.0)
        image = dram_image_from_fw(fw_layout(w))
        cu.run_fw(CONV_SPEC, x, image, b, channel=channel)
        assert channel.traffic.loaded_words == image.size


class TestComputeUnitDense:
    def test_fw_bw_gc_match_software(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((24, 40)).astype(np.float32)
        b = rng.standard_normal(24).astype(np.float32)
        x = rng.standard_normal((3, 40)).astype(np.float32)
        dy = rng.standard_normal((3, 24)).astype(np.float32)
        cu = ComputeUnit("cu", use_tlu_emulation=True)
        image = dram_image_from_fw(fw_layout(w))
        np.testing.assert_allclose(cu.run_fw(DENSE_SPEC, x, image, b),
                                   x @ w.T + b, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(
            cu.run_bw(DENSE_SPEC, dy, image, x.shape), dy @ w,
            rtol=1e-5, atol=1e-5)
        grad_image, db = cu.run_gc(DENSE_SPEC, x, dy)
        fw = fw_layout(w)
        dw = fw_layout_to_weight(
            load_fw_from_dram(grad_image, *fw.shape), w.shape)
        np.testing.assert_allclose(dw, dy.T @ x, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(db, dy.sum(axis=0), rtol=1e-5)

    def test_pe_cycles_accumulate(self):
        cu = ComputeUnit("cu")
        rng = np.random.default_rng(2)
        w = rng.standard_normal((24, 40)).astype(np.float32)
        image = dram_image_from_fw(fw_layout(w))
        x = rng.standard_normal((1, 40)).astype(np.float32)
        before = cu.pes.total_cycles
        cu.run_fw(DENSE_SPEC, x, image,
                  np.zeros(24, dtype=np.float32))
        assert cu.pes.total_cycles > before
        assert cu.tasks_executed == 1


class TestDRAMChannel:
    def test_transfer_cycles_burst_rounding(self):
        channel = DRAMChannel("c", efficiency=1.0)
        assert channel.transfer_cycles(16) == 1
        assert channel.transfer_cycles(17) == 2

    def test_efficiency_derates_bandwidth(self):
        channel = DRAMChannel("c", efficiency=0.5)
        assert channel.transfer_cycles(16) == 2

    def test_nonsequential_pays_latency(self):
        channel = DRAMChannel("c", efficiency=1.0, latency_cycles=40)
        assert channel.transfer_cycles(16, sequential=False) == 41

    def test_load_store_counters(self):
        channel = DRAMChannel("c")
        channel.load(100)
        channel.store(50)
        assert channel.traffic.loaded_words == 100
        assert channel.traffic.stored_words == 50
        assert channel.traffic.total_bytes == 600
        assert channel.busy_cycles > 0

    def test_efficiency_validation(self):
        with pytest.raises(ValueError):
            DRAMChannel("c", efficiency=0.0)


class TestDRAMModel:
    def test_region_allocation_and_io(self):
        dram = DRAMModel(num_channels=2)
        data = np.arange(32, dtype=np.float32)
        dram.write("theta", data, channel=0)
        out = dram.read("theta", channel=0)
        np.testing.assert_array_equal(out, data)
        assert dram.channels[0].traffic.loaded_words == 32
        assert dram.channels[0].traffic.stored_words == 32

    def test_region_size_conflict(self):
        dram = DRAMModel()
        dram.allocate("r", 16)
        with pytest.raises(ValueError):
            dram.allocate("r", 32)

    def test_total_traffic_aggregates_channels(self):
        dram = DRAMModel(num_channels=2)
        dram.write("a", np.zeros(16, dtype=np.float32), channel=0)
        dram.write("b", np.zeros(16, dtype=np.float32), channel=1)
        assert dram.total_traffic().stored_words == 32

    def test_words_per_beat_is_sixteen(self):
        """512-bit bus / 32-bit words (Section 4.3)."""
        assert WORDS_PER_BEAT == 16
