"""Tests for the ASCII renderer plus failure-injection/robustness cases
across the simulation and hardware substrates."""

import numpy as np
import pytest

from repro.ale import make_game
from repro.ale.render import screen_to_ascii, side_by_side
from repro.fpga.buffers import LineBuffer, OnChipBuffer
from repro.fpga.cu import ComputeUnit
from repro.fpga.layouts import dram_image_from_fw, fw_layout
from repro.fpga.platform import FA3CPlatform, FPGAConfig
from repro.nn.network import A3CNetwork, LayerSpec
from repro.sim import Engine, Resource


class TestAsciiRender:
    def test_dimensions(self):
        frame = np.zeros((210, 160, 3), dtype=np.uint8)
        text = screen_to_ascii(frame, width=40, height=20)
        lines = text.splitlines()
        assert len(lines) == 20
        assert all(len(line) == 40 for line in lines)

    def test_bright_object_visible(self):
        frame = np.zeros((210, 160, 3), dtype=np.uint8)
        frame[100:120, 70:90] = 255
        text = screen_to_ascii(frame, width=40, height=20)
        assert "@" in text
        assert " " in text

    def test_constant_frame_no_crash(self):
        frame = np.full((210, 160, 3), 80, dtype=np.uint8)
        text = screen_to_ascii(frame)
        assert len(text.splitlines()) == 28

    def test_grayscale_input(self):
        text = screen_to_ascii(np.zeros((84, 84), dtype=np.float32),
                               width=10, height=5)
        assert len(text.splitlines()) == 5

    def test_side_by_side_alignment(self):
        combined = side_by_side("ab\ncd", "XY\nZW\nQQ")
        lines = combined.splitlines()
        assert len(lines) == 3
        assert lines[0].endswith("XY")
        assert lines[2].strip() == "QQ"

    def test_game_render_is_recognisable(self):
        game = make_game("breakout")
        game.seed(0)
        game.reset()
        text = screen_to_ascii(game.screen.copy())
        # walls + bricks produce a spread of glyphs, not a blank frame
        assert len(set(text) - {"\n"}) >= 4


class TestRobustness:
    def test_engine_survives_many_simultaneous_events(self):
        engine = Engine()
        fired = []
        for i in range(1000):
            engine.timeout(1.0).callbacks.append(
                lambda e, i=i: fired.append(i))
        engine.run()
        assert fired == list(range(1000))

    def test_resource_heavy_contention(self):
        engine = Engine()
        resource = Resource(engine, capacity=3)
        done = []

        def worker(i):
            def hold(_granted):
                def finish(_expired):
                    resource.release()
                    done.append(i)
                engine.timeout(1.0).callbacks.append(finish)
            resource.acquire().callbacks.append(hold)

        for i in range(30):
            worker(i)
        engine.run()
        assert len(done) == 30
        assert engine.now == pytest.approx(10.0)
        assert resource.in_use == 0

    def test_line_buffer_full_drain_and_reuse(self):
        line = LineBuffer(8)
        line.load(np.arange(8, dtype=np.float32))
        line.shift(100)           # over-shift clamps
        assert line.registers.sum() == 0
        line.load(np.ones(8, dtype=np.float32))
        assert line.registers.sum() == 8

    def test_onchip_buffer_row_bounds(self):
        buffer = OnChipBuffer("b", rows=2)
        with pytest.raises(IndexError):
            buffer.write_row(5, np.zeros(4, dtype=np.float32))

    def test_cu_rejects_mismatched_image(self):
        cu = ComputeUnit("cu")
        spec = LayerSpec(name="FC", kind="dense", in_channels=8,
                         out_channels=8, kernel=1, stride=1,
                         in_height=1, in_width=1, out_height=1,
                         out_width=1)
        wrong_image = np.zeros(37, dtype=np.float32)  # not patch-shaped
        with pytest.raises(ValueError):
            cu.load_fw_parameters(wrong_image, spec)

    def test_platform_invalid_layout_mode(self):
        topology = A3CNetwork(6).topology()
        with pytest.raises(ValueError):
            FA3CPlatform(topology, FPGAConfig(layout_mode="bogus"))

    def test_platform_zero_buffering_config(self):
        """Disabling double buffering degrades but never breaks."""
        topology = A3CNetwork(6).topology()
        platform = FA3CPlatform.fa3c(topology, double_buffering=False)
        assert platform.inference_latency() > \
            FA3CPlatform.fa3c(topology).inference_latency()

    def test_game_reseed_mid_episode(self):
        """Re-seeding between episodes must not corrupt game state."""
        game = make_game("seaquest")
        game.seed(1)
        game.reset()
        for _ in range(50):
            game.step(0)
        game.seed(2)
        obs = game.reset()
        assert obs.shape == (210, 160, 3)
        for _ in range(50):
            game.step(0)

    def test_network_rejects_wrong_input_channels(self):
        net = A3CNetwork(6)
        params = net.init_params(np.random.default_rng(0))
        with pytest.raises(ValueError):
            net.forward(np.zeros((1, 3, 84, 84), dtype=np.float32),
                        params)
