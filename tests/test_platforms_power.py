"""Tests for the throughput experiment, IPS metric, and the power model."""

import pytest

from repro import backends
from repro.fpga.platform import FA3CPlatform
from repro.gpu.platform import A3CcuDNNPlatform, GA3CTFPlatform
from repro.nn.network import A3CNetwork
from repro.platforms import (
    HostModel,
    IPSMeter,
    ips_definition_check,
    measure_ips,
    sweep_agents,
)
from repro.power import PLATFORM_POWER, PowerEnvelope, PowerModel


@pytest.fixture(scope="module")
def topology():
    return A3CNetwork(num_actions=6).topology()


class TestIPSMeter:
    def test_empty_meter_is_zero(self):
        assert IPSMeter().ips() == 0.0

    def test_steady_state_rate(self):
        meter = IPSMeter(t_max=5)
        for i in range(1, 21):
            meter.record_routine(sim_time=i * 0.01, steps=5)
        # 5 steps per 10 ms -> 500 IPS
        assert meter.ips() == pytest.approx(500.0, rel=0.01)

    def test_warmup_discard(self):
        meter = IPSMeter(t_max=5)
        meter.record_routine(0.0, 5)       # slow start
        for i in range(1, 11):
            meter.record_routine(1.0 + i * 0.01, 5)
        assert meter.ips(discard_fraction=0.5) == pytest.approx(
            500.0, rel=0.05)

    def test_paper_worked_example(self):
        """IPS 500 at t_max 5 -> 100 bootstrap inferences and 100
        training tasks per second (Section 5.2)."""
        breakdown = ips_definition_check(500.0, t_max=5)
        assert breakdown.routines_per_second == pytest.approx(100.0)
        assert breakdown.bootstrap_inferences_per_second == \
            pytest.approx(100.0)
        assert breakdown.training_tasks_per_second == pytest.approx(100.0)


class TestMeasureIPS:
    def test_result_fields(self, topology):
        result = measure_ips(FA3CPlatform.fa3c(topology), 2,
                             routines_per_agent=5)
        assert result.platform == "FA3C"
        assert result.num_agents == 2
        assert result.ips > 0
        assert result.routines == 10
        assert 0 < result.utilisation <= 1.0

    def test_throughput_grows_then_saturates(self, topology):
        results = sweep_agents(FA3CPlatform.fa3c(topology), [1, 4, 16],
                               routines_per_agent=10)
        ips = [r.ips for r in results]
        assert ips[1] > ips[0] * 2          # still scaling at n=4
        assert ips[2] < ips[1] * 4          # saturated well before 4x

    def test_dummy_host_model(self):
        host = HostModel.dummy()
        assert host.train_prep_time == 0.0
        assert host.step_time > 0

    def test_batched_host_model(self):
        """The SoA-engine host amortises frame_skip frames over the
        frozen calibration frame rate — the occupancy-curve input."""
        from repro.gpu.calibration import GPUCalibration
        host = HostModel.batched()
        assert host.step_time == \
            4 / GPUCalibration.batched_env_fps
        assert host.step_time < HostModel().step_time
        assert HostModel.batched(frames_per_second=8000.0,
                                 frame_skip=2).step_time == 2 / 8000.0
        with pytest.raises(ValueError):
            HostModel.batched(frames_per_second=0.0)
        with pytest.raises(ValueError):
            HostModel.batched(frame_skip=0)

    def test_batched_host_raises_modelled_throughput(self, topology):
        """A cheaper host step lets the same agent count extract more
        IPS from the accelerator (closer to the contention limit)."""
        batched = measure_ips(GA3CTFPlatform(topology), 8,
                              routines_per_agent=10,
                              host=HostModel.batched())
        scalar = measure_ips(GA3CTFPlatform(topology), 8,
                             routines_per_agent=10)
        assert batched.ips > scalar.ips

    def test_ga3c_agents_do_not_block_on_training(self, topology):
        """GA3C training is queued, not awaited: more routines finish
        per simulated second than the device could serve synchronously."""
        result = measure_ips(GA3CTFPlatform(topology), 8,
                             routines_per_agent=10)
        assert result.ips > 0

    @pytest.mark.parametrize("backend",
                             ("fa3c-fpga", "a3c-cudnn", "ga3c-tf"))
    @pytest.mark.parametrize("argument, value", (
        ("num_agents", -2), ("t_max", 0), ("routines_per_agent", 0)))
    def test_out_of_range_sizes_rejected(self, backend, argument, value):
        """Every sim kind rejects the same sizes, naming the argument."""
        sizes = {"num_agents": 2, "t_max": 5, "routines_per_agent": 4}
        sizes[argument] = value
        with pytest.raises(ValueError, match=f"^{argument} must be"):
            measure_ips(backends.create(backend), **sizes)

    @pytest.mark.parametrize("backend",
                             ("fa3c-fpga", "a3c-cudnn", "ga3c-tf"))
    def test_smallest_sizes_accepted(self, backend):
        platform = backends.create(backend)
        idle = measure_ips(platform, 0)
        assert (idle.routines, idle.ips, idle.sim_seconds) == (0, 0.0, 0.0)
        one = measure_ips(platform, 1, t_max=1, routines_per_agent=1)
        assert one.routines == 1 and one.sim_seconds > 0

    def test_deterministic(self, topology):
        platform = A3CcuDNNPlatform(topology)
        a = measure_ips(platform, 4, routines_per_agent=8)
        b = measure_ips(A3CcuDNNPlatform(topology), 4,
                        routines_per_agent=8)
        assert a.ips == pytest.approx(b.ips)


class TestPowerModel:
    def test_envelope_interpolates(self):
        envelope = PowerEnvelope(idle_delta=5.0, active=20.0)
        assert envelope.watts(0.0) == 5.0
        assert envelope.watts(1.0) == 20.0
        assert envelope.watts(0.5) == pytest.approx(12.5)
        assert envelope.watts(2.0) == 20.0   # clamped

    def test_all_platforms_have_envelopes(self):
        for name in ["FA3C", "FA3C-SingleCU", "FA3C-Alt1", "FA3C-Alt2",
                     "A3C-cuDNN", "A3C-TF-GPU", "GA3C-TF", "A3C-TF-CPU"]:
            assert name in PLATFORM_POWER

    def test_unknown_platform_rejected(self, topology):
        result = measure_ips(FA3CPlatform.fa3c(topology), 1,
                             routines_per_agent=3)
        result.platform = "mystery"
        with pytest.raises(KeyError):
            PowerModel().report(result)

    def test_figure9_anchors(self, topology):
        """FA3C ~18 W, ~30 % below A3C-cuDNN, ~1.6x its efficiency
        (Section 5.3)."""
        results = [
            measure_ips(FA3CPlatform.fa3c(topology), 16,
                        routines_per_agent=20),
            measure_ips(A3CcuDNNPlatform(topology), 16,
                        routines_per_agent=20),
        ]
        rows = {row["platform"]: row
                for row in PowerModel().figure9(results)}
        fa3c = rows["FA3C"]
        assert fa3c["watts"] == pytest.approx(18.0, abs=1.5)
        assert fa3c["relative_power"] == pytest.approx(0.70, abs=0.08)
        assert fa3c["ips_per_watt"] > 125
        assert fa3c["relative_efficiency"] > 1.5

    def test_figure9_requires_baseline(self, topology):
        result = measure_ips(FA3CPlatform.fa3c(topology), 1,
                             routines_per_agent=3)
        with pytest.raises(ValueError):
            PowerModel().figure9([result])
