"""Tests for the cycle model, the platform variants, and Table 4."""

import numpy as np
import pytest

from repro import backends
from repro.fpga.platform import FA3CPlatform, FPGAConfig
from repro.fpga.resources import STRATIX_V, VU9P, ResourceModel, \
    resource_table
from repro.fpga.timing import GLOBAL, LOCAL, TimingModel
from repro.nn.network import A3CNetwork
from repro.platforms import measure_ips
from repro.sim import Engine


@pytest.fixture(scope="module")
def topology():
    return A3CNetwork(num_actions=6).topology()


class TestTimingModel(object):
    def test_total_param_words_covers_table1(self, topology):
        timing = TimingModel(topology)
        # weights padded to 16x16 patches + burst-aligned biases
        assert timing.total_param_words() >= topology.num_params
        assert timing.total_param_words() < topology.num_params * 1.01

    def test_input_words_match_paper_110kb(self, topology):
        timing = TimingModel(topology)
        assert timing.input_words(1) * 4 == pytest.approx(110.25 * 1024,
                                                          rel=0.01)

    def test_fw_stage_conv1_cycles(self, topology):
        """Conv1 FW: 6400 outputs on 64 PEs, 257 cycles each round."""
        timing = TimingModel(topology, n_pe=64)
        stage = timing.fw_stage(topology.layers[0], batch=1,
                                first_layer=True)
        expected = (6400 // 64) * 257 + timing.STAGE_OVERHEAD_CYCLES
        assert stage.compute_cycles == expected

    def test_fc3_fw_is_memory_dominated(self, topology):
        """FC3 moves ~2.6 MB of parameters for ~1.3 MFLOP: the paper's
        operational-intensity argument in one stage."""
        timing = TimingModel(topology)
        stage = timing.fw_stage(topology.layers[2], batch=1,
                                first_layer=False)
        memory_cycles = stage.words(LOCAL) / 16
        assert memory_cycles > stage.compute_cycles

    def test_inference_task_has_one_stage_per_layer(self, topology):
        timing = TimingModel(topology)
        stages = timing.inference_task()
        assert [s.name for s in stages] == \
            ["FW:Conv1", "FW:Conv2", "FW:FC3", "FW:FC4"]

    def test_training_task_schedule_gc_before_bw(self, topology):
        """GC precedes BW per layer, last to first; no BW for the first
        layer; RMSProp closes the task (Section 4.3)."""
        timing = TimingModel(topology)
        names = [s.name for s in timing.training_task(batch=5)]
        assert names == ["GC:FC4", "BW:FC4", "GC:FC3", "BW:FC3",
                         "GC:Conv2", "BW:Conv2", "GC:Conv1", "RMSProp"]

    def test_gradients_go_to_global_channel(self, topology):
        timing = TimingModel(topology)
        gc = timing.gc_stage(topology.layers[2], 5, first_layer=False)
        assert gc.stores.get(GLOBAL, 0) > 0
        assert gc.stores.get(LOCAL, 0) == 0

    def test_sync_moves_one_parameter_set_each_way(self, topology):
        timing = TimingModel(topology)
        (stage,) = timing.sync_task()
        assert stage.loads[GLOBAL] == timing.total_param_words()
        assert stage.stores[LOCAL] == timing.total_param_words()

    def test_alt1_inflates_bw_fc_cycles(self, topology):
        fa3c = TimingModel(topology, layout_mode="fa3c")
        alt1 = TimingModel(topology, layout_mode="alt1")
        fc3 = topology.layers[2]
        fast = fa3c.bw_stage(fc3, 5, None).compute_cycles
        slow = alt1.bw_stage(fc3, 5, None).compute_cycles
        assert slow > 5 * fast

    def test_alt2_stores_extra_layout_copy(self, topology):
        fa3c = TimingModel(topology, layout_mode="fa3c")
        alt2 = TimingModel(topology, layout_mode="alt2")
        extra = alt2.rmsprop_stage().stores[GLOBAL] \
            - fa3c.rmsprop_stage().stores[GLOBAL]
        assert extra == fa3c.total_param_words()

    def test_unknown_layout_mode_rejected(self, topology):
        with pytest.raises(ValueError):
            TimingModel(topology, layout_mode="alt9")

    def test_rmsprop_compute_scales_with_rus(self, topology):
        four = TimingModel(topology, num_rus=4).rmsprop_stage()
        eight = TimingModel(topology, num_rus=8).rmsprop_stage()
        assert four.compute_cycles > eight.compute_cycles


class TestFA3CPlatform:
    def test_variant_constructors(self, topology):
        assert FA3CPlatform.fa3c(topology).config.name == "FA3C"
        assert FA3CPlatform.single_cu(topology).config.single_cu
        assert FA3CPlatform.alt1(topology).config.layout_mode == "alt1"
        assert FA3CPlatform.alt2(topology).config.layout_mode == "alt2"

    def test_single_cu_doubles_pes(self, topology):
        platform = FA3CPlatform.single_cu(topology)
        assert platform.config.pe_per_cu == 128
        assert platform.config.cus_per_pair == 1

    def test_task_latency_ordering(self, topology):
        """Training (batch 5, GC+BW+RMSProp) takes longer than one
        inference; sync is cheapest."""
        platform = FA3CPlatform.fa3c(topology)
        inference = platform.inference_latency()
        training = platform.training_latency(5)
        sync = platform.sync_latency()
        assert sync < inference < training

    def test_task_overhead_fraction_below_paper_bound(self, topology):
        """FPGA task-start overhead < 0.02 % of task time
        (Section 3.4)."""
        platform = FA3CPlatform.fa3c(topology)
        fraction = platform.task_launch_overhead() / \
            platform.inference_latency()
        assert fraction < 0.002

    def test_alt1_slower_training(self, topology):
        base = FA3CPlatform.fa3c(topology).training_latency(5)
        alt1 = FA3CPlatform.alt1(topology).training_latency(5)
        assert alt1 > base * 1.2

    def test_sim_runs_and_reports_utilisation(self, topology):
        platform = FA3CPlatform.fa3c(topology)
        result = measure_ips(platform, num_agents=4,
                             routines_per_agent=5)
        assert result.ips > 0
        assert 0.0 < result.utilisation <= 1.0

    def test_sim_single_cu_shares_one_resource(self, topology):
        platform = FA3CPlatform.single_cu(topology)
        sim = platform.build_sim(Engine())
        assert sim.infer_cus[0] is sim.train_cus[0]


@pytest.mark.parametrize("field, value", [
    ("cu_pairs", 0), ("cu_pairs", -1), ("global_channels", 0),
    ("n_pe", 0), ("num_rus", 0), ("clock_hz", 0.0),
    ("pcie_bandwidth", 0.0), ("dram_efficiency", 0.0),
    ("dram_efficiency", 1.5)])
def test_config_rejects_out_of_range_sizes(field, value):
    """A bad size fails at construction, naming the field, instead of
    deep inside the first measurement."""
    with pytest.raises(ValueError, match=field):
        backends.create("fa3c-fpga", **{field: value})


class TestResourceModel:
    def test_default_config_fits_vu9p(self):
        model = ResourceModel()
        assert model.fits()

    def test_utilisation_matches_paper_ballpark(self):
        """Table 4 totals: 57.3 % logic, 37.0 % registers, 40.6 % memory
        blocks, 34.3 % DSPs."""
        util = ResourceModel().utilisation()
        assert util["logic_luts"] == pytest.approx(0.573, abs=0.06)
        assert util["registers"] == pytest.approx(0.370, abs=0.06)
        assert util["memory_blocks"] == pytest.approx(0.406, abs=0.08)
        assert util["dsp_blocks"] == pytest.approx(0.343, abs=0.05)

    def test_pe_dsp_count_matches_table4(self):
        components = {c.component: c for c in ResourceModel().components()}
        assert components["PEs"].dsp_blocks == 2048

    def test_table_rows_include_total(self):
        rows = resource_table()
        assert rows[-1]["component"] == "Total"
        assert len(rows) == 12

    def test_bigger_config_may_not_fit_stratix(self):
        model = ResourceModel(num_cus=4, n_pe=64, device=STRATIX_V)
        assert not model.fits()

    def test_scaling_with_pe_count(self):
        small = ResourceModel(num_cus=2, n_pe=64).total()
        large = ResourceModel(num_cus=4, n_pe=64).total()
        assert large.dsp_blocks > small.dsp_blocks
        assert large.logic_luts > small.logic_luts

    def test_device_capacities(self):
        assert VU9P.dsp_blocks == 6840
        assert VU9P.logic_luts > STRATIX_V.logic_luts
