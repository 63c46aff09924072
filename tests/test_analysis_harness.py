"""Tests for the analysis tables (Table 2/3, roofline) and the harness."""

import importlib
import pathlib

import numpy as np
import pytest

from repro.analysis import (
    accumulation_frequency_table,
    line_buffer_table,
    operational_intensity,
    roofline_time,
    traffic_table,
)
from repro.analysis.linebuffers import layer_line_buffers, stitching_rows
from repro.harness import (
    EXPERIMENTS,
    format_curve,
    format_series,
    format_table,
    get_experiment,
)
from repro.nn.network import A3CNetwork


@pytest.fixture(scope="module")
def topology():
    return A3CNetwork(num_actions=6).topology()


class TestTrafficTable:
    def test_structure_matches_table2(self, topology):
        report = traffic_table(topology, t_max=5)
        tasks = [(item.task, item.data) for item in report.items]
        assert ("Parameter sync", "Global theta") in tasks
        assert ("Inference task", "Local theta") in tasks
        assert ("Training task", "RMS g") in tasks

    def test_totals_in_paper_ballpark(self, topology):
        """Paper Table 2 totals: 24,538 KB load / 7,776 KB store per
        routine (with its ~2,592 KB parameter-set estimate; ours is the
        exact 2,673 KB, so totals land proportionally higher)."""
        report = traffic_table(topology, t_max=5)
        assert report.total_load_bytes / 1024 == pytest.approx(
            27_946, rel=0.01)
        assert report.total_store_bytes / 1024 == pytest.approx(
            8_020, rel=0.01)
        # store = exactly three parameter-set writes (sync local,
        # training global theta, RMS g), as in the paper
        assert report.total_store_bytes == 3 * 2_737_472

    def test_inference_counts_tmax_plus_bootstrap(self, topology):
        report = traffic_table(topology, t_max=5)
        inference_theta = [item for item in report.items
                           if item.task == "Inference task"
                           and item.data == "Local theta"][0]
        assert inference_theta.count == 6

    def test_feature_map_extension_is_small(self, topology):
        """The Section 4.3 feature-map traffic Table 2 omits stays under
        a few percent of the total."""
        base = traffic_table(topology, t_max=5)
        extended = traffic_table(topology, t_max=5,
                                 include_feature_maps=True)
        extra = (extended.total_load_bytes + extended.total_store_bytes
                 - base.total_load_bytes - base.total_store_bytes)
        assert extra / (base.total_load_bytes
                        + base.total_store_bytes) < 0.12

    def test_rows_render(self, topology):
        rows = traffic_table(topology).rows()
        assert rows[-1]["task"] == "Total"


class TestLineBufferTable:
    def test_every_layer_has_nine_plans(self, topology):
        table = line_buffer_table(topology)
        assert set(table) == {"Conv1", "Conv2", "FC3", "FC4"}
        assert all(len(plans) == 9 for plans in table.values())

    def test_conv1_gc_uses_k_input_lines(self, topology):
        """Table 3: GC loads K input-feature lines (K=8 for Conv1)."""
        plans = layer_line_buffers(topology.layers[0], n_pe=64)
        gc_input = [p for p in plans
                    if p.stage == "GC" and p.port == "Input 0"][0]
        assert gc_input.count == 8

    def test_conv1_gc_output_gradient_lines(self, topology):
        """M_GC = floor(N_PE / K^2) = floor(64/64) = 1 for Conv1."""
        plans = layer_line_buffers(topology.layers[0], n_pe=64)
        gc_grad = [p for p in plans
                   if p.stage == "GC" and p.port == "Input 1"][0]
        assert gc_grad.count == 1

    def test_conv2_gc_output_gradient_lines(self, topology):
        """M_GC = floor(64/16) = 4 for Conv2."""
        plans = layer_line_buffers(topology.layers[1], n_pe=64)
        gc_grad = [p for p in plans
                   if p.stage == "GC" and p.port == "Input 1"][0]
        assert gc_grad.count == 4

    def test_parameter_ports_need_no_line_buffer(self, topology):
        for spec in topology.layers:
            for plan in layer_line_buffers(spec):
                if "Parameter" in plan.buffer:
                    assert plan.count == 0

    def test_parameter_width_is_min_npe_o(self, topology):
        conv1 = layer_line_buffers(topology.layers[0], n_pe=64)
        fw_param = [p for p in conv1
                    if p.stage == "FW" and p.port == "Input 1"][0]
        assert fw_param.width == 16   # min(64, O=16)

    def test_stitching_row_count(self):
        """An 84-word feature row needs ceil(84/16) = 6 buffer rows."""
        assert stitching_rows(84) == 6
        assert stitching_rows(16) == 1


class TestRoofline:
    def test_intensity_grows_with_batch(self, topology):
        fc3 = topology.layers[2]
        assert operational_intensity(fc3, 1) < \
            operational_intensity(fc3, 32)

    def test_conv_intensity_exceeds_fc_at_batch_1(self, topology):
        """Section 2.2/3.3: convolutions have higher operational
        intensity than fully-connected layers."""
        conv1, _, fc3, _ = topology.layers
        assert operational_intensity(conv1, 1) > \
            20 * operational_intensity(fc3, 1)

    def test_fc3_memory_bound_on_p100(self, topology):
        """On P100 numbers, batch-1 FC3 is bandwidth-limited."""
        fc3 = topology.layers[2]
        time_mem_only = roofline_time(fc3, 1, peak_flops=1e30,
                                      mem_bandwidth=732e9)
        actual = roofline_time(fc3, 1, peak_flops=9.3e12,
                               mem_bandwidth=732e9)
        assert actual == pytest.approx(time_mem_only)

    def test_unknown_stage_rejected(self, topology):
        with pytest.raises(ValueError):
            operational_intensity(topology.layers[0], 1, stage="xx")

    def test_accumulation_frequencies_vary_widely(self, topology):
        """Section 4.2.1: accumulation frequency spans orders of
        magnitude across layers/stages — the case for generic PEs."""
        rows = accumulation_frequency_table(topology, batch=5)
        values = [row["fw"] for row in rows] + [row["gc"] for row in rows]
        assert max(values) / min(values) > 100
        fc3 = [row for row in rows if row["layer"] == "FC3"][0]
        assert fc3["gc"] == 5   # GC accumulation = batch size for dense


class TestHarness:
    def test_all_experiments_registered(self):
        assert len(EXPERIMENTS) == 12
        for exp_id in ["table1", "table2", "table3", "table4", "fig8",
                       "fig9", "fig10", "fig11", "fig12", "s32", "s33",
                       "s34"]:
            assert exp_id in EXPERIMENTS

    def test_get_experiment(self):
        exp = get_experiment("fig8")
        assert "IPS" in exp.title or "Performance" in exp.title
        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_every_experiment_names_a_bench(self):
        root = pathlib.Path(__file__).resolve().parents[1]
        for exp in EXPERIMENTS.values():
            assert exp.bench.startswith("benchmarks/")
            assert (root / exp.bench).is_file(), exp.bench
            assert exp.modules
            for module in exp.modules:
                importlib.import_module(module)

    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len({len(line) for line in lines[1:]}) <= 2

    def test_format_table_empty(self):
        assert "(empty)" in format_table([])

    def test_format_series(self):
        text = format_series([1, 2], {"FA3C": [10.0, 20.0]})
        assert "FA3C" in text and "20" in text

    def test_format_curve(self):
        steps = np.arange(100)
        scores = np.linspace(0, 10, 100)
        text = format_curve(steps, scores, "breakout")
        assert "breakout" in text
        assert "max=" in text and "first=" in text

    def test_format_curve_empty(self):
        assert "no episodes" in format_curve(np.array([]), np.array([]),
                                             "x")
