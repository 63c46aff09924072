"""Tests for the GPU/CPU cost models and the layout experiment."""

import pytest

from repro.gpu import (
    A3CTFCPUPlatform,
    A3CTFGPUPlatform,
    A3CcuDNNPlatform,
    CuDNNModel,
    GA3CTFPlatform,
    GPUCalibration,
    GPULayoutExperiment,
    KernelCall,
    KernelCostModel,
    P100,
    XEON_E5_2630_PAIR,
)
from repro.nn.network import A3CNetwork


@pytest.fixture(scope="module")
def topology():
    return A3CNetwork(num_actions=6).topology()


class TestKernelCostModel:
    def test_utilisation_grows_with_outputs(self):
        model = KernelCostModel(P100)
        assert model.utilisation(100) < model.utilisation(10_000)
        assert model.utilisation(10 ** 9) == 1.0

    def test_utilisation_floor(self):
        model = KernelCostModel(P100)
        assert model.utilisation(1) >= model.cal.min_utilisation

    def test_kernel_time_includes_launch(self):
        model = KernelCostModel(P100)
        call = KernelCall("k", flops=1e6, bytes=1e5, outputs=1000)
        with_launch = model.kernel_seconds(call)
        without = model.kernel_seconds(call, include_launch=False)
        assert with_launch - without == pytest.approx(
            model.cal.launch_overhead)

    def test_memory_bound_kernel(self):
        model = KernelCostModel(P100)
        call = KernelCall("k", flops=1.0, bytes=1e9, outputs=10 ** 7)
        expected = 1e9 / (P100.mem_bandwidth * model.cal.memory_efficiency)
        assert model.compute_seconds(call) == pytest.approx(expected)

    def test_pcie_seconds(self):
        model = KernelCostModel(P100)
        assert model.pcie_seconds(0) == pytest.approx(
            model.cal.pcie_latency)

    def test_batching_amortises_time_per_sample(self, topology):
        """Section 3.2: larger batches raise efficiency — which A3C
        cannot exploit."""
        cudnn = CuDNNModel(topology)
        model = KernelCostModel(P100)
        t1 = model.sequence_seconds(cudnn.inference_kernels(1))
        t32 = model.sequence_seconds(cudnn.inference_kernels(32))
        assert t32 / 32 < t1 / 4


class TestCuDNNModel:
    def test_inference_kernel_count(self, topology):
        """Per layer: conv/GEMM + bias/activation kernels."""
        cudnn = CuDNNModel(topology)
        assert len(cudnn.inference_kernels()) == 8

    def test_backward_skips_first_layer(self, topology):
        cudnn = CuDNNModel(topology)
        names = [c.name for c in cudnn.backward_kernels(5)]
        assert "bw:Conv1" not in names
        assert "bw:FC3" in names

    def test_training_includes_update(self, topology):
        names = [c.name for c in CuDNNModel(topology).training_kernels(5)]
        assert "rmsprop:g" in names and "rmsprop:theta" in names

    def test_input_bytes_matches_paper_110kb(self, topology):
        cudnn = CuDNNModel(topology)
        assert cudnn.input_bytes(1) == pytest.approx(110.25 * 1024,
                                                     rel=0.001)


class TestPlatformLatencies:
    def test_launch_fraction_exceeds_38_percent(self, topology):
        """The Section 3.4 measurement: launch overhead > 38 % of GPU
        kernel execution time in A3C."""
        assert A3CcuDNNPlatform(topology).launch_fraction() > 0.38

    def test_tf_platform_slower_than_cudnn(self, topology):
        cudnn = A3CcuDNNPlatform(topology)
        tf = A3CTFGPUPlatform(topology)
        assert tf.inference_seconds() > cudnn.inference_seconds()
        assert tf.training_seconds(5) > cudnn.training_seconds(5)

    def test_cpu_platform_slowest_per_routine(self, topology):
        """Over a full routine (6 inferences + training) the CPU
        platform is the slowest — training compute dominates."""
        def routine(platform):
            return 6 * platform.inference_seconds() \
                + platform.training_seconds(5) + platform.sync_seconds()
        assert routine(A3CTFCPUPlatform(topology)) > \
            routine(A3CTFGPUPlatform(topology))

    def test_cudnn_inference_latency_plausible(self, topology):
        """Batch-1 inference of the Table 1 net on a P100 sits in the
        hundreds of microseconds."""
        latency = A3CcuDNNPlatform(topology).inference_seconds()
        assert 100e-6 < latency < 600e-6

    def test_host_spec(self):
        assert XEON_E5_2630_PAIR.total_cores == 20
        assert XEON_E5_2630_PAIR.peak_flops > 1e12


class TestGA3CPlatform:
    def test_flags(self, topology):
        platform = GA3CTFPlatform(topology)
        assert platform.needs_sync is False
        assert platform.needs_bootstrap is False

    def test_batched_inference_cheaper_per_sample(self, topology):
        platform = GA3CTFPlatform(topology)
        single = platform.inference_seconds(1)
        batched = platform.inference_seconds(32) / 32
        assert batched < single / 4

    @pytest.mark.parametrize("argument, value", [
        ("max_prediction_batch", 0), ("max_prediction_batch", -3),
        ("training_batch_rollouts", 0)])
    def test_rejects_batch_sizes_below_one(self, topology, argument,
                                           value):
        with pytest.raises(ValueError, match=argument):
            GA3CTFPlatform(topology, **{argument: value})


class TestLayoutExperiment:
    def test_bw_layout_slows_inference_41_7_percent(self, topology):
        """The Figure 11 anchor: inference on the FC layers is 41.7 %
        slower under the mismatched BW layout."""
        experiment = GPULayoutExperiment(topology)
        slowdown = experiment.inference_slowdown_with_bw_layout()
        assert slowdown == pytest.approx(0.417, abs=0.12)

    def test_three_policies_reported(self, topology):
        results = GPULayoutExperiment(topology).run()
        assert len(results) == 3
        assert results[2].transform_seconds > 0
        assert results[0].transform_seconds == 0

    def test_matched_layouts_have_fastest_compute(self, topology):
        fw_both, bw_both, matched = GPULayoutExperiment(topology).run()
        matched_compute = matched.inference_seconds \
            + matched.training_seconds
        assert matched_compute < fw_both.inference_seconds \
            + fw_both.training_seconds
        assert matched_compute < bw_both.inference_seconds \
            + bw_both.training_seconds

    def test_transform_kernel_offsets_gain(self, topology):
        """The paper: the extra transformation kernel 'may offset the
        obtained performance gain' — totals end up comparable."""
        fw_both, _, matched = GPULayoutExperiment(topology).run()
        assert matched.total_seconds > 0.75 * fw_both.total_seconds

    def test_opencl_within_12_percent_of_cudnn(self, topology):
        assert GPUCalibration().opencl_slowdown <= 1.12
