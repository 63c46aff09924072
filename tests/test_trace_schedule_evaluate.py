"""Tests for the execution tracer, BCU schedules, and policy evaluation."""

import numpy as np
import pytest

from repro.core import A3CConfig, A3CTrainer, evaluate_policy, \
    evaluate_recurrent_policy
from repro.envs import Catch, MemoryCue
from repro.fpga.platform import FA3CPlatform
from repro.fpga.schedule import (
    bw_schedule,
    fw_schedule,
    gc_schedule,
    stage_schedules,
)
from repro.nn import mlp_lstm_network
from repro.nn.network import A3CNetwork, MLPPolicyNetwork
from repro.platforms.metrics import IPSMeter
from repro.platforms.throughput import HostModel
from repro.sim import Engine, Tracer


class TestTracer:
    def _traced(self):
        tracer = Tracer()
        tracer.record("cu0", "FW:Conv1", 0.0, 1.0)
        tracer.record("cu0", "FW:Conv2", 1.0, 1.5)
        tracer.record("cu1", "GC:FC3", 0.5, 2.0)
        return tracer

    def test_lane_order_and_busy(self):
        tracer = self._traced()
        assert tracer.lanes() == ["cu0", "cu1"]
        assert tracer.lane_busy("cu0") == pytest.approx(1.5)
        assert tracer.lane_busy("cu1") == pytest.approx(1.5)

    def test_window(self):
        assert self._traced().window() == (0.0, 2.0)

    def test_invalid_span_rejected(self):
        with pytest.raises(ValueError):
            Tracer().record("x", "bad", 2.0, 1.0)

    def test_gantt_renders_lanes(self):
        text = self._traced().gantt(width=20)
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("cu0")
        assert "F" in lines[1]
        assert "G" in lines[2]

    def test_gantt_empty(self):
        assert Tracer().gantt() == "(empty trace)"

    def test_summary_utilisation(self):
        rows = {row["lane"]: row for row in self._traced().summary()}
        assert rows["cu0"]["utilisation"] == pytest.approx(0.75)
        assert rows["cu1"]["spans"] == 1

    def test_fpga_sim_produces_dual_cu_trace(self):
        """The Section 4.2.2 story, visible: both CUs of a pair carry
        load concurrently."""
        topology = A3CNetwork(6).topology()
        platform = FA3CPlatform.fa3c(topology, cu_pairs=1)
        engine = Engine()
        tracer = Tracer()
        sim = platform.build_sim(engine, tracer=tracer)
        meter = IPSMeter(5)
        chains = [sim.agent_chain(i, 5, 4, HostModel(), meter, True, True)
                  for i in range(4)]
        engine.run(engine.all_of(chains))
        summary = {row["lane"]: row for row in tracer.summary()}
        assert summary["icu0"]["utilisation"] > 0.5
        assert summary["tcu0"]["utilisation"] > 0.3
        # Inference stages only on the inference CU, training stages
        # only on the training CU.
        for span in tracer.spans:
            if span.lane == "icu0":
                assert span.label.startswith("FW")
            else:
                assert not span.label.startswith("FW")


class TestStageSchedules:
    @pytest.fixture(scope="class")
    def conv1(self):
        return A3CNetwork(6).topology().layers[0]

    @pytest.fixture(scope="class")
    def fc3(self):
        return A3CNetwork(6).topology().layers[2]

    def test_fw_stitching_only_for_wide_rows(self, conv1, fc3):
        assert fw_schedule(conv1).stitch_ops > 0     # 84 > 16 words
        assert fw_schedule(fc3).stitch_ops == 0      # dense: 1-wide rows

    def test_fw_shift_count_conv1(self, conv1):
        """Each loaded line shifts (out_width - 1) x stride times."""
        schedule = fw_schedule(conv1)
        assert schedule.line_loads == 20 * 8 * 4
        assert schedule.shift_ops == schedule.line_loads * 19 * 4

    def test_gc_loads_k_plus_mgc_lines(self, conv1):
        schedule = gc_schedule(conv1, batch=5, n_pe=64)
        # per output row per channel per sample: K + floor(64/K^2) lines
        assert schedule.line_loads == 5 * 20 * 4 * (8 + 1)

    def test_bw_scatter_covers_input_gradients(self, conv1):
        schedule = bw_schedule(conv1, batch=5, n_pe=64)
        assert schedule.scatter_ops == -(-5 * conv1.num_inputs // 64)

    def test_three_stages_per_layer(self, conv1):
        schedules = stage_schedules(conv1, batch=5)
        assert [s.stage for s in schedules] == ["FW", "GC", "BW"]
        assert all(s.total_bcu_ops > 0 for s in schedules)

    def test_dense_layers_shift_free_fw(self, fc3):
        """Dense FW has a width-1 'feature map': nothing to shift."""
        assert fw_schedule(fc3).shift_ops == 0


class TestEvaluatePolicy:
    def _trained_catch(self):
        config = A3CConfig(num_agents=4, t_max=5, max_steps=50_000,
                           learning_rate=1e-2, anneal_steps=10 ** 9,
                           entropy_beta=0.02, seed=1)
        trainer = A3CTrainer(
            lambda i: Catch(size=5),
            lambda: MLPPolicyNetwork(3, (5, 5), hidden=32), config)
        result = trainer.train(threads=False)
        return trainer.agents[0].network, result.params

    def test_trained_policy_beats_untrained(self):
        network, trained = self._trained_catch()
        untrained = MLPPolicyNetwork(3, (5, 5), hidden=32).init_params(
            np.random.default_rng(99))
        env = Catch(size=5)
        good = evaluate_policy(env, network, trained, episodes=40,
                               seed=3)
        bad = evaluate_policy(env, network, untrained, episodes=40,
                              seed=3)
        assert good.mean > bad.mean + 0.5
        assert good.mean > 0.6

    def test_greedy_vs_sampled(self):
        network, trained = self._trained_catch()
        env = Catch(size=5)
        greedy = evaluate_policy(env, network, trained, episodes=30,
                                 sample=False, seed=4)
        assert greedy.mean >= 0.6

    def test_epsilon_floor_randomises(self):
        network, trained = self._trained_catch()
        env = Catch(size=5)
        random_play = evaluate_policy(env, network, trained,
                                      episodes=40, epsilon=1.0, seed=5)
        assert random_play.mean < 0.5

    def test_result_statistics(self):
        from repro.core.evaluate import EvaluationResult
        result = EvaluationResult(scores=[1.0, -1.0, 1.0], steps=18)
        assert result.mean == pytest.approx(1.0 / 3.0)
        assert result.best == 1.0
        assert np.isnan(EvaluationResult(scores=[], steps=0).mean)

    def test_recurrent_evaluation(self):
        config = A3CConfig(num_agents=4, t_max=5, max_steps=40_000,
                           learning_rate=1e-2, anneal_steps=10 ** 9,
                           entropy_beta=0.02, seed=1)
        from repro.core import RecurrentA3CAgent
        trainer = A3CTrainer(
            lambda i: MemoryCue(delay=3),
            lambda: mlp_lstm_network(2, (3,), hidden=16,
                                     lstm_hidden=16),
            config, agent_class=RecurrentA3CAgent)
        result = trainer.train(threads=False)
        network = trainer.agents[0].network
        evaluation = evaluate_recurrent_policy(
            MemoryCue(delay=3), network, result.params, episodes=50,
            sample=False, seed=2)
        assert evaluation.mean > 0.8
