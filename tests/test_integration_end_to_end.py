"""End-to-end integration: the full paper pipeline at reduced scale.

Simulated Atari game -> DeepMind preprocessing -> Table 1 network ->
multi-agent A3C training, plus the throughput experiment consistency
checks that tie Figures 8-10 together.
"""

import numpy as np
import pytest

from repro.ale import make_game
from repro.core import A3CConfig, A3CTrainer
from repro.envs import make_atari_env
from repro.fpga.platform import FA3CPlatform
from repro.gpu.platform import A3CcuDNNPlatform
from repro.nn.network import A3CNetwork
from repro.platforms import measure_ips


class TestAtariPipeline:
    def test_short_pong_training_runs(self):
        """Two agents, a few hundred steps of real pixel A3C."""
        config = A3CConfig(num_agents=2, t_max=5, max_steps=200,
                           seed=0)

        def env_factory(agent_id):
            return make_atari_env(make_game("pong"),
                                  max_episode_steps=300)

        trainer = A3CTrainer(env_factory, lambda: A3CNetwork(6), config)
        result = trainer.train(actors="serial")
        assert result.global_steps >= 200
        assert result.routines >= 40
        # global parameters actually moved
        fresh = A3CNetwork(6).init_params(
            np.random.default_rng(config.seed))
        assert not result.params.allclose(fresh)

    def test_network_matches_game_action_space(self):
        game = make_game("breakout")
        env = make_atari_env(game)
        env.seed(0)
        net = A3CNetwork(num_actions=env.action_space.n)
        params = net.init_params(np.random.default_rng(0))
        obs = env.reset()
        logits, values = net.forward(obs[None].astype(np.float32), params)
        assert logits.shape == (1, env.action_space.n)

    def test_all_six_games_fit_the_fc4_head(self):
        """Every game's minimal action set (+1 value output) fits the
        32-wide padded FC4 of Table 1."""
        from repro.ale import GAME_NAMES
        for name in GAME_NAMES:
            game = make_game(name)
            assert game.action_space.n + 1 <= 32
            A3CNetwork(num_actions=game.action_space.n)


class TestFigureConsistency:
    @pytest.fixture(scope="class")
    def topology(self):
        return A3CNetwork(num_actions=6).topology()

    def test_fa3c_beats_cudnn_at_16_agents(self, topology):
        """The headline Figure 8 result: FA3C > 2,550 IPS at n = 16 and
        ~27.9 % over A3C-cuDNN."""
        fa3c = measure_ips(FA3CPlatform.fa3c(topology), 16,
                           routines_per_agent=25)
        cudnn = measure_ips(A3CcuDNNPlatform(topology), 16,
                            routines_per_agent=25)
        assert fa3c.ips > 2400
        assert fa3c.ips / cudnn.ips == pytest.approx(1.279, abs=0.12)

    def test_single_cu_crossover(self, topology):
        """Figure 10: SingleCU wins below ~4 agents, loses above."""
        fa3c_1 = measure_ips(FA3CPlatform.fa3c(topology), 1,
                             routines_per_agent=15)
        single_1 = measure_ips(FA3CPlatform.single_cu(topology), 1,
                               routines_per_agent=15)
        fa3c_16 = measure_ips(FA3CPlatform.fa3c(topology), 16,
                              routines_per_agent=15)
        single_16 = measure_ips(FA3CPlatform.single_cu(topology), 16,
                                routines_per_agent=15)
        assert single_1.ips > fa3c_1.ips
        assert single_16.ips < fa3c_16.ips

    def test_alt1_single_pair_degradation(self, topology):
        """Figure 10 is measured on one CU pair (Stratix V): Alt1 loses
        roughly a third of the performance at n = 16."""
        fa3c = measure_ips(FA3CPlatform.fa3c(topology, cu_pairs=1), 16,
                           routines_per_agent=15)
        alt1 = measure_ips(FA3CPlatform.alt1(topology, cu_pairs=1), 16,
                           routines_per_agent=15)
        assert alt1.ips / fa3c.ips == pytest.approx(0.67, abs=0.12)

    def test_alt2_slightly_slower(self, topology):
        fa3c = measure_ips(FA3CPlatform.fa3c(topology), 16,
                           routines_per_agent=15)
        alt2 = measure_ips(FA3CPlatform.alt2(topology), 16,
                           routines_per_agent=15)
        assert 0.90 < alt2.ips / fa3c.ips < 1.01
