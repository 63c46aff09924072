"""Stage-plan cache: keying and invalidation.

Cold- and warm-cache replays are pinned bit-for-bit by the golden
digests in ``tests/test_sim_golden.py``.
"""

import pytest

from repro.fpga.platform import FA3CPlatform
from repro.nn.network import A3CNetwork
from repro.perf.stageplan import CACHE, PlanCache, config_key
from repro.platforms import measure_ips


@pytest.fixture
def topology():
    return A3CNetwork(num_actions=6).topology()


@pytest.fixture
def other_topology():
    # The A3C-LSTM variant: a genuinely different layer stack (the CNN
    # topology is action-count independent — the head is padded).
    from repro.nn.network_lstm import lstm_a3c_network
    return lstm_a3c_network(6).topology()


class TestPlanCacheKeying:
    def test_repeat_lookup_hits_and_returns_same_plan(self, topology):
        cache = PlanCache()
        platform = FA3CPlatform.fa3c(topology)
        first = cache.task_plan(platform, "inference", 1)
        second = cache.task_plan(platform, "inference", 1)
        assert second is first
        assert cache.misses == 1 and cache.hits == 1

    def test_batch_change_misses(self, topology):
        cache = PlanCache()
        platform = FA3CPlatform.fa3c(topology)
        one = cache.task_plan(platform, "train", 5)
        other = cache.task_plan(platform, "train", 4)
        assert cache.misses == 2 and cache.hits == 0
        assert other is not one

    def test_double_buffering_change_misses(self, topology):
        cache = PlanCache()
        db = FA3CPlatform.fa3c(topology)
        nodb = FA3CPlatform.fa3c(topology, double_buffering=False)
        plan_db = cache.task_plan(db, "inference", 1)
        plan_nodb = cache.task_plan(nodb, "inference", 1)
        assert cache.misses == 2 and cache.hits == 0
        assert plan_db.stages[0].double_buffering
        assert not plan_nodb.stages[0].double_buffering

    def test_cu_count_change_misses(self, topology):
        cache = PlanCache()
        cache.task_plan(FA3CPlatform.fa3c(topology), "sync", 0)
        cache.task_plan(FA3CPlatform.fa3c(topology, cu_pairs=1),
                        "sync", 0)
        assert cache.misses == 2 and cache.hits == 0

    def test_topology_change_misses(self, topology, other_topology):
        cache = PlanCache()
        cache.task_plan(FA3CPlatform.fa3c(topology), "inference", 1)
        cache.task_plan(FA3CPlatform.fa3c(other_topology),
                        "inference", 1)
        assert cache.misses == 2 and cache.hits == 0

    def test_in_place_config_mutation_misses(self, topology):
        """The key is recomputed per lookup, so live mutation is safe."""
        cache = PlanCache()
        platform = FA3CPlatform.fa3c(topology)
        cache.task_plan(platform, "inference", 1)
        platform.config.double_buffering = False
        cache.task_plan(platform, "inference", 1)
        assert cache.misses == 2 and cache.hits == 0

    def test_config_key_covers_distinct_configs(self, topology):
        keys = {
            config_key(FA3CPlatform.fa3c(topology).config),
            config_key(FA3CPlatform.fa3c(topology,
                                         double_buffering=False).config),
            config_key(FA3CPlatform.fa3c(topology, cu_pairs=1).config),
            config_key(FA3CPlatform.alt2(topology).config),
            config_key(FA3CPlatform.single_cu(topology).config),
        }
        assert len(keys) == 5

    def test_global_cache_is_warm_after_use(self, topology):
        platform = FA3CPlatform.fa3c(topology)
        before = CACHE.hits
        measure_ips(platform, 2, routines_per_agent=2)
        measure_ips(platform, 2, routines_per_agent=2)
        assert CACHE.hits > before

