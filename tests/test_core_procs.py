"""Tests for the shared-memory store and the multiprocessing backend."""

import multiprocessing
import os

import numpy as np
import pytest

from repro.core import A3CConfig, A3CTrainer, ParameterServer
from repro.core.shared_params import (
    SharedParameterServer,
    SharedParameterStore,
)
from repro.envs import Catch
from repro.nn.network import MLPPolicyNetwork

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="procs backend requires the fork start method")


def small_net():
    return MLPPolicyNetwork(num_actions=3, input_shape=(5, 5), hidden=16)


def template_params(seed=0):
    return small_net().init_params(np.random.default_rng(seed))


def make_store(params=None):
    ctx = multiprocessing.get_context("fork")
    return SharedParameterStore(ctx, params or template_params())


class TestSharedParameterStore:
    def test_publish_read_roundtrip(self):
        params = template_params()
        store = make_store(params)
        out = params.zeros_like()
        store.read_params_into(out)
        for name, value in params.items():
            np.testing.assert_array_equal(out[name], value)

    def test_view_set_aliases_shared_memory(self):
        store = make_store()
        views = store.view_set(store.theta_flat())
        name = views.names()[0]
        views[name].flat[0] = 123.0
        assert store.theta_flat()[store._offsets[0]] == 123.0

    def test_seqlock_version_brackets_writes(self):
        store = make_store()
        assert store._version.value % 2 == 0
        store.begin_write()
        assert store._version.value % 2 == 1
        store.end_write()
        assert store._version.value % 2 == 0

    def test_publish_statistics_and_step(self):
        params = template_params()
        stats = params.zeros_like()
        for name in stats:
            stats[name] += 0.5
        store = make_store(params)
        store.publish(params, statistics=stats, global_step=42)
        assert store.global_step == 42
        out = params.zeros_like()
        with store.lock:
            out.load_flat(store.g_flat().copy())
        for name in out:
            np.testing.assert_array_equal(out[name],
                                          np.full_like(out[name], 0.5))


class TestSharedParameterServer:
    def _pair(self):
        """A threaded server and a shared server seeded identically."""
        config = A3CConfig(num_agents=2, max_steps=1000,
                           learning_rate=1e-2, seed=0)
        params = template_params()
        threaded = ParameterServer(params.copy(), config)
        store = make_store(params)
        shared = SharedParameterServer(store, config)
        return threaded, shared

    def test_updates_match_threaded_server_bitwise(self):
        threaded, shared = self._pair()
        rng = np.random.default_rng(7)
        for _ in range(5):
            grads = threaded.params.zeros_like()
            for name in grads:
                grads[name] += rng.standard_normal(
                    grads[name].shape).astype(np.float32)
            threaded.apply_gradients(grads.copy())
            shared.apply_gradients(grads.copy())
            threaded.add_steps(10)
            shared.add_steps(10)
        assert shared.global_step == threaded.global_step
        for name, value in threaded.params.items():
            np.testing.assert_array_equal(shared.params[name], value)
        for name, value in threaded.rmsprop_statistics.items():
            np.testing.assert_array_equal(
                shared.rmsprop_statistics[name], value)

    def test_snapshot_into_reuses_destination(self):
        _, shared = self._pair()
        local = shared.snapshot()
        arrays_before = [id(local[name]) for name in local]
        shared.params[local.names()[0]].flat[0] = 9.0
        shared.snapshot_into(local)
        assert [id(local[name]) for name in local] == arrays_before
        assert local[local.names()[0]].flat[0] == 9.0

    def test_step_counter(self):
        _, shared = self._pair()
        assert shared.add_steps(5) == 5
        assert shared.add_steps(3) == 8
        assert shared.global_step == 8
        shared.set_global_step(100)
        assert shared.global_step == 100


class TestProcsBackend:
    def _trainer(self, max_steps=2000):
        config = A3CConfig(num_agents=4, t_max=5, max_steps=max_steps,
                           learning_rate=1e-2, anneal_steps=10 ** 9,
                           entropy_beta=0.02, seed=1)
        return A3CTrainer(lambda i: Catch(size=5), small_net, config)

    def test_procs_backend_completes_and_reports(self):
        trainer = self._trainer()
        result = trainer.train(actors="procs", workers=2)
        assert result.global_steps >= 2000
        assert result.routines > 0
        assert result.episodes > 0
        assert len(trainer.tracker) > 0
        assert trainer.server.global_step == result.global_steps
        assert trainer.server.updates_applied > 0
        for _, value in result.params.items():
            assert np.isfinite(value).all()

    def test_procs_learning_matches_threaded_sanity(self):
        result = self._trainer(max_steps=20_000).train(actors="procs",
                                                       workers=2)
        # Threaded Catch training reaches ~1.0 at this budget; the procs
        # backend must land in the same regime (not bit-identical — the
        # interleaving is asynchronous by design).
        assert result.tracker.recent_mean(300) > 0.5

    def test_workers_clamped_to_agent_count(self):
        trainer = self._trainer(max_steps=500)
        result = trainer.train(actors="procs", workers=64)
        assert result.global_steps >= 500

    def test_unknown_backend_rejected(self):
        trainer = self._trainer(max_steps=10)
        with pytest.raises(ValueError):
            trainer.train(actors="warp")

    @pytest.mark.skipif((os.cpu_count() or 1) < 4,
                        reason="scaling smoke needs >= 4 cores")
    def test_procs_scales_with_workers(self):
        # On multi-core hosts four workers must clearly beat one; on the
        # single-core CI container this is skipped (no parallel headroom).
        solo = self._trainer(max_steps=8000).train(actors="procs",
                                                   workers=1)
        quad = self._trainer(max_steps=8000).train(actors="procs",
                                                   workers=4)
        assert quad.steps_per_second >= 2.0 * solo.steps_per_second


class TestProcsObservability:
    def _trainer(self, max_steps=600):
        config = A3CConfig(num_agents=2, t_max=5, max_steps=max_steps,
                           learning_rate=1e-2, anneal_steps=10 ** 9,
                           entropy_beta=0.02, seed=1)
        return A3CTrainer(lambda i: Catch(size=5), small_net, config)

    def test_worker_metrics_reach_parent_registry(self):
        """Workers ship their final metrics snapshot through the results
        queue; the parent folds it in under a ``worker`` label."""
        from repro import obs

        with obs.enabled_scope():
            self._trainer().train(actors="procs", workers=2)
            updates = obs.metrics().counter("ps.updates")
            assert updates.total() > 0
            per_worker = [updates.value(worker=f"worker-{i}")
                          for i in range(2)]
            assert all(value > 0 for value in per_worker)
            assert sum(per_worker) == updates.total()

    def test_procs_run_writes_worker_shards(self, tmp_path):
        from repro import obs
        from repro.obs import runlog

        log = runlog.RunLog.open("train", root=str(tmp_path / "runs"))
        with obs.enabled_scope():
            self._trainer().train(actors="procs", workers=2, runlog=log)
        log.finish()
        merged = runlog.merge_run(log.path)
        workers = merged.worker_shards()
        assert {shard.worker for shard in workers} == {"worker-0",
                                                       "worker-1"}
        for shard in workers:
            assert shard.final is not None
            assert shard.stats()["routines"] > 0
            names = {row["name"] for row in shard.rows}
            assert "ps.updates" in names
            assert "ps.lock_wait_seconds" in names
