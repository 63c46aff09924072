"""The zero-overhead audit: with telemetry off, hot loops allocate nothing
in :mod:`repro.obs`.

Each loop gates its telemetry on :func:`repro.obs.runtime.enabled` once,
outside its inner work: the simulator binds its tasks to bare replay
bodies, and the three trainers thread ``lat=None`` through their
routines.  The audit runs each loop under tracemalloc and requires zero
bytes attributed to ``repro/obs`` code.  The simulator is warmed first,
as its plan caches are built on first use; a trainer's first update is
audited as it is, so a metric cell created on first use counts.  The
audit also snapshots inside every gradient apply, while the routine's
frames are live, so a telemetry object built for one routine and then
dropped counts too, not only what a run leaves behind.
"""

import os
import tracemalloc

import pytest

from repro import obs
from repro.core import A3CConfig, A3CTrainer, GA3CTrainer, PAACTrainer
from repro.envs import Catch
from repro.fpga.platform import FA3CPlatform
from repro.nn.network import A3CNetwork, MLPPolicyNetwork
from repro.platforms import ThroughputSetup

OBS_CODE = tracemalloc.Filter(True, os.path.join("*", "repro", "obs", "*"))


def _sim_measure():
    setup = ThroughputSetup(
        FA3CPlatform.fa3c(A3CNetwork(num_actions=6).topology()))
    setup.measure(8, routines_per_agent=10)      # warm the plan caches
    return None, lambda: setup.measure(8, routines_per_agent=10)


def _one_update(trainer, steps=1, **train_kwargs):
    """Train until the trainer's first gradient apply is done."""
    def run():
        trainer.train(max_steps=trainer.server.global_step + steps,
                      **train_kwargs)
    return trainer.server, run


def _catch_mlp(trainer_class, agents, **kwargs):
    return trainer_class(lambda agent_id: Catch(),
                         lambda: MLPPolicyNetwork(3, (7, 7), hidden=8),
                         A3CConfig(num_agents=agents, t_max=5, seed=0),
                         **kwargs)


LOOPS = {
    "fa3c-sim-measure": _sim_measure,
    "a3c-serial-routine": lambda: _one_update(
        _catch_mlp(A3CTrainer, 1), actors="serial"),
    "paac-round": lambda: _one_update(_catch_mlp(PAACTrainer, 2)),
    # Two agents' 5-step rollouts fill one training batch.
    "ga3c-training-batch": lambda: _one_update(
        _catch_mlp(GA3CTrainer, 2, training_batch_rollouts=2), steps=10),
}


@pytest.mark.parametrize("loop", sorted(LOOPS))
def test_disabled_obs_path_allocates_nothing(loop, monkeypatch):
    """With telemetry off, the loop never allocates in repro.obs."""
    assert not obs.enabled()
    server, run = LOOPS[loop]()
    snapshots = []
    if server is not None:
        apply_gradients = server.apply_gradients

        def snapshot_then_apply(grads):
            snapshots.append(tracemalloc.take_snapshot())
            return apply_gradients(grads)
        monkeypatch.setattr(server, "apply_gradients", snapshot_then_apply)
    tracemalloc.start(1)
    try:
        tracemalloc.clear_traces()
        run()
        snapshots.append(tracemalloc.take_snapshot())
    finally:
        tracemalloc.stop()
    assert len(snapshots) == (1 if server is None else 2)
    stats = [stat for snapshot in snapshots
             for stat in snapshot.filter_traces([OBS_CODE])
             .statistics("filename")]
    assert sum(stat.size for stat in stats) == 0, [str(s) for s in stats]
