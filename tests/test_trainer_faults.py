"""Fault injection: a worker that fails fails the run, in every actor mode.

Agent 1's third routine faults.  A routine that raises must surface as
:class:`repro.core.WorkerFailed` naming the agent (serial, threads) or
the worker process (procs), and a worker process SIGKILLed while it
holds the writer lock with the seqlock version odd must fail the run
within a bound instead of leaving the surviving worker waiting forever.
No worker thread or process may outlive the failed run.
"""

import multiprocessing
import os
import signal
import threading

import pytest

from repro.core import A3CConfig, A3CTrainer, WorkerFailed
from repro.envs import Catch
from repro.nn.network import MLPPolicyNetwork

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="procs backend requires the fork start method")


def catch_trainer():
    # A budget far past agent 1's third routine, so that no worker can
    # finish the run before the fault.
    config = A3CConfig(num_agents=4, t_max=5, max_steps=20_000,
                       learning_rate=1e-2, anneal_steps=10 ** 9,
                       entropy_beta=0.02, seed=1)
    return A3CTrainer(
        lambda agent_id: Catch(size=5),
        lambda: MLPPolicyNetwork(num_actions=3, input_shape=(5, 5),
                                 hidden=16),
        config)


def fault_on_third_routine(agent, fault):
    """Run ``fault(agent)`` at the start of ``agent``'s third routine."""
    run_routine = agent.run_routine
    calls = []

    def routine(lat=None):
        calls.append(lat)
        if len(calls) == 3:
            fault(agent)
        return run_routine(lat=lat)
    agent.run_routine = routine


def raise_runtime_error(agent):
    raise RuntimeError(f"injected fault in agent {agent.agent_id}")


def die_mid_write(agent):
    """SIGKILL this worker process while it holds the writer lock with
    the seqlock version odd."""
    store = agent.server.store
    store.lock.acquire()
    store.begin_write()
    os.kill(os.getpid(), signal.SIGKILL)


def assert_no_workers_alive():
    threads = [thread.name for thread in threading.enumerate()
               if thread.name.startswith("a3c-agent-")]
    procs = [proc.name for proc in multiprocessing.active_children()
             if proc.name.startswith("a3c-worker-")]
    assert threads == [] and procs == []


@pytest.mark.parametrize("actors", ["serial", "threads"])
def test_raising_routine_fails_the_run_naming_the_agent(actors):
    trainer = catch_trainer()
    fault_on_third_routine(trainer.agents[1], raise_runtime_error)
    with pytest.raises(WorkerFailed) as caught:
        trainer.train(actors=actors)
    assert caught.value.worker == "agent-1"
    assert str(caught.value).startswith("agent-1 failed: RuntimeError")
    assert isinstance(caught.value.__cause__, RuntimeError)
    assert_no_workers_alive()


@needs_fork
def test_raising_routine_fails_the_run_naming_the_worker():
    trainer = catch_trainer()
    fault_on_third_routine(trainer.agents[1], raise_runtime_error)
    with pytest.raises(WorkerFailed) as caught:
        trainer.train(actors="procs", workers=2)
    assert caught.value.worker == "worker-1"
    assert str(caught.value).startswith("worker-1 failed")
    assert "RuntimeError: injected fault in agent 1" in str(caught.value)
    assert_no_workers_alive()


@needs_fork
def test_worker_killed_mid_write_fails_the_run_within_a_bound():
    trainer = catch_trainer()
    fault_on_third_routine(trainer.agents[1], die_mid_write)
    outcome = []

    def run():
        try:
            trainer.train(actors="procs", workers=2)
        except Exception as error:          # handed to the test thread
            outcome.append(error)
        else:
            outcome.append(None)
    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "train() still running 60 s on"
    [error] = outcome
    assert isinstance(error, WorkerFailed)
    assert error.worker == "worker-1"
    assert "exited with code -9" in str(error)
    assert_no_workers_alive()
