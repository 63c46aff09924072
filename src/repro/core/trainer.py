"""The multi-agent asynchronous A3C trainer.

``A3CTrainer`` drives ``num_agents`` agents against a shared
:class:`~repro.core.parameter_server.ParameterServer`.  One routine
driver steps agents round-robin (paper Figures 3/4: sync, infer, train);
the actor mode decides who runs it:

* ``actors="threads"`` (default) — one host thread per agent, the paper's
  host-side structure.  NumPy releases the GIL inside large kernels, so
  updates genuinely interleave (Hogwild-style, serialised only at the
  parameter server as in FA3C's RMSProp module).
* ``actors="serial"`` — every agent on the calling thread.  Deterministic
  given the seed; used by the test-suite, perfbench and shorter benches.
* ``actors="procs"`` — agents partitioned over forked worker processes,
  sidestepping the GIL.  Global θ and the RMSProp statistics live in
  shared memory behind a seqlock (:mod:`repro.core.shared_params`), so
  parameter sync stays lock-free while gradient application serialises
  on a writer lock, as in the threaded backend.

A worker that fails stops the others and fails the run (:class:`WorkerFailed`).
"""

from __future__ import annotations

import dataclasses
import queue as queue_module
import threading
import time
import typing

import numpy as np

from repro.core.agent import A3CAgent
from repro.core.config import A3CConfig
from repro.core.execution import derive_agent_seed, resolve_backend
from repro.core.scores import ScoreTracker
from repro.core.parameter_server import ParameterServer
from repro.envs.base import Env
from repro.nn.network import A3CNetwork
from repro.nn.parameters import ParameterSet
from repro.obs import lat as _lat
from repro.obs import runtime as _obs
from repro.perf.hotpath import hot_path


class WorkerFailed(RuntimeError):
    """A training worker failed, so the run stopped.  ``worker`` is
    ``agent-<i>`` (serial or thread; the routine's exception is the
    ``__cause__``) or ``worker-<i>`` (a process; the message carries its
    traceback, or its exit code if it exited without reporting)."""

    def __init__(self, worker: str, detail: str):
        super().__init__(worker, detail)      # picklable: processes send it
        self.worker = worker

    def __str__(self) -> str:
        return f"{self.worker} failed: {self.args[1]}"


@dataclasses.dataclass
class TrainResult:
    """Outcome of a training run."""

    global_steps: int
    routines: int
    episodes: int
    wall_seconds: float
    tracker: ScoreTracker
    params: ParameterSet

    @property
    def steps_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return float("nan")
        return self.global_steps / self.wall_seconds


class A3CTrainer:
    """Owns the agents, the parameter server, and the training loop."""

    def __init__(self, env_factory: typing.Callable[[int], Env],
                 network_factory: typing.Callable[[], A3CNetwork],
                 config: A3CConfig,
                 tracker: typing.Optional[ScoreTracker] = None,
                 agent_class: type = A3CAgent,
                 platform=None):
        """``env_factory(agent_id)`` must build an independent environment
        per agent; ``network_factory()`` an A3C network (topologies must
        match across agents).  ``agent_class`` selects the worker type —
        pass :class:`~repro.core.recurrent_agent.RecurrentA3CAgent` with a
        recurrent network factory for the A3C-LSTM variant.

        ``platform`` is the compute backend the run is modelled against:
        a :mod:`repro.backends` registry name (``"fa3c-fpga"``,
        ``"a3c-cudnn"``, ...), a backend instance, or ``None`` for the
        default.  Resolution is lazy — see :attr:`backend`."""
        self.config = config
        self.env_factory = env_factory
        self.network_factory = network_factory
        self.agent_class = agent_class
        self.tracker = tracker or ScoreTracker()
        self._platform = platform
        self._lat_platform = platform if isinstance(platform, str) else None
        self._backend = None
        rng = np.random.default_rng(config.seed)
        template = network_factory()
        self.server = ParameterServer(template.init_params(rng), config)
        self.agents: typing.List[A3CAgent] = []
        for agent_id in range(config.num_agents):
            env = env_factory(agent_id)
            env.seed(derive_agent_seed(config.seed, agent_id))
            network = network_factory()
            self.agents.append(agent_class(agent_id, env, network,
                                           self.server, config))
        self._routines = 0

    @property
    def backend(self):
        """The injected compute :class:`~repro.backends.protocol.Backend`
        (resolved on first access, so numeric-only runs never build a
        platform model)."""
        if self._backend is None:
            self._backend = resolve_backend(self._platform)
        return self._backend

    def save_checkpoint(self, path: str, **metadata: object) -> None:
        """Write global theta, shared RMSProp statistics, and the step
        counter to a resumable archive; keyword ``metadata`` (JSON
        values, e.g. ``game=``) is stored beside the config."""
        from repro.nn.checkpoint import save_checkpoint
        save_checkpoint(path, self.server.snapshot(),
                        optimizer=self.server.optimizer,
                        metadata={
                            "global_step": self.server.global_step,
                            "config": dataclasses.asdict(self.config),
                            **metadata,
                        })

    def restore_checkpoint(self, path: str) -> dict:
        """Resume from :meth:`save_checkpoint`: restores theta, the
        optimizer statistics, the step counter (and hence the annealed
        learning rate), and re-syncs every agent's local parameters.
        Returns the checkpoint metadata.  A θ or statistics tensor that
        does not match the model raises ``ValueError`` naming the
        checkpoint and the tensor, before anything is restored."""
        from repro.nn.checkpoint import check_same_tensors, \
            load_checkpoint, restore_optimizer
        params, statistics, metadata = load_checkpoint(path)
        try:
            check_same_tensors(params, self.server.params, "θ")
            if statistics is not None:
                restore_optimizer(self.server.optimizer, statistics)
        except ValueError as error:
            raise ValueError(f"{path}: {error}") from None
        self.server.params.copy_from(params)
        self.server.set_global_step(metadata.get("global_step", 0))
        for agent in self.agents:
            self.server.snapshot_into(agent.local_params)
        return metadata

    @hot_path
    def _drive(self, agents, server, record_score, stop=None,
               on_round=None) -> int:
        """The routine driver of every actor mode: ``agents`` take turns,
        one routine each, against ``server`` until its global step reaches
        ``max_steps`` or the ``stop`` event is set.  Scores go to
        ``record_score(global_step, score)``; ``on_round()`` runs after
        each round.  Returns the routine count.  A routine that
        raises becomes a :class:`WorkerFailed` naming its agent."""
        max_steps = self.config.max_steps
        routines = 0
        while server.global_step < max_steps and \
                not (stop is not None and stop.is_set()):
            for agent in agents:
                if server.global_step >= max_steps:
                    break
                lat = (_lat.RoutineLatency(
                           "a3c", platform=self._lat_platform,
                           lane=f"agent-{agent.agent_id}")
                       if _obs.enabled() else None)
                try:
                    stats = agent.run_routine(lat=lat)
                except Exception as error:
                    raise WorkerFailed(
                        f"agent-{agent.agent_id}",
                        f"{type(error).__name__}: {error}") from error
                if lat is not None:
                    lat.finish(stats.steps)
                routines += 1
                for score in stats.episode_scores:
                    record_score(server.global_step, score)
            if on_round is not None:
                on_round()
        return routines

    def train(self, max_steps: typing.Optional[int] = None,
              actors: str = "threads",
              workers: typing.Optional[int] = None,
              progress: typing.Optional[
                  typing.Callable[[int, ScoreTracker], None]] = None,
              progress_interval: int = 10_000) -> TrainResult:
        """Run until ``max_steps`` global inference steps.

        ``actors`` is ``"threads"`` (one host thread per agent),
        ``"procs"`` (agents partitioned over ``workers`` forked processes,
        default ``num_agents``) or ``"serial"`` (deterministic round-robin
        on the calling thread).  ``progress(global_step, tracker)`` runs
        about every ``progress_interval`` steps, at a deterministic cadence
        only in serial mode.  A failed worker raises :class:`WorkerFailed`
        once the others are stopped.
        """
        if actors not in ("threads", "procs", "serial"):
            raise ValueError(f"unknown actor backend {actors!r}; "
                             f"expected 'threads', 'procs', or 'serial'")
        if max_steps is not None:
            self.config.max_steps = max_steps
        next_report = progress_interval

        def report(global_step: int) -> None:
            nonlocal next_report
            if progress and global_step >= next_report:
                progress(global_step, self.tracker)
                next_report += progress_interval

        # perf_counter: monotonic, so rates survive NTP clock steps.
        start = time.perf_counter()
        if actors == "serial":
            self._routines += self._drive(
                self.agents, self.server, self.tracker.record,
                on_round=lambda: report(self.server.global_step))
        elif actors == "threads":
            self._train_threads(report)
        else:
            self._train_procs(workers, report)
        elapsed = time.perf_counter() - start
        episodes = sum(agent.episodes_finished for agent in self.agents)
        return TrainResult(global_steps=self.server.global_step,
                           routines=self._routines, episodes=episodes,
                           wall_seconds=elapsed, tracker=self.tracker,
                           params=self.server.snapshot())

    @staticmethod
    def _gather(workers, results, global_step, report, halt) -> list:
        """Start ``workers``; return the record each puts on ``results``,
        in worker order, calling ``report(global_step())`` while waiting
        (records are drained before any join: a process blocked writing to
        the queue never exits).  On an ``error`` record, or a worker gone
        without one, ``halt()`` the rest and raise :class:`WorkerFailed`
        naming that worker."""
        for worker in workers:
            worker.start()
        records = [None] * len(workers)
        try:
            while None in records:
                report(global_step())
                try:
                    record = results.get(timeout=0.05)
                except queue_module.Empty:
                    gone = [worker for worker, done in zip(workers, records)
                            if done is None and not worker.is_alive()]
                    # A worker's record is in the queue before it exits.
                    if gone and results.empty():
                        code = getattr(gone[0], "exitcode", None)  # procs
                        raise WorkerFailed(
                            gone[0].name.removeprefix("a3c-"),
                            f"exited with code {code} before reporting")
                    continue
                if "error" in record:
                    raise record["error"]
                records[record["worker"]] = record
        except BaseException:
            halt()
            raise
        finally:
            for worker in workers:
                worker.join()
        return records

    def _train_threads(self, report) -> None:
        """One host thread per agent, each driving it against the server."""
        stop = threading.Event()
        results: queue_module.Queue = queue_module.Queue()

        def work(agent: A3CAgent) -> None:
            try:
                record = {"routines": self._drive(
                    [agent], self.server, self.tracker.record, stop)}
            except WorkerFailed as error:
                record = {"error": error}
            results.put(dict(record, worker=agent.agent_id))

        threads = [threading.Thread(target=work, args=(agent,),
                                    name=f"a3c-agent-{agent.agent_id}",
                                    daemon=True)
                   for agent in self.agents]
        records = self._gather(threads, results,
                               lambda: self.server.global_step, report,
                               halt=stop.set)
        self._routines += sum(record["routines"] for record in records)

    def _train_procs(self, workers, report) -> None:
        """Partition the agents over forked worker processes, which drive
        them against θ and the RMSProp statistics in a shared-memory
        :class:`~repro.core.shared_params.SharedParameterStore`.  The final
        θ/g/step state is read back into ``self.server``, so checkpointing
        and :class:`TrainResult` behave as in the threaded backend."""
        import multiprocessing

        from repro.core.shared_params import SharedParameterStore

        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "the 'procs' backend needs the fork start method (workers "
                "inherit env/network factories without pickling); use "
                "actors='threads' on this platform")
        ctx = multiprocessing.get_context("fork")
        num_workers = workers or self.config.num_agents
        num_workers = max(1, min(num_workers, self.config.num_agents))
        store = SharedParameterStore(ctx, self.server.params)
        statistics = self.server.rmsprop_statistics
        store.publish(self.server.params, statistics=statistics,
                      global_step=self.server.global_step)
        results: "multiprocessing.Queue" = ctx.Queue()
        procs = [ctx.Process(target=self._proc_worker,
                             args=(worker_id, num_workers, store,
                                   results),
                             name=f"a3c-worker-{worker_id}", daemon=True)
                 for worker_id in range(num_workers)]

        def halt() -> None:
            # No stop flag: a survivor may be stuck behind a dead writer.
            for proc in procs:
                proc.terminate()

        records = self._gather(procs, results, lambda: store.global_step,
                               report, halt)
        for record in records:
            self._routines += record["routines"]
            for agent_id, episodes in record["episodes"].items():
                self.agents[agent_id].episodes_finished = episodes
            for step, score in record["scores"]:
                self.tracker.record(step, score)
            # The worker's final metric and span snapshots, so ps.* /
            # lat.* counters survive the process boundary under a worker
            # label and its agents' routine spans under its OS pid.
            if _obs.enabled() and record["metrics"] is not None:
                _obs.metrics().absorb_rows(
                    record["metrics"], worker=f"worker-{record['worker']}")
                _obs.tracer().absorb_rows(
                    record["spans"], pid=procs[record["worker"]].pid)
        # Fold the shared state back into the in-process server.
        store.read_params_into(self.server.params)
        if statistics is not None:
            store.read_statistics_into(statistics)
        self.server.set_global_step(store.global_step)
        self.server.updates_applied += store.updates_applied

    def _proc_worker(self, worker_id: int, num_workers: int,
                     store, results) -> None:
        """Worker-process body: drive this worker's share of the agents.

        Runs in a forked child, so ``self`` is an inherited copy.  Puts one
        dict on ``results``: the routines, scores, episodes and (obs on)
        final metric and span snapshots, or a :class:`WorkerFailed`
        carrying the formatted traceback."""
        import traceback

        from repro.core.shared_params import SharedParameterServer

        try:
            if _obs.enabled():
                # The forked registry/tracer hold copies of the parent's
                # pre-fork samples, which the parent still owns; start
                # clean so the shipped snapshot is this worker's work.
                _obs.metrics().reset()
                _obs.tracer().clear()
            server = SharedParameterServer(store, self.config)
            agents = self.agents[worker_id::num_workers]
            for agent in agents:
                agent.server = server
            scores: typing.List[typing.Tuple[int, float]] = []
            routines = self._drive(agents, server,
                                   lambda *pair: scores.append(pair))
            record = {"worker": worker_id, "routines": routines,
                      "scores": scores,
                      "metrics": (_obs.metrics().snapshot()
                                  if _obs.enabled() else None),
                      "spans": (_obs.tracer().snapshot()
                                if _obs.enabled() else None),
                      "episodes": {agent.agent_id: agent.episodes_finished
                                   for agent in agents}}
        except Exception:
            record = {"worker": worker_id, "error": WorkerFailed(
                f"worker-{worker_id}", "\n" + traceback.format_exc())}
        results.put(record)
