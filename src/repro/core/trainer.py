"""The multi-agent asynchronous A3C trainer.

``A3CTrainer`` drives ``num_agents`` agents against a shared
:class:`~repro.core.parameter_server.ParameterServer`.  Two execution modes
are provided:

* ``threads=True`` — each agent runs in a host thread, exactly the paper's
  host-side structure (Figure 3/4: one thread per agent interacting with
  its own environment).  NumPy releases the GIL inside large kernels, so
  updates genuinely interleave (Hogwild-style, serialised only at the
  parameter server as in FA3C's RMSProp module).
* ``threads=False`` — agents are stepped round-robin on the calling thread.
  Deterministic given the seed; used by the test-suite and the shorter
  benches.
* ``actors="procs"`` — agents are partitioned over worker *processes*
  (``fork`` start method), sidestepping the GIL for the host-side NumPy
  work.  Global θ and the shared RMSProp statistics live in shared memory
  behind a seqlock-style versioned snapshot
  (:mod:`repro.core.shared_params`), so parameter sync stays lock-free
  while gradient application serialises on a writer lock, preserving the
  Hogwild update semantics of the threaded backend.
"""

from __future__ import annotations

import dataclasses
import os
import queue as queue_module
import threading
import time
import typing

import numpy as np

from repro.core.agent import A3CAgent
from repro.core.config import A3CConfig
from repro.core.execution import (
    derive_agent_seed,
    record_routine,
    resolve_backend,
)
from repro.core.scores import ScoreTracker
from repro.core.parameter_server import ParameterServer
from repro.envs.base import Env
from repro.nn.network import A3CNetwork
from repro.nn.parameters import ParameterSet
from repro.obs import lat as _lat
from repro.obs import runtime as _obs
from repro.perf.hotpath import hot_path


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
        self._routines_lock = threading.Lock()

    @property
    def backend(self):
        """The injected compute :class:`~repro.backends.protocol.Backend`
        (resolved on first access, so numeric-only runs never build a
        platform model)."""
        if self._backend is None:
            self._backend = resolve_backend(self._platform)
        return self._backend

    def save_checkpoint(self, path: str) -> None:
        """Write global theta, shared RMSProp statistics, and the step
        counter to a resumable archive."""
        from repro.nn.checkpoint import save_checkpoint
        save_checkpoint(path, self.server.snapshot(),
                        optimizer=self.server.optimizer,
                        metadata={
                            "global_step": self.server.global_step,
                            "config": dataclasses.asdict(self.config),
                        })

    def restore_checkpoint(self, path: str) -> dict:
        """Resume from :meth:`save_checkpoint`: restores theta, the
        optimizer statistics, the step counter (and hence the annealed
        learning rate), and re-syncs every agent's local parameters.
        Returns the checkpoint metadata."""
        from repro.nn.checkpoint import load_checkpoint, \
            restore_optimizer
        params, statistics, metadata = load_checkpoint(path)
        self.server.params.copy_from(params)
        if statistics is not None:
            restore_optimizer(self.server.optimizer, statistics)
        self.server.set_global_step(metadata.get("global_step", 0))
        for agent in self.agents:
            self.server.snapshot_into(agent.local_params)
        return metadata

    @hot_path
    def _agent_loop(self, agent: A3CAgent, stop: threading.Event) -> None:
        while not stop.is_set() and \
                self.server.global_step < self.config.max_steps:
            started = time.perf_counter() if _obs.enabled() else 0.0
            lat = (_lat.RoutineLatency("a3c",
                                       platform=self._lat_platform)
                   if _obs.enabled() else None)
            stats = agent.run_routine(lat=lat)
            if _obs.enabled():
                self._record_routine(f"agent-{agent.agent_id}",
                                     started, stats.steps, lat=lat)
            with self._routines_lock:
                self._routines += 1
            for score in stats.episode_scores:
                self.tracker.record(self.server.global_step, score)

    def _record_routine(self, lane: str, started: float,
                        steps: int, lat=None) -> None:
        """One finished routine into the metrics/trace sinks."""
        record_routine("a3c", started, steps, lane=lane,
                       span_labels={"steps": steps}, lat=lat)

    def train(self, max_steps: typing.Optional[int] = None,
              threads: bool = True,
              actors: typing.Optional[str] = None,
              workers: typing.Optional[int] = None,
              progress: typing.Optional[
                  typing.Callable[[int, ScoreTracker], None]] = None,
              progress_interval: int = 10_000,
              runlog=None) -> TrainResult:
        """Run until ``max_steps`` global inference steps.

        ``actors`` selects the actor execution mode: ``"threads"`` (one
        host thread per agent), ``"procs"`` (agents partitioned over
        ``workers`` forked processes, default ``num_agents``), or
        ``"serial"`` (deterministic round-robin).  When ``actors`` is
        ``None`` the legacy ``threads`` flag picks between ``"threads"``
        and ``"serial"``.

        ``progress(global_step, tracker)`` is invoked roughly every
        ``progress_interval`` steps (only in round-robin mode is the exact
        cadence deterministic).

        ``runlog`` is an optional :class:`repro.obs.runlog.RunLog`; with
        ``actors="procs"`` each worker process then writes heartbeat and
        telemetry shards into the run directory.
        """
        if max_steps is not None:
            self.config.max_steps = max_steps
        if actors is None:
            actors = "threads" if threads else "serial"
        # perf_counter: monotonic, so rates survive NTP clock steps.
        start = time.perf_counter()
        if actors == "threads":
            self._train_threaded(progress, progress_interval)
        elif actors == "procs":
            self._train_procs(workers, progress, progress_interval,
                              runlog=runlog)
        elif actors == "serial":
            self._train_round_robin(progress, progress_interval)
        else:
            raise ValueError(f"unknown actor backend {actors!r}; "
                             f"expected 'threads', 'procs', or 'serial'")
        elapsed = time.perf_counter() - start
        episodes = sum(agent.episodes_finished for agent in self.agents)
        return TrainResult(global_steps=self.server.global_step,
                           routines=self._routines,
                           episodes=episodes,
                           wall_seconds=elapsed,
                           tracker=self.tracker,
                           params=self.server.snapshot())

    def _train_threaded(self, progress, progress_interval: int) -> None:
        stop = threading.Event()
        workers = [threading.Thread(target=self._agent_loop,
                                    args=(agent, stop),
                                    name=f"a3c-agent-{agent.agent_id}",
                                    daemon=True)
                   for agent in self.agents]
        for worker in workers:
            worker.start()
        try:
            next_report = progress_interval
            while any(worker.is_alive() for worker in workers):
                time.sleep(0.05)
                if progress and self.server.global_step >= next_report:
                    progress(self.server.global_step, self.tracker)
                    next_report += progress_interval
        finally:
            stop.set()
            for worker in workers:
                worker.join()

    def _train_round_robin(self, progress, progress_interval: int) -> None:
        next_report = progress_interval
        while self.server.global_step < self.config.max_steps:
            for agent in self.agents:
                if self.server.global_step >= self.config.max_steps:
                    break
                started = time.perf_counter() if _obs.enabled() else 0.0
                lat = (_lat.RoutineLatency("a3c",
                                           platform=self._lat_platform)
                       if _obs.enabled() else None)
                stats = agent.run_routine(lat=lat)
                if _obs.enabled():
                    self._record_routine(f"agent-{agent.agent_id}",
                                         started, stats.steps, lat=lat)
                self._routines += 1
                for score in stats.episode_scores:
                    self.tracker.record(self.server.global_step, score)
            if progress and self.server.global_step >= next_report:
                progress(self.server.global_step, self.tracker)
                next_report += progress_interval

    # -- multiprocessing backend -------------------------------------------

    def _train_procs(self, workers: typing.Optional[int],
                     progress, progress_interval: int,
                     runlog=None) -> None:
        """Partition the agents over forked worker processes.

        θ and the RMSProp statistics move into a shared-memory
        :class:`~repro.core.shared_params.SharedParameterStore`; each
        worker wraps it in a
        :class:`~repro.core.shared_params.SharedParameterServer` and runs
        its share of the agents round-robin against it.  On completion the
        final θ/g/step state is read back into ``self.server`` so
        checkpointing and :class:`TrainResult` behave identically to the
        threaded backend.
        """
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
                                   results, runlog),
                             name=f"a3c-worker-{worker_id}", daemon=True)
                 for worker_id in range(num_workers)]
        for proc in procs:
            proc.start()
        reports = []
        try:
            next_report = progress_interval
            # Drain the queue while polling: a worker blocked on a full
            # result queue can never be joined.
            while len(reports) < num_workers:
                try:
                    reports.append(results.get(timeout=0.05))
                    continue
                except queue_module.Empty:
                    pass
                if progress and store.global_step >= next_report:
                    progress(store.global_step, self.tracker)
                    next_report += progress_interval
                if not any(proc.is_alive() for proc in procs):
                    # Dead workers cannot report again; drain stragglers
                    # whose results are still in the queue's pipe buffer.
                    try:
                        while len(reports) < num_workers:
                            reports.append(results.get(timeout=0.5))
                    except queue_module.Empty:
                        break
        finally:
            for proc in procs:
                proc.join()
        for report in reports:
            self._routines += report["routines"]
            for agent_id, episodes in report["episodes"].items():
                self.agents[agent_id].episodes_finished = episodes
            for step, score in report["scores"]:
                self.tracker.record(step, score)
            # Fold the worker's final metric snapshot into the parent
            # registry so ps.* / trainer.* counters survive the process
            # boundary, attributable via the worker label.
            rows = report.get("metrics")
            if rows and _obs.enabled():
                # Priority (generation, pid) makes gauge folding
                # deterministic under worker queue-arrival order.
                _obs.metrics().absorb_rows(
                    rows,
                    priority=(float(report.get("generation", 0) or 0),
                              float(report.get("pid", 0) or 0)),
                    worker=f"worker-{report['worker']}")
        # Fold the shared state back into the in-process server.
        store.read_params_into(self.server.params)
        if statistics is not None:
            store.read_statistics_into(statistics)
        self.server.set_global_step(store.global_step)
        self.server.updates_applied += store.updates_applied

    def _proc_worker(self, worker_id: int, num_workers: int,
                     store, results, runlog=None) -> None:
        """Worker-process body: run this worker's agents to completion.

        Runs in a forked child, so ``self`` (agents, envs, networks) is an
        inherited copy; only the shared store is common state.  Results
        travel back through ``results`` as plain dicts — including, when
        observability is on, the worker's final metric snapshot (the
        parent's registry cannot see samples recorded after the fork).
        ``runlog`` additionally gives the worker a telemetry shard in the
        run directory, flushed at a heartbeat interval and on exit.
        """
        from repro.core.shared_params import SharedParameterServer

        if _obs.enabled():
            # The forked registry/tracer hold copies of the parent's
            # pre-fork samples, which the parent still owns; start clean
            # so the shipped snapshot is this worker's work only.
            _obs.metrics().reset()
            _obs.tracer().clear()
        shard = (runlog.shard(f"worker-{worker_id}")
                 if runlog is not None else None)
        server = SharedParameterServer(store, self.config)
        agents = [agent for agent in self.agents
                  if agent.agent_id % num_workers == worker_id]
        for agent in agents:
            agent.server = server
        routines = 0
        scores: typing.List[typing.Tuple[int, float]] = []
        while server.global_step < self.config.max_steps:
            for agent in agents:
                if server.global_step >= self.config.max_steps:
                    break
                started = time.perf_counter() if _obs.enabled() else 0.0
                lat = (_lat.RoutineLatency("a3c",
                                           platform=self._lat_platform)
                       if _obs.enabled() else None)
                stats = agent.run_routine(lat=lat)
                if _obs.enabled():
                    self._record_routine(f"agent-{agent.agent_id}",
                                         started, stats.steps, lat=lat)
                routines += 1
                for score in stats.episode_scores:
                    scores.append((server.global_step, score))
            if shard is not None:
                shard.maybe_heartbeat(routines=routines,
                                      global_step=server.global_step)
        if shard is not None:
            shard.flush(final=True, routines=routines,
                        global_step=server.global_step)
        results.put({"worker": worker_id,
                     "routines": routines,
                     "scores": scores,
                     "pid": os.getpid(),
                     "generation": shard.seq if shard is not None else 0,
                     "metrics": (_obs.metrics().snapshot()
                                 if _obs.enabled() else None),
                     "episodes": {agent.agent_id: agent.episodes_finished
                                  for agent in agents}})
