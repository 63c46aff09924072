"""The FA3C discrete-event simulation loop.

:class:`FPGASim` owns the shared resources (CUs, DRAM channels) of one
:class:`~repro.fpga.platform.FA3CPlatform` instance and exposes the task
process bodies (``inference`` / ``train`` / ``sync``) that the
throughput experiments drive.  Orchestration (configurations, analytic
latencies) lives in :mod:`repro.fpga.platform`; bound-stage scheduling
(cached plans resolved to this sim's resources) in
:mod:`repro.fpga.binding`.
"""

from __future__ import annotations

import typing

from repro.fpga.binding import BoundTask
from repro.obs import runtime as _obs
from repro.perf import stageplan as _stageplan
from repro.sim import Engine, Resource, Tracer
from repro.sim.events import Event

if typing.TYPE_CHECKING:                     # pragma: no cover
    from repro.fpga.platform import FA3CPlatform


class FPGASim:
    """Discrete-event resources + task processes for one FA3C platform.

    Per CU pair: an inference CU and a training CU (or one combined CU in
    the SingleCU ablation) plus a *local* DRAM channel; one *global*
    channel is shared platform-wide (the single global θ copy).  Agents
    are assigned to pairs round-robin, as the host runtime does.

    Each task replays its memoized :mod:`repro.perf.stageplan` plan
    through callback-chained channel holds.  The golden digests in
    ``tests/test_sim_golden.py`` pin the simulated times, grant orders,
    spans, and attribution bit-for-bit, with the plan cache cold and
    warm; ``BENCH_fa3c.json`` pins the rounded IPS and bucket shares.
    """

    def __init__(self, platform: "FA3CPlatform", engine: Engine,
                 tracer: typing.Optional[Tracer] = None):
        self.platform = platform
        self.engine = engine
        if tracer is None and _obs.enabled():
            # With observability on, stage spans flow to the global
            # tracer by default (and from there to the Chrome export).
            tracer = _obs.tracer()
        self.tracer = tracer
        self._bound: typing.Dict[tuple, BoundTask] = {}
        self._bound_topology = platform.topology
        config = platform.config
        self.infer_cus = []
        self.train_cus = []
        self.local_channels = []
        for pair in range(config.cu_pairs):
            if config.single_cu:
                cu = Resource(engine, name=f"cu{pair}")
                self.infer_cus.append(cu)
                self.train_cus.append(cu)
            else:
                self.infer_cus.append(Resource(engine,
                                               name=f"icu{pair}"))
                self.train_cus.append(Resource(engine,
                                               name=f"tcu{pair}"))
            self.local_channels.append(Resource(engine,
                                                name=f"ddr-local{pair}"))
        self.global_channels = [Resource(engine, name=f"ddr-global{i}")
                                for i in range(config.global_channels)]

    def utilisation(self) -> float:
        """Average compute-unit occupancy (drives the power model)."""
        cus = {id(cu): cu for cu in self.infer_cus + self.train_cus}
        values = [cu.utilisation() for cu in cus.values()]
        return sum(values) / len(values) if values else 0.0

    def _pair(self, agent_id: int) -> int:
        return agent_id % self.platform.config.cu_pairs

    # -- memoized plan replay ------------------------------------------------

    def _bound_task(self, kind: str, batch: int, pair: int) -> BoundTask:
        """The task's plan bound to this sim's pair resources.

        The key embeds the live config's field values, so mutating the
        config (or swapping the topology) naturally misses and rebinds.
        """
        if self.platform.topology is not self._bound_topology:
            self._bound.clear()
            self._bound_topology = self.platform.topology
        cfg_key = _stageplan.config_key(self.platform.config)
        key = (kind, batch, pair, cfg_key)
        bound = self._bound.get(key)
        if bound is None:
            plan = _stageplan.CACHE.task_plan(self.platform, kind, batch,
                                              cfg_key=cfg_key)
            if kind == "inference":
                cu_name, task = self.infer_cus[pair].name, "inference"
            elif kind == "train":
                cu_name, task = self.train_cus[pair].name, "train"
            else:
                cu_name, task = f"sync{pair}", "sync"
            bound = BoundTask(self, plan, pair, cu_name, task)
            self._bound[key] = bound
        return bound

    def _hold(self, resource: Resource, duration: float,
              finish) -> None:
        """Callback-chained equivalent of ``process(resource.use(d))``:
        acquire -> hold ``duration`` -> release -> ``finish``.

        The release happens while the hold timeout is being processed
        and ``finish`` runs one queue hop later (via the chain event).
        That hop fixes the same-timestamp resume order between agents,
        which the golden digests pin."""
        engine = self.engine

        def _granted(_event):
            def _expired(_event2):
                resource.release()
                chain = Event(engine)
                chain.callbacks.append(finish)
                chain.succeed()
            engine.timeout(duration).callbacks.append(_expired)

        resource.acquire().callbacks.append(_granted)

    def _launch_stage(self, bound) -> Event:
        """Start one double-buffered stage; returns its stage-end event.

        Compute overlaps every channel hold; the join counts the compute
        timeout plus each hold's post-release chain event, like an
        ``AllOf`` over (compute timeout, DMA processes)."""
        engine = self.engine
        holds = bound.holds
        done = Event(engine)
        remaining = [1 + len(holds)]

        def _finish(_event):
            remaining[0] -= 1
            if not remaining[0]:
                done.succeed()

        engine.timeout(bound.compute_seconds).callbacks.append(_finish)
        for resource, duration in holds:
            self._hold(resource, duration, _finish)
        return done

    def _serial_stage(self, bound):
        """Process body for one stage without double buffering: each
        channel hold completes before the next starts, then compute runs
        (the PEs stall until every transfer finishes)."""
        for resource, duration in bound.holds:
            yield resource.acquire()
            try:
                yield self.engine.timeout(duration)
            finally:
                resource.release()
        yield self.engine.timeout(bound.compute_seconds)

    def _replay_task(self, bound: BoundTask, cu: Resource):
        """Process body: acquire the CU, run every stage, release.

        Stage spans go to the tracer and cycle attribution to the
        metrics registry only when one is attached or collection is on;
        otherwise the loop only waits on the stage events."""
        yield cu.acquire()
        engine = self.engine
        tracer = self.tracer
        observing = _obs.enabled()
        task_start = engine.now
        try:
            if tracer is None and not observing:
                if bound.double_buffering:
                    for stage in bound.stages:
                        yield self._launch_stage(stage)
                else:
                    for stage in bound.stages:
                        yield from self._serial_stage(stage)
            else:
                metrics = _obs.metrics() if observing else None
                for stage in bound.stages:
                    start = engine.now
                    if stage.double_buffering:
                        yield self._launch_stage(stage)
                    else:
                        yield from self._serial_stage(stage)
                    if tracer is not None:
                        tracer.record(cu.name, stage.name, start,
                                      engine.now)
                    if observing:
                        stage.record(metrics, engine.now - start)
        finally:
            cu.release()
            if observing:
                bound.record_task(_obs.metrics(),
                                  engine.now - task_start)

    def _replay_sync(self, bound: BoundTask, pair: int):
        """Process body for a parameter sync: the stage loop of
        :meth:`_replay_task` on the pair's DMA path, with no CU held."""
        engine = self.engine
        tracer = self.tracer
        observing = _obs.enabled()
        if tracer is None and not observing:
            if bound.double_buffering:
                for stage in bound.stages:
                    yield self._launch_stage(stage)
            else:
                for stage in bound.stages:
                    yield from self._serial_stage(stage)
            return
        metrics = _obs.metrics() if observing else None
        lane = f"sync{pair}"
        for stage in bound.stages:
            start = engine.now
            if stage.double_buffering:
                yield self._launch_stage(stage)
            else:
                yield from self._serial_stage(stage)
            if tracer is not None:
                tracer.record(lane, stage.name, start, engine.now)
            if observing:
                stage.record(metrics, engine.now - start)

    # -- the task interface used by the throughput simulation ---------------

    def inference(self, agent_id: int, batch: int = 1):
        """Process body for one inference task of ``agent_id``.

        The request starts with the game-screen DMA into the FPGA and ends
        with the (tiny) output DMA back to the host (Section 4.1).
        """
        pair = self._pair(agent_id)
        bound = self._bound_task("inference", batch, pair)
        yield self.engine.timeout(bound.pcie_in_seconds)
        yield from self._replay_task(bound, self.infer_cus[pair])
        yield self.engine.timeout(bound.pcie_out_seconds)

    def train(self, agent_id: int, batch: int):
        """Process body for one training task."""
        pair = self._pair(agent_id)
        yield from self._replay_task(self._bound_task("train", batch, pair),
                                     self.train_cus[pair])

    def sync(self, agent_id: int):
        """Process body for one parameter-sync task (runs on the training
        CU's DMA path; occupies channels but not PEs)."""
        pair = self._pair(agent_id)
        yield from self._replay_sync(self._bound_task("sync", 0, pair),
                                     pair)
