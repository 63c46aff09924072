"""The FA3C discrete-event simulation loop.

:class:`FPGASim` owns the shared resources (CUs, DRAM channels) of one
:class:`~repro.fpga.platform.FA3CPlatform` instance and exposes
``agent_chain``: one agent's A3C routines compiled into a callback chain
over those resources (see :class:`repro.platforms.chain.AgentChain`),
which the throughput experiments start once per agent.  Orchestration
(configurations, analytic latencies) lives in
:mod:`repro.fpga.platform`; bound-stage scheduling (cached plans
resolved to this sim's resources) in :mod:`repro.fpga.binding`.
"""

from __future__ import annotations

import heapq
import typing

from repro.fpga.binding import BoundTask
from repro.obs import runtime as _obs
from repro.perf import stageplan as _stageplan
from repro.perf.hotpath import hot_path
from repro.platforms.chain import AgentChain
from repro.sim import Engine, Resource, Tracer
from repro.sim.events import Event

if typing.TYPE_CHECKING:                     # pragma: no cover
    from repro.fpga.platform import FA3CPlatform


class FPGASim:
    """Discrete-event resources + agent chains for one FA3C platform.

    Per CU pair: an inference CU and a training CU (or one combined CU in
    the SingleCU ablation) plus a *local* DRAM channel; one *global*
    channel is shared platform-wide (the single global θ copy).  Agents
    are assigned to pairs round-robin, as the host runtime does.

    Each task replays its memoized :mod:`repro.perf.stageplan` plan,
    bound once per (task, batch, pair) when a chain is built, through
    callback-chained channel holds.  The golden digests in
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

    def agent_chain(self, agent_id: int, t_max: int, routines: int,
                    host, meter, needs_sync: bool, needs_bootstrap: bool,
                    latencies: typing.Optional[list] = None) -> Event:
        """Start one agent's routines as a callback chain; returns an
        event that succeeds once ``routines`` routines have run."""
        return _FPGAAgentChain(self, agent_id, t_max, routines, host,
                               meter, needs_sync, needs_bootstrap,
                               latencies).completion

    def _bound_task(self, kind: str, batch: int, pair: int) -> BoundTask:
        """The task's plan bound to this sim's pair resources."""
        key = (kind, batch, pair)
        bound = self._bound.get(key)
        if bound is None:
            plan = _stageplan.CACHE.task_plan(self.platform, kind, batch)
            cu = None
            if kind == "inference":
                cu = self.infer_cus[pair]
            elif kind == "train":
                cu = self.train_cus[pair]
            bound = BoundTask(self, plan, pair, cu, kind)
            self._bound[key] = bound
        return bound

    def _hold(self, resource: Resource, duration: float,
              finish) -> None:
        """Acquire ``resource`` -> hold ``duration`` -> release ->
        ``finish``.

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
        timeout plus each hold's post-release chain event."""
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


class _FPGAAgentChain(AgentChain):
    """Agent routine against :class:`FPGASim`'s CUs and DRAM channels.

    A task's ops replay its bound plan: ``("acq", r)`` / ``("rel", r)``
    take and return a CU or channel, ``("stage", s)`` runs one
    double-buffered stage (:meth:`FPGASim._launch_stage`), and a stage
    without double buffering holds each channel in turn, then sleeps
    out its compute (the PEs stall until every transfer finishes).
    Span and attribution ops are compiled in only while a tracer is
    attached or telemetry is on."""

    __slots__ = ("_mark", "_task_start")

    def _task(self, kind: str, batch: int, tracked: bool) -> list:
        sim = self.sim
        # Agents are assigned to CU pairs round-robin.
        bound = sim._bound_task(kind, batch,
                                self.agent_id % sim.platform.config.cu_pairs)
        cu = bound.cu
        observing = _obs.enabled()
        spans = observing or sim.tracer is not None
        ops: list = []
        if kind == "inference":
            # The request starts with the game-screen DMA into the FPGA
            # and ends with the (tiny) output DMA back (Section 4.1).
            if tracked:
                ops.append(("start",))
            ops.append(("sleep", bound.pcie_in_seconds))
        if cu is not None:
            ops.append(("acq", cu))
            if observing:
                ops.append(("begin",))
        for stage in bound.stages:
            if spans:
                ops.append(("mark",))
            if stage.double_buffering:
                ops.append(("stage", stage))
            else:
                for resource, duration in stage.holds:
                    ops += [("acq", resource), ("sleep", duration),
                            ("rel", resource)]
                ops.append(("sleep", stage.compute_seconds))
            if spans:
                ops.append(("span", stage, bound.cu_name))
        if cu is not None:
            ops.append(("rel", cu))
            if observing:
                ops.append(("end", bound))
        if kind == "inference":
            ops.append(("sleep", bound.pcie_out_seconds))
            if tracked:
                ops.append(("lat",))
        return ops

    @hot_path
    def _advance(self, _event) -> None:
        engine = self.engine
        sim = self.sim
        ops = self.ops
        advance = self._advance
        queue = engine._queue
        heappush = heapq.heappush
        count = len(ops)
        index = self.op_index
        while True:
            if index == count:
                if self._end_routine():
                    return
                index = 0
                continue
            op = ops[index]
            code = op[0]
            index += 1
            if code == "stage":
                self.op_index = index
                sim._launch_stage(op[1]).callbacks.append(advance)
                return
            if code == "sleep":
                self.op_index = index
                heappush(queue, (engine._now + op[1], engine._sequence,
                                 advance))
                engine._sequence += 1
                return
            if code == "acq":
                self.op_index = index
                op[1].acquire().callbacks.append(advance)
                return
            if code == "rel":
                op[1].release()
            elif code == "mark":
                self._mark = engine._now
            elif code == "span":
                stage = op[1]
                if sim.tracer is not None:
                    sim.tracer.record(op[2], stage.name, self._mark,
                                      engine._now)
                if _obs.enabled():
                    stage.record(_obs.metrics(), engine._now - self._mark)
            elif code == "begin":
                self._task_start = engine._now
            elif code == "end":
                if _obs.enabled():
                    op[1].record_task(_obs.metrics(),
                                      engine._now - self._task_start)
            elif code == "start":
                self._started = engine._now
            elif self.routine_index >= self.warmup:     # ("lat",)
                self.latencies.append(engine._now - self._started)
