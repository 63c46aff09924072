"""The FA3C discrete-event simulation loop.

:class:`FPGASim` owns the shared resources (CUs, DRAM channels) of one
:class:`~repro.fpga.platform.FA3CPlatform` instance.  Its agents run the
shared routine interpreter (:class:`repro.platforms.chain.AgentChain`);
the FPGA chain adds only its own ops: ``stage``, one double-buffered
stage whose compute timer overlaps one hold per DRAM channel on hold
slots the chain owns and every stage reuses, and the span and
attribution ops.  Orchestration (configurations, analytic latencies)
lives in :mod:`repro.fpga.platform`; bound-stage scheduling (cached
plans resolved to this sim's resources) in :mod:`repro.fpga.binding`.
"""

from __future__ import annotations

import heapq
import typing

from repro.fpga.binding import BoundTask
from repro.obs import runtime as _obs
from repro.perf import stageplan as _stageplan
from repro.perf.hotpath import hot_path
from repro.platforms.chain import AgentChain, ChainSim
from repro.sim import Engine, Resource, Tracer

if typing.TYPE_CHECKING:                     # pragma: no cover
    from repro.fpga.platform import FA3CPlatform


class _Hold:
    """One of a chain's channel-hold slots, reused by every stage.

    :meth:`start` takes the channel and starts the hold timer: at once
    on an immediate grant, else one heap hop after the release that
    grants it.  :meth:`_expire` releases the channel when the timer
    fires, and the chain's stage join counts the hold one heap hop after
    that release.  The golden digests pin that post-release hop: it fixes
    the same-timestamp resume order between agents."""

    __slots__ = ("chain", "engine", "resource", "seconds")

    def __init__(self, chain: "_FPGAAgentChain", engine: Engine):
        self.chain = chain
        self.engine = engine

    @hot_path
    def start(self, resource: Resource, seconds: float) -> None:
        self.resource = resource
        self.seconds = seconds
        if resource.take(self._wake):
            engine = self.engine
            heapq.heappush(engine._queue, (engine._now + seconds,
                                           engine._sequence, self._expire))
            engine._sequence += 1

    @hot_path
    def _wake(self) -> None:
        engine = self.engine
        heapq.heappush(engine._queue,
                       (engine._now, engine._sequence, self._granted))
        engine._sequence += 1

    @hot_path
    def _granted(self) -> None:
        engine = self.engine
        heapq.heappush(engine._queue, (engine._now + self.seconds,
                                       engine._sequence, self._expire))
        engine._sequence += 1

    @hot_path
    def _expire(self) -> None:
        self.resource.release()
        engine = self.engine
        heapq.heappush(engine._queue,
                       (engine._now, engine._sequence, self.chain._join))
        engine._sequence += 1


class _FPGAAgentChain(AgentChain):
    """Agent routine against :class:`FPGASim`'s CUs and DRAM channels.

    A task's ops replay its bound plan: the CU is an ``acq``/``rel``
    pair, ``("stage", s)`` runs one double-buffered stage, and a stage
    without double buffering holds each channel in turn, then sleeps
    out its compute (the PEs stall until every transfer finishes).  A
    double-buffered stage overlaps its compute timer with one hold per
    channel on the chain's :class:`_Hold` slots; the stage join resumes
    the chain once the timer and every hold have reported.  Span and
    attribution ops are compiled in only while a tracer is attached or
    telemetry is on."""

    __slots__ = ("_holds", "_pending", "_mark", "_task_start")

    def __init__(self, sim: "FPGASim", *args, **kwargs):
        self._holds = tuple(_Hold(self, sim.engine) for _ in range(
            1 + sim.platform.config.global_channels))
        super().__init__(sim, *args, **kwargs)

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
    def _op(self, op: tuple) -> bool:
        code = op[0]
        engine = self.engine
        if code == "stage":
            stage = op[1]
            self._pending = 1 + len(stage.holds)
            heapq.heappush(engine._queue,
                           (engine._now + stage.compute_seconds,
                            engine._sequence, self._join))
            engine._sequence += 1
            for hold, (resource, seconds) in zip(self._holds, stage.holds):
                hold.start(resource, seconds)
            return False
        if code == "mark":
            self._mark = engine._now
        elif code == "span":
            stage = op[1]
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.record(op[2], stage.name, self._mark, engine._now)
            if _obs.enabled():
                stage.record(_obs.metrics(), engine._now - self._mark)
        elif code == "begin":
            self._task_start = engine._now
        elif _obs.enabled():                            # ("end", bound)
            op[1].record_task(_obs.metrics(),
                              engine._now - self._task_start)
        return True

    @hot_path
    def _join(self) -> None:
        """Count the compute timer or one hold's release; the last one
        resumes the chain."""
        self._pending -= 1
        if not self._pending:
            self._advance()


class FPGASim(ChainSim):
    """Discrete-event resources + agent chains for one FA3C platform.

    Per CU pair: an inference CU and a training CU (or one combined CU in
    the SingleCU ablation) plus a *local* DRAM channel; one *global*
    channel is shared platform-wide (the single global θ copy).  Agents
    are assigned to pairs round-robin, as the host runtime does.

    Each task replays its memoized :mod:`repro.perf.stageplan` plan,
    bound once per (task, batch, pair) when a chain is built, through
    the chain's channel-hold slots.  The golden digests in
    ``tests/test_sim_golden.py`` pin the simulated times, grant orders,
    spans, and attribution bit-for-bit, with the plan cache cold and
    warm; ``BENCH_fa3c.json`` pins the rounded IPS and bucket shares.
    """

    chain_class = _FPGAAgentChain

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
