"""One agent's A3C routines as a callback chain.

Every simulated platform runs the same Figure 2 routine per agent:
parameter sync, ``t_max`` environment-step + inference pairs, a
bootstrapping inference, host-side objective preparation, and a
training task.  :class:`AgentChain` writes that order down once and
counts finished routines; each sim's chain class supplies the micro-ops
of one task (:meth:`AgentChain._task`) and the interpreter that runs
them (:meth:`AgentChain._advance`).

A chain resumes through event callbacks and bare bound-method heap
entries (see :meth:`repro.sim.Engine.run`) instead of generator
processes.  The order in which a chain creates events fixes heap
sequence numbers and resource grant order, so it is part of the model;
the golden digests in ``tests/test_sim_golden.py`` pin it.
"""

from __future__ import annotations

import heapq
import typing

from repro.sim.events import Event


class AgentChain:
    """Callback-compiled agent routine.

    :meth:`_compile` flattens ``routines`` repetitions of the routine
    into one op list in ``self.ops``; ``("sleep", seconds)`` is a host
    delay, every other op comes from the sim's :meth:`_task`.  The
    interpreter returns whenever an op must wait on an event and resumes
    from ``op_index`` when it fires, calling :meth:`_end_routine` each
    time it runs off the end of the list.  ``completion`` succeeds after
    the last routine.

    Telemetry cannot toggle inside ``engine.run`` (scenario scopes wrap
    whole measurements), so a sim may decide when compiling what its
    ops observe.
    """

    __slots__ = ("sim", "engine", "agent_id", "t_max", "routines",
                 "meter", "latencies", "warmup", "routine_index",
                 "op_index", "ops", "completion", "_started")

    def __init__(self, sim, agent_id: int, t_max: int, routines: int,
                 host, meter, needs_sync: bool, needs_bootstrap: bool,
                 latencies: typing.Optional[list] = None):
        engine = sim.engine
        self.sim = sim
        self.engine = engine
        self.agent_id = agent_id
        self.t_max = t_max
        self.routines = routines
        self.meter = meter
        self.latencies = latencies
        self.warmup = routines // 4
        self.routine_index = 0
        self.op_index = 0
        self._started = 0.0
        self.ops = self._compile(t_max, host, needs_sync, needs_bootstrap)
        self.completion = Event(engine)
        # An immediate heap entry starts the chain at the current time
        # (the engine dispatches bound methods directly).
        heapq.heappush(engine._queue,
                       (engine._now, engine._sequence, self._advance))
        engine._sequence += 1

    def _compile(self, t_max: int, host, needs_sync: bool,
                 needs_bootstrap: bool) -> list:
        """The Figure 2 routine: the one place its order is written."""
        tracked = self.latencies is not None
        ops: list = []
        if needs_sync:
            ops += self._task("sync", 0, False)
        for _ in range(t_max):
            if host.step_time > 0:
                ops.append(("sleep", host.step_time))
            ops += self._task("inference", 1, tracked)
        if needs_bootstrap:
            ops += self._task("inference", 1, False)
        if host.train_prep_time > 0:
            ops.append(("sleep", host.train_prep_time))
        ops += self._task("train", t_max, False)
        return ops

    def _task(self, kind: str, batch: int, tracked: bool) -> list:
        """Micro-ops of one ``kind`` task; ``tracked`` inference tasks
        also append their latency to ``self.latencies`` (after warm-up).
        """
        raise NotImplementedError

    def _end_routine(self) -> bool:
        """Count one finished routine; True once the last has run."""
        self.meter.record_routine(self.engine._now, self.t_max)
        self.routine_index += 1
        if self.routine_index < self.routines:
            return False
        self.completion.succeed()
        return True

    def _advance(self, _event) -> None:
        raise NotImplementedError
