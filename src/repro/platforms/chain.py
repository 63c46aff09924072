"""One agent's A3C routines as a callback chain.

Every simulated platform runs the same Figure 2 routine per agent:
parameter sync, ``t_max`` environment-step + inference pairs, a
bootstrapping inference, host-side objective preparation, and a
training task.  :class:`AgentChain` writes that order down once, and
its :meth:`~AgentChain._advance` is the one interpreter that runs it on
every platform; each sim's chain class supplies only the micro-ops of
one task (:meth:`AgentChain._task`) and the ops of its own that the
interpreter hands to :meth:`AgentChain._op`.

A chain resumes through bare bound-method heap entries (see
:meth:`repro.sim.Engine.run`) instead of generator processes; a
resource or request queue it waits on wakes it through
:meth:`AgentChain._wake`, one heap hop later.  The order in which a
chain schedules heap entries fixes heap sequence numbers and resource
grant order, so it is part of the model; the golden digests in
``tests/test_sim_golden.py`` pin it, and
``tests/test_sim_heap_entries.py`` pins how many entries a run makes.
"""

from __future__ import annotations

import heapq
import typing

from repro.perf.hotpath import hot_path
from repro.sim.events import Event


class AgentChain:
    """Callback-compiled agent routine.

    :meth:`_compile` compiles one routine into the op list ``self.ops``;
    the interpreter runs it from ``op_index``, returns whenever an op
    must wait, and wraps around to the start, calling
    :meth:`_end_routine`, each time it runs off the end.  ``completion``
    succeeds after the last of ``routines`` routines.

    The interpreter runs these ops itself; every other op goes to the
    sim's :meth:`_op`:

    * ``("sleep", seconds)`` — resume ``seconds`` later;
    * ``("acq", resource)`` — take a server, waiting in its FIFO if it
      is busy (:meth:`repro.sim.Resource.take`);
    * ``("rel", resource)`` — return the server;
    * ``("start",)`` / ``("lat",)`` — bracket a tracked inference, whose
      latency joins ``self.latencies`` once the warm-up routines are
      done.

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
        # An immediate heap entry starts the chain at the current time.
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
        """Micro-ops of one ``kind`` task; a ``tracked`` inference task
        brackets its latency with ``("start",)`` and ``("lat",)``."""
        raise NotImplementedError

    def _op(self, op: tuple) -> bool:
        """Run one of the sim's own ops; False when the chain must wait
        (the op has scheduled the resume)."""
        raise NotImplementedError

    def _end_routine(self) -> bool:
        """Count one finished routine; True once the last has run."""
        self.meter.record_routine(self.engine._now, self.t_max)
        self.routine_index += 1
        if self.routine_index < self.routines:
            return False
        self.completion.succeed()
        return True

    def _wake(self) -> None:
        """Resource waiter: resume one heap hop after the grant."""
        engine = self.engine
        heapq.heappush(engine._queue,
                       (engine._now, engine._sequence, self._advance))
        engine._sequence += 1

    @hot_path
    def _advance(self) -> None:
        """Run ops from ``op_index`` until one must wait."""
        engine = self.engine
        ops = self.ops
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
            if code == "sleep":
                self.op_index = index
                heapq.heappush(engine._queue, (engine._now + op[1],
                                               engine._sequence,
                                               self._advance))
                engine._sequence += 1
                return
            if code == "acq":
                if not op[1].take(self._wake):
                    self.op_index = index
                    return
            elif code == "rel":
                op[1].release()
            elif code == "start":
                self._started = engine._now
            elif code == "lat":
                if self.routine_index >= self.warmup:
                    self.latencies.append(engine._now - self._started)
            elif not self._op(op):
                self.op_index = index
                return


class ChainSim:
    """Base of a platform sim whose agents run as :attr:`chain_class`
    chains."""

    chain_class: typing.ClassVar[typing.Type[AgentChain]]

    def agent_chain(self, agent_id: int, t_max: int, routines: int,
                    host, meter, needs_sync: bool, needs_bootstrap: bool,
                    latencies: typing.Optional[list] = None) -> Event:
        """Start one agent's routines as a callback chain; returns an
        event that succeeds once ``routines`` routines have run."""
        return self.chain_class(self, agent_id, t_max, routines, host,
                                meter, needs_sync, needs_bootstrap,
                                latencies).completion
