"""Unit tests for the engine clock and callback-chained activities."""

import pytest

from repro.sim import Engine


class TestEngineClock:
    def test_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_run_until_deadline(self):
        engine = Engine()
        engine.timeout(10.0)
        engine.run(until=4.0)
        assert engine.now == 4.0

    def test_deadline_past_queue_advances_clock(self):
        engine = Engine()
        engine.timeout(1.0)
        engine.run(until=100.0)
        assert engine.now == 100.0

    def test_events_fire_in_time_order(self):
        engine = Engine()
        order = []
        for delay in (3.0, 1.0, 2.0):
            engine.timeout(delay).callbacks.append(
                lambda e, d=delay: order.append(d))
        engine.run()
        assert order == [1.0, 2.0, 3.0]

    def test_ties_broken_by_insertion_order(self):
        engine = Engine()
        order = []
        for tag in "abc":
            engine.timeout(1.0).callbacks.append(
                lambda e, t=tag: order.append(t))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_run_until_event_drained_queue_raises(self):
        engine = Engine()
        never = engine.event()
        with pytest.raises(RuntimeError, match="drained"):
            engine.run(never)


class TestProcess:
    """A simulated process is a chain of event callbacks whose end is an
    event the engine can run until (as agent chains' ``completion``)."""

    def test_simple_process_advances_time(self):
        engine = Engine()
        proc = engine.event()
        def second(_event):
            engine.timeout(2.0).callbacks.append(
                lambda _e: proc.succeed("finished"))
        engine.timeout(1.0).callbacks.append(second)
        engine.run(proc)
        assert engine.now == 3.0
        assert proc.value == "finished"

    def test_process_receives_event_value(self):
        engine = Engine()
        received = []
        engine.timeout(1.0, value="hello").callbacks.append(
            lambda event: received.append(event.value))
        engine.run()
        assert received == ["hello"]

    def test_failed_event_raises_inside_process(self):
        engine = Engine()
        trap = engine.event()
        caught = []
        def body(event):
            if not event.ok:
                caught.append(str(event.value))
        trap.callbacks.append(body)
        trap.fail(ValueError("injected"))
        engine.run()
        assert caught == ["injected"]

    def test_process_waiting_on_finished_process(self):
        engine = Engine()
        child_proc = engine.event()
        engine.timeout(1.0).callbacks.append(
            lambda _e: child_proc.succeed("child-result"))
        parent_proc = engine.event()
        child_proc.callbacks.append(
            lambda event: parent_proc.succeed(f"saw {event.value}"))
        engine.run(parent_proc)
        assert parent_proc.value == "saw child-result"

    def test_chained_processes_sequential_time(self):
        engine = Engine()
        def stage(duration, then):
            engine.timeout(duration).callbacks.append(lambda _e: then())
        proc = engine.event()
        stage(1.0, lambda: stage(2.0, proc.succeed))
        engine.run(proc)
        assert engine.now == 3.0

    def test_determinism_across_runs(self):
        def simulate():
            engine = Engine()
            trace = []
            def worker(i, k=0):
                def wake(_event):
                    trace.append((engine.now, i, k))
                    if k < 2:
                        worker(i, k + 1)
                engine.timeout(0.5 * (i + 1)).callbacks.append(wake)
            for i in range(3):
                worker(i)
            engine.run()
            return trace
        assert simulate() == simulate()
