"""Unit tests for the discrete-event primitives."""

import pytest

from repro.sim import Engine


class TestEvent:
    def test_new_event_is_untriggered(self):
        engine = Engine()
        event = engine.event()
        assert not event.triggered
        assert not event.processed

    def test_value_unavailable_before_trigger(self):
        engine = Engine()
        with pytest.raises(RuntimeError):
            _ = engine.event().value

    def test_succeed_carries_value(self):
        engine = Engine()
        event = engine.event()
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_double_succeed_rejected(self):
        engine = Engine()
        event = engine.event().succeed()
        with pytest.raises(RuntimeError):
            event.succeed()

    def test_fail_requires_exception(self):
        engine = Engine()
        with pytest.raises(TypeError):
            engine.event().fail("not an exception")

    def test_fail_marks_not_ok(self):
        engine = Engine()
        event = engine.event()
        event.fail(ValueError("boom"))
        assert event.triggered
        assert not event.ok

    def test_callbacks_run_on_engine_step(self):
        engine = Engine()
        event = engine.event()
        seen = []
        event.callbacks.append(lambda e: seen.append(e.value))
        event.succeed("payload")
        assert seen == []          # not yet processed
        engine.run()
        assert seen == ["payload"]


class TestTimeout:
    def test_fires_at_delay(self):
        engine = Engine()
        timeout = engine.timeout(2.5)
        engine.run()
        assert timeout.processed
        assert engine.now == 2.5

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(ValueError):
            engine.timeout(-1.0)

    def test_timeout_value(self):
        engine = Engine()
        timeout = engine.timeout(1.0, value="done")
        engine.run()
        assert timeout.value == "done"

    def test_zero_delay_allowed(self):
        engine = Engine()
        timeout = engine.timeout(0.0)
        engine.run()
        assert timeout.processed
        assert engine.now == 0.0


class TestAllOf:
    def test_waits_for_all(self):
        engine = Engine()
        a = engine.timeout(1.0, "a")
        b = engine.timeout(3.0, "b")
        both = engine.all_of([a, b])
        engine.run(both)
        assert engine.now == 3.0
        assert both.value == ["a", "b"]

    def test_empty_fires_immediately(self):
        engine = Engine()
        empty = engine.all_of([])
        assert empty.triggered
        assert empty.value == []

    def test_failure_propagates(self):
        engine = Engine()
        good = engine.timeout(1.0)
        bad = engine.event()
        bad.fail(RuntimeError("child failed"))
        combined = engine.all_of([good, bad])
        with pytest.raises(RuntimeError, match="child failed"):
            engine.run(combined)

    def test_value_order_matches_input_order(self):
        engine = Engine()
        slow = engine.timeout(5.0, "slow")
        fast = engine.timeout(1.0, "fast")
        both = engine.all_of([slow, fast])
        engine.run(both)
        assert both.value == ["slow", "fast"]
