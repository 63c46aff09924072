"""Unit and property tests for Resource and Store."""

import hypothesis
import hypothesis.strategies as st
import pytest

from repro.sim import Engine, Resource, Store


def _use(resource, duration, then=lambda: None):
    """Acquire ``resource``, hold it for ``duration``, release it, then
    call ``then``."""
    engine = resource.engine

    def granted(_event):
        def expired(_event):
            resource.release()
            then()
        engine.timeout(duration).callbacks.append(expired)

    resource.acquire().callbacks.append(granted)


class TestResource:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Resource(Engine(), capacity=0)

    def test_immediate_grant_when_idle(self):
        engine = Engine()
        resource = Resource(engine)
        event = resource.acquire()
        assert event.triggered
        assert resource.in_use == 1

    def test_queueing_beyond_capacity(self):
        engine = Engine()
        resource = Resource(engine, capacity=1)
        resource.acquire()
        second = resource.acquire()
        assert not second.triggered
        assert resource.queue_length == 1

    def test_release_wakes_fifo_order(self):
        engine = Engine()
        resource = Resource(engine, capacity=1)
        resource.acquire()
        waiters = [resource.acquire() for _ in range(3)]
        resource.release()
        assert waiters[0].triggered
        assert not waiters[1].triggered

    def test_release_idle_raises(self):
        with pytest.raises(RuntimeError):
            Resource(Engine()).release()

    def test_use_holds_for_duration(self):
        engine = Engine()
        resource = Resource(engine, capacity=1)
        done = []
        for i in range(3):
            _use(resource, 2.0, lambda i=i: done.append((i, engine.now)))
        engine.run()
        assert done == [(0, 2.0), (1, 4.0), (2, 6.0)]

    def test_parallel_servers(self):
        engine = Engine()
        resource = Resource(engine, capacity=2)
        done = []
        for _ in range(4):
            _use(resource, 2.0, lambda: done.append(engine.now))
        engine.run()
        assert done == [2.0, 2.0, 4.0, 4.0]

    def test_utilisation_full(self):
        engine = Engine()
        resource = Resource(engine, capacity=1)
        _use(resource, 5.0)
        engine.run()
        assert resource.utilisation() == pytest.approx(1.0)

    def test_utilisation_half(self):
        engine = Engine()
        resource = Resource(engine, capacity=1)
        _use(resource, 1.0, lambda: engine.timeout(1.0))
        engine.run()
        assert resource.utilisation() == pytest.approx(0.5)

    def test_wait_time_accounting(self):
        engine = Engine()
        resource = Resource(engine, capacity=1)
        _use(resource, 3.0)
        _use(resource, 3.0)
        engine.run()
        assert resource.total_wait_time == pytest.approx(3.0)
        assert resource.total_requests == 2

    @hypothesis.given(st.lists(st.floats(min_value=0.01, max_value=10.0),
                               min_size=1, max_size=20))
    def test_serial_resource_time_equals_sum(self, durations):
        """With one server, total time is exactly the sum of holds."""
        engine = Engine()
        resource = Resource(engine, capacity=1)
        for d in durations:
            _use(resource, d)
        engine.run()
        assert engine.now == pytest.approx(sum(durations))


class TestStore:
    def test_put_then_get(self):
        engine = Engine()
        store = Store(engine)
        store.put("item")
        event = store.get()
        assert event.triggered
        assert event.value == "item"

    def test_get_blocks_until_put(self):
        engine = Engine()
        store = Store(engine)
        event = store.get()
        assert not event.triggered
        store.put("late")
        assert event.triggered
        assert event.value == "late"

    def test_fifo_order(self):
        engine = Engine()
        store = Store(engine)
        for i in range(5):
            store.put(i)
        values = [store.get().value for _ in range(5)]
        assert values == list(range(5))

    def test_get_batch_nonblocking(self):
        engine = Engine()
        store = Store(engine)
        for i in range(3):
            store.put(i)
        assert store.get_batch(10) == [0, 1, 2]
        assert store.get_batch(10) == []

    def test_len_counts_items(self):
        engine = Engine()
        store = Store(engine)
        store.put("x")
        store.put("y")
        assert len(store) == 2
