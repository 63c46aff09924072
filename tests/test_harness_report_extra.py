"""Extra coverage for report formatting and the sim Store edge cases."""

import numpy as np
import pytest

from repro.harness.report import _fmt, format_curve, format_table
from repro.sim import Engine, Store


class TestFormatting:
    def test_fmt_small_floats_scientific(self):
        assert "e" in _fmt(1.3e-05)

    def test_fmt_large_floats_scientific(self):
        assert "e" in _fmt(3.2e9)

    def test_fmt_mid_range_floats_plain(self):
        assert _fmt(1234.5) == "1,234.5"
        assert _fmt(0.25) == "0.25"

    def test_fmt_zero_and_ints(self):
        assert _fmt(0.0) == "0"
        assert _fmt(42) == "42"

    def test_format_table_missing_column_blank(self):
        text = format_table([{"a": 1}, {"a": 2, "b": 3}],
                            columns=["a", "b"])
        assert "3" in text

    def test_format_curve_constant_scores(self):
        steps = np.arange(50)
        scores = np.full(50, 7.0)
        text = format_curve(steps, scores, "flat")
        assert "first=7.0" in text

    def test_format_curve_single_point(self):
        text = format_curve(np.array([1]), np.array([2.0]), "one")
        assert "one" in text


class TestStoreEdgeCases:
    def test_interleaved_getters_and_puts(self):
        engine = Engine()
        store = Store(engine)
        first = store.get()
        second = store.get()
        store.put("a")
        store.put("b")
        assert first.value == "a"
        assert second.value == "b"

    def test_put_counter(self):
        engine = Engine()
        store = Store(engine)
        for i in range(5):
            store.put(i)
        store.get_batch(3)
        assert store.total_puts == 5
        assert len(store) == 2

    def test_blocked_getter_inside_process(self):
        engine = Engine()
        store = Store(engine)
        received = []

        store.get().callbacks.append(
            lambda event: received.append((event.value, engine.now)))
        engine.timeout(2.0).callbacks.append(
            lambda _event: store.put("late-item"))
        engine.run()
        assert received == [("late-item", 2.0)]

    def test_get_batch_zero(self):
        engine = Engine()
        store = Store(engine)
        store.put(1)
        assert store.get_batch(0) == []
        assert len(store) == 1
