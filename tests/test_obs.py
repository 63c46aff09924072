"""The repro.obs observability layer.

Covers the registry (labels, histogram percentiles, snapshot/reset,
JSONL round-trip), the span tracer (sim + wall spans, nesting), the
Chrome trace-event export schema, the
disabled-mode no-op guarantee of instrumented hot paths, and the
IPSMeter warm-up boundary fix.
"""

import json
import math
import threading

import pytest

from repro import obs
from repro.obs.registry import HISTOGRAM_WINDOW
from repro.platforms.metrics import IPSMeter


@pytest.fixture
def registry():
    return obs.MetricsRegistry()


class TestCounter:
    def test_labelled_samples_are_independent(self, registry):
        counter = registry.counter("fpga.dram.bytes")
        counter.inc(64, channel="ddr0", dir="load")
        counter.inc(32, channel="ddr0", dir="store")
        counter.inc(16, channel="ddr1", dir="load")
        assert counter.value(channel="ddr0", dir="load") == 64
        assert counter.value(channel="ddr0", dir="store") == 32
        assert counter.value(channel="ddr1", dir="load") == 16
        assert counter.total() == 112

    def test_label_order_does_not_matter(self, registry):
        counter = registry.counter("c")
        counter.inc(1, a="x", b="y")
        counter.inc(1, b="y", a="x")
        assert counter.value(a="x", b="y") == 2

    def test_counter_rejects_decrease(self, registry):
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_kind_conflict_raises(self, registry):
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")


class TestGauge:
    def test_set_and_add(self, registry):
        gauge = registry.gauge("util")
        gauge.set(0.5, cu="icu0")
        gauge.set(0.7, cu="icu0")
        gauge.add(0.1, cu="icu1")
        assert gauge.value(cu="icu0") == 0.7
        assert gauge.value(cu="icu1") == pytest.approx(0.1)


class TestHistogram:
    def test_percentiles_interpolate(self, registry):
        hist = registry.histogram("lat")
        for value in range(1, 101):
            hist.observe(float(value))
        assert hist.percentile(50) == pytest.approx(50.5)
        assert hist.percentile(0) == 1.0
        assert hist.percentile(100) == 100.0
        assert hist.percentile(90) == pytest.approx(90.1)
        assert hist.mean() == pytest.approx(50.5)
        assert hist.count() == 100

    def test_empty_histogram_is_nan(self, registry):
        hist = registry.histogram("lat")
        assert math.isnan(hist.percentile(50))
        assert hist.count() == 0

    def test_window_slides_but_totals_stay_exact(self, registry):
        hist = registry.histogram("lat")
        n = HISTOGRAM_WINDOW + 100
        for value in range(n):
            hist.observe(float(value))
        sample = hist._sample({})
        assert hist.count() == n
        assert sample.min == 0.0
        assert sample.max == float(n - 1)
        assert len(sample.window) == HISTOGRAM_WINDOW
        # Percentiles now describe the retained (most recent) window.
        assert hist.percentile(0) == 100.0


class TestRegistry:
    def test_snapshot_rows_and_reset(self, registry):
        registry.counter("a").inc(3, k="v")
        registry.histogram("h").observe(1.0)
        rows = registry.snapshot(meta={"run": "r1"})
        by_name = {row["name"]: row for row in rows}
        assert by_name["a"]["value"] == 3
        assert by_name["a"]["labels"] == {"k": "v"}
        assert by_name["a"]["run"] == "r1"
        assert by_name["h"]["count"] == 1
        registry.reset()
        assert registry.snapshot() == []

    def test_jsonl_round_trip(self, registry, tmp_path):
        registry.counter("a").inc(5, x="1")
        registry.gauge("g").set(2.5)
        path = str(tmp_path / "m.jsonl")
        assert registry.write_jsonl(path) == 2
        rows = obs.load_jsonl(path)
        assert {row["name"] for row in rows} == {"a", "g"}
        for row in rows:
            json.dumps(row)  # every row is JSON-serialisable


class TestSpanTracer:
    def test_wall_spans_nest(self):
        tracer = obs.SpanTracer()
        with tracer.span("lane", "outer"):
            with tracer.span("lane", "inner"):
                pass
        inner, outer = tracer.spans
        assert (inner.label, inner.depth) == ("inner", 1)
        assert (outer.label, outer.depth) == ("outer", 0)
        assert outer.start <= inner.start <= inner.end <= outer.end
        # Busy counts top-level spans only: no double counting.
        assert tracer.lane_busy("lane") == pytest.approx(outer.duration)

    def test_sim_record_signature_matches_sim_tracer(self):
        tracer = obs.SpanTracer()
        tracer.record("icu0", "FW:conv1", 0.0, 1e-3)
        span = tracer.spans[0]
        assert span.clock == obs.SIM
        assert span.duration == pytest.approx(1e-3)
        with pytest.raises(ValueError):
            tracer.record("icu0", "bad", 1.0, 0.5)

    def test_thread_local_nesting_depths(self):
        tracer = obs.SpanTracer()

        def worker():
            with tracer.span("t2", "outer"):
                pass

        with tracer.span("t1", "outer"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert all(span.depth == 0 for span in tracer.spans)


class TestChromeExport:
    def _tracer(self):
        tracer = obs.SpanTracer()
        tracer.record("icu0", "FW:conv1", 0.0, 0.5)
        tracer.record("tcu0", "GC:fc2", 0.25, 0.75)
        with tracer.span("agent-0", "routine", steps=5):
            pass
        return tracer

    def test_schema_fields(self, tmp_path):
        path = str(tmp_path / "trace.json")
        assert obs.write_chrome_trace(path, self._tracer()) == 3
        doc = json.loads(open(path).read())
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 3
        for event in complete:
            assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(event)
            assert event["dur"] >= 0
        # sim and wall spans live in different trace processes.
        assert {e["pid"] for e in complete} == {1, 2}
        # Lanes are named through thread_name metadata events.
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert {"icu0", "tcu0", "agent-0"} <= names

    def test_wall_spans_rebased_near_zero(self):
        events = obs.chrome_trace_events(self._tracer().spans)
        wall = [e for e in events if e.get("cat") == "wall"]
        assert wall and min(e["ts"] for e in wall) == pytest.approx(0.0)

    def test_span_args_exported(self):
        events = obs.chrome_trace_events(self._tracer().spans)
        routine = [e for e in events if e.get("name") == "routine"]
        assert routine[0]["args"]["steps"] == 5


class TestDisabledModeIsNoOp:
    def test_disabled_by_default_and_counters_stay_empty(self):
        assert not obs.enabled()
        before = len(obs.metrics().snapshot())
        # Exercise instrumented hot paths with collection off.
        from repro.fpga.buffers import BufferControlUnit, LineBuffer
        from repro.fpga.dram import DRAMChannel
        channel = DRAMChannel("ddr-test")
        channel.load(1024)
        channel.store(512)
        bcu = BufferControlUnit()
        line = LineBuffer(8)
        list(bcu.shift_window(line, 4))
        assert len(obs.metrics().snapshot()) == before
        assert "fpga.dram.bytes" not in obs.metrics() or \
            obs.metrics().counter("fpga.dram.bytes").value(
                channel="ddr-test", dir="load") == 0

    def test_disabled_span_is_shared_noop(self):
        from repro.obs import runtime
        assert not obs.enabled()
        before = len(obs.tracer().by_clock(obs.WALL))
        cm1 = obs.span("lane", "x")
        cm2 = obs.span("lane", "y")
        assert cm1 is cm2 is runtime._NULL_CONTEXT
        with cm1:
            pass
        assert len(obs.tracer().by_clock(obs.WALL)) == before

    def test_enabled_scope_restores_previous_state(self):
        assert not obs.enabled()
        with obs.enabled_scope():
            assert obs.enabled()
            obs.metrics().counter("scoped").inc()
            assert obs.metrics().counter("scoped").value() == 1
        assert not obs.enabled()

    def test_hot_paths_collect_when_enabled(self):
        from repro.fpga.dram import DRAMChannel
        with obs.enabled_scope():
            DRAMChannel("ddr-test").load(16)
            assert obs.metrics().counter("fpga.dram.bytes").value(
                channel="ddr-test", dir="load") == 64


class TestEndToEndSimCapture:
    def test_fpga_sim_populates_metrics_and_trace(self):
        from repro.fpga.platform import FA3CPlatform
        from repro.nn.network import A3CNetwork
        from repro.platforms import measure_ips

        topology = A3CNetwork(num_actions=6).topology()
        with obs.enabled_scope():
            result = measure_ips(FA3CPlatform.fa3c(topology), 2,
                                 routines_per_agent=4)
            metrics = obs.metrics()
            assert metrics.counter("fpga.cu.busy_seconds").total() > 0
            assert metrics.counter("fpga.dram.bytes").total() > 0
            assert metrics.gauge("platform.ips").value(
                platform="FA3C", agents="2") == pytest.approx(result.ips)
            utilisation = metrics.gauge("fpga.cu.utilisation")
            assert 0 < utilisation.value(cu="icu0", platform="FA3C") <= 1
            sim_spans = obs.tracer().by_clock(obs.SIM)
            assert {"icu0", "tcu0"} <= {s.lane for s in sim_spans}
            report = obs.registry_report(metrics)
            assert "Compute-unit utilisation" in report
            assert "DRAM traffic by channel" in report


class TestIPSMeterBoundary:
    """The warm-up discard fix for tiny measurement windows."""

    def test_three_routines_discard_at_least_one(self):
        meter = IPSMeter(t_max=5)
        meter.record_routine(0.0, 5)    # warm-up outlier
        meter.record_routine(10.0, 5)
        meter.record_routine(10.01, 5)
        # Before the fix int(3 * 0.25) == 0 kept the outlier: ~1 IPS.
        assert meter.ips() == pytest.approx(500.0, rel=0.01)

    def test_two_routines_cannot_discard(self):
        meter = IPSMeter(t_max=5)
        meter.record_routine(0.0, 5)
        meter.record_routine(0.01, 5)
        assert meter.ips() == pytest.approx(500.0, rel=0.01)

    def test_zero_discard_fraction_keeps_everything(self):
        meter = IPSMeter(t_max=5)
        meter.record_routine(0.0, 5)
        meter.record_routine(1.0, 5)
        meter.record_routine(2.0, 5)
        assert meter.ips(discard_fraction=0.0) == pytest.approx(5.0)

    def test_large_windows_unchanged(self):
        meter = IPSMeter(t_max=5)
        for i in range(1, 21):
            meter.record_routine(i * 0.01, 5)
        assert meter.ips() == pytest.approx(500.0, rel=0.01)
