"""Tests for run directories, worker-labelled telemetry, and the
chrome pid map."""

import os

import pytest

from repro import obs
from repro.obs import chrome
from repro.obs import runlog
from repro.obs.registry import MetricsRegistry
from repro.obs.report import worker_rows
from repro.obs.tracer import SIM, WALL, ObsSpan, SpanTracer


@pytest.fixture
def runs_root(tmp_path):
    return str(tmp_path / "runs")


def open_run(runs_root, command="train", **meta):
    return runlog.RunLog.open(command, argv=["train", "--x"],
                              root=runs_root, **meta)


def record_run(runs_root, workers=(), rows=(), command="train"):
    """An unfinished run whose parent absorbed each ``(worker, pid,
    rows, spans)`` as ``A3CTrainer._train_procs`` does, beside its own
    ``rows``, and wrote the lot as ``repro train`` does."""
    log = open_run(runs_root, command=command)
    registry, tracer = MetricsRegistry(), SpanTracer()
    registry.absorb_rows(rows)
    for worker, pid, snapshot, spans in workers:
        registry.absorb_rows(snapshot, worker=worker)
        tracer.absorb_rows(spans, pid=pid)
    log.write_telemetry(registry, tracer)
    return log


def counter_row(name, value, **labels):
    return {"name": name, "type": "counter", "labels": labels,
            "value": value}


def routine_span(lane, start=0.0, end=1.0):
    return {"lane": lane, "label": "routine", "start": start,
            "end": end, "clock": WALL}


class TestRegistryMerge:
    def test_absorb_rows_sums_counters_with_labels(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("ps.updates").inc(3.0)
        b.absorb_rows(a.snapshot(), worker="worker-0")
        b.absorb_rows(a.snapshot(), worker="worker-1")
        assert b.counter("ps.updates").value(worker="worker-0") == 3.0
        assert b.counter("ps.updates").total() == 6.0

    def test_absorb_rows_folds_histogram_moments(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for value in (1.0, 3.0):
            a.histogram("ps.lock_wait_seconds").observe(value, op="apply")
        b.absorb_rows(a.snapshot(), worker="w0")
        row = [r for r in b.snapshot()
               if r["name"] == "ps.lock_wait_seconds"][0]
        assert row["count"] == 2 and row["sum"] == 4.0
        assert row["min"] == 1.0 and row["max"] == 3.0
        # HDR buckets fold across processes, so percentiles stay real
        # (bucket midpoints: within the ~6% bucket resolution).
        assert row["p50"] == pytest.approx(1.0, rel=0.07)
        assert row["p99"] == pytest.approx(3.0, rel=0.07)
        assert row["hdr"]

    def test_absorb_rows_gauge_last_write_wins(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("x").set(1.0)
        b.gauge("x").set(9.0)
        b.absorb_rows(a.snapshot())
        assert b.gauge("x").value() == 1.0


class TestTracerMerge:
    def test_snapshot_roundtrip_with_pid(self):
        a = SpanTracer()
        a.record("lane", "work", 0.0, 1.0)
        b = SpanTracer()
        assert b.absorb_rows(a.snapshot(), pid=4242) == 1
        span = b.spans[0]
        assert span.pid == 4242 and span.lane == "lane"
        assert span.as_dict()["pid"] == 4242

    def test_local_spans_have_no_pid_key(self):
        tracer = SpanTracer()
        tracer.record("lane", "work", 0.0, 1.0)
        assert "pid" not in tracer.snapshot()[0]


class TestRunLog:
    def test_manifest_written_and_finished(self, runs_root):
        log = open_run(runs_root, config={"game": "pong"},
                       platform="fa3c-fpga", seed=7)
        manifest = runlog.load_manifest(log.path)
        assert manifest["schema"] == runlog.SCHEMA_VERSION
        assert manifest["command"] == "train"
        assert manifest["outcome"] == "running"
        assert manifest["pid"] == os.getpid()
        assert manifest["config"] == {"game": "pong"}
        log.finish(outcome="ok", global_steps=100)
        manifest = runlog.load_manifest(log.path)
        assert manifest["outcome"] == "ok"
        assert manifest["global_steps"] == 100
        assert manifest["wall_seconds"] >= 0.0

    def test_run_ids_are_unique(self, runs_root):
        ids = {open_run(runs_root).run_id for _ in range(3)}
        assert len(ids) == 3

    def test_telemetry_written_and_loaded(self, runs_root):
        log = open_run(runs_root)
        registry, tracer = MetricsRegistry(), SpanTracer()
        registry.counter("ps.updates").inc(7.0)
        registry.histogram("lat.routine_seconds").observe(0.5)
        tracer.record("lane", "work", 0.0, 1.0)
        log.write_telemetry(registry, tracer)
        log.finish()
        assert sorted(os.listdir(log.path)) == [
            runlog.MANIFEST_NAME, runlog.METRICS_NAME, runlog.SPANS_NAME]
        run = runlog.load_run(log.path)
        assert run.manifest["outcome"] == "ok"
        assert run.rows == registry.snapshot()
        assert [row["name"] for row in run.rows] == [
            "lat.routine_seconds", "ps.updates"]
        assert run.spans == tracer.snapshot()

    def test_run_without_telemetry_loads_empty(self, runs_root):
        log = open_run(runs_root)
        log.finish()
        run = runlog.load_run(log.path)
        assert run.rows == [] and run.spans == []

    def test_list_and_resolve(self, runs_root):
        log_a = open_run(runs_root)
        log_b = open_run(runs_root, command="bench")
        log_a.finish()
        rows = runlog.list_runs(runs_root)
        assert sorted(r["command"] for r in rows) == ["bench", "train"]
        assert runlog.resolve_run(log_b.run_id, runs_root) == log_b.path
        assert runlog.resolve_run("bench", runs_root) == log_b.path
        with pytest.raises(ValueError):
            runlog.resolve_run("nope", runs_root)

    def test_resolve_ambiguous_fragment(self, runs_root):
        open_run(runs_root)
        open_run(runs_root)
        with pytest.raises(ValueError, match="ambiguous"):
            runlog.resolve_run("train", runs_root)


class TestMergeRun:
    """The parent's copy of its workers' telemetry, read back."""

    def test_merge_labels_rows_and_spans_per_worker(self, runs_root):
        log = record_run(runs_root, workers=[
            ("worker-0", 9001, [counter_row("ps.updates", 3.0)],
             [routine_span("agent-0")]),
            ("worker-1", 9002, [counter_row("ps.updates", 4.0)], [])],
            rows=[counter_row("platform.ips", 100.0)])
        log.finish()
        run = runlog.load_run(log.path)
        by_worker = {r["labels"]["worker"]: r["value"]
                     for r in run.rows if r["name"] == "ps.updates"}
        assert by_worker == {"worker-0": 3.0, "worker-1": 4.0}
        # The parent's own rows and spans carry no worker label or pid.
        [ips] = [r for r in run.rows if r["name"] == "platform.ips"]
        assert ips["labels"] == {}
        assert [span["pid"] for span in run.spans] == [9001]

    def test_aggregate_strips_worker_and_sums(self, runs_root):
        log = record_run(runs_root, workers=[
            ("worker-0", 9001, [counter_row("ps.updates", 3.0)], []),
            ("worker-1", 9002, [counter_row("ps.updates", 4.0)], [])])
        log.finish()
        aggregate = runlog.aggregate_rows(runlog.load_run(log.path).rows)
        row = [r for r in aggregate if r["name"] == "ps.updates"][0]
        assert row["value"] == 7.0
        assert "worker" not in row["labels"]


class TestDiffRuns:
    def _run_with(self, runs_root, updates, command="bench",
                  scenarios=None):
        log = record_run(runs_root, command=command, workers=[
            ("worker-0", 9001, [counter_row("ps.updates", updates)], [])])
        if scenarios is not None:
            log.update(scenarios=scenarios)
        log.finish()
        return log

    def test_metric_and_scenario_deltas(self, runs_root):
        log_a = self._run_with(
            runs_root, 3.0,
            scenarios={"s1": {"ips": 100.0,
                              "buckets": {"pe_compute": 0.5}}})
        log_b = self._run_with(
            runs_root, 5.0,
            scenarios={"s1": {"ips": 110.0,
                              "buckets": {"pe_compute": 0.6}}})
        diff = runlog.diff_runs(log_a.run_id, log_b.run_id,
                                root=runs_root)
        metric = [r for r in diff["metrics"]
                  if r["metric"] == "ps.updates"][0]
        assert metric["delta"] == 2.0
        fields = {r["field"]: r["delta"] for r in diff["scenarios"]}
        assert fields["ips"] == pytest.approx(10.0)
        assert fields["bucket:pe_compute"] == pytest.approx(0.1)

    def test_latency_deltas_between_runs(self, runs_root):
        def lat_rows(seconds):
            registry = MetricsRegistry()
            registry.histogram("lat.segment_seconds").observe(
                seconds, trainer="a3c", segment="infer")
            return registry.snapshot()

        logs = []
        for seconds in (0.001, 0.002):
            log = record_run(runs_root, rows=lat_rows(seconds))
            log.finish()
            logs.append(log)
        diff = runlog.diff_runs(logs[0].run_id, logs[1].run_id,
                                root=runs_root)
        rows = {(r["segment"], r["field"]): r for r in diff["latency"]}
        row = rows[("segment=infer,trainer=a3c", "p50_ms")]
        # HDR midpoints: 1ms -> 2ms is a +1ms delta at ~6% resolution.
        assert row["delta"] == pytest.approx(1.0, rel=0.15)
        assert row["a"] == pytest.approx(1.0, rel=0.07)
        assert row["b"] == pytest.approx(2.0, rel=0.07)


class TestCrashedRuns:
    def test_unfinished_run_lists_as_crashed(self, runs_root):
        open_run(runs_root)  # never finished: no end stamp
        rows = runlog.list_runs(runs_root)
        assert rows[0]["outcome"] == "crashed"
        assert rows[0]["wall_seconds"] is None

    def test_torn_manifest_lists_as_crashed_stub(self, runs_root):
        log = open_run(runs_root)
        with open(os.path.join(log.path, runlog.MANIFEST_NAME), "w",
                  encoding="utf-8") as fh:
            fh.write('{"run_id": "torn", ')  # killed mid-write
        rows = runlog.list_runs(runs_root)
        assert len(rows) == 1
        assert rows[0]["outcome"] == "crashed"
        assert rows[0]["run_id"] == os.path.basename(log.path)

    def test_diff_tolerates_crashed_run(self, runs_root):
        log_a = record_run(runs_root,
                           rows=[counter_row("ps.updates", 3.0)])
        with open(os.path.join(log_a.path, runlog.MANIFEST_NAME), "w",
                  encoding="utf-8") as fh:
            fh.write("{not json")
        log_b = record_run(runs_root,
                           rows=[counter_row("ps.updates", 5.0)])
        log_b.finish()
        diff = runlog.diff_runs(log_a.path, log_b.path, root=runs_root)
        assert diff["a"] == os.path.basename(log_a.path)
        metric = [r for r in diff["metrics"]
                  if r["metric"] == "ps.updates"][0]
        assert metric["delta"] == 2.0

    def test_load_run_stub_manifest_outcome(self, runs_root):
        log = open_run(runs_root)
        with open(os.path.join(log.path, runlog.MANIFEST_NAME), "w",
                  encoding="utf-8") as fh:
            fh.write("")
        run = runlog.load_run(log.path)
        assert run.manifest["outcome"] == "crashed"


class TestChromeMultiProcess:
    def _merged_tracer(self):
        """Two workers' spans absorbed under their OS pids, as
        ``A3CTrainer._train_procs`` absorbs them, plus local sim/wall
        spans."""
        tracer = SpanTracer()
        tracer.absorb_rows([routine_span("agent-0", 10.0, 11.0),
                            routine_span("agent-2", 11.0, 12.0)],
                           pid=9001)
        tracer.absorb_rows([routine_span("agent-1", 10.5, 11.5)],
                           pid=9002)
        tracer.record("cu0", "FW", 0.0, 5.0, clock=SIM)
        tracer.record("trainer", "step", 10.0, 12.0, clock=WALL)
        return tracer

    def test_workers_get_distinct_process_groups(self):
        events = chrome.chrome_trace_events(self._merged_tracer().spans)
        names = {e["pid"]: e["args"]["name"] for e in events
                 if e.get("ph") == "M"
                 and e.get("name") == "process_name"}
        assert names[chrome.PID_SIM] == "sim-time"
        assert names[chrome.PID_WALL] == "wall-clock"
        assert names[9001] == "worker-9001"
        assert names[9002] == "worker-9002"
        pids = {e["pid"] for e in events if e.get("ph") == "X"}
        assert {chrome.PID_SIM, chrome.PID_WALL, 9001, 9002} == pids

    def test_tid_ordering_is_first_appearance_per_process(self):
        events = chrome.chrome_trace_events(self._merged_tracer().spans)
        threads = {(e["pid"], e["args"]["name"]): e["tid"]
                   for e in events if e.get("ph") == "M"
                   and e.get("name") == "thread_name"}
        # worker-9001's lanes in absorbed order: agent-0 then agent-2.
        assert threads[(9001, "agent-0")] == 1
        assert threads[(9001, "agent-2")] == 2
        assert threads[(9002, "agent-1")] == 1

    def test_real_pids_never_collide_with_pseudo_pids(self):
        spans = [
            ObsSpan(lane="trainer", label="local", start=0.0, end=1.0,
                    clock=WALL),
            ObsSpan(lane="agent-0", label="w", start=0.0, end=1.0,
                    clock=WALL, pid=1),
            ObsSpan(lane="agent-1", label="w", start=0.0, end=1.0,
                    clock=WALL, pid=2),
        ]
        events = chrome.chrome_trace_events(spans)
        pids = {e["pid"] for e in events if e.get("ph") == "X"}
        assert chrome.PID_WALL in pids
        assert chrome.WORKER_PID_BASE + 1 in pids
        assert chrome.WORKER_PID_BASE + 2 in pids
        names = {e["pid"]: e["args"]["name"] for e in events
                 if e.get("ph") == "M"
                 and e.get("name") == "process_name"}
        # The remapped groups still display the real OS pid.
        assert names[chrome.WORKER_PID_BASE + 1] == "worker-1"
        assert names[chrome.WORKER_PID_BASE + 2] == "worker-2"

    def test_remap_is_injective_for_colliding_high_pids(self):
        """A real OS pid equal to an already-remapped value must not
        merge into the remapped worker's Perfetto process group."""
        spans = [
            ObsSpan(lane="agent-0", label="w", start=0.0, end=1.0,
                    clock=WALL, pid=1),
            ObsSpan(lane="agent-1", label="w", start=0.0, end=1.0,
                    clock=WALL, pid=chrome.WORKER_PID_BASE + 1),
        ]
        events = chrome.chrome_trace_events(spans)
        pids = {e["pid"] for e in events if e.get("ph") == "X"}
        assert pids == {chrome.WORKER_PID_BASE + 1,
                        2 * chrome.WORKER_PID_BASE + 1}
        names = {e["pid"]: e["args"]["name"] for e in events
                 if e.get("ph") == "M"
                 and e.get("name") == "process_name"}
        assert names[chrome.WORKER_PID_BASE + 1] == "worker-1"
        assert names[2 * chrome.WORKER_PID_BASE + 1] == \
            f"worker-{chrome.WORKER_PID_BASE + 1}"


def worker_snapshot(steps, updates, routine_s=0.5, lock_wait_s=0.1):
    """One worker's routine records and parameter-server metrics."""
    registry = MetricsRegistry()
    registry.histogram("lat.routine_seconds").observe(routine_s,
                                                     trainer="a3c")
    registry.counter("lat.total_ns").inc(routine_s * 1e9, trainer="a3c")
    registry.counter("trainer.steps").inc(steps, trainer="a3c")
    registry.counter("ps.updates").inc(updates)
    registry.histogram("ps.lock_wait_seconds").observe(lock_wait_s,
                                                      op="apply")
    return registry.snapshot()


class TestRunReport:
    def test_run_report_renders_workers(self, runs_root):
        log = record_run(runs_root, workers=[
            ("worker-0", 9001, worker_snapshot(10, 3), []),
            ("worker-1", 9002, worker_snapshot(30, 4, lock_wait_s=0.25),
             [])],
            rows=worker_snapshot(5, 1))   # the parent's own rows
        log.finish()
        run = runlog.load_run(log.path)
        rows = {row["worker"]: row for row in worker_rows(run.rows)}
        assert sorted(rows) == ["worker-0", "worker-1"]
        assert rows["worker-0"] == {
            "worker": "worker-0", "routines": 1, "steps": 10,
            "steps_per_s": 20.0, "updates": 3, "lock_wait_s": 0.1,
            "lock_wait_share": 0.2}
        assert rows["worker-1"]["lock_wait_share"] == 0.5
        text = obs.run_report(run)
        assert "Per-worker breakdown" in text
        assert "worker-0" in text and "worker-1" in text
        assert "error" not in text

    def test_run_without_workers_has_no_breakdown(self, runs_root):
        log = record_run(runs_root, rows=worker_snapshot(5, 1))
        log.finish()
        run = runlog.load_run(log.path)
        assert worker_rows(run.rows) == []
        assert "Per-worker breakdown" not in obs.run_report(run)

    def test_run_report_prints_the_error_indented(self, runs_root):
        log = open_run(runs_root)
        log.finish(outcome="failed", error="worker-1 failed: \n"
                   "Traceback (most recent call last):\n"
                   "RuntimeError: boom")
        text = obs.run_report(runlog.load_run(log.path))
        assert "outcome=failed" in text
        assert ("  error:\n    worker-1 failed: \n"
                "    Traceback (most recent call last):\n"
                "    RuntimeError: boom") in text
