"""Tests for repro.obs.lat: HDR histograms, segment decomposition,
critical-path extraction, the latency report tables, and the latency
record of the bench snapshot."""

import math

import numpy as np
import pytest

from repro import obs
from repro.core import A3CConfig, A3CTrainer, GA3CTrainer, PAACTrainer
from repro.envs import Catch
from repro.envs.base import Env
from repro.envs.spaces import Box, Discrete
from repro.nn.network import MLPPolicyNetwork
from repro.obs import lat, report
from repro.obs.registry import (
    HDR_SUBBUCKETS,
    MetricsRegistry,
    hdr_bucket_bounds,
    hdr_bucket_index,
    hdr_percentile,
)
from repro.obs.tracer import ObsSpan


class Bandit(Env):
    """One-step episodes: action 0 pays +1, action 1 pays -1."""

    def __init__(self):
        super().__init__()
        self.observation_space = Box(0, 1, (2,))
        self.action_space = Discrete(2)

    def reset(self):
        return np.ones(2, dtype=np.float32)

    def step(self, action):
        reward = 1.0 if int(action) == 0 else -1.0
        return np.ones(2, dtype=np.float32), reward, True, {}


def bandit_net():
    return MLPPolicyNetwork(num_actions=2, input_shape=(2,), hidden=8)


class TestHdrBuckets:
    def test_bounds_contain_their_values(self):
        for value in (2e-9, 1e-6, 3.7e-4, 0.001, 0.9, 1.0, 12.5, 1e3):
            lo, hi = hdr_bucket_bounds(hdr_bucket_index(value))
            assert lo <= value < hi, value

    def test_indices_are_monotonic(self):
        values = [1e-8 * (1.17 ** i) for i in range(120)]
        indices = [hdr_bucket_index(v) for v in values]
        assert indices == sorted(indices)

    def test_underflow_lands_in_bucket_zero(self):
        assert hdr_bucket_index(0.0) == 0
        assert hdr_bucket_index(1e-12) == 0
        assert hdr_bucket_index(-1.0) == 0

    def test_midpoint_error_is_within_bucket_resolution(self):
        rel = 1.0 / (2 * HDR_SUBBUCKETS) + 1e-9
        for value in (1e-6, 0.00042, 0.0031, 0.25, 7.0):
            estimate = hdr_percentile(
                {hdr_bucket_index(value): 1}, 50.0)
            assert estimate == pytest.approx(value, rel=2 * rel)

    def test_percentile_accepts_string_keys(self):
        index = hdr_bucket_index(0.5)
        exact = hdr_percentile({index: 3}, 99.0)
        assert hdr_percentile({str(index): 3}, 99.0) == exact

    def test_percentile_empty_is_nan_and_range_checked(self):
        assert math.isnan(hdr_percentile({}, 50.0))
        with pytest.raises(ValueError):
            hdr_percentile({3: 1}, 150.0)


class TestHdrFoldExactness:
    def test_sharded_fold_is_bit_identical_to_single_process(self):
        values = [0.0001 * (1.3 ** i) for i in range(40)]
        single = MetricsRegistry()
        for value in values:
            single.histogram("h").observe(value)
        merged = MetricsRegistry()
        for shard_index in range(4):
            shard = MetricsRegistry()
            for value in values[shard_index::4]:
                shard.histogram("h").observe(value)
            merged.absorb_rows(shard.snapshot())
        row_single = single.snapshot()[0]
        row_merged = merged.snapshot()[0]
        assert row_merged["hdr"] == row_single["hdr"]
        assert row_merged["count"] == row_single["count"]
        for q in (50.0, 90.0, 99.0):
            assert hdr_percentile(row_merged["hdr"], q) == \
                hdr_percentile(row_single["hdr"], q)

    def test_merged_percentiles_render_real_values(self):
        merged = MetricsRegistry()
        for worker, value in (("w0", 0.001), ("w1", 0.004)):
            shard = MetricsRegistry()
            shard.histogram("h").observe(value)
            merged.absorb_rows(shard.snapshot(), worker=worker)
        rows = merged.snapshot()
        for row in rows:
            assert row["p50"] is not None
            assert row["p99"] is not None


def ticks(*values):
    """A fake ``perf_counter_ns``: each call returns the next value."""
    return iter(values).__next__


class TestRoutineLatency:
    def test_segments_total_and_other_remainder(self):
        with obs.enabled_scope():
            recorder = lat.RoutineLatency(
                "t", clock=ticks(1000, 1300, 1500, 2000))
            recorder.lap("infer")
            recorder.lap("train")
            total = recorder.finish()
            assert total == 1000
            registry = obs.metrics()
            seg = registry.counter(lat.SEGMENT_NS)
            assert seg.value(trainer="t", segment="infer") == 300
            assert seg.value(trainer="t", segment="train") == 200
            assert seg.value(trainer="t", segment="other") == 500
            assert registry.counter(lat.TOTAL_NS).value(trainer="t") \
                == 1000

    def test_laps_tile_start_to_end_exactly(self):
        with obs.enabled_scope():
            recorder = lat.RoutineLatency("t")
            for segment in ("param_sync", "infer", "env_step", "train"):
                recorder.lap(segment)
            total = recorder.finish()
            rows = obs.metrics().snapshot()
        segments = {r["labels"]["segment"]: r["value"] for r in rows
                    if r["name"] == lat.SEGMENT_NS}
        assert set(segments) == {"param_sync", "infer", "env_step",
                                 "train", "other"}
        assert sum(segments.values()) == total
        assert lat.validate_rows(rows) == 1

    def test_repeated_laps_accumulate(self):
        with obs.enabled_scope():
            recorder = lat.RoutineLatency(
                "t", start_ns=0, clock=ticks(10, 15, 40, 40))
            recorder.lap("infer")
            recorder.lap("env_step")
            recorder.lap("infer")
            recorder.finish()
            registry = obs.metrics()
            seg = registry.counter(lat.SEGMENT_NS)
            assert seg.value(trainer="t", segment="infer") == 35
            assert seg.value(trainer="t", segment="env_step") == 5
            # One observation per segment per routine: the sum.
            assert registry.histogram(lat.SEGMENT_SECONDS).count(
                trainer="t", segment="infer") == 1

    def test_finish_without_laps_charges_other(self):
        with obs.enabled_scope():
            total = lat.RoutineLatency(
                "t", start_ns=100, clock=ticks(350)).finish()
            assert total == 250
            seg = obs.metrics().counter(lat.SEGMENT_NS)
            assert seg.value(trainer="t", segment="other") == 250
            assert len(obs.tracer()) == 0     # no lane, no span

    def test_platform_label_is_attached(self):
        with obs.enabled_scope():
            lat.RoutineLatency("t", platform="fa3c-fpga",
                               start_ns=0, clock=ticks(10)).finish()
            value = obs.metrics().counter(lat.TOTAL_NS).value(
                trainer="t", platform="fa3c-fpga")
            assert value == 10

    def test_steps_and_lane_record_one_wall_span(self):
        with obs.enabled_scope():
            lat.RoutineLatency("t", lane="agent-3", start_ns=2_000_000_000,
                               clock=ticks(3_000_000_000)).finish(steps=5)
            spans = obs.tracer().spans
            assert obs.metrics().counter(lat.STEPS).value(trainer="t") == 5
        assert len(spans) == 1
        span = spans[0]
        assert (span.lane, span.label, span.clock) == (
            "agent-3", "routine", obs.WALL)
        assert (span.start, span.end) == (2.0, 3.0)
        assert span.args == {"steps": 5}


class TestValidateRows:
    def _rows(self):
        with obs.enabled_scope():
            recorder = lat.RoutineLatency("t", start_ns=0,
                                          clock=ticks(40, 100))
            recorder.lap("infer")
            recorder.finish()
            return obs.metrics().snapshot()

    def test_valid_rows_pass(self):
        assert lat.validate_rows(self._rows()) == 1

    def test_tampered_total_fails(self):
        rows = self._rows()
        for row in rows:
            if row["name"] == lat.TOTAL_NS:
                row["value"] = 999.0
        with pytest.raises(lat.LatencyError):
            lat.validate_rows(rows)

    def test_orphan_total_fails(self):
        rows = [{"name": lat.TOTAL_NS, "type": "counter",
                 "labels": {"trainer": "t"}, "value": 10.0}]
        with pytest.raises(lat.LatencyError):
            lat.validate_rows(rows)

    def test_survives_cross_process_fold(self):
        merged = MetricsRegistry()
        for worker in ("w0", "w1"):
            merged.absorb_rows(self._rows(), worker=worker)
        assert lat.validate_rows(merged.snapshot()) == 2


class TestTrainerInvariant:
    """Every trainer's recorded segments sum to its recorded totals."""

    def _config(self, **kwargs):
        defaults = dict(num_agents=2, t_max=3, max_steps=60,
                        learning_rate=1e-2, anneal_steps=10 ** 9, seed=1)
        defaults.update(kwargs)
        return A3CConfig(**defaults)

    def _validate_live(self):
        rows = obs.metrics().snapshot()
        assert lat.validate_rows(rows) >= 1
        return rows

    def test_a3c_serial_records_exact_segments(self):
        with obs.enabled_scope():
            A3CTrainer(lambda i: Bandit(), bandit_net,
                       self._config()).train(actors="serial")
            rows = self._validate_live()
        segments = {r["labels"]["segment"] for r in rows
                    if r["name"] == lat.SEGMENT_NS}
        assert {"param_sync", "infer", "env_step", "batch_form",
                "train", "apply"} <= segments

    def test_a3c_threads_record_exact_segments(self):
        with obs.enabled_scope():
            A3CTrainer(lambda i: Bandit(), bandit_net,
                       self._config()).train(actors="threads")
            self._validate_live()

    def test_ga3c_records_queue_wait(self):
        with obs.enabled_scope():
            GA3CTrainer(lambda i: Bandit(), bandit_net,
                        self._config(max_steps=120),
                        training_batch_rollouts=2).train()
            rows = self._validate_live()
        segments = {(r["labels"]["trainer"], r["labels"]["segment"])
                    for r in rows if r["name"] == lat.SEGMENT_NS}
        assert {("ga3c", "queue_wait"), ("ga3c", "apply"),
                ("ga3c-predict", "batch_form"),
                ("ga3c-predict", "infer")} <= segments

    def test_paac_records_exact_segments(self):
        with obs.enabled_scope():
            PAACTrainer(lambda i: Bandit(), bandit_net,
                        self._config()).train()
            rows = self._validate_live()
        segments = {r["labels"]["segment"] for r in rows
                    if r["name"] == lat.SEGMENT_NS}
        assert {"infer", "env_step", "batch_form", "train",
                "apply"} <= segments

    @pytest.mark.parametrize("trainer_class",
                             [A3CTrainer, PAACTrainer, GA3CTrainer])
    def test_laps_leave_little_to_other_on_catch(self, trainer_class):
        """What no lap claims stays under 5% of each record's total.
        ``ga3c-predict`` is left out: its routine is one forward pass of
        a few microseconds, of which fixed recording cost is a visible
        share."""
        with obs.enabled_scope():
            trainer = trainer_class(
                lambda i: Catch(size=5),
                lambda: MLPPolicyNetwork(3, (5, 5), hidden=16),
                self._config(num_agents=4, t_max=5, max_steps=800))
            if trainer_class is A3CTrainer:
                trainer.train(actors="serial")
            else:
                trainer.train()
            rows = self._validate_live()
        other = {r["labels"]["trainer"]: r["value"] for r in rows
                 if r["name"] == lat.SEGMENT_NS
                 and r["labels"]["segment"] == lat.OTHER}
        totals = {r["labels"]["trainer"]: r["value"] for r in rows
                  if r["name"] == lat.TOTAL_NS}
        totals.pop("ga3c-predict", None)
        assert totals
        for trainer, total in totals.items():
            assert other[trainer] <= 0.05 * total, (
                trainer, other[trainer] / total)

    @pytest.mark.slow
    def test_procs_backend_invariant_after_absorb(self):
        with obs.enabled_scope():
            trainer = A3CTrainer(lambda i: Bandit(), bandit_net,
                                 self._config(max_steps=400))
            trainer.train(actors="procs", workers=2)
            rows = obs.metrics().snapshot()
        lat_rows = [r for r in rows
                    if r["name"] in (lat.SEGMENT_NS, lat.TOTAL_NS)]
        assert lat_rows, "workers shipped no latency rows"
        workers = {r["labels"].get("worker") for r in lat_rows}
        assert len(workers) >= 1
        assert lat.validate_rows(rows) >= 1


class TestCriticalPath:
    def _spans(self):
        return [
            ObsSpan(lane="agent-0", label="routine", start=0.0,
                    end=10.0, clock="wall", depth=0),
            ObsSpan(lane="agent-0", label="update", start=1.0, end=9.0,
                    clock="wall", depth=1),
            ObsSpan(lane="agent-0", label="grads", start=2.0, end=8.0,
                    clock="wall", depth=2),
            ObsSpan(lane="agent-0", label="small", start=0.0, end=0.5,
                    clock="wall", depth=1),
            ObsSpan(lane="cu0", label="FW", start=0.0, end=100.0,
                    clock="sim", depth=0),
        ]

    def test_longest_chain_per_lane(self):
        rows = lat.critical_path_rows(self._spans())
        by_lane = {row["lane"]: row for row in rows}
        assert by_lane["agent-0"]["chain"] == "routine > update > grads"
        assert by_lane["agent-0"]["duration"] == pytest.approx(10.0)
        assert by_lane["agent-0"]["depth"] == 3
        # Sim spans keep their own clock units (cycles) and sort first.
        assert rows[0]["lane"] == "cu0"
        assert rows[0]["duration"] == pytest.approx(100.0)

    def test_accepts_span_dicts_and_honours_top(self):
        spans = [s.as_dict() for s in self._spans()]
        rows = lat.critical_path_rows(spans, top=1)
        assert len(rows) == 1
        assert rows[0]["lane"] == "cu0"

    def test_deterministic_tie_break(self):
        spans = [
            ObsSpan(lane="l", label="b", start=0.0, end=1.0,
                    clock="wall", depth=0),
            ObsSpan(lane="l", label="a", start=0.0, end=1.0,
                    clock="wall", depth=0),
        ]
        first = lat.critical_path_rows(spans)
        second = lat.critical_path_rows(list(reversed(spans)))
        assert first == second


class TestLatencyReport:
    def _rows(self):
        with obs.enabled_scope():
            recorder = lat.RoutineLatency(
                "a3c", start_ns=0, clock=ticks(600_000, 900_000, 1_000_000))
            recorder.lap("infer")
            recorder.lap("train")
            recorder.finish()
            return obs.metrics().snapshot()

    def test_latency_rows_have_percentiles_and_share(self):
        rows = report.latency_rows(self._rows())
        by_segment = {row["segment"]: row for row in rows}
        infer = by_segment["infer"]
        assert infer["count"] == 1
        assert infer["p50_ms"] == pytest.approx(0.6, rel=0.07)
        assert float(infer["share"]) == pytest.approx(0.6)
        assert float(by_segment["other"]["share"]) == pytest.approx(0.1)

    def test_routine_rows_render_end_to_end(self):
        rows = report.latency_routine_rows(self._rows())
        assert rows[0]["trainer"] == "a3c"
        assert rows[0]["p50_ms"] == pytest.approx(1.0, rel=0.07)

    def test_obs_report_gates_latency_tables(self):
        rows = self._rows()
        assert "Latency by segment" not in report.obs_report(rows)
        text = report.obs_report(rows, latency=True)
        assert "Latency by segment" in text
        assert "End-to-end routine latency" in text


class TestBenchLatency:
    """The per-scenario latency record in ``BENCH_fa3c.json`` and the
    exact gate over it."""

    def _scenario(self):
        from repro.obs.prof import baseline
        return baseline, baseline.scenario_names()[0]

    def _latency_only(self, baseline, name):
        entry, _ = baseline.run_scenario(name)
        return {name: {"latency": entry["latency"]}}

    def test_run_latency_scenario_is_deterministic(self):
        baseline, name = self._scenario()
        first = baseline.run_scenario(name)[0]["latency"]
        second = baseline.run_scenario(name)[0]["latency"]
        assert first == second
        assert first["requests"] > 0
        assert first["p99_us"] >= first["p50_us"] > 0
        assert sum(first["hdr"].values()) == first["requests"]

    def test_check_latency_passes_and_flags_growth(self):
        baseline, name = self._scenario()
        current = self._latency_only(baseline, name)
        assert baseline.diff_scenarios(current, current) == []
        slower = {name: {"latency": dict(current[name]["latency"])}}
        slower[name]["latency"]["p99_us"] *= 2.0
        # The gate is exact: slower and faster than baseline both fail.
        for base, cur in ((current, slower), (slower, current)):
            failures = baseline.diff_scenarios(base, cur)
            assert failures and f"{name}.latency.p99_us" in failures[0]

    def test_check_latency_flags_workload_drift_and_missing(self):
        baseline, name = self._scenario()
        current = self._latency_only(baseline, name)
        drifted = {name: {"latency": dict(current[name]["latency"])}}
        drifted[name]["latency"]["requests"] += 1
        assert any(f"{name}.latency.requests" in failure for failure in
                   baseline.diff_scenarios(current, drifted))
        failures = baseline.diff_scenarios(current, {})
        assert any("missing" in failure for failure in failures)

    def test_load_latency_rejects_wrong_version(self, tmp_path):
        from repro.obs.prof import baseline
        path = tmp_path / baseline.DEFAULT_BASELINE
        path.write_text('{"version": 99, "scenarios": {}}',
                        encoding="utf-8")
        with pytest.raises(ValueError):
            baseline.load_snapshot(str(path))
