"""Tests of the benchmark's own code: checks, tracing, and names."""

import dataclasses
import functools
import json
import math
import pathlib
import subprocess
import sys
import time

import pytest

import repro.core.agent as agent_module
from perfbench import gauge, trace, workloads

ROOT = pathlib.Path(__file__).resolve().parents[2]

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED_IPS = workloads.load_expected_ips(ROOT / "BENCH_fa3c.json")
#: Two A3C rounds: a traced run splits them into two one-round windows.
A3C_STEPS = 2 * workloads.A3C_SCALAR.round_steps
PAAC_STEPS = 2 * workloads.PAAC_BATCHED.round_steps


def _names(section):
    return [metric["name"] for metric in BENCHMARK[section]]


def _units(section):
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


def test_workload_and_metric_tables_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(workloads.WORKLOADS)
    assert _units("end_to_end") == workloads.END_TO_END_UNITS
    assert _units("per_layer") == workloads.per_layer_units()


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name,steps", [("a3c-scalar", A3C_STEPS),
                                        ("paac-batched", PAAC_STEPS)])
def test_training_runs_report_every_metric(name, steps, traced):
    workload = {"a3c-scalar": workloads.A3C_SCALAR,
                "paac-batched": workloads.PAAC_BATCHED}[name]
    outcome = workloads.run_training(workload, seed=5, steps=steps,
                                     traced=traced)
    section = "per_layer" if traced else "end_to_end"
    assert sorted(outcome.metrics) == sorted(_names(section))
    assert outcome.failed == 0 and outcome.attempted > 0
    if traced:
        metrics = outcome.metrics
        parts = sum(metrics[f"{part}.share"]
                    for part in workloads.PARTS + ("core.other",))
        assert parts == pytest.approx(1.0, abs=1e-9)
        assert metrics["nn.train.batch_mean"] > 0
        assert metrics["sim.events"] == 0
    else:
        assert all(value > 0 for value in outcome.metrics.values())


def test_printed_result_line_names_every_metric():
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "a3c-scalar", "--seed", "2", "--seconds", "1",
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == \
        _units("end_to_end")


def test_non_finite_loss_counts_as_failed(monkeypatch):
    original = agent_module.apply_rollout_update

    @functools.wraps(original)
    def poisoned(*args, **kwargs):
        loss = original(*args, **kwargs)
        return dataclasses.replace(loss, value_loss=math.nan)

    monkeypatch.setattr(agent_module, "apply_rollout_update", poisoned)
    outcome = workloads.run_training(workloads.A3C_SCALAR, seed=5,
                                     steps=A3C_STEPS, traced=False)
    routines = outcome.recorded["routines"]
    assert routines > 0
    # Every routine fails; the final θ is still finite.
    assert outcome.failed == routines
    assert outcome.attempted == routines + 1


def test_modelled_ips_mismatch_counts_as_failed():
    expected = dict(EXPECTED_IPS)
    expected["ga3c-tf-n8"] += 0.001
    outcome = workloads.run_sim_matrix(seed=1, passes=2, traced=False,
                                       expected_ips=expected)
    assert outcome.failed == 2
    assert outcome.attempted == 2 * len(EXPECTED_IPS)


def test_sim_matrix_trace_counts_events():
    outcome = workloads.run_sim_matrix(seed=1, passes=2, traced=True,
                                       expected_ips=EXPECTED_IPS)
    assert outcome.failed == 0
    assert sorted(outcome.metrics) == sorted(_names("per_layer"))
    assert outcome.metrics["sim.events"] > 0
    assert outcome.metrics["nn.infer.calls"] == 0


def _patchable_state():
    """Everything the traced runs patch on classes and modules."""
    classes = (workloads.AtariGame, workloads.VecAtariGame,
               workloads.A3CNetwork, workloads.Conv2D, workloads.Dense,
               workloads.SharedRMSProp, workloads.ParameterServer,
               workloads.Rollout)
    state = {cls: dict(vars(cls)) for cls in classes}
    state.update({name: module.__dict__.get("apply_rollout_update")
                  for name, module in sorted(sys.modules.items())
                  if name.startswith("repro.")})
    return state


def test_traced_runs_restore_every_wrapped_function():
    before = _patchable_state()
    workloads.run_training(workloads.A3C_SCALAR, seed=5, steps=A3C_STEPS,
                           traced=True)
    workloads.run_sim_matrix(seed=1, passes=2, traced=True,
                             expected_ips=EXPECTED_IPS)
    assert _patchable_state() == before


def test_patcher_removes_instance_and_inherited_wrappers():
    class Base:
        def step(self):
            return "base"

    class Child(Base):
        pass

    child = Child()
    tracer = trace.Tracer()
    with trace.Patcher() as patcher:
        patcher.wrap(child, "step", tracer.wrapper("instance"))
        patcher.wrap(Child, "step", tracer.wrapper("inherited"))
        assert "step" in vars(child) and "step" in vars(Child)
    assert "step" not in vars(child) and "step" not in vars(Child)
    assert child.step() == "base"


def test_nested_span_of_the_same_name_fails_loudly():
    tracer = trace.Tracer()

    def outer(inner):
        return inner()

    traced = tracer.wrapper("envs.step", attributing=True)
    tracer.open(0)
    with pytest.raises(trace.TraceError, match="counted twice"):
        traced(outer)(traced(lambda: None))


def test_decomposition_counts_each_nanosecond_once():
    tracer = trace.Tracer()
    train = tracer.wrapper("nn.train", attributing=True)(
        lambda apply: apply())
    apply = tracer.wrapper("core.ps.apply", attributing=True)(lambda: None)
    started = time.perf_counter_ns()
    tracer.open(started)
    train(apply)
    tracer.close(time.perf_counter_ns())
    assert tracer.self_ns["nn.train"] == \
        tracer.busy_ns["nn.train"] - tracer.busy_ns["core.ps.apply"]
    assert sum(tracer.self_ns.values()) + tracer.other_ns == \
        tracer.window_ns


def test_gauge_rescales_host_time_to_the_nominal_kernel_speed():
    clock = gauge.Gauge()
    # Every sample takes twice the nominal time: a machine at half speed.
    clock.starts = [0, 10_000_000, 30_000_000]
    clock.ends = [start + 2 * gauge.NOMINAL_NS for start in clock.starts]
    first_gap = clock.starts[1] - clock.ends[0]
    assert clock.seconds(clock.ends[0], clock.starts[1]) == \
        pytest.approx(first_gap / 2 / 1e9)
    # The samples' own time counts as zero.
    both_gaps = first_gap + clock.starts[2] - clock.ends[1]
    assert clock.seconds(clock.ends[0], clock.starts[2]) == \
        pytest.approx(both_gaps / 2 / 1e9)
    assert clock.probe_ns(0, clock.ends[-1]) == 3 * 2 * gauge.NOMINAL_NS


def test_gauge_hook_samples_at_most_once_per_interval():
    clock = gauge.Gauge()
    ticking = clock.hook(lambda value: value + 1)
    assert [ticking(value) for value in range(5)] == [1, 2, 3, 4, 5]
    assert len(clock.starts) == 1
