"""Perf baselines: named scenarios, ``BENCH_fa3c.json`` snapshots, checks.

The simulator is a deterministic discrete-event model, so identical code
produces bit-identical IPS and attribution — any drift in a snapshot
diff is a real behaviour change.  That makes tight tolerances practical:
the defaults allow 5 % relative IPS drop and 2 percentage points of
bucket-share drift, there to absorb intentional small remodelling
without a baseline refresh, not measurement noise.

Workflow (see docs/observability.md):

* ``repro bench --baseline`` runs the scenario matrix and (re)writes the
  committed ``BENCH_fa3c.json`` — IPS plus cause-bucket shares per
  scenario, no timestamps, so the file diffs cleanly in review;
* ``repro bench --check`` re-runs the scenarios named in the snapshot
  and exits non-zero listing every out-of-tolerance metric (the CI
  ``perf-gate`` job).
"""

from __future__ import annotations

import json
import typing

from repro import obs
from repro.obs.prof.attribution import AttributionReport

#: The committed snapshot at the repo root.
DEFAULT_BASELINE = "BENCH_fa3c.json"
SNAPSHOT_VERSION = 1

#: Allowed relative IPS drop before the gate fails.
DEFAULT_IPS_RTOL = 0.05
#: Allowed absolute drift of one bucket's share (0.02 = 2 points).
DEFAULT_SHARE_ATOL = 0.02

#: The committed per-scenario latency-distribution snapshot.
DEFAULT_LATENCY_BASELINE = "BENCH_latency.json"
LATENCY_VERSION = 1

#: The p99 gate is informational: sim-time latencies are deterministic,
#: but HDR quantisation means a one-bucket shift can move a percentile by
#: ~12 %, so the tolerance is wider than the IPS gate's.  Exact
#: distribution changes still show up in the committed ``hdr`` counts,
#: which diff bit-for-bit.
DEFAULT_LATENCY_RTOL = 0.25


class Scenario(typing.NamedTuple):
    """One benchmarked configuration: a backend under a fixed load."""

    name: str
    backend: str                          # repro.backends registry name
    overrides: typing.Tuple[typing.Tuple[str, object], ...] = ()
    num_agents: int = 8
    t_max: int = 5
    routines: int = 25
    host: str = ""                        # "" = default HostModel

    def build(self):
        """A fresh backend instance (default topology) for one run."""
        from repro import backends
        return backends.create(self.backend, **dict(self.overrides))

    def build_host(self):
        """The HostModel for this scenario (None = platform default)."""
        if not self.host:
            return None
        from repro.platforms.throughput import HostModel
        factory = getattr(HostModel, self.host, None)
        if factory is None:
            raise ValueError(f"unknown host model {self.host!r} in "
                             f"scenario {self.name!r}")
        return factory()


#: The bench matrix: the proposed design, the Section 5.4 ablations that
#: move cycles between cause buckets (no double buffering -> buffer
#: stalls, Alt2 -> layout traffic), and the software baselines.
SCENARIOS: typing.Tuple[Scenario, ...] = (
    Scenario("fa3c-n8", "fa3c-fpga"),
    Scenario("fa3c-single-cu-n8", "fa3c-single-cu"),
    Scenario("fa3c-alt2-n8", "fa3c-alt2"),
    Scenario("fa3c-nodb-n8", "fa3c-fpga",
             (("double_buffering", False),)),
    Scenario("gpu-cudnn-n8", "a3c-cudnn"),
    Scenario("ga3c-tf-n8", "ga3c-tf"),
    # GA3C fed by the SoA batched engine: the amortised host step
    # (HostModel.batched, a frozen calibration figure) shifts the
    # occupancy curve toward the contention-limited region.
    Scenario("ga3c-tf-batched-n8", "ga3c-tf", host="batched"),
    Scenario("a3c-tf-gpu-n8", "a3c-tf-gpu"),
    Scenario("a3c-tf-cpu-n8", "a3c-tf-cpu"),
    # Precision-parametric datapaths: same FA3C microarchitecture at
    # narrower operand storage (more words per DRAM beat, more PEs per
    # DSP budget).  Separate scenarios so the fp32 entries above stay
    # untouched — their gate is zero-drift by construction.
    Scenario("fa3c-fp16-n8", "fa3c-fp16"),
    Scenario("fa3c-int8-n8", "fa3c-int8"),
)

_BY_NAME = {scenario.name: scenario for scenario in SCENARIOS}


def scenario_names(backend: typing.Optional[str] = None
                   ) -> typing.List[str]:
    """Scenario names, optionally only those of one registry backend."""
    return [scenario.name for scenario in SCENARIOS
            if backend is None or scenario.backend == backend]


def run_scenario(name: str) -> typing.Tuple[typing.Dict[str, object],
                                            AttributionReport]:
    """Run one scenario under a fresh metrics scope.

    Returns the snapshot entry (rounded for diff-stable JSON) and the
    validated attribution report backing it.
    """
    try:
        scenario = _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; known: "
            f"{', '.join(scenario_names())}") from None
    from repro.platforms import measure_ips
    platform = scenario.build()
    with obs.enabled_scope(reset=True):
        result = measure_ips(platform, scenario.num_agents,
                             t_max=scenario.t_max,
                             routines_per_agent=scenario.routines,
                             host=scenario.build_host())
        report = AttributionReport.from_registry(obs.metrics()).validate()
    shares = report.bucket_shares()
    entry = {
        "ips": round(result.ips, 3),
        "buckets": {bucket: round(share, 4)
                    for bucket, share in sorted(shares.items())},
    }
    return entry, report


def run_latency_scenario(name: str) -> typing.Dict[str, object]:
    """One scenario's modelled inference-latency distribution.

    Folds the deterministic sim-time per-request latencies
    (:attr:`repro.platforms.throughput.ThroughputResult
    .inference_latencies`) through the HDR bucketing, so the committed
    entry carries exact bucket counts alongside rounded microsecond
    percentiles — the queueing-vs-turnaround story FA3C's Figure 5
    argument rests on, per backend.
    """
    try:
        scenario = _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; known: "
            f"{', '.join(scenario_names())}") from None
    from repro.obs.registry import hdr_bucket_index, hdr_percentile
    from repro.platforms import ThroughputSetup
    setup = ThroughputSetup(scenario.build(), scenario.build_host())
    result = setup.measure(scenario.num_agents, t_max=scenario.t_max,
                           routines_per_agent=scenario.routines)
    latencies = result.inference_latencies
    buckets: typing.Dict[int, int] = {}
    for value in latencies:
        index = hdr_bucket_index(value)
        buckets[index] = buckets.get(index, 0) + 1

    def us(q: float) -> float:
        return round(hdr_percentile(buckets, q) * 1e6, 3)

    return {
        "requests": len(latencies),
        "p50_us": us(50.0) if latencies else None,
        "p90_us": us(90.0) if latencies else None,
        "p99_us": us(99.0) if latencies else None,
        "p999_us": us(99.9) if latencies else None,
        "max_us": (round(max(latencies) * 1e6, 3)
                   if latencies else None),
        "hdr": {str(index): buckets[index]
                for index in sorted(buckets)},
    }


def collect_latency(names: typing.Optional[
                        typing.Sequence[str]] = None,
                    rtol: float = DEFAULT_LATENCY_RTOL
                    ) -> typing.Dict[str, object]:
    """Run the latency matrix and assemble a snapshot document."""
    scenarios = {}
    for name in names or scenario_names():
        scenarios[name] = run_latency_scenario(name)
    return {
        "version": LATENCY_VERSION,
        "tolerances": {"latency_rtol": rtol},
        "scenarios": scenarios,
    }


def load_latency(path) -> typing.Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        snapshot = json.load(handle)
    version = snapshot.get("version")
    if version != LATENCY_VERSION:
        raise ValueError(f"unsupported latency baseline version "
                         f"{version!r} in {path}")
    return snapshot


def check_latency(baseline: typing.Mapping[str, object],
                  current: typing.Mapping[str, object],
                  rtol: typing.Optional[float] = None
                  ) -> typing.List[str]:
    """Informational p99 comparison; returns failure messages.

    Fails on tail-latency growth beyond ``rtol`` (lower latency
    passes), on a request-count mismatch (the workload itself changed),
    and on missing scenarios.
    """
    if rtol is None:
        tolerances = baseline.get("tolerances") or {}
        rtol = float(tolerances.get("latency_rtol",
                                    DEFAULT_LATENCY_RTOL))
    failures = []
    base_scenarios = baseline.get("scenarios") or {}
    cur_scenarios = current.get("scenarios") or {}
    for name in sorted(base_scenarios):
        base = base_scenarios[name]
        cur = cur_scenarios.get(name)
        if cur is None:
            failures.append(f"{name}: scenario missing from current run")
            continue
        base_requests = int(base.get("requests", 0) or 0)
        cur_requests = int(cur.get("requests", 0) or 0)
        if base_requests != cur_requests:
            failures.append(
                f"{name}: request count changed {base_requests} -> "
                f"{cur_requests} (workload drift)")
        base_p99 = base.get("p99_us")
        cur_p99 = cur.get("p99_us")
        if base_p99 is None or cur_p99 is None:
            continue
        ceiling = float(base_p99) * (1.0 + rtol)
        if float(cur_p99) > ceiling:
            failures.append(
                f"{name}: p99 latency grew {float(base_p99):.1f}us -> "
                f"{float(cur_p99):.1f}us "
                f"({100.0 * (float(cur_p99) / float(base_p99) - 1.0):+.1f}%"
                f", tolerance +{100.0 * rtol:.0f}%)")
    return failures


def collect_snapshot(names: typing.Optional[typing.Sequence[str]] = None,
                     ips_rtol: float = DEFAULT_IPS_RTOL,
                     share_atol: float = DEFAULT_SHARE_ATOL,
                     ) -> typing.Dict[str, object]:
    """Run scenarios and assemble a snapshot document (no reports)."""
    scenarios = {}
    for name in names or scenario_names():
        entry, _report = run_scenario(name)
        scenarios[name] = entry
    return {
        "version": SNAPSHOT_VERSION,
        "tolerances": {"ips_rtol": ips_rtol, "share_atol": share_atol},
        "scenarios": scenarios,
    }


def write_snapshot(snapshot: typing.Mapping[str, object], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_snapshot(path) -> typing.Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        snapshot = json.load(handle)
    version = snapshot.get("version")
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported baseline version {version!r} "
                         f"in {path}")
    return snapshot


def check_snapshot(baseline: typing.Mapping[str, object],
                   current: typing.Mapping[str, object],
                   ips_rtol: typing.Optional[float] = None,
                   share_atol: typing.Optional[float] = None
                   ) -> typing.List[str]:
    """Compare two snapshots; returns failure messages (empty = pass).

    IPS fails only on regression beyond ``ips_rtol`` (a faster run passes
    — refresh the baseline to lock it in); bucket shares fail on drift in
    either direction, because a share shift means the cycle attribution
    itself changed.
    """
    tolerances = baseline.get("tolerances") or {}
    if ips_rtol is None:
        ips_rtol = float(tolerances.get("ips_rtol", DEFAULT_IPS_RTOL))
    if share_atol is None:
        share_atol = float(tolerances.get("share_atol",
                                          DEFAULT_SHARE_ATOL))
    failures = []
    base_scenarios = baseline.get("scenarios") or {}
    cur_scenarios = current.get("scenarios") or {}
    for name in sorted(base_scenarios):
        base = base_scenarios[name]
        cur = cur_scenarios.get(name)
        if cur is None:
            failures.append(f"{name}: scenario missing from current run")
            continue
        base_ips = float(base.get("ips", 0.0))
        cur_ips = float(cur.get("ips", 0.0))
        floor = base_ips * (1.0 - ips_rtol)
        if cur_ips < floor:
            failures.append(
                f"{name}: ips regressed {base_ips:.1f} -> {cur_ips:.1f} "
                f"({100.0 * (cur_ips / base_ips - 1.0):+.1f}%, "
                f"tolerance -{100.0 * ips_rtol:.0f}%)")
        base_buckets = base.get("buckets") or {}
        cur_buckets = cur.get("buckets") or {}
        for bucket in sorted(set(base_buckets) | set(cur_buckets)):
            base_share = float(base_buckets.get(bucket, 0.0))
            cur_share = float(cur_buckets.get(bucket, 0.0))
            drift = cur_share - base_share
            if abs(drift) > share_atol:
                failures.append(
                    f"{name}: bucket {bucket!r} share moved "
                    f"{base_share:.4f} -> {cur_share:.4f} "
                    f"({100.0 * drift:+.1f} points, tolerance "
                    f"±{100.0 * share_atol:.0f})")
    return failures
