"""Perf baselines: scenarios, the ``BENCH_fa3c.json`` snapshot, exact diffs.

The simulator is a deterministic discrete-event model, so identical code
produces bit-identical IPS, cycle attribution and per-request latencies.
The committed snapshot is therefore an oracle compared with no
tolerance: any field that differs is a model change.

Workflow (see docs/observability.md):

* ``repro bench --baseline`` runs the scenario matrix and (re)writes the
  committed ``BENCH_fa3c.json`` — per scenario, the IPS, the cause-bucket
  shares and the inference-latency distribution of one simulator run,
  rounded and without timestamps, so the file diffs cleanly in review;
* ``repro bench --check`` re-runs every scenario of :data:`SCENARIOS`
  and exits non-zero with one line per field that differs from the
  committed snapshot (the CI ``perf-gate`` job).
"""

from __future__ import annotations

import json
import typing

from repro import obs
from repro.obs.prof.attribution import AttributionReport
from repro.obs.registry import hdr_bucket_index, hdr_percentile

#: The committed snapshot at the repo root.
DEFAULT_BASELINE = "BENCH_fa3c.json"
SNAPSHOT_VERSION = 2


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
        "latency": _latency_record(result.inference_latencies),
    }
    return entry, report


def _latency_record(latencies: typing.Sequence[float]
                    ) -> typing.Dict[str, object]:
    """The modelled per-request inference-latency distribution.

    Folds the sim-time latencies through the HDR bucketing, so the entry
    carries exact bucket counts alongside rounded microsecond
    percentiles — the queueing-vs-turnaround story FA3C's Figure 5
    argument rests on, per backend.
    """
    buckets: typing.Dict[int, int] = {}
    for value in latencies:
        index = hdr_bucket_index(value)
        buckets[index] = buckets.get(index, 0) + 1

    def us(q: float) -> float:
        return round(hdr_percentile(buckets, q) * 1e6, 3)

    return {
        "requests": len(latencies),
        "p50_us": us(50.0),
        "p90_us": us(90.0),
        "p99_us": us(99.0),
        "p999_us": us(99.9),
        "max_us": round(max(latencies) * 1e6, 3),
        "hdr": {str(index): buckets[index] for index in sorted(buckets)},
    }


def collect_snapshot() -> typing.Dict[str, object]:
    """Run every scenario and assemble a snapshot document (no reports)."""
    return {
        "version": SNAPSHOT_VERSION,
        "scenarios": {name: run_scenario(name)[0]
                      for name in scenario_names()},
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
    if not isinstance(snapshot.get("scenarios"), dict):
        raise ValueError(f"no scenarios object in {path}")
    return snapshot


def diff_scenarios(baseline: typing.Mapping[str, object],
                   current: typing.Mapping[str, object]
                   ) -> typing.List[str]:
    """Every field that differs between two snapshots' ``scenarios``
    mappings (empty = equal).

    One line per differing leaf, named by its dotted path, e.g.
    ``fa3c-n8.latency.hdr.158: 209 -> 210``.  A scenario or field present
    on one side only is a difference too.
    """
    lines: typing.List[str] = []

    def walk(path: str, base: typing.Mapping[str, object],
             cur: typing.Mapping[str, object]) -> None:
        for key in sorted(set(base) | set(cur)):
            where = f"{path}.{key}" if path else key
            if key not in cur:
                lines.append(f"{where}: missing from this run")
            elif key not in base:
                lines.append(f"{where}: missing from the baseline")
            elif isinstance(base[key], dict) and isinstance(cur[key], dict):
                walk(where, base[key], cur[key])
            elif base[key] != cur[key]:
                lines.append(f"{where}: {base[key]} -> {cur[key]}")

    walk("", baseline, current)
    return lines
