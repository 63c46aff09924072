"""Utilisation / traffic summaries over collected (or reloaded) metrics.

Works from either a live :class:`~repro.obs.registry.MetricsRegistry`
snapshot or rows re-read from a JSONL file, so ``repro obs-report`` can
post-process any previous run.  The canonical metric names it understands
are listed in ``docs/observability.md``.
"""

from __future__ import annotations

import typing

from repro.harness.report import format_table
from repro.obs.prof.attribution import AttributionReport
from repro.obs.registry import MetricsRegistry

Rows = typing.Sequence[typing.Mapping[str, object]]


def _select(rows: Rows, name: str) -> typing.List[typing.Mapping]:
    return [row for row in rows if row.get("name") == name]


def _label(row: typing.Mapping, key: str, default: str = "-") -> str:
    labels = row.get("labels") or {}
    return str(labels.get(key, default))


def cu_utilisation_rows(rows: Rows) -> typing.List[typing.Dict[str, object]]:
    """Per-CU busy fraction (and busy sim-seconds when counted)."""
    busy = {_label(r, "cu"): r.get("value", 0.0)
            for r in _select(rows, "fpga.cu.busy_seconds")}
    out = []
    for row in _select(rows, "fpga.cu.utilisation"):
        cu = _label(row, "cu")
        out.append({
            "cu": cu,
            "platform": _label(row, "platform"),
            "busy_fraction": round(float(row.get("value", 0.0)), 4),
            "busy_seconds": round(float(busy.get(cu, 0.0)), 6),
        })
    return sorted(out, key=lambda r: (r["platform"], r["cu"]))


def dram_traffic_rows(rows: Rows) -> typing.List[typing.Dict[str, object]]:
    """Per-channel DRAM bytes split by direction, plus DMA bursts."""
    by_channel: typing.Dict[str, typing.Dict[str, float]] = {}
    for row in _select(rows, "fpga.dram.bytes"):
        entry = by_channel.setdefault(
            _label(row, "channel"), {"load": 0.0, "store": 0.0})
        entry[_label(row, "dir", "load")] = float(row.get("value", 0.0))
    bursts = {_label(r, "channel"): float(r.get("value", 0.0))
              for r in _select(rows, "fpga.dram.bursts")}
    out = []
    for channel in sorted(by_channel):
        entry = by_channel[channel]
        out.append({
            "channel": channel,
            "loaded_bytes": int(entry.get("load", 0.0)),
            "stored_bytes": int(entry.get("store", 0.0)),
            "total_bytes": int(entry.get("load", 0.0)
                               + entry.get("store", 0.0)),
            "bursts": int(bursts.get(channel, 0.0)),
        })
    return out


def _per_label(rows: Rows, name: str, key: str,
               field: str = "value") -> typing.Dict[str, float]:
    """One metric's ``field`` summed per value of its ``key`` label."""
    out: typing.Dict[str, float] = {}
    for row in _select(rows, name):
        group = _label(row, key)
        out[group] = out.get(group, 0.0) + float(
            typing.cast(float, row.get(field, 0.0)) or 0.0)
    return out


def trainer_rows(rows: Rows, by: str = "trainer"
                 ) -> typing.List[typing.Dict[str, object]]:
    """Per-trainer routines, steps and steps per second of routine
    time, from the routine records (``lat.*`` and ``trainer.steps``);
    ``by`` names the label to group by instead of ``trainer``."""
    routines = _per_label(rows, "lat.routine_seconds", by, "count")
    total_ns = _per_label(rows, "lat.total_ns", by)
    out = []
    for group, steps in sorted(_per_label(rows, "trainer.steps",
                                          by).items()):
        seconds = total_ns.get(group, 0.0) * 1e-9
        out.append({
            by: group,
            "routines": int(routines.get(group, 0.0)),
            "steps": int(steps),
            "steps_per_s": _round(steps / seconds, 1)
            if seconds > 0 else "-",
        })
    return out


def worker_rows(rows: Rows) -> typing.List[typing.Dict[str, object]]:
    """Per-worker breakdown of a procs run: :func:`trainer_rows` by the
    ``worker`` label the parent gives each worker's rows, with the
    worker's parameter-server updates and seqlock wait
    (``ps.lock_wait_seconds``, summed over its ``op`` labels), and that
    wait's share of the worker's routine time."""
    updates = _per_label(rows, "ps.updates", "worker")
    lock_wait = _per_label(rows, "ps.lock_wait_seconds", "worker", "sum")
    total_ns = _per_label(rows, "lat.total_ns", "worker")
    out = []
    for row in trainer_rows(rows, by="worker"):
        worker = str(row["worker"])
        if worker == "-":
            continue
        seconds = total_ns.get(worker, 0.0) * 1e-9
        wait = lock_wait.get(worker, 0.0)
        out.append(dict(row, updates=int(updates.get(worker, 0.0)),
                        lock_wait_s=round(wait, 4),
                        lock_wait_share=round(wait / seconds, 4)
                        if seconds > 0 else "-"))
    return out


def gpu_kernel_rows(rows: Rows) -> typing.List[typing.Dict[str, object]]:
    """Per-kernel launch counts plus the occupancy distribution."""
    out = []
    for row in _select(rows, "gpu.kernel.launches"):
        out.append({"kernel": _label(row, "kernel"),
                    "launches": int(row.get("value", 0.0))})
    out.sort(key=lambda r: (-r["launches"], r["kernel"]))
    for row in _select(rows, "gpu.kernel.occupancy"):
        out.append({"kernel": "(occupancy p50/p90)",
                    "launches": f"{_round(row.get('p50'))}/"
                                f"{_round(row.get('p90'))}"})
    return out


def ips_rows(rows: Rows) -> typing.List[typing.Dict[str, object]]:
    out = []
    for row in _select(rows, "platform.ips"):
        out.append({"platform": _label(row, "platform"),
                    "agents": _label(row, "agents"),
                    "ips": _round(row.get("value"))})
    return sorted(out, key=lambda r: (r["platform"], r["agents"]))


def _ms(value) -> object:
    """Seconds → milliseconds for the latency tables (``-`` when absent)."""
    if value is None:
        return "-"
    try:
        return round(float(value) * 1e3, 4)
    except (TypeError, ValueError):
        return value


def latency_rows(rows: Rows) -> typing.List[typing.Dict[str, object]]:
    """Per-segment latency percentiles (ms) with share of total time.

    Reads the ``lat.segment_seconds`` histograms — HDR-folded, so the
    percentiles are real values even when the rows were absorbed from
    worker processes — and the ``lat.segment_ns`` / ``lat.total_ns``
    counters for each segment's exact share of end-to-end time.
    """
    def group_key(row):
        labels = row.get("labels") or {}
        return tuple(sorted((k, v) for k, v in labels.items()
                            if k != "segment"))

    seg_ns = {(_metric_labels(r)): float(r.get("value", 0.0) or 0.0)
              for r in _select(rows, "lat.segment_ns")}
    total_ns = {(_metric_labels(r)): float(r.get("value", 0.0) or 0.0)
                for r in _select(rows, "lat.total_ns")}
    out = []
    for row in _select(rows, "lat.segment_seconds"):
        full = _metric_labels(row)
        group = tuple(item for item in full if item[0] != "segment")
        total = total_ns.get(group, 0.0)
        ns = seg_ns.get(full, 0.0)
        out.append({
            "trainer": _label(row, "trainer"),
            "platform": _label(row, "platform"),
            "worker": _label(row, "worker"),
            "segment": _label(row, "segment"),
            "count": int(typing.cast(int, row.get("count", 0)) or 0),
            "p50_ms": _ms(row.get("p50")),
            "p90_ms": _ms(row.get("p90")),
            "p99_ms": _ms(row.get("p99")),
            "p999_ms": _ms(row.get("p999")),
            "share": round(ns / total, 4) if total > 0 else "-",
        })
    return sorted(out, key=lambda r: (r["trainer"], r["platform"],
                                      r["worker"], r["segment"]))


def latency_routine_rows(rows: Rows
                         ) -> typing.List[typing.Dict[str, object]]:
    """End-to-end routine latency percentiles (ms) per trainer."""
    out = []
    for row in _select(rows, "lat.routine_seconds"):
        out.append({
            "trainer": _label(row, "trainer"),
            "platform": _label(row, "platform"),
            "worker": _label(row, "worker"),
            "count": int(typing.cast(int, row.get("count", 0)) or 0),
            "p50_ms": _ms(row.get("p50")),
            "p90_ms": _ms(row.get("p90")),
            "p99_ms": _ms(row.get("p99")),
            "p999_ms": _ms(row.get("p999")),
            "max_ms": _ms(row.get("max")),
        })
    return sorted(out, key=lambda r: (r["trainer"], r["platform"],
                                      r["worker"]))


def _metric_labels(row: typing.Mapping) -> typing.Tuple:
    labels = row.get("labels") or {}
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _round(value, digits: int = 3):
    if value is None:
        return "-"
    try:
        return round(float(value), digits)
    except (TypeError, ValueError):
        return value


def trace_lane_rows(doc: typing.Mapping[str, object]
                    ) -> typing.List[typing.Dict[str, object]]:
    """Per-lane busy time / span count from a Chrome trace document."""
    events = doc.get("traceEvents", [])
    names: typing.Dict[typing.Tuple[int, int], str] = {}
    for event in events:
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            names[(event["pid"], event["tid"])] = \
                event.get("args", {}).get("name", "?")
    busy: typing.Dict[typing.Tuple[int, int], float] = {}
    counts: typing.Dict[typing.Tuple[int, int], int] = {}
    window: typing.Dict[int, typing.List[float]] = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        key = (event["pid"], event["tid"])
        busy[key] = busy.get(key, 0.0) + float(event.get("dur", 0.0))
        counts[key] = counts.get(key, 0) + 1
        lo_hi = window.setdefault(event["pid"], [float("inf"), 0.0])
        lo_hi[0] = min(lo_hi[0], float(event["ts"]))
        lo_hi[1] = max(lo_hi[1], float(event["ts"])
                       + float(event.get("dur", 0.0)))
    rows = []
    for key in sorted(busy):
        pid = key[0]
        lo, hi = window.get(pid, [0.0, 0.0])
        total = hi - lo
        rows.append({
            "lane": names.get(key, f"pid{key[0]}/tid{key[1]}"),
            "clock": {1: "sim", 2: "wall"}.get(pid, str(pid)),
            "spans": counts[key],
            "busy_ms": round(busy[key] / 1000.0, 3),
            "busy_fraction": round(busy[key] / total, 4)
            if total > 0 else 0.0,
        })
    return rows


def obs_report(rows: Rows,
               trace_doc: typing.Optional[typing.Mapping] = None,
               latency: bool = False) -> str:
    """The full plain-text report ``repro obs-report`` prints.

    ``latency=True`` (the ``--latency`` flag) appends the per-segment
    and end-to-end latency percentile tables.
    """
    sections = []
    cu = cu_utilisation_rows(rows)
    if cu:
        sections.append(format_table(
            cu, title="Compute-unit utilisation"))
    dram = dram_traffic_rows(rows)
    if dram:
        sections.append(format_table(
            dram, title="DRAM traffic by channel"))
    trainers = trainer_rows(rows)
    if trainers:
        sections.append(format_table(
            trainers, title="Trainer step rates (steps per second of "
                            "routine time)"))
    kernels = gpu_kernel_rows(rows)
    if kernels:
        sections.append(format_table(kernels, title="GPU kernel launches"))
    ips = ips_rows(rows)
    if ips:
        sections.append(format_table(ips, title="Measured IPS"))
    attribution = AttributionReport(rows)
    if attribution.has_fpga:
        sections.append(format_table(
            attribution.layer_rows(),
            title="Cycle attribution by layer/stage (share of all CU "
                  "cycles, bucket % of the row)"))
        sections.append(format_table(
            attribution.cu_rows(), title="Cycle attribution by CU"))
    if attribution.has_gpu:
        sections.append(format_table(
            attribution.gpu_rows(),
            title="GPU time attribution by task (bucket % of the row)"))
    if latency:
        segments = latency_rows(rows)
        if segments:
            sections.append(format_table(
                segments, title="Latency by segment (queue vs compute; "
                                "share of lat.total_ns)"))
        routines = latency_routine_rows(rows)
        if routines:
            sections.append(format_table(
                routines, title="End-to-end routine latency"))
    if trace_doc is not None:
        lanes = trace_lane_rows(trace_doc)
        if lanes:
            sections.append(format_table(
                lanes, title="Trace lanes (busy over each clock's "
                             "span window)"))
    if not sections:
        return "(no recognised metrics — was REPRO_OBS/--metrics on?)"
    return "\n\n".join(sections)


def registry_report(registry: MetricsRegistry,
                    trace_doc: typing.Optional[typing.Mapping] = None,
                    latency: bool = False) -> str:
    """Report straight from a live registry."""
    return obs_report(registry.snapshot(), trace_doc, latency=latency)


def run_report(run, latency: bool = False) -> str:
    """The ``repro obs-report --run`` rendering for one recorded run.

    Composes the manifest summary (with a failed run's error), the
    whole-run metric tables (worker label aggregated out) and the
    per-worker breakdown.  ``run`` is a
    :class:`repro.obs.runlog.RecordedRun`.  ``latency=True``
    additionally renders the per-worker latency table and the critical
    path through each lane's recorded spans.
    """
    from repro.obs import lat as lat_mod
    from repro.obs import runlog as runlog_mod

    manifest = run.manifest
    head = [f"run {manifest.get('run_id', '?')}: "
            f"command={manifest.get('command', '?')} "
            f"outcome={manifest.get('outcome', '?')}"]
    details = []
    for key in ("platform", "seed", "start", "wall_seconds"):
        if manifest.get(key) is not None:
            details.append(f"{key}={_round(manifest[key])}"
                           if key == "wall_seconds"
                           else f"{key}={manifest[key]}")
    if details:
        head.append("  " + "  ".join(details))
    if manifest.get("error") is not None:
        head.append("  error:")
        head.extend(f"    {line}"
                    for line in str(manifest["error"]).splitlines())
    sections = ["\n".join(head),
                obs_report(runlog_mod.aggregate_rows(run.rows),
                           latency=latency)]
    if latency:
        per_worker = [row for row in latency_rows(run.rows)
                      if row["worker"] != "-"]
        if per_worker:
            sections.append(format_table(
                per_worker, title="Latency by segment, per worker"))
        chains = lat_mod.critical_path_rows(run.spans)
        if chains:
            for chain in chains:
                chain["duration"] = _round(chain["duration"], 6)
            sections.append(format_table(
                chains, title="Critical path per lane (longest nested "
                              "span chain; duration in the lane's "
                              "clock units)"))
    workers = worker_rows(run.rows)
    if workers:
        sections.append(format_table(
            workers, title="Per-worker breakdown (steps per second of "
                           "routine time; lock-wait share of it)"))
    return "\n\n".join(sections)
