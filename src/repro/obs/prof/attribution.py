"""The attribution engine: bucket counters -> per-CU/layer/stage reports.

Instrumented platforms record cause-bucketed durations through the
:mod:`repro.obs` metrics registry:

* ``fpga.cycles``  (labels ``cu``, ``task``, ``stage``, ``layer``,
  ``bucket``) — integer simulated cycles per cause, plus
  ``fpga.cycles.total`` (label ``cu``) incremented by the same integer
  amount per stage, so the bucket/total invariant is bit-exact;
* ``gpu.time_ns`` (labels ``platform``, ``task``, ``bucket``) — integer
  nanoseconds of modelled GPU/host time, plus ``gpu.time_ns.total``
  (labels ``platform``, ``task``).

:class:`AttributionReport` aggregates either a live registry snapshot or
rows reloaded from a ``--metrics`` JSONL file into per-CU, per-layer and
per-stage breakdowns, validates the sum-to-total invariant, and feeds the
folded-stack exporter and the roofline-gap report.
"""

from __future__ import annotations

import typing

from repro.obs.prof.buckets import (
    FPGA_BUCKETS,
    FPGA_CYCLES_METRIC,
    FPGA_CYCLES_TOTAL_METRIC,
    GPU_BUCKETS,
    GPU_TIME_METRIC,
    GPU_TIME_TOTAL_METRIC,
)

Rows = typing.Sequence[typing.Mapping[str, object]]

#: (cu, task, stage, layer, bucket) -> cycles
FPGAKey = typing.Tuple[str, str, str, str, str]
#: (platform, task, bucket) -> nanoseconds
GPUKey = typing.Tuple[str, str, str]


class AttributionError(ValueError):
    """The bucket/total invariant does not hold."""


class AttributionReport:
    """Aggregated cycle/time attribution over one run's metrics."""

    def __init__(self, rows: Rows):
        self.fpga: typing.Dict[FPGAKey, float] = {}
        self.fpga_totals: typing.Dict[str, float] = {}
        self.gpu: typing.Dict[GPUKey, float] = {}
        self.gpu_totals: typing.Dict[typing.Tuple[str, str], float] = {}
        self.task_counts: typing.Dict[str, float] = {}
        for row in rows:
            name = row.get("name")
            labels = row.get("labels") or {}
            value = float(row.get("value", 0.0) or 0.0)
            if name == FPGA_CYCLES_METRIC:
                key = (str(labels.get("cu", "?")),
                       str(labels.get("task", "?")),
                       str(labels.get("stage", "?")),
                       str(labels.get("layer", "?")),
                       str(labels.get("bucket", "?")))
                self.fpga[key] = self.fpga.get(key, 0.0) + value
            elif name == FPGA_CYCLES_TOTAL_METRIC:
                cu = str(labels.get("cu", "?"))
                self.fpga_totals[cu] = self.fpga_totals.get(cu, 0.0) \
                    + value
            elif name == GPU_TIME_METRIC:
                gkey = (str(labels.get("platform", "?")),
                        str(labels.get("task", "?")),
                        str(labels.get("bucket", "?")))
                self.gpu[gkey] = self.gpu.get(gkey, 0.0) + value
            elif name == GPU_TIME_TOTAL_METRIC:
                tkey = (str(labels.get("platform", "?")),
                        str(labels.get("task", "?")))
                self.gpu_totals[tkey] = self.gpu_totals.get(tkey, 0.0) \
                    + value
            elif name == "fpga.cu.tasks":
                task = str(labels.get("task", "?"))
                self.task_counts[task] = self.task_counts.get(task, 0.0) \
                    + value

    @classmethod
    def from_registry(cls, registry) -> "AttributionReport":
        """Build from a live :class:`~repro.obs.MetricsRegistry`."""
        return cls(registry.snapshot())

    # -- invariant ---------------------------------------------------------

    def validate(self) -> "AttributionReport":
        """Assert buckets sum exactly to the recorded totals.

        Both sides accumulate the *same* integer stage contributions
        (below 2**53, so float addition is exact); any difference means
        an instrumentation bug.  Raises :class:`AttributionError`.
        """
        by_cu: typing.Dict[str, float] = {}
        for (cu, _task, _stage, _layer, _bucket), v in self.fpga.items():
            by_cu[cu] = by_cu.get(cu, 0.0) + v
        for cu in sorted(set(by_cu) | set(self.fpga_totals)):
            if by_cu.get(cu, 0.0) != self.fpga_totals.get(cu, 0.0):
                raise AttributionError(
                    f"fpga.cycles buckets for cu={cu!r} sum to "
                    f"{by_cu.get(cu, 0.0)} but fpga.cycles.total is "
                    f"{self.fpga_totals.get(cu, 0.0)}")
        by_task: typing.Dict[typing.Tuple[str, str], float] = {}
        for (platform, task, _bucket), v in self.gpu.items():
            key = (platform, task)
            by_task[key] = by_task.get(key, 0.0) + v
        for key in sorted(set(by_task) | set(self.gpu_totals)):
            if by_task.get(key, 0.0) != self.gpu_totals.get(key, 0.0):
                raise AttributionError(
                    f"gpu.time_ns buckets for {key} sum to "
                    f"{by_task.get(key, 0.0)} but gpu.time_ns.total is "
                    f"{self.gpu_totals.get(key, 0.0)}")
        return self

    # -- aggregate queries -------------------------------------------------

    @property
    def has_fpga(self) -> bool:
        return bool(self.fpga)

    @property
    def has_gpu(self) -> bool:
        return bool(self.gpu)

    def fpga_total_cycles(self) -> float:
        return sum(self.fpga.values())

    def fpga_bucket_totals(self) -> typing.Dict[str, float]:
        """Cycles per cause bucket, across all CUs / tasks / layers."""
        out: typing.Dict[str, float] = {}
        for (_cu, _task, _stage, _layer, bucket), v in self.fpga.items():
            out[bucket] = out.get(bucket, 0.0) + v
        return out

    def fpga_bucket_shares(self) -> typing.Dict[str, float]:
        """Fraction of all simulated CU cycles per cause bucket."""
        totals = self.fpga_bucket_totals()
        grand = sum(totals.values())
        if grand <= 0:
            return {}
        return {bucket: v / grand for bucket, v in totals.items()}

    def gpu_bucket_totals(self) -> typing.Dict[str, float]:
        out: typing.Dict[str, float] = {}
        for (_platform, _task, bucket), v in self.gpu.items():
            out[bucket] = out.get(bucket, 0.0) + v
        return out

    def gpu_bucket_shares(self) -> typing.Dict[str, float]:
        totals = self.gpu_bucket_totals()
        grand = sum(totals.values())
        if grand <= 0:
            return {}
        return {bucket: v / grand for bucket, v in totals.items()}

    def bucket_shares(self) -> typing.Dict[str, float]:
        """FPGA shares when present, else GPU shares (bench snapshots)."""
        return self.fpga_bucket_shares() if self.has_fpga \
            else self.gpu_bucket_shares()

    def fpga_layer_cycles(self, stage: typing.Optional[str] = None,
                          layer: typing.Optional[str] = None) -> float:
        """Cycles matching a stage kind and/or layer, across CUs."""
        total = 0.0
        for (_cu, _task, skind, slayer, _bucket), v in self.fpga.items():
            if stage is not None and skind != stage:
                continue
            if layer is not None and slayer != layer:
                continue
            total += v
        return total

    def fpga_layer_buckets(self, stage: str, layer: str
                           ) -> typing.Dict[str, float]:
        out: typing.Dict[str, float] = {}
        for (_cu, _task, skind, slayer, bucket), v in self.fpga.items():
            if skind == stage and slayer == layer:
                out[bucket] = out.get(bucket, 0.0) + v
        return out

    def fpga_top_bucket(self, stage: str, layer: str) -> str:
        buckets = self.fpga_layer_buckets(stage, layer)
        if not buckets:
            return "-"
        return max(sorted(buckets), key=lambda b: buckets[b])

    # -- table rows (rendered through repro.harness.report) ----------------

    def layer_rows(self) -> typing.List[typing.Dict[str, object]]:
        """Per-(layer, stage) attribution: absolute cycles + bucket %.

        Only buckets that appear anywhere in the run become columns, so
        tables stay narrow (e.g. no ``buffer_stall`` column on a
        double-buffered run).
        """
        grand = self.fpga_total_cycles()
        present = [b for b in FPGA_BUCKETS
                   if self.fpga_bucket_totals().get(b, 0.0) > 0]
        groups: typing.Dict[typing.Tuple[str, str],
                            typing.Dict[str, float]] = {}
        for (_cu, _task, stage, layer, bucket), v in self.fpga.items():
            entry = groups.setdefault((stage, layer), {})
            entry[bucket] = entry.get(bucket, 0.0) + v
        rows = []
        for (stage, layer) in sorted(groups):
            entry = groups[(stage, layer)]
            total = sum(entry.values())
            row: typing.Dict[str, object] = {
                "layer": layer,
                "stage": stage,
                "cycles": int(total),
                "share": f"{100.0 * total / grand:.1f}%"
                if grand else "-",
            }
            for bucket in present:
                row[bucket] = f"{100.0 * entry.get(bucket, 0.0) / total:.1f}%" \
                    if total else "-"
            rows.append(row)
        return rows

    def cu_rows(self) -> typing.List[typing.Dict[str, object]]:
        """Per-CU bucket breakdown (absolute cycles + percent)."""
        groups: typing.Dict[str, typing.Dict[str, float]] = {}
        for (cu, _task, _stage, _layer, bucket), v in self.fpga.items():
            entry = groups.setdefault(cu, {})
            entry[bucket] = entry.get(bucket, 0.0) + v
        present = [b for b in FPGA_BUCKETS
                   if any(b in e for e in groups.values())]
        rows = []
        for cu in sorted(groups):
            entry = groups[cu]
            total = sum(entry.values())
            row: typing.Dict[str, object] = {"cu": cu,
                                             "cycles": int(total)}
            for bucket in present:
                row[bucket] = f"{100.0 * entry.get(bucket, 0.0) / total:.1f}%" \
                    if total else "-"
            rows.append(row)
        return rows

    def gpu_rows(self) -> typing.List[typing.Dict[str, object]]:
        """Per-(platform, task) GPU time breakdown in milliseconds."""
        groups: typing.Dict[typing.Tuple[str, str],
                            typing.Dict[str, float]] = {}
        for (platform, task, bucket), v in self.gpu.items():
            entry = groups.setdefault((platform, task), {})
            entry[bucket] = entry.get(bucket, 0.0) + v
        present = [b for b in GPU_BUCKETS
                   if any(b in e for e in groups.values())]
        rows = []
        for (platform, task) in sorted(groups):
            entry = groups[(platform, task)]
            total = sum(entry.values())
            row: typing.Dict[str, object] = {
                "platform": platform,
                "task": task,
                "total_ms": round(total / 1e6, 3),
            }
            for bucket in present:
                row[bucket] = f"{100.0 * entry.get(bucket, 0.0) / total:.1f}%" \
                    if total else "-"
            rows.append(row)
        return rows
