"""Run-scoped telemetry: run directories and their manifests.

Every ``train`` / ``sweep`` / ``bench`` invocation opens a **run
directory** (``runs/<run-id>/``) holding

* ``manifest.json`` — what ran: command, argv, config, platform registry
  name, seed, topology, start/end timestamps, the outcome, and the
  error of a failed run;
* ``metrics.jsonl`` and ``spans.jsonl`` — the run's
  :class:`~repro.obs.registry.MetricsRegistry` rows and
  :class:`~repro.obs.tracer.SpanTracer` spans, written once at the end
  of a ``train`` recorded with telemetry on
  (:meth:`RunLog.write_telemetry`).

The parent process is the only writer.  A procs worker ships its final
metric and span snapshots back with its result, and the parent absorbs
them: rows under the worker's ``worker`` label, spans under its OS pid
(so :mod:`repro.obs.chrome` places each worker in its own Perfetto
process group).  :func:`aggregate_rows` collapses the worker label back
out for whole-run totals.  ``repro runs list`` / ``repro runs diff`` /
``repro obs-report --run`` are the CLI surface.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import time
import typing

from repro.obs.registry import MetricsRegistry, load_jsonl
from repro.obs.tracer import SpanTracer

MANIFEST_NAME = "manifest.json"
METRICS_NAME = "metrics.jsonl"
SPANS_NAME = "spans.jsonl"

#: Environment override for the run-directory root (default ``runs/``
#: under the current working directory).
ROOT_ENV = "REPRO_RUNS_DIR"
DEFAULT_ROOT = "runs"

SCHEMA_VERSION = 1

_run_sequence = itertools.count()


def runs_root(root: typing.Optional[str] = None) -> str:
    """The directory run directories live under (not created here)."""
    return root or os.environ.get(ROOT_ENV) or DEFAULT_ROOT


def _iso(ts: float) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(ts))


def new_run_id(command: str) -> str:
    """``<utc-stamp>-<command>-p<pid>-<seq>`` — sortable and unique.

    The pid + in-process sequence disambiguate runs opened within the
    same second (sweeps, tests).
    """
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return f"{stamp}-{command}-p{os.getpid()}-{next(_run_sequence)}"


class RunLog:
    """One run directory, written by the process that opened it."""

    def __init__(self, path: str,
                 manifest: typing.Dict[str, object]):
        self.path = path
        self.manifest = manifest

    @classmethod
    def open(cls, command: str,
             argv: typing.Optional[typing.Sequence[str]] = None,
             config: typing.Optional[typing.Mapping[str, object]] = None,
             platform: typing.Optional[str] = None,
             seed: typing.Optional[int] = None,
             topology: typing.Optional[object] = None,
             root: typing.Optional[str] = None,
             **meta: object) -> "RunLog":
        """Create ``runs/<run-id>/`` and write the initial manifest."""
        run_id = new_run_id(command)
        path = os.path.join(runs_root(root), run_id)
        os.makedirs(path, exist_ok=True)
        started = time.time()
        manifest: typing.Dict[str, object] = {
            "schema": SCHEMA_VERSION,
            "run_id": run_id,
            "command": command,
            "argv": list(argv) if argv is not None else None,
            "pid": os.getpid(),
            "start_time": started,
            "start": _iso(started),
            "outcome": "running",
        }
        if config is not None:
            manifest["config"] = dict(config)
        if platform is not None:
            manifest["platform"] = platform
        if seed is not None:
            manifest["seed"] = seed
        if topology is not None:
            manifest["topology"] = topology
        manifest.update(meta)
        log = cls(path, manifest)
        log._write_manifest()
        return log

    @property
    def run_id(self) -> str:
        return str(self.manifest["run_id"])

    def _write_manifest(self) -> None:
        with open(os.path.join(self.path, MANIFEST_NAME), "w",
                  encoding="utf-8") as fh:
            json.dump(self.manifest, fh, indent=2, sort_keys=True,
                      default=str)
            fh.write("\n")

    def update(self, **fields: object) -> None:
        self.manifest.update(fields)
        self._write_manifest()

    def finish(self, outcome: str = "ok", **fields: object) -> None:
        """Stamp the end time and outcome (idempotent per call)."""
        ended = time.time()
        start = float(typing.cast(float, self.manifest["start_time"]))
        self.update(outcome=outcome, end_time=ended, end=_iso(ended),
                    wall_seconds=ended - start, **fields)

    def write_telemetry(self, registry: MetricsRegistry,
                        tracer: SpanTracer) -> None:
        """Write ``metrics.jsonl`` (the rows ``--metrics`` writes) and
        ``spans.jsonl`` (:meth:`SpanTracer.snapshot` rows)."""
        registry.write_jsonl(os.path.join(self.path, METRICS_NAME))
        with open(os.path.join(self.path, SPANS_NAME), "w",
                  encoding="utf-8") as fh:
            for span in tracer.snapshot():
                fh.write(json.dumps(span, sort_keys=True) + "\n")


# -- reading runs back -----------------------------------------------------


def load_manifest(run_dir: str) -> typing.Dict[str, object]:
    with open(os.path.join(run_dir, MANIFEST_NAME),
              encoding="utf-8") as fh:
        return json.load(fh)


def _manifest_outcome(manifest: typing.Mapping[str, object]) -> str:
    """A run's outcome, rendering interrupted runs as ``crashed``.

    A manifest is only stamped with an ``end`` by :meth:`RunLog.finish`;
    one carrying neither an ``end`` nor a terminal ``outcome`` belongs
    to a process that died (or is still running — indistinguishable
    from the manifest alone, and ``crashed`` is the honest default for
    the historical listing).
    """
    outcome = manifest.get("outcome")
    if outcome in (None, "", "running") and manifest.get("end") is None:
        return "crashed"
    return str(outcome) if outcome not in (None, "") else "crashed"


def list_runs(root: typing.Optional[str] = None
              ) -> typing.List[typing.Dict[str, object]]:
    """Summary rows for every run directory under the root, oldest first.

    Crashed runs stay visible: a torn or unreadable manifest (the
    process died mid-write) renders as a ``crashed`` row rather than
    being skipped, as does a manifest never stamped with an end.
    """
    base = runs_root(root)
    if not os.path.isdir(base):
        return []
    out = []
    for name in sorted(os.listdir(base)):
        run_dir = os.path.join(base, name)
        if not os.path.isfile(os.path.join(run_dir, MANIFEST_NAME)):
            continue
        try:
            manifest = load_manifest(run_dir)
        except (OSError, ValueError):
            manifest = {"run_id": name, "outcome": "crashed"}
        out.append({
            "run_id": manifest.get("run_id", name),
            "command": manifest.get("command", "?"),
            "platform": manifest.get("platform", "-"),
            "start": manifest.get("start", "-"),
            "wall_seconds": manifest.get("wall_seconds"),
            "outcome": _manifest_outcome(manifest),
        })
    out.sort(key=lambda row: str(row["start"]))
    return out


def resolve_run(ref: str, root: typing.Optional[str] = None) -> str:
    """A run directory from an id, unique id fragment, or path."""
    if os.path.isfile(os.path.join(ref, MANIFEST_NAME)):
        return ref
    base = runs_root(root)
    candidate = os.path.join(base, ref)
    if os.path.isfile(os.path.join(candidate, MANIFEST_NAME)):
        return candidate
    if os.path.isdir(base):
        matches = [name for name in sorted(os.listdir(base))
                   if ref in name and os.path.isfile(
                       os.path.join(base, name, MANIFEST_NAME))]
        if len(matches) == 1:
            return os.path.join(base, matches[0])
        if matches:
            raise ValueError(f"run {ref!r} is ambiguous: "
                             + ", ".join(matches))
    raise ValueError(f"no run matching {ref!r} under {base}")


@dataclasses.dataclass
class RecordedRun:
    """One run directory read back: its manifest and telemetry."""

    manifest: typing.Dict[str, object]
    #: Metric rows; a procs worker's rows carry its ``worker`` label.
    rows: typing.List[typing.Dict[str, object]]
    #: Span dicts; a procs worker's spans carry its OS ``pid``.
    spans: typing.List[typing.Dict[str, object]]


def load_run(run_dir: str) -> RecordedRun:
    """Read a run directory's manifest, ``metrics.jsonl`` and
    ``spans.jsonl``.

    A run recorded without telemetry reads as no rows and no spans.  A
    torn manifest (crashed parent) degrades to a stub with outcome
    ``crashed``, so ``obs-report --run`` and ``runs diff`` keep working
    on interrupted runs.
    """
    try:
        manifest = load_manifest(run_dir)
    except (OSError, ValueError):
        manifest = {"run_id": os.path.basename(run_dir.rstrip(os.sep)),
                    "outcome": "crashed"}

    def rows(name: str) -> typing.List[typing.Dict[str, object]]:
        path = os.path.join(run_dir, name)
        return load_jsonl(path) if os.path.isfile(path) else []

    return RecordedRun(manifest=manifest, rows=rows(METRICS_NAME),
                       spans=rows(SPANS_NAME))


def aggregate_rows(rows: typing.Sequence[typing.Mapping[str, object]]
                   ) -> typing.List[typing.Dict[str, object]]:
    """Collapse the ``worker`` label back out: whole-run totals.

    Counters sum across workers, gauges keep the last write, histograms
    fold exact moments plus HDR bucket counts — so merged percentiles
    are real values, identical to a single-process run at bucket
    resolution.
    """
    registry = MetricsRegistry()
    stripped = []
    for row in rows:
        labels = dict(typing.cast(typing.Mapping[str, str],
                                  row.get("labels") or {}))
        labels.pop("worker", None)
        merged = dict(row)
        merged["labels"] = labels
        stripped.append(merged)
    registry.absorb_rows(stripped)
    return registry.snapshot()


# -- run diffing -----------------------------------------------------------


def _metric_key(row: typing.Mapping[str, object]
                ) -> typing.Tuple[str, typing.Tuple]:
    labels = typing.cast(typing.Mapping[str, str],
                         row.get("labels") or {})
    return (str(row.get("name")), tuple(sorted(labels.items())))


def _row_value(row: typing.Optional[typing.Mapping[str, object]]
               ) -> typing.Optional[float]:
    if row is None:
        return None
    if row.get("type") == "histogram":
        return float(typing.cast(float, row.get("sum", 0.0)) or 0.0)
    return float(typing.cast(float, row.get("value", 0.0)) or 0.0)


def diff_metric_rows(rows_a: typing.Sequence[typing.Mapping[str, object]],
                     rows_b: typing.Sequence[typing.Mapping[str, object]]
                     ) -> typing.List[typing.Dict[str, object]]:
    """Aggregate both row sets and report per-metric value deltas."""
    agg_a = {_metric_key(r): r for r in aggregate_rows(rows_a)}
    agg_b = {_metric_key(r): r for r in aggregate_rows(rows_b)}
    out = []
    for key in sorted(set(agg_a) | set(agg_b)):
        row_a, row_b = agg_a.get(key), agg_b.get(key)
        value_a, value_b = _row_value(row_a), _row_value(row_b)
        delta = ((value_b or 0.0) - (value_a or 0.0)
                 if (value_a is not None or value_b is not None) else 0.0)
        name, labels = key
        out.append({
            "metric": name,
            "labels": ",".join(f"{k}={v}" for k, v in labels) or "-",
            "a": value_a if value_a is not None else "-",
            "b": value_b if value_b is not None else "-",
            "delta": delta,
        })
    return out


def diff_latency_rows(rows_a: typing.Sequence[typing.Mapping[str, object]],
                      rows_b: typing.Sequence[typing.Mapping[str, object]]
                      ) -> typing.List[typing.Dict[str, object]]:
    """Per-segment latency percentile deltas (b minus a), in ms.

    Reads the aggregated ``lat.segment_seconds`` histograms — the HDR
    fold keeps p50/p99 real across workers, so the diff works on
    multi-process runs too.
    """
    def percentiles(rows):
        out = {}
        for row in aggregate_rows(rows):
            if row.get("name") != "lat.segment_seconds":
                continue
            labels = typing.cast(typing.Mapping[str, str],
                                 row.get("labels") or {})
            out[tuple(sorted(labels.items()))] = row
        return out

    agg_a = percentiles(rows_a)
    agg_b = percentiles(rows_b)
    out = []
    for key in sorted(set(agg_a) | set(agg_b)):
        row_a = agg_a.get(key) or {}
        row_b = agg_b.get(key) or {}
        for field in ("p50", "p99"):
            value_a = typing.cast(typing.Optional[float],
                                  row_a.get(field))
            value_b = typing.cast(typing.Optional[float],
                                  row_b.get(field))
            if value_a is None and value_b is None:
                continue
            ms_a = value_a * 1e3 if value_a is not None else None
            ms_b = value_b * 1e3 if value_b is not None else None
            out.append({
                "segment": ",".join(f"{k}={v}" for k, v in key) or "-",
                "field": f"{field}_ms",
                "a": ms_a if ms_a is not None else "-",
                "b": ms_b if ms_b is not None else "-",
                "delta": (ms_b or 0.0) - (ms_a or 0.0),
            })
    return out


def _scenario_diff(man_a: typing.Mapping[str, object],
                   man_b: typing.Mapping[str, object]
                   ) -> typing.List[typing.Dict[str, object]]:
    scen_a = typing.cast(typing.Mapping[str, typing.Mapping],
                         man_a.get("scenarios") or {})
    scen_b = typing.cast(typing.Mapping[str, typing.Mapping],
                         man_b.get("scenarios") or {})
    rows = []
    for name in sorted(set(scen_a) | set(scen_b)):
        entry_a = scen_a.get(name) or {}
        entry_b = scen_b.get(name) or {}
        fields = ["ips", "routines_per_second", "wall_seconds"]
        buckets = sorted(set(entry_a.get("buckets") or {})
                         | set(entry_b.get("buckets") or {}))
        fields.extend(f"bucket:{bucket}" for bucket in buckets)
        for field in fields:
            if field.startswith("bucket:"):
                bucket = field[len("bucket:"):]
                value_a = (entry_a.get("buckets") or {}).get(bucket)
                value_b = (entry_b.get("buckets") or {}).get(bucket)
            else:
                value_a = entry_a.get(field)
                value_b = entry_b.get(field)
            if value_a is None and value_b is None:
                continue
            rows.append({
                "scenario": name,
                "field": field,
                "a": value_a if value_a is not None else "-",
                "b": value_b if value_b is not None else "-",
                "delta": (float(value_b or 0.0) - float(value_a or 0.0)),
            })
    return rows


def diff_runs(ref_a: str, ref_b: str,
              root: typing.Optional[str] = None
              ) -> typing.Dict[str, object]:
    """Metric and scenario deltas between two runs (b minus a)."""
    run_a = load_run(resolve_run(ref_a, root))
    run_b = load_run(resolve_run(ref_b, root))
    return {
        "a": run_a.manifest.get("run_id"),
        "b": run_b.manifest.get("run_id"),
        "scenarios": _scenario_diff(run_a.manifest, run_b.manifest),
        "metrics": diff_metric_rows(run_a.rows, run_b.rows),
        "latency": diff_latency_rows(run_a.rows, run_b.rows),
    }
