"""Labelled metrics: counters, gauges, and histograms.

A :class:`MetricsRegistry` owns named metrics; each metric holds one
sample per label combination (Prometheus-style, e.g. a single
``fpga.dram.bytes`` counter with a sample per ``channel``/``dir`` pair).
Snapshots are plain dict rows so they serialise directly to JSON, and
:meth:`MetricsRegistry.write_jsonl` appends one row per line so repeated
bench runs produce diffable, comparable files.
"""

from __future__ import annotations

import json
import math
import typing

LabelKey = typing.Tuple[typing.Tuple[str, str], ...]

#: Retained observations per histogram sample; beyond this the window
#: slides (percentiles then describe the most recent observations, while
#: count / sum / min / max stay exact over the full stream).
HISTOGRAM_WINDOW = 8192

#: HDR bucket geometry: each power of two above :data:`HDR_MIN` is split
#: into this many linear sub-buckets, so the worst-case relative error
#: of a bucket-derived percentile is ~1/(2*HDR_SUBBUCKETS) ≈ 6%.
HDR_SUBBUCKETS = 8
#: Values at or below this land in bucket 0 (1 ns when observations are
#: seconds — far below anything the trainers measure).
HDR_MIN = 1e-9


def hdr_bucket_index(value: float) -> int:
    """Deterministic log-spaced bucket index for a value.

    The mapping is pure IEEE-754 arithmetic (``math.frexp``), so every
    process assigns every observation to the same bucket — which is what
    makes cross-process folds exact: merging bucket *counts* loses
    nothing that a single-process run would have kept.
    """
    scaled = value / HDR_MIN
    if scaled <= 1.0:
        return 0
    mantissa, exponent = math.frexp(scaled)
    return (exponent - 1) * HDR_SUBBUCKETS + int(
        (mantissa - 0.5) * 2.0 * HDR_SUBBUCKETS)


def hdr_bucket_bounds(index: int) -> typing.Tuple[float, float]:
    """The ``[lo, hi)`` value range of one bucket."""
    octave, sub = divmod(int(index), HDR_SUBBUCKETS)
    base = HDR_MIN * (2.0 ** octave)
    return (base * (1.0 + sub / HDR_SUBBUCKETS),
            base * (1.0 + (sub + 1) / HDR_SUBBUCKETS))


def hdr_percentile(buckets: typing.Mapping[object, object],
                   q: float) -> float:
    """Percentile from folded bucket counts (bucket-midpoint estimate).

    ``buckets`` maps bucket index (int, or str after a JSON round trip)
    to observation count.  Quantised to the bucket resolution but
    deterministic and mergeable — unlike window percentiles, the answer
    is identical whether the counts came from one process or were
    folded from many.
    """
    counts = []
    total = 0
    for index, count in buckets.items():
        count = int(typing.cast(int, count))
        if count > 0:
            counts.append((int(typing.cast(int, index)), count))
            total += count
    if not total:
        return float("nan")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100]: {q}")
    counts.sort()
    rank = max(1, math.ceil((q / 100.0) * total))
    seen = 0
    for index, count in counts:
        seen += count
        if seen >= rank:
            break
    lo, hi = hdr_bucket_bounds(index)
    return (lo + hi) / 2.0


def _label_key(labels: typing.Mapping[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Base: name + per-label-combination samples."""

    kind = "metric"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._samples: typing.Dict[LabelKey, typing.Any] = {}

    def _sample(self, labels: typing.Mapping[str, str]):
        key = _label_key(labels)
        if key not in self._samples:
            self._samples[key] = self._new_sample()
        return self._samples[key]

    def _new_sample(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def clear(self) -> None:
        self._samples.clear()

    def rows(self) -> typing.List[typing.Dict[str, object]]:
        """One snapshot dict per label combination."""
        out = []
        for key, sample in self._samples.items():
            row: typing.Dict[str, object] = {
                "name": self.name,
                "type": self.kind,
                "labels": dict(key),
            }
            row.update(self._sample_fields(sample))
            out.append(row)
        return out

    def _sample_fields(self, sample) -> typing.Dict[str, object]:
        raise NotImplementedError


class CounterCell:
    """A pre-resolved (counter, label combination) incrementer.

    Hot paths that increment the same labelled sample many times (the
    FPGA simulator's per-stage attribution) resolve the sorted label key
    once via :meth:`Counter.cell` instead of paying it per
    :meth:`Counter.inc` call.  Cells stay valid across
    :meth:`MetricsRegistry.reset`: samples are cleared in place, the
    backing dict object is retained.
    """

    __slots__ = ("_samples", "_key")

    def __init__(self, samples: typing.Dict[LabelKey, float],
                 key: LabelKey):
        self._samples = samples
        self._key = key

    def inc(self, value: float = 1.0) -> None:
        samples = self._samples
        key = self._key
        samples[key] = samples.get(key, 0.0) + value


class Counter(_Metric):
    """A monotonically increasing sum per label combination."""

    kind = "counter"

    def _new_sample(self) -> float:
        return 0.0

    def inc(self, value: float = 1.0, **labels: str) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = _label_key(labels)
        self._samples[key] = self._samples.get(key, 0.0) + value

    def cell(self, **labels: str) -> CounterCell:
        """A bound incrementer with the label key resolved once."""
        return CounterCell(self._samples, _label_key(labels))

    def value(self, **labels: str) -> float:
        return self._samples.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over all label combinations."""
        return sum(self._samples.values())

    def _sample_fields(self, sample: float) -> typing.Dict[str, object]:
        return {"value": sample}


class Gauge(_Metric):
    """A last-write-wins value per label combination."""

    kind = "gauge"

    def _new_sample(self) -> float:
        return 0.0

    def set(self, value: float, **labels: str) -> None:
        self._samples[_label_key(labels)] = float(value)

    def add(self, delta: float, **labels: str) -> None:
        key = _label_key(labels)
        self._samples[key] = self._samples.get(key, 0.0) + delta

    def value(self, **labels: str) -> float:
        return self._samples.get(_label_key(labels), 0.0)

    def _sample_fields(self, sample: float) -> typing.Dict[str, object]:
        return {"value": sample}


class _HistogramSample:
    """Running count/sum/min/max, a sliding window, and HDR buckets.

    The window gives high-resolution local percentiles; the sparse HDR
    bucket counts survive :meth:`merge`, so percentiles stay available
    (at bucket resolution) after a cross-process fold.
    """

    __slots__ = ("count", "sum", "min", "max", "window", "buckets")

    def __init__(self):
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.window: typing.List[float] = []
        self.buckets: typing.Dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = hdr_bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.window.append(value)
        if len(self.window) > HISTOGRAM_WINDOW:
            del self.window[: len(self.window) - HISTOGRAM_WINDOW]

    def merge(self, count: int, sum_: float,
              min_: typing.Optional[float],
              max_: typing.Optional[float],
              buckets: typing.Optional[
                  typing.Mapping[object, object]] = None) -> None:
        """Fold another sample's exact moments and bucket counts in.

        Used when absorbing a snapshot from another process (see
        :meth:`MetricsRegistry.absorb_rows`): ``count``/``sum``/``min``/
        ``max`` stay exact, and ``buckets`` (an ``hdr`` snapshot field)
        folds elementwise, so merged percentiles are identical to a
        single-process run at bucket resolution.  The individual
        observations are not known, so the high-resolution window
        describes only locally observed values.
        """
        self.count += int(count)
        self.sum += float(sum_)
        if min_ is not None and float(min_) < self.min:
            self.min = float(min_)
        if max_ is not None and float(max_) > self.max:
            self.max = float(max_)
        if buckets:
            for index, bucket_count in buckets.items():
                index = int(typing.cast(int, index))
                self.buckets[index] = (self.buckets.get(index, 0)
                                       + int(typing.cast(int, bucket_count)))

    def percentile(self, q: float) -> float:
        """Window percentile (linear-interpolated) when local
        observations exist, else the HDR bucket estimate for merged-in
        samples, else NaN."""
        if not self.window:
            if self.buckets:
                return hdr_percentile(self.buckets, q)
            return float("nan")
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100]: {q}")
        ordered = sorted(self.window)
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100.0) * (len(ordered) - 1)
        lo = int(math.floor(rank))
        hi = int(math.ceil(rank))
        if lo == hi:
            return ordered[lo]
        frac = rank - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")


class Histogram(_Metric):
    """Distribution summary per label combination."""

    kind = "histogram"

    def _new_sample(self) -> _HistogramSample:
        return _HistogramSample()

    def observe(self, value: float, **labels: str) -> None:
        self._sample(labels).observe(float(value))

    def count(self, **labels: str) -> int:
        key = _label_key(labels)
        return self._samples[key].count if key in self._samples else 0

    def percentile(self, q: float, **labels: str) -> float:
        key = _label_key(labels)
        if key not in self._samples:
            return float("nan")
        return self._samples[key].percentile(q)

    def mean(self, **labels: str) -> float:
        key = _label_key(labels)
        if key not in self._samples:
            return float("nan")
        return self._samples[key].mean

    def absorb(self, fields: typing.Mapping[str, object],
               **labels: str) -> None:
        """Merge a snapshot row's moments into this histogram.

        ``fields`` is a dict shaped like one :meth:`rows` entry
        (``count`` / ``sum`` / ``min`` / ``max`` / ``hdr``).  The
        ``hdr`` bucket counts fold elementwise, so percentiles survive
        the merge exactly at bucket resolution; absorbed observations do
        not enter the high-resolution local window.
        """
        self._sample(labels).merge(
            int(fields.get("count", 0) or 0),
            float(fields.get("sum", 0.0) or 0.0),
            typing.cast(typing.Optional[float], fields.get("min")),
            typing.cast(typing.Optional[float], fields.get("max")),
            typing.cast(typing.Optional[typing.Mapping[object, object]],
                        fields.get("hdr")))

    @staticmethod
    def _percentile_field(sample: _HistogramSample, q: float
                          ) -> typing.Optional[float]:
        if sample.window or sample.buckets:
            return sample.percentile(q)
        return None

    def _sample_fields(self, sample: _HistogramSample
                       ) -> typing.Dict[str, object]:
        fields: typing.Dict[str, object] = {
            "count": sample.count,
            "sum": sample.sum,
            "min": sample.min if sample.count else None,
            "max": sample.max if sample.count else None,
            "mean": sample.mean if sample.count else None,
            "p50": self._percentile_field(sample, 50.0),
            "p90": self._percentile_field(sample, 90.0),
            "p99": self._percentile_field(sample, 99.0),
            "p999": self._percentile_field(sample, 99.9),
        }
        if sample.buckets:
            fields["hdr"] = {str(index): sample.buckets[index]
                             for index in sorted(sample.buckets)}
        return fields


class MetricsRegistry:
    """Owns named metrics; snapshot / reset / JSONL emission."""

    def __init__(self):
        self._metrics: typing.Dict[str, _Metric] = {}

    def _get(self, cls: type, name: str, help: str) -> _Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(f"metric {name!r} already registered as "
                            f"{metric.kind}, requested {cls.kind}")
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return typing.cast(Counter, self._get(Counter, name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return typing.cast(Gauge, self._get(Gauge, name, help))

    def histogram(self, name: str, help: str = "") -> Histogram:
        return typing.cast(Histogram, self._get(Histogram, name, help))

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> typing.List[str]:
        return sorted(self._metrics)

    def reset(self) -> None:
        """Drop every sample (metric objects stay registered)."""
        for metric in self._metrics.values():
            metric.clear()

    def absorb_rows(self, rows: typing.Iterable[
            typing.Mapping[str, object]],
            **extra_labels: str) -> int:
        """Merge snapshot rows from another registry into this one.

        The cross-process merge API: a worker process snapshots its
        registry (:meth:`snapshot`), ships the rows over a queue, and
        the parent folds them in here — counters sum, histograms fold
        exact moments plus HDR bucket counts (:meth:`Histogram.absorb`),
        and gauges are last-write-wins.
        ``extra_labels`` (typically ``worker="worker-0"``) are added to
        every absorbed sample so merged metrics stay attributable per
        process.  Returns the number of rows absorbed.
        """
        count = 0
        for row in rows:
            name = str(row.get("name", ""))
            if not name:
                continue
            labels = dict(typing.cast(typing.Mapping[str, str],
                                      row.get("labels") or {}))
            labels.update(extra_labels)
            kind = row.get("type")
            value = float(typing.cast(float, row.get("value", 0.0)) or 0.0)
            if kind == "counter":
                self.counter(name).inc(value, **labels)
            elif kind == "gauge":
                self.gauge(name).set(value, **labels)
            elif kind == "histogram":
                self.histogram(name).absorb(row, **labels)
            else:
                continue
            count += 1
        return count

    def snapshot(self, meta: typing.Optional[
            typing.Mapping[str, object]] = None
            ) -> typing.List[typing.Dict[str, object]]:
        """All samples as JSON-ready rows, sorted by (name, labels)."""
        rows: typing.List[typing.Dict[str, object]] = []
        for name in sorted(self._metrics):
            rows.extend(self._metrics[name].rows())
        rows.sort(key=lambda r: (r["name"], sorted(r["labels"].items())))
        if meta:
            for row in rows:
                row.update(meta)
        return rows

    def write_jsonl(self, path: str, meta: typing.Optional[
            typing.Mapping[str, object]] = None,
            append: bool = False) -> int:
        """Emit one sample per line; returns the number of lines."""
        rows = self.snapshot(meta)
        mode = "a" if append else "w"
        with open(path, mode, encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
        return len(rows)


def load_jsonl(path: str) -> typing.List[typing.Dict[str, object]]:
    """Read back rows written by :meth:`MetricsRegistry.write_jsonl`."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows
