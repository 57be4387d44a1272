"""Thread-safe metrics: counters, gauges, fixed-bucket histograms.

The serving stack's ad-hoc ``*Stats`` dataclasses answer "what happened
in this run"; the ROADMAP's next items (hedging, admission control from
backpressure signals, profile-guided routing) need *live, machine-
readable* series instead: per-shard latency histograms, queue-depth
gauges, shed counters.  This module is that substrate:

* a :class:`MetricsRegistry` owns named metrics, each a family of
  **labeled series** (``pool_shard_ping_seconds{shard="2"}``);
* :class:`Counter` (monotonic), :class:`Gauge` (set/add), and
  :class:`Histogram` (fixed upper-bound buckets + sum/count) are the
  three instrument kinds — deliberately the Prometheus trio, so the
  export is a straight transcription;
* **snapshot/diff/merge** make the registry process-composable: a worker
  snapshots, diffs against what it already shipped, and attaches the
  delta to its reply; the parent :meth:`~MetricsRegistry.merge`\\ s the
  delta in (counters and histograms add, gauges overwrite) — the same
  semantics across threads, processes, and shard replies;
* export is Prometheus text exposition (:meth:`~MetricsRegistry.to_prometheus`)
  or a JSON-shaped dict (:meth:`~MetricsRegistry.as_dict`).

Everything mutates under one registry lock — increments are a dict
lookup and an add, cheap enough to leave on in production; the
``enabled`` flag exists so the overhead benchmark can price exactly that.
"""

from __future__ import annotations

import bisect
import re
import threading
from dataclasses import dataclass

from repro.util.checks import ValidationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "fold_ledger",
    "get_registry",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Default histogram upper bounds (seconds): sub-ms to minutes, log-spaced.
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


#: Prometheus data-model grammar (exposition-format section of the spec).
_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _validate_names(name: str, label_names: tuple, kind: str):
    """Reject names the text exposition could not represent faithfully."""
    if not _METRIC_NAME_RE.match(name):
        raise ValidationError(f"invalid metric name {name!r}")
    for label in label_names:
        if not _LABEL_NAME_RE.match(label) or label.startswith("__"):
            raise ValidationError(
                f"invalid label name {label!r} on metric {name!r}"
            )
        if kind == "histogram" and label == "le":
            raise ValidationError(
                f"histogram {name!r} cannot declare the reserved label 'le'"
            )


def _escape_help(text: str) -> str:
    """HELP-line escaping: backslash and newline only (spec rule)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    """Label-value escaping: backslash, double-quote, newline (spec rule)."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_key(label_names: tuple, labels: dict) -> tuple:
    if set(labels) != set(label_names):
        raise ValidationError(
            f"labels {sorted(labels)} do not match declared {sorted(label_names)}"
        )
    return tuple(str(labels[name]) for name in label_names)


class _Metric:
    """Shared family machinery: named, labeled series under one lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: tuple, lock):
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._lock = lock
        self._series: dict = {}  # label-value tuple -> value

    def series(self) -> dict:
        """Copy of {label-values tuple: value}."""
        with self._lock:
            return dict(self._series)

    def _resolve(self, labels: dict) -> tuple:
        if not self.label_names and not labels:
            return ()
        return _label_key(self.label_names, labels)


class Counter(_Metric):
    """Monotonically increasing count (per labeled series)."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels):
        if amount < 0:
            raise ValidationError(f"counter {self.name} cannot decrease ({amount})")
        key = self._resolve(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels) -> float:
        key = self._resolve(labels)
        with self._lock:
            return self._series.get(key, 0)


class Gauge(_Metric):
    """A value that goes up and down (queue depth, liveness, offsets)."""

    kind = "gauge"

    def set(self, value: float, **labels):
        key = self._resolve(labels)
        with self._lock:
            self._series[key] = value

    def add(self, amount: float, **labels):
        key = self._resolve(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels) -> float:
        key = self._resolve(labels)
        with self._lock:
            return self._series.get(key, 0)


@dataclass(slots=True)
class _HistValue:
    """One histogram series: per-bucket counts plus sum/count."""

    counts: list
    total: float = 0.0
    count: int = 0

    def as_dict(self, edges) -> dict:
        return {
            "buckets": {str(le): c for le, c in zip(edges, self.counts)},
            "inf": self.counts[-1],
            "sum": self.total,
            "count": self.count,
        }


class Histogram(_Metric):
    """Fixed-upper-bound bucket histogram (cumulative on export).

    ``buckets`` are the finite upper bounds; an implicit ``+Inf`` bucket
    catches the tail.  Counts are stored per-bucket (non-cumulative) and
    accumulated to the Prometheus cumulative form at export time.
    """

    kind = "histogram"

    def __init__(self, name, help, label_names, lock, buckets=DEFAULT_LATENCY_BUCKETS):
        super().__init__(name, help, label_names, lock)
        edges = tuple(sorted(float(b) for b in buckets))
        if not edges:
            raise ValidationError(f"histogram {name} needs at least one bucket")
        self.edges = edges

    def observe(self, value: float, **labels):
        key = self._resolve(labels)
        with self._lock:
            hv = self._series.get(key)
            if hv is None:
                hv = self._series[key] = _HistValue(counts=[0] * (len(self.edges) + 1))
            hv.counts[bisect.bisect_left(self.edges, value)] += 1
            hv.total += value
            hv.count += 1

    def value(self, **labels) -> dict | None:
        key = self._resolve(labels)
        with self._lock:
            hv = self._series.get(key)
            return hv.as_dict(self.edges) if hv is not None else None


class MetricsRegistry:
    """A process- (or instance-) wide set of named metrics.

    One lock serializes every mutation and snapshot, so exact counts
    survive arbitrary thread interleavings (hammered by the test suite).
    Metric registration is idempotent when the kind and labels agree and
    an error when they don't — two subsystems cannot silently share a
    name with different meanings.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = bool(enabled)
        self._lock = threading.RLock()
        self._metrics: dict = {}

    # -- registration -------------------------------------------------------
    def _get_or_make(self, cls, name, help, label_names, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.label_names != tuple(label_names):
                    raise ValidationError(
                        f"metric {name!r} already registered as {existing.kind} "
                        f"with labels {existing.label_names}"
                    )
                return existing
            _validate_names(name, tuple(label_names), cls.kind)
            metric = cls(name, help, tuple(label_names), self._lock, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labels: tuple = ()) -> Counter:
        return self._get_or_make(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: tuple = ()) -> Gauge:
        return self._get_or_make(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: tuple = (),
        buckets=DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_make(Histogram, name, help, labels, buckets=buckets)

    def get(self, name: str):
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list:
        with self._lock:
            return sorted(self._metrics)

    # -- snapshot / diff / merge --------------------------------------------
    def snapshot(self) -> dict:
        """Deep, picklable copy of every series.

        Shape: ``{name: {"kind", "help", "labels", "buckets"?, "series":
        {label-values tuple: number | histogram dict}}}``.  Histogram
        series copy to ``{"counts": [...], "sum": float, "count": int}``.
        """
        with self._lock:
            out = {}
            for name, m in self._metrics.items():
                if isinstance(m, Histogram):
                    series = {
                        key: {"counts": list(hv.counts), "sum": hv.total, "count": hv.count}
                        for key, hv in m._series.items()
                    }
                else:
                    series = dict(m._series)
                entry = {
                    "kind": m.kind,
                    "help": m.help,
                    "labels": m.label_names,
                    "series": series,
                }
                if isinstance(m, Histogram):
                    entry["buckets"] = m.edges
                out[name] = entry
            return out

    @staticmethod
    def diff(before: dict, after: dict) -> dict:
        """What happened between two snapshots of the *same* registry.

        Counter and histogram series subtract (new series pass through);
        gauges keep their ``after`` value (a gauge *is* its latest
        reading).  The result is itself mergeable — it is how workers
        ship incremental metrics in each reply without double counting.
        """
        out = {}
        for name, cur in after.items():
            prev = before.get(name)
            if prev is None or cur["kind"] == "gauge":
                out[name] = cur
                continue
            series = {}
            for key, val in cur["series"].items():
                pval = prev["series"].get(key)
                if cur["kind"] == "histogram":
                    if pval is None:
                        delta = dict(val, counts=list(val["counts"]))
                    else:
                        delta = {
                            "counts": [a - b for a, b in zip(val["counts"], pval["counts"])],
                            "sum": val["sum"] - pval["sum"],
                            "count": val["count"] - pval["count"],
                        }
                    if delta["count"]:
                        series[key] = delta
                else:
                    delta = val - (pval or 0)
                    if delta:
                        series[key] = delta
            if series:
                out[name] = dict(cur, series=series)
        return out

    def merge(self, snapshot: dict, *, extra_labels: dict | None = None):
        """Fold a snapshot (or diff) from another registry/process in.

        Counters and histograms **add**; gauges **overwrite** (latest
        reading wins).  ``extra_labels`` append label dimensions to every
        merged series — e.g. ``{"process": "shard-2"}`` keeps per-worker
        series distinct in the parent.
        """
        extra_names = tuple(sorted(extra_labels)) if extra_labels else ()
        extra_vals = tuple(str(extra_labels[k]) for k in extra_names)
        with self._lock:
            for name, entry in snapshot.items():
                label_names = tuple(entry["labels"]) + extra_names
                if entry["kind"] == "counter":
                    metric = self.counter(name, entry["help"], label_names)
                elif entry["kind"] == "gauge":
                    metric = self.gauge(name, entry["help"], label_names)
                else:
                    metric = self.histogram(
                        name, entry["help"], label_names, buckets=entry["buckets"]
                    )
                for key, val in entry["series"].items():
                    full = tuple(key) + extra_vals
                    if entry["kind"] == "histogram":
                        hv = metric._series.get(full)
                        if hv is None:
                            hv = metric._series[full] = _HistValue(
                                counts=[0] * (len(metric.edges) + 1)
                            )
                        for i, c in enumerate(val["counts"]):
                            hv.counts[i] += c
                        hv.total += val["sum"]
                        hv.count += val["count"]
                    elif entry["kind"] == "gauge":
                        metric._series[full] = val
                    else:
                        metric._series[full] = metric._series.get(full, 0) + val

    # -- export -------------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-shaped export: label tuples flattened to string keys."""
        out = {}
        for name, entry in self.snapshot().items():
            series = {}
            for key, val in entry["series"].items():
                label = ",".join(
                    f"{n}={v}" for n, v in zip(entry["labels"], key)
                )
                series[label or "_"] = val
            item = {"kind": entry["kind"], "help": entry["help"], "series": series}
            if "buckets" in entry:
                item["buckets"] = list(entry["buckets"])
            out[name] = item
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition (format version 0.0.4)."""
        lines = []
        snap = self.snapshot()
        for name in sorted(snap):
            entry = snap[name]
            if entry["help"]:
                lines.append(f"# HELP {name} {_escape_help(entry['help'])}")
            lines.append(f"# TYPE {name} {entry['kind']}")
            label_names = entry["labels"]

            def fmt_labels(key, extra=()):
                parts = [
                    f'{n}="{_escape_label(str(v))}"'
                    for n, v in zip(label_names, key)
                ]
                parts.extend(f'{n}="{v}"' for n, v in extra)
                return "{" + ",".join(parts) + "}" if parts else ""

            for key in sorted(entry["series"]):
                val = entry["series"][key]
                if entry["kind"] == "histogram":
                    cum = 0
                    for le, c in zip(entry["buckets"], val["counts"]):
                        cum += c
                        lines.append(
                            f"{name}_bucket{fmt_labels(key, [('le', le)])} {cum}"
                        )
                    cum += val["counts"][-1]
                    lines.append(
                        f"{name}_bucket{fmt_labels(key, [('le', '+Inf')])} {cum}"
                    )
                    lines.append(f"{name}_sum{fmt_labels(key)} {val['sum']}")
                    lines.append(f"{name}_count{fmt_labels(key)} {val['count']}")
                else:
                    lines.append(f"{name}{fmt_labels(key)} {val}")
        return "\n".join(lines) + "\n"

    def clear(self):
        """Drop every metric (tests and process recycling)."""
        with self._lock:
            self._metrics.clear()

    def __repr__(self):
        with self._lock:
            return f"MetricsRegistry(metrics={len(self._metrics)}, enabled={self.enabled})"


#: The process-wide default registry every instrumented layer records into.
_GLOBAL = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default metrics registry (always on by default)."""
    return _GLOBAL


def fold_ledger(table: dict, ledger, base: dict | None = None, **labels) -> None:
    """Fold one call's ledger delta into the process registry: the one way
    a ``*Stats`` ledger reaches it.

    ``table`` maps each ledger field to ``(metric, help, fixed labels)``,
    or to None for a field kept on the ledger only.  ``base`` is a copy of
    ``vars(ledger)`` from the call's start (None: the ledger is the call's
    own).  Zero deltas fold too, so each series exists from the first call.
    """
    if not _GLOBAL.enabled:
        return
    for f, counter in table.items():
        if counter is None:
            continue
        name, help_, fixed = counter
        delta = getattr(ledger, f) - (base[f] if base is not None else 0)
        _GLOBAL.counter(name, help_, labels=(*labels, *fixed)).inc(delta, **labels, **fixed)
