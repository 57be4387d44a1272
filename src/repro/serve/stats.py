"""Service-level statistics: latency percentiles, occupancy, rejections.

The serving front's figure of merit is the latency/throughput trade the
micro-batcher strikes, so the stats record both sides: per-request
latencies (submission → resolution, a bounded reservoir so an unbounded
service doesn't grow an unbounded sample) and the occupancy of every
dispatched batch (how full the lanes actually were), plus the admission
decisions — queue-depth high-water mark and rejection counts by cause.

Each count lives once, in a private
:class:`~repro.obs.metrics.MetricsRegistry` (``stats.registry``), and each
``note_*`` call increments one series.  The attributes (``submitted``,
``rejected``, ``occupancy``, ...) are read views over those series.  Only
the latency reservoir (exact percentiles need the sample, not fixed
buckets) and the queue high-water mark stay plain fields.  Rendered by
:func:`repro.perf.report.service_stats_table`.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.obs.metrics import MetricsRegistry

__all__ = ["LatencyReservoir", "ServiceStats", "OCCUPANCY_EDGES"]

#: Upper edges of the batch-occupancy histogram buckets (last is open).
OCCUPANCY_EDGES = (1, 2, 4, 8, 16, 32, 64, 128)


class LatencyReservoir:
    """Bounded sample of request latencies with percentile queries."""

    def __init__(self, maxlen: int = 8192):
        self._sample: deque = deque(maxlen=maxlen)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def add(self, latency: float):
        self._sample.append(latency)
        self.count += 1
        self.total += latency
        if latency > self.max:
            self.max = latency

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over the retained sample (0 if empty)."""
        if not self._sample:
            return 0.0
        ordered = sorted(self._sample)
        rank = min(len(ordered) - 1, max(0, int(round(p / 100.0 * (len(ordered) - 1)))))
        return ordered[rank]


class ServiceStats:
    """Cumulative accounting of one :class:`~repro.serve.AlignmentService`.

    Thread-safe: the asyncio loop thread mutates it, sync-facade threads
    read snapshots concurrently.  Counters are backed by a private
    metrics registry (``stats.registry``); the attributes below are read
    views over it.
    """

    def __init__(self, latency_sample: int = 8192, registry: MetricsRegistry | None = None):
        self._lock = threading.Lock()
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self._submitted = r.counter("serve_submitted_total", "Requests admitted")
        self._completed = r.counter("serve_completed_total", "Requests resolved OK")
        self._failed = r.counter("serve_failed_total", "Requests resolved with errors")
        self._deadline = r.counter(
            "serve_deadline_exceeded_total",
            "Requests expired past their deadline, by pipeline stage",
            labels=("stage",),
        )
        self._admission_rejected = r.counter(
            "serve_admission_rejected_total",
            "Requests refused at the admission gate, by cause and priority",
            labels=("cause", "priority"),
        )
        self._flushes = r.counter(
            "serve_batch_flushes_total",
            "Micro-batch dispatches, by flush cause",
            labels=("cause",),
        )
        self._occupancy = r.counter(
            "serve_batch_occupancy_total",
            "Micro-batch dispatches, by exact batch size",
            labels=("size",),
        )
        self._depth = r.gauge("serve_queue_depth", "Admission queue depth at last submit")
        self._latency_hist = r.histogram(
            "serve_latency_seconds", "Request latency, submission to resolution"
        )
        self.queue_depth_hwm = 0
        self.latency = LatencyReservoir(latency_sample)

    # -- recording (loop thread) -------------------------------------------
    def note_submit(self, depth: int):
        self._submitted.inc()
        self._depth.set(depth)
        with self._lock:
            if depth > self.queue_depth_hwm:
                self.queue_depth_hwm = depth

    def note_deadline(self, stage: str):
        """A request expired past its deadline at ``stage``
        (``serve_deadline_exceeded_total{stage}``)."""
        self._deadline.inc(stage=stage)

    def note_admission_reject(self, cause: str, priority: str):
        """The admission gate refused a request outright, never accepting
        it (``serve_admission_rejected_total{cause, priority}``: the
        priority says whether BULK was the class being shed)."""
        self._admission_rejected.inc(cause=cause, priority=priority)

    def note_batch(self, size: int, cause: str):
        self._flushes.inc(cause=cause)
        self._occupancy.inc(size=size)

    def note_complete(self, latency: float):
        self._completed.inc()
        self._latency_hist.observe(latency)
        with self._lock:
            self.latency.add(latency)

    def note_failed(self):
        self._failed.inc()

    # -- reading: views over the registry series ---------------------------
    @property
    def submitted(self) -> int:
        return int(self._submitted.value())

    @property
    def completed(self) -> int:
        return int(self._completed.value())

    @property
    def failed(self) -> int:
        return int(self._failed.value())

    @property
    def rejected(self) -> dict:
        """cause → requests shed: the admission causes (queue_full, shed,
        closed) summed over priority, and ``deadline`` summed over stage."""
        out: dict = {}
        for (cause, _priority), count in self.admission_rejected.items():
            out[cause] = out.get(cause, 0) + count
        if expired := sum(self.deadline_exceeded.values()):
            out["deadline"] = expired
        return out

    @property
    def deadline_exceeded(self) -> dict:
        """pipeline stage (admission | dispatch | execute) → expiries."""
        return {stage: int(c) for (stage,), c in self._deadline.series().items()}

    @property
    def admission_rejected(self) -> dict:
        """(cause, priority) → requests the admission gate refused."""
        return {
            (cause, priority): int(c)
            for (cause, priority), c in self._admission_rejected.series().items()
        }

    @property
    def flush_causes(self) -> dict:
        """size | linger | drain → count."""
        return {cause: int(c) for (cause,), c in self._flushes.series().items()}

    @property
    def occupancy(self) -> dict:
        """exact batch size → count."""
        return {int(size): int(c) for (size,), c in self._occupancy.series().items()}

    @property
    def batches(self) -> int:
        return sum(self.occupancy.values())

    @property
    def batched_requests(self) -> int:
        return sum(size * count for size, count in self.occupancy.items())

    def occupancy_histogram(self) -> list[tuple[str, int]]:
        """(bucket label, batches) rows over power-of-two occupancy bins."""
        occ = self.occupancy
        rows = []
        lo = 1
        for hi in OCCUPANCY_EDGES:
            count = sum(c for size, c in occ.items() if lo <= size <= hi)
            label = str(hi) if hi == lo else f"{lo}-{hi}"
            if count:
                rows.append((label, count))
            lo = hi + 1
        tail = sum(c for size, c in occ.items() if size >= lo)
        if tail:
            rows.append((f"{lo}+", tail))
        return rows

    def snapshot(self) -> dict:
        """JSON-shaped copy of every counter (for benches and reports)."""
        occ = self.occupancy
        batches = sum(occ.values())
        batched = sum(s * c for s, c in occ.items())
        with self._lock:
            return {
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "rejected": self.rejected,
                "deadline_exceeded": self.deadline_exceeded,
                "admission_rejected": {
                    f"{cause}:{priority}": count
                    for (cause, priority), count in sorted(
                        self.admission_rejected.items()
                    )
                },
                "batches": batches,
                "batched_requests": batched,
                "flush_causes": self.flush_causes,
                "mean_occupancy": batched / batches if batches else 0.0,
                "queue_depth_hwm": self.queue_depth_hwm,
                "latency_p50_ms": self.latency.percentile(50) * 1e3,
                "latency_p99_ms": self.latency.percentile(99) * 1e3,
                "latency_mean_ms": self.latency.mean * 1e3,
                "latency_max_ms": self.latency.max * 1e3,
            }

    def as_dict(self) -> dict:
        """Snapshot plus the occupancy rows (one JSON-ready document)."""
        d = self.snapshot()
        d["occupancy"] = {str(k): v for k, v in sorted(self.occupancy.items())}
        return d
