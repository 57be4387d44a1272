"""Adaptive shape-bucketed micro-batching for the online serving front.

The paper's throughput comes from relaxing many same-shape alignments in
wide hardware lanes; online traffic arrives one request at a time.  The
:class:`MicroBatcher` bridges the two regimes: concurrent requests
accumulate in per-``(kind, priority, shape, config)`` buckets, and a bucket is
dispatched when it reaches ``target_batch`` members *or* when its oldest
request has lingered ``max_linger`` seconds — whichever comes first.  A
lone request therefore never waits longer than the linger bound, while a
burst fills whole lane blocks and pays one kernel invocation.  A search
or map request's shape is ``(query length, 0)`` and its ``config`` is its
resolved search/map config, so a bucket is one multi-query pass.

The linger is *adaptive*: as the service backlog grows toward capacity the
effective linger shrinks linearly (floored at ``min_linger``), so a loaded
service stops trading latency for occupancy it would get anyway, and an
idle service waits the full bound for company.

This module is event-loop agnostic — it holds no asyncio state and does no
locking (the service drives it from the loop thread only); that keeps it
unit-testable with plain clocks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.util.checks import check_positive

__all__ = ["Priority", "PendingRequest", "Bucket", "MicroBatcher"]


class Priority(enum.IntEnum):
    """Request priority class: lower value = more urgent.

    ``INTERACTIVE`` and ``NORMAL`` may fill the whole admission queue;
    ``BULK`` is admitted only while the backlog is below the service's
    bulk capacity fraction, so background traffic cannot starve the
    latency-sensitive classes.  Flush order also prefers urgent buckets.
    """

    INTERACTIVE = 0
    NORMAL = 1
    BULK = 2


@dataclass(slots=True)
class PendingRequest:
    """One admitted request waiting in a micro-batch bucket.

    ``deadline`` and ``submitted`` are event-loop timestamps; a request
    whose deadline has passed when its bucket is dispatched is rejected
    without executing.  ``future`` is resolved with the result (or the
    rejection) by the service.
    """

    key: int  # admission ordinal (unique per service)
    kind: str  # "score" | "align" | "search" | "map"
    query: np.ndarray  # encoded uint8 codes
    subject: np.ndarray | None  # None for search/map requests
    future: object  # asyncio.Future
    priority: Priority = Priority.NORMAL
    deadline: float | None = None
    submitted: float = 0.0
    config: object = None  # resolved search/map config (hashable); None for pairs
    trace: dict | None = None  # propagated span carrier (obs.trace)

    @property
    def shape(self) -> tuple[int, int]:
        m = int(self.subject.size) if self.subject is not None else 0
        return (int(self.query.size), m)


@dataclass(slots=True)
class Bucket:
    """Same-(kind, priority, shape, config) requests accumulating toward a batch."""

    kind: str
    priority: Priority
    shape: tuple[int, int]
    requests: list = field(default_factory=list)
    opened: float = 0.0  # loop time the current accumulation started
    deadline: float | None = None  # earliest member deadline, if any

    def __len__(self) -> int:
        return len(self.requests)


class MicroBatcher:
    """Accumulates requests into dispatchable same-shape micro-batches.

    The service calls :meth:`add` per admitted request (a full bucket is
    returned for immediate dispatch), :meth:`due` from its flusher when a
    linger expires, and :meth:`flush_all` on drain.  ``next_due`` tells the
    flusher when to wake next.
    """

    def __init__(self, target_batch: int = 64, max_linger: float = 0.002,
                 min_linger: float | None = None):
        self.target_batch = check_positive(target_batch, "target_batch")
        if max_linger < 0:
            from repro.util.checks import ValidationError

            raise ValidationError(f"max_linger must be >= 0, got {max_linger}")
        self.max_linger = max_linger
        self.min_linger = min_linger if min_linger is not None else max_linger / 10.0
        self._buckets: dict = {}
        self._pending = 0

    @property
    def pending(self) -> int:
        """Requests buffered across all partial buckets."""
        return self._pending

    def effective_linger(self, backlog: int, capacity: int) -> float:
        """Adaptive linger bound: shrinks linearly as backlog fills capacity."""
        if capacity <= 0:
            return self.max_linger
        fill = min(1.0, max(0.0, backlog / capacity))
        return max(self.min_linger, self.max_linger * (1.0 - fill))

    def add(self, req: PendingRequest, now: float) -> Bucket | None:
        """Admit one request; returns the bucket if it just became full."""
        key = (req.kind, req.priority, req.shape, req.config)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = Bucket(
                kind=req.kind, priority=req.priority, shape=req.shape, opened=now
            )
        bucket.requests.append(req)
        if req.deadline is not None and (
            bucket.deadline is None or req.deadline < bucket.deadline
        ):
            bucket.deadline = req.deadline
        self._pending += 1
        if len(bucket) >= self.target_batch:
            del self._buckets[key]
            self._pending -= len(bucket)
            return bucket
        return None

    def _due_time(self, bucket: Bucket, linger: float) -> float:
        """When this bucket must dispatch: linger expiry, or early enough
        that its tightest member deadline can still be met."""
        due = bucket.opened + linger
        if bucket.deadline is not None:
            due = min(due, bucket.deadline - self.min_linger)
        return due

    def due(self, now: float, linger: float) -> list[Bucket]:
        """Pop every bucket whose dispatch time has arrived.

        A bucket dispatches when its oldest request has waited ``linger``
        *or* a member deadline is imminent (so a deadline tighter than the
        linger bound is attempted, not passively expired).  Returned
        most-urgent first, so the service dispatches interactive traffic
        ahead of bulk when several buckets expire together.
        """
        ready = [
            k for k, b in self._buckets.items() if now >= self._due_time(b, linger)
        ]
        out = []
        for k in ready:
            b = self._buckets.pop(k)
            self._pending -= len(b)
            out.append(b)
        out.sort(key=lambda b: b.priority)
        return out

    def next_due(self, linger: float) -> float | None:
        """Loop time of the earliest bucket dispatch (None when empty)."""
        if not self._buckets:
            return None
        return min(self._due_time(b, linger) for b in self._buckets.values())

    def flush_all(self) -> list[Bucket]:
        """Pop every bucket (drain/close path), most-urgent first."""
        out = sorted(self._buckets.values(), key=lambda b: b.priority)
        self._buckets.clear()
        self._pending = 0
        return out
