"""Shard planning: the picklable unit of work a worker process receives.

A :class:`ShardPlan` is a value object — a shard count, a
:class:`~repro.search.pipeline.SearchConfig`, and an
:class:`~repro.engine.engine.EngineConfig` — with **no** engines, kernels,
pools, or callables anywhere inside, so ``pickle.dumps`` round-trips it by
construction (each embedded config enforces that invariant in its own
``__post_init__``).  The worker entrypoint rebuilds an
``ExecutionEngine`` + search pipeline from the plan on the far side of a
``multiprocessing.get_context("spawn")`` boundary.

Chunk ownership is :func:`repro.workloads.chunks.shard_of` — a pure
function of the global chunk ordinal — so the parent never sends chunk
assignments: every worker maps its k-mer hits onto the windows of the
plan's resolved ``window``/``overlap`` and keeps the ordinals it owns,
which is what makes the merged result bit-identical to a single-process
search.

:class:`SharedRecordPayload` / :class:`ChunkPayload` are the shapes a
database crosses the boundary in (both built by
:func:`build_pool_payloads`): a shared-memory segment published once,
where only metadata is pickled and workers attach zero-copy, or an
explicit pre-partitioned chunk list (databases supplied as chunk
iterators cannot be regenerated remotely).  A worker asks its resident
payload for a *shard view* per command — a
:class:`~repro.search.seeds.ReferenceShard` over the attached records, or
this shard's chunk list — and searches it like any database.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.engine import EngineConfig
from repro.search.pipeline import SearchConfig, classify_database
from repro.search.seeds import ReferenceShard
from repro.shard.shm import (
    SharedReferenceMeta,
    attach_segment,
    fingerprint_records,
    publish_records,
)
from repro.util.checks import ValidationError, check_positive
from repro.util.encoding import encode
from repro.workloads.chunks import partition_chunks, shard_of

__all__ = [
    "ShardPlan",
    "ChunkPayload",
    "SharedRecordPayload",
    "build_pool_payloads",
]


@dataclass(frozen=True)
class ShardPlan:
    """How to split one search across worker processes (picklable)."""

    num_shards: int = 4
    search: SearchConfig = field(default_factory=SearchConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)
    start_method: str = "spawn"

    def __post_init__(self):
        check_positive(self.num_shards, "num_shards")
        if self.start_method not in ("spawn", "fork", "forkserver"):
            raise ValidationError(
                f"start_method must be spawn/fork/forkserver, got {self.start_method!r}"
            )
        if not isinstance(self.search, SearchConfig):
            raise ValidationError("ShardPlan.search must be a SearchConfig")
        if not isinstance(self.engine, EngineConfig):
            raise ValidationError("ShardPlan.engine must be an EngineConfig")

    def shard_of(self, chunk_id: int) -> int:
        return shard_of(chunk_id, self.num_shards)


@dataclass(frozen=True)
class ChunkPayload:
    """Database as this shard's explicit chunk list (pre-windowed input)."""

    chunks: tuple  # (Chunk, ...) owned by this shard, scan order

    def shard_view(self, plan: ShardPlan, shard_id: int):
        return iter(self.chunks)


def _check_windowing(plan: ShardPlan) -> None:
    # Every worker must window the reference identically (and identically
    # to the single-process scan), so the parent pins the windowing once.
    if plan.search.window is None or plan.search.overlap is None:
        raise ValidationError(
            "plan windowing is unresolved; pass plan.search.resolved_for(qmax)"
        )


class _AttachedRecordPayload:
    """Worker-resident view over a published reference segment.

    Built by :meth:`SharedRecordPayload.attach` inside the worker; holds
    the attachment open across many searches and hands out a shard view
    over the zero-copy record views per call (the windowing can differ per
    query set, the bytes never move).
    """

    def __init__(self, meta: SharedReferenceMeta):
        self._ref = attach_segment(meta)
        self.meta = meta

    def shard_view(self, plan: ShardPlan, shard_id: int) -> ReferenceShard:
        """This shard's windows of the attached reference, for one command.

        The view holds record views into the segment: drop it before
        :meth:`close`.
        """
        _check_windowing(plan)
        return ReferenceShard(self._ref.records(), plan.num_shards, shard_id)

    def close(self) -> None:
        self._ref.close()


@dataclass(frozen=True)
class SharedRecordPayload:
    """Database as a published shared-memory segment: attach, don't copy.

    The picklable face of :mod:`repro.shard.shm` — only the segment
    *metadata* crosses the process boundary, so shipping it to N workers
    costs O(1) in N.  Workers call :meth:`attach` once and keep the
    resident :class:`_AttachedRecordPayload` across searches; the parent
    (the pool) owns the segment's lifetime.
    """

    meta: SharedReferenceMeta

    def attach(self) -> _AttachedRecordPayload:
        return _AttachedRecordPayload(self.meta)


def build_pool_payloads(database, plan: ShardPlan):
    """Normalize a database for the persistent pool: publish once, share.

    Accepts everything :func:`repro.search.search` accepts: an encoded
    array or string sequence, FastaRecord(s), or an iterator/list of
    pre-windowed :class:`~repro.workloads.chunks.Chunk` objects.  Returns
    ``(payloads, segment, fingerprint)``: one payload per shard, the
    owning :class:`~repro.shard.shm.SharedSegment` (or ``None`` when the
    database is pre-windowed chunks, which are partitioned here and ship
    as explicit pickled lists — the parent cannot replay an arbitrary
    iterator remotely), and a content fingerprint of the reference
    (:attr:`~repro.shard.pool.ShardWorkerPool.fingerprint`).

    Record and raw-sequence databases are encoded in the parent and
    published to one shared-memory segment; every worker receives only the
    metadata and attaches zero-copy — O(1) payload transfer in the worker
    count.
    """
    kind, value = classify_database(database, materialize=True)
    if kind == "chunks":
        records = tuple((f"{c.record}:{c.start}", c.sequence) for c in value)
        parts = partition_chunks(iter(value), plan.num_shards)
        payloads = [ChunkPayload(chunks=tuple(part)) for part in parts]
        return payloads, None, fingerprint_records(records)
    if kind == "index":
        records = value.records
    elif kind == "records":
        records = tuple((rec.name, encode(rec.sequence)) for rec in value)
    else:
        records = (("ref", encode(value)),)
    segment = publish_records(records)
    payload = SharedRecordPayload(meta=segment.meta)
    return [payload] * plan.num_shards, segment, segment.meta.fingerprint
