"""Per-shard work accounting for sharded search runs and pool residency.

Each worker process summarises its own pipeline run into a picklable
:class:`ShardWorkerStats` (plain scalars, shipped back over the result
queue alongside the hits); the parent folds them into a
:class:`ShardRunStats` with the merge/total timing only it can observe —
including whether the run was **warm** (resident workers reused) or
**cold** (paid spawn + attach).  :class:`PoolStats` is the pool-lifetime
ledger: searches served cold vs. warm, reference swaps, respawns after
worker deaths, and the per-worker shared-memory attach times.  Rendered
by :func:`repro.perf.report.shard_stats_table` /
:func:`repro.perf.report.pool_stats_table`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ShardWorkerStats", "ShardRunStats", "PoolStats"]


@dataclass(slots=True)
class ShardWorkerStats:
    """One worker's summary of the shard it searched.

    ``queue_wait_s`` is measured by the parent: the gap between the worker
    stamping its result onto the queue (CLOCK_MONOTONIC is system-wide, so
    the stamps compare across processes on one host) and the parent
    unpickling it — transfer plus time spent behind other shards' results.
    """

    shard_id: int
    chunks: int = 0  # reference windows this shard owned
    candidates: int = 0  # (query, window) pairs the prefilter considered
    admitted: int = 0
    pairs: int = 0  # pairs verified (DP actually run)
    batches: int = 0
    cells_computed: int = 0
    cells_skipped: int = 0  # band + prefilter savings
    hits: int = 0  # hits in the shard's bounded top-K
    search_s: float = 0.0  # worker-side wall time of the search itself
    queue_wait_s: float = 0.0

    @classmethod
    def from_pipeline(cls, shard_id: int, ps, hits: int, search_s: float):
        """Summarise a :class:`~repro.engine.stages.PipelineStats`."""
        return cls(
            shard_id=shard_id,
            chunks=ps.items_in,
            candidates=ps.candidates,
            admitted=ps.admitted,
            pairs=ps.pairs,
            batches=ps.batches,
            cells_computed=ps.cells_computed,
            cells_skipped=ps.cells_skipped,
            hits=hits,
            search_s=search_s,
        )

    def as_dict(self) -> dict:
        """JSON-ready copy (one row per field)."""
        from dataclasses import fields

        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class ShardRunStats:
    """Whole-run accounting: per-worker rows plus the parent-side phases."""

    num_shards: int
    workers: list = field(default_factory=list)  # ShardWorkerStats, by shard id
    merge_s: float = 0.0  # global top-K reduction over gathered heaps
    spawn_s: float = 0.0  # process creation + ready handshake (0 when warm)
    total_s: float = 0.0  # end-to-end wall time of the run
    warm: bool = False  # served by already-resident workers
    attach_s: float = 0.0  # slowest worker's shm attach for the resident ref

    def add(self, ws: ShardWorkerStats):
        self.workers.append(ws)
        self.workers.sort(key=lambda w: w.shard_id)

    def totals(self) -> dict:
        """Summed work counters across shards (JSON-shaped, for benches)."""
        out = {
            "chunks": 0,
            "candidates": 0,
            "admitted": 0,
            "pairs": 0,
            "batches": 0,
            "cells_computed": 0,
            "cells_skipped": 0,
            "hits": 0,
        }
        for w in self.workers:
            for key in out:
                out[key] += getattr(w, key)
        return out

    def snapshot(self) -> dict:
        """JSON-shaped copy of the whole run (totals + phase timings)."""
        searches = [w.search_s for w in self.workers]
        return {
            "num_shards": self.num_shards,
            "shards_done": len(self.workers),
            "totals": self.totals(),
            "shard_mean_s": sum(searches) / len(searches) if searches else 0.0,
            "shard_max_s": max(searches, default=0.0),
            "merge_s": self.merge_s,
            "spawn_s": self.spawn_s,
            "total_s": self.total_s,
            "warm": self.warm,
            "attach_s": self.attach_s,
        }

    def as_dict(self) -> dict:
        """JSON-ready form: :meth:`snapshot` plus the per-worker rows."""
        out = self.snapshot()
        out["workers"] = [w.as_dict() for w in self.workers]
        return out


@dataclass
class PoolStats:
    """Lifetime accounting for one :class:`~repro.shard.pool.ShardWorkerPool`.

    ``worker_attach_s`` holds the *latest* per-shard attach time — the
    shared-memory map + view construction, refreshed on respawn and
    reference swap.  ``payload_bytes`` is the published
    segment size — the O(1)-in-workers transfer the pool exists to make.
    """

    num_shards: int
    searches: int = 0  # search_topk calls served
    cold_searches: int = 0  # calls that paid spawn (first after start/restart)
    warm_searches: int = 0  # calls served by resident workers
    spawns: int = 0  # worker processes ever started
    respawns: int = 0  # restarts after a worker death or failed run
    swaps: int = 0  # SWAP_REFERENCE cycles completed
    pings: int = 0
    spawn_s: float = 0.0  # cumulative process start + ready handshake time
    swap_s: float = 0.0  # cumulative publish + flip + unlink time
    payload_bytes: int = 0  # resident segment size (0 = pickled chunk lists)
    transport: str = "shared_memory"  # or "pickle" for chunk databases
    worker_attach_s: dict = field(default_factory=dict)  # shard id -> seconds
    last_run: ShardRunStats | None = None

    def record_ready(self, shard_id: int, ready: dict):
        self.worker_attach_s[shard_id] = ready.get("attach_s", 0.0)

    def snapshot(self) -> dict:
        """JSON-shaped copy (bench files, pool residency tables)."""
        attach = [self.worker_attach_s[k] for k in sorted(self.worker_attach_s)]
        return {
            "num_shards": self.num_shards,
            "searches": self.searches,
            "cold_searches": self.cold_searches,
            "warm_searches": self.warm_searches,
            "spawns": self.spawns,
            "respawns": self.respawns,
            "swaps": self.swaps,
            "pings": self.pings,
            "spawn_s": self.spawn_s,
            "swap_s": self.swap_s,
            "payload_bytes": self.payload_bytes,
            "transport": self.transport,
            "worker_attach_s": attach,
            "attach_max_s": max(attach, default=0.0),
            "last_run": self.last_run.snapshot() if self.last_run else None,
        }

    def as_dict(self) -> dict:
        """JSON-ready form (alias of :meth:`snapshot`, with full last run)."""
        out = self.snapshot()
        out["last_run"] = self.last_run.as_dict() if self.last_run else None
        return out
