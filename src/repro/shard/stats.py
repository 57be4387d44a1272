"""Per-shard work counts for pool command rounds and pool residency.

Each worker process summarises its own pipeline run into a picklable
:class:`ShardWorkerStats` (plain scalars, shipped back over the result
queue alongside the hits); the parent folds them into a
:class:`ShardRunStats`, which also records whether the round was
**warm** (resident workers reused) or **cold** (paid the spawn).
:class:`PoolStats` is the pool-lifetime ledger: rounds served cold vs.
warm, reference swaps, and respawns after worker deaths.  Rendered by
:func:`repro.perf.report.shard_stats_table` /
:func:`repro.perf.report.pool_stats_table`.

These are counts only.  Each timed region is read once, by
:class:`repro.obs.timed` or a span: a shard's command is the worker's
``worker.{op}`` span and its ``pool_shard_search_seconds`` histogram;
its reply-queue dwell is the ``pool.command`` span's ``queue_wait_s``
attribute and the ``pool_shard_queue_wait_seconds`` gauge; the merge is
``pool.merge`` / ``map.dedup``; spawn and swap are ``pool.spawn`` /
``pool.swap``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ShardWorkerStats", "ShardRunStats", "PoolStats"]


@dataclass(slots=True)
class ShardWorkerStats:
    """One worker's summary of the shard it searched."""

    shard_id: int
    chunks: int = 0  # reference windows this shard owned
    candidates: int = 0  # (query, window) pairs the prefilter considered
    admitted: int = 0
    pairs: int = 0  # pairs verified (DP actually run)
    batches: int = 0
    cells_computed: int = 0
    cells_skipped: int = 0  # band + prefilter savings
    hits: int = 0  # hits in the shard's bounded top-K

    @classmethod
    def from_pipeline(cls, shard_id: int, ps, hits: int):
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
        )

    def as_dict(self) -> dict:
        """JSON-ready copy (one row per field)."""
        from dataclasses import fields

        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class ShardRunStats:
    """Whole-round accounting: per-worker rows plus the round's warmth."""

    num_shards: int
    workers: list = field(default_factory=list)  # ShardWorkerStats, by shard id
    warm: bool = False  # served by already-resident workers

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
        """JSON-shaped copy of the whole round (totals + warmth)."""
        return {
            "num_shards": self.num_shards,
            "shards_done": len(self.workers),
            "totals": self.totals(),
            "warm": self.warm,
        }

    def as_dict(self) -> dict:
        """JSON-ready form: :meth:`snapshot` plus the per-worker rows."""
        out = self.snapshot()
        out["workers"] = [w.as_dict() for w in self.workers]
        return out


@dataclass
class PoolStats:
    """Lifetime accounting for one :class:`~repro.shard.pool.ShardWorkerPool`.

    ``payload_bytes`` is the published segment size — the
    O(1)-in-workers transfer the pool exists to make.
    """

    num_shards: int
    searches: int = 0  # command rounds served (search_topk and map_topk)
    cold_searches: int = 0  # rounds that paid spawn (first after start/restart)
    warm_searches: int = 0  # rounds served by resident workers
    spawns: int = 0  # worker processes ever started
    respawns: int = 0  # restarts after a worker death or failed run
    swaps: int = 0  # SWAP_REFERENCE cycles completed
    pings: int = 0
    payload_bytes: int = 0  # resident segment size (0 = pickled chunk lists)
    transport: str = "shared_memory"  # or "pickle" for chunk databases
    last_run: ShardRunStats | None = None

    def snapshot(self) -> dict:
        """JSON-shaped copy (bench files, pool residency tables)."""
        return {
            "num_shards": self.num_shards,
            "searches": self.searches,
            "cold_searches": self.cold_searches,
            "warm_searches": self.warm_searches,
            "spawns": self.spawns,
            "respawns": self.respawns,
            "swaps": self.swaps,
            "pings": self.pings,
            "payload_bytes": self.payload_bytes,
            "transport": self.transport,
            "last_run": self.last_run.snapshot() if self.last_run else None,
        }

    def as_dict(self) -> dict:
        """JSON-ready form (alias of :meth:`snapshot`, with full last run)."""
        out = self.snapshot()
        out["last_run"] = self.last_run.as_dict() if self.last_run else None
        return out
