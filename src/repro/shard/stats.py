"""Pool-lifetime accounting over the last round's per-shard ledgers.

Each worker ships its shard's :class:`~repro.engine.stages.PipelineStats`
and hit count in its reply.  :class:`PoolStats` keeps the last round's
ledgers in shard order plus its warmth — **warm** (resident workers
reused) or **cold** (paid the spawn) — and derives the per-shard rows and
round totals from them on read.  Its own counts — rounds by op and
warmth, swaps, respawns — fold into the ``pool_*`` counters once per
pool call, through the field table below.  Rendered by
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

from dataclasses import dataclass

__all__ = ["PoolStats"]

#: PoolStats field → the counter its delta folds into (None: ledger only).
_SEARCHES_HELP = "Pool search rounds, by worker warmth"
_MAPS_HELP = "Pool mapping rounds, by worker warmth"
_POOL_COUNTERS = {
    "search_cold": ("pool_searches_total", _SEARCHES_HELP, {"mode": "cold"}),
    "search_warm": ("pool_searches_total", _SEARCHES_HELP, {"mode": "warm"}),
    "map_cold": ("pool_maps_total", _MAPS_HELP, {"mode": "cold"}),
    "map_warm": ("pool_maps_total", _MAPS_HELP, {"mode": "warm"}),
    "spawns": None,
    "respawns": ("pool_respawns_total", "Workers respawned by all-or-nothing healing", {}),
    "swaps": ("pool_swaps_total", "Online reference swaps committed", {}),
    "pings": None,
}

#: Per-shard row key → the ``PipelineStats`` attribute it reads.
_ROW_FIELDS = {
    "chunks": "items_in",  # reference windows this shard owned
    "candidates": "candidates",  # (query, window) pairs the prefilter considered
    "admitted": "admitted",
    "pairs": "pairs",  # pairs verified (DP actually run)
    "batches": "batches",
    "cells_computed": "cells_computed",
    "cells_skipped": "cells_skipped",  # band + bound + prefilter savings
}

#: Lifetime counts :meth:`PoolStats.snapshot` reports beside ``last_run``.
_SNAPSHOT_KEYS = (
    "num_shards",
    "searches",
    "cold_searches",
    "warm_searches",
    "spawns",
    "respawns",
    "swaps",
    "pings",
    "payload_bytes",
    "transport",
)


@dataclass
class PoolStats:
    """Lifetime accounting for one :class:`~repro.shard.pool.ShardWorkerPool`.

    ``payload_bytes`` is the published segment size — the
    O(1)-in-workers transfer the pool exists to make.
    """

    num_shards: int
    search_cold: int = 0  # search_topk rounds that paid the spawn
    search_warm: int = 0  # search_topk rounds served by resident workers
    map_cold: int = 0
    map_warm: int = 0
    spawns: int = 0  # worker processes ever started
    respawns: int = 0  # restarts after a worker death or failed run
    swaps: int = 0  # SWAP_REFERENCE cycles completed
    pings: int = 0
    payload_bytes: int = 0  # resident segment size (0 = pickled chunk lists)
    transport: str = "shared_memory"  # or "pickle" for chunk databases
    # Last round's (warm, [(PipelineStats, hits) per shard]); None before any.
    last_round: tuple[bool, list] | None = None

    @property
    def searches(self) -> int:
        """Command rounds served (search_topk and map_topk)."""
        return self.warm_searches + self.cold_searches

    @property
    def warm_searches(self) -> int:
        """Rounds served by resident workers."""
        return self.search_warm + self.map_warm

    @property
    def cold_searches(self) -> int:
        """Rounds that paid the spawn (the first after start or a respawn)."""
        return self.search_cold + self.map_cold

    def record_round(self, op: str, mode: str, ledgers: list) -> None:
        """One ``op`` round's warmth (``"warm"``/``"cold"``) and its
        ``(ledger, hits)`` per shard."""
        key = f"{op}_{mode}"
        setattr(self, key, getattr(self, key) + 1)
        self.last_round = (mode == "warm", ledgers)

    def snapshot(self) -> dict:
        """JSON-shaped copy (bench files, pool residency tables)."""
        out = self.as_dict()
        if out["last_run"] is not None:
            del out["last_run"]["workers"]
        return out

    def as_dict(self) -> dict:
        """JSON-ready form: :meth:`snapshot` plus the last round's per-shard rows."""
        last = None
        if self.last_round is not None:
            warm, ledgers = self.last_round
            workers = [
                {"shard_id": shard_id}
                | {key: getattr(ps, attr) for key, attr in _ROW_FIELDS.items()}
                | {"hits": hits}
                for shard_id, (ps, hits) in enumerate(ledgers)
            ]
            last = {
                "num_shards": self.num_shards,
                "shards_done": len(workers),
                "totals": {
                    key: sum(w[key] for w in workers) for key in (*_ROW_FIELDS, "hits")
                },
                "warm": warm,
                "workers": workers,
            }
        return {key: getattr(self, key) for key in _SNAPSHOT_KEYS} | {"last_run": last}
