"""repro.shard — multi-process sharded search over a resident worker pool.

One Python process caps throughput at one GIL; this subsystem splits the
work across processes along the natural partition — the reference chunk
stream.  Chunk ownership is a pure function of the global chunk ordinal
(:func:`repro.workloads.chunks.shard_of`), every per-shard top-K heap is
bounded and mergeable under one deterministic total order
(:mod:`repro.search.topk`), so all regimes return results bit-identical
to their single-process counterparts:

* **resident** — :class:`ShardWorkerPool` spawns N workers *once*,
  publishes the encoded reference *once* via shared memory
  (:mod:`repro.shard.shm` — workers attach zero-copy), and serves many
  query sets over a command/result protocol, with online reference swap
  and respawn-on-death;
* **offline** — :class:`ShardedSearch` fronts the pool: one-shot by
  default (cold pool per call — the historical spawn-per-search
  semantics), ``persistent=True`` to keep the pool warm across calls;
* **online** — ``AlignmentService(pool=...)``
  (:class:`~repro.serve.AlignmentService`) serves ``submit_search`` /
  ``submit_map`` from a resident pool behind the same admission,
  deadlines and SLO accounting as every other request.
  :func:`ShardRouter` is kept as a short alias for it.
"""

from repro.shard.plan import (
    ChunkPayload,
    RecordPayload,
    ShardPlan,
    SharedRecordPayload,
    build_payloads,
    build_pool_payloads,
    fingerprint_database,
)
from repro.shard.pool import ShardWorkerPool
from repro.shard.router import ShardRouter
from repro.shard.search import (
    ShardedSearch,
    ShardError,
    ShardWorkerError,
    sharded_search_topk,
)
from repro.shard.shm import SharedReferenceMeta, SharedSegment, publish_records
from repro.shard.stats import PoolStats, ShardRunStats, ShardWorkerStats
from repro.shard.worker import run_pool_worker, shard_engine_workers

__all__ = [
    "ChunkPayload",
    "PoolStats",
    "RecordPayload",
    "ShardError",
    "ShardPlan",
    "ShardRouter",
    "ShardRunStats",
    "ShardWorkerError",
    "ShardWorkerPool",
    "ShardWorkerStats",
    "ShardedSearch",
    "SharedRecordPayload",
    "SharedReferenceMeta",
    "SharedSegment",
    "build_payloads",
    "build_pool_payloads",
    "fingerprint_database",
    "publish_records",
    "run_pool_worker",
    "shard_engine_workers",
    "sharded_search_topk",
]
