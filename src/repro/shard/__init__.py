"""repro.shard — multi-process sharded search over a resident worker pool.

One Python process caps throughput at one GIL; this subsystem splits the
work across processes along the natural partition — the reference chunk
stream.  Chunk ownership is a pure function of the global chunk ordinal
(:func:`repro.workloads.chunks.shard_of`), every per-shard top-K heap is
bounded and mergeable under one deterministic total order
(:mod:`repro.search.topk`), so every entry point returns results
bit-identical to its single-process counterpart:

* **resident** — :class:`ShardWorkerPool`, the one sharded entry point,
  spawns N workers *once*, publishes the encoded reference *once* via
  shared memory (:mod:`repro.shard.shm` — workers attach zero-copy), and
  serves many query sets over a command/result protocol, with online
  reference swap and respawn-on-death.  A one-shot run is a pool used
  once inside a ``with`` block;
* **online** — ``AlignmentService(pool=...)``
  (:class:`~repro.serve.AlignmentService`) serves ``submit_search`` /
  ``submit_map`` from a resident pool behind the same admission,
  deadlines and SLO accounting as every other request.
  :func:`ShardRouter` is kept as a short alias for it.
"""

from repro.shard.plan import (
    ChunkPayload,
    ShardPlan,
    SharedRecordPayload,
    build_pool_payloads,
)
from repro.shard.pool import ShardError, ShardWorkerError, ShardWorkerPool
from repro.shard.router import ShardRouter
from repro.shard.shm import SharedReferenceMeta, SharedSegment, publish_records
from repro.shard.stats import PoolStats
from repro.shard.worker import run_pool_worker, shard_engine_workers

__all__ = [
    "ChunkPayload",
    "PoolStats",
    "ShardError",
    "ShardPlan",
    "ShardRouter",
    "ShardWorkerError",
    "ShardWorkerPool",
    "SharedRecordPayload",
    "SharedReferenceMeta",
    "SharedSegment",
    "build_pool_payloads",
    "publish_records",
    "run_pool_worker",
    "shard_engine_workers",
]
