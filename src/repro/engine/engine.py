"""The execution engine: the serving-path frontend over the stage pipeline.

:class:`ExecutionEngine` wires the composable streaming stages of
:mod:`repro.engine.stages` — shape batching
(:class:`~repro.engine.batching.ShapeBatcher`), per-parameterisation plan
caching (:mod:`repro.engine.plans`, layered on the staged kernel cache),
and the thread-pooled executor (:mod:`repro.engine.executor`) — into the
two serving regimes:

* **batch**: :meth:`submit_batch` / :meth:`align_batch`, plus the thin
  compatibility wrapper :meth:`run` over materialized request lists;
* **stream**: :meth:`stream` yields ``(key, score)`` pairs as lane blocks
  complete while the input is still being consumed, and :meth:`pipeline`
  assembles a custom :class:`~repro.engine.stages.StreamPipeline` (the
  query-vs-database scanner in :mod:`repro.search` builds on it).

Every name in :data:`repro.core.aligner.BACKEND_FACTORIES` — plus the
inline kernel strategies and ``auto`` — is accepted per engine or per
call; ``auto`` re-selects for each batch from the declared backend
capabilities and the batch shape.  Engines are context-manager safe:
``with ExecutionEngine(...) as eng`` shuts the worker pool down
deterministically, and ``close()`` is idempotent.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.core.backend import available_backends, select_backend
from repro.core.scoring import default_scheme
from repro.core.types import AlignmentScheme
from repro.engine.batching import ShapeBatcher, encode_pairs
from repro.engine.executor import BatchExecutor, PlanExecutorStage
from repro.engine.plans import PlanCache, global_plan_cache
from repro.engine.stages import Batch, PipelineStats, Request, ScoreCollector, StreamPipeline
from repro.engine.stages import execute_timer
from repro.util.checks import check_in, check_no_callables
from repro.util.encoding import encode

__all__ = ["EngineConfig", "ExecutionEngine", "EngineStats"]


@dataclass(frozen=True)
class EngineConfig:
    """Picklable-by-construction recipe for an :class:`ExecutionEngine`.

    An engine itself owns a thread pool and cached kernels — none of which
    can cross a process boundary — so subsystems that rebuild engines in
    worker processes (:mod:`repro.shard`) ship this value object instead
    and call :meth:`build` on the far side.  ``dtype`` is the NumPy dtype
    *name* (a string) for the same reason.
    """

    backend: str = "rowscan"
    dtype: str = "int32"
    max_workers: int | None = None
    lanes: int = 64
    max_in_flight: int = 4096

    def __post_init__(self):
        check_no_callables(self)
        np.dtype(self.dtype)  # fail fast on nonsense dtype names

    def build(
        self,
        scheme: AlignmentScheme | None = None,
        *,
        max_workers: int | None = None,
    ) -> "ExecutionEngine":
        """Construct the engine (optionally overriding the worker count).

        The override exists for shard workers: ``max_workers=None`` in the
        config means "size for the host", and the worker divides the host's
        cores among its sibling processes at build time.
        """
        workers = max_workers if max_workers is not None else self.max_workers
        return ExecutionEngine(
            scheme,
            backend=self.backend,
            dtype=np.dtype(self.dtype),
            max_workers=workers,
            lanes=self.lanes,
            max_in_flight=self.max_in_flight,
        )


@dataclass
class EngineStats:
    """Cumulative work accounting of one engine instance.

    ``pipeline`` is the one work ledger: every entry point — scores, streams
    and alignments alike — folds its pairs, cells, lane blocks and scalar
    pops into it, so ``pipeline.batches == lane_blocks + scalar_pops``.
    ``backends_used`` counts entry-point calls per resolved backend.
    Thread-safe: the serving front submits batches from executor threads
    concurrently, so :meth:`record` and :meth:`absorb` mutate under one lock.
    """

    pipeline: PipelineStats = field(default_factory=PipelineStats)
    backends_used: dict = field(default_factory=dict)
    _lock: object = field(default_factory=threading.Lock, repr=False)

    def record(self, backend: str):
        with self._lock:
            self.backends_used[backend] = self.backends_used.get(backend, 0) + 1

    def absorb(self, ps: PipelineStats):
        """Fold one run's :class:`PipelineStats` into the cumulative ledger."""
        with self._lock:
            self.pipeline.merge(ps)


class ExecutionEngine:
    """Batched + streaming scoring/alignment over any registered backend.

    Parameters
    ----------
    scheme:
        Alignment type + scoring shared by all requests of this engine.
    backend:
        Default backend name (``"auto"`` re-selects per batch shape).
    dtype:
        Score width for the staged kernel paths.
    max_workers / lanes:
        Executor sizing: worker threads and the vector-block width a lane
        batch is filled to.
    plan_cache:
        Plan cache to layer on (defaults to the process-wide cache).
    max_in_flight:
        Streaming backpressure budget: at most this many admitted requests
        are buffered in partial lane batches before a forced flush.
    """

    def __init__(
        self,
        scheme: AlignmentScheme | None = None,
        backend: str = "auto",
        dtype=np.int32,
        max_workers: int | None = None,
        lanes: int = 64,
        plan_cache: PlanCache | None = None,
        max_in_flight: int = 4096,
    ):
        self.scheme = scheme if scheme is not None else default_scheme()
        self.backend = check_in(backend, available_backends(), "backend")
        self.dtype = np.dtype(dtype)
        self.executor = BatchExecutor(max_workers=max_workers, lanes=lanes)
        self.plan_cache = plan_cache if plan_cache is not None else global_plan_cache
        self.max_in_flight = max_in_flight
        self.stats = EngineStats()

    # -- lifecycle ---------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self.executor.closed

    def close(self):
        """Shut the worker pool down deterministically (idempotent)."""
        self.executor.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # -- planning ----------------------------------------------------------
    def _resolve(self, backend, enc_q, enc_s, need_traceback=False) -> str:
        name = backend if backend is not None else self.backend
        check_in(name, available_backends(), "backend")
        if name == "auto":
            extent = max(max(q.size for q in enc_q), max(s.size for s in enc_s))
            name = select_backend(
                self.scheme,
                pairs=len(enc_q),
                extent=extent,
                need_traceback=need_traceback,
            )
        return name

    def plan_for(self, backend: str | None = None, pairs: int = 16, extent: int = 0):
        """Resolve and cache the plan auto would use for a workload shape."""
        name = backend if backend is not None else self.backend
        check_in(name, available_backends(), "backend")
        if name == "auto":
            name = select_backend(self.scheme, pairs=pairs, extent=extent)
        return self.plan_cache.get_or_build(self.scheme, name, self.dtype)

    # -- pipeline assembly --------------------------------------------------
    def pipeline(
        self,
        source,
        *,
        stage,
        reducer,
        prefilter=None,
        batcher=None,
        max_in_flight: int | None = None,
        stats: PipelineStats | None = None,
        trace_name: str = "pipeline",
        stage_names: dict | None = None,
    ) -> StreamPipeline:
        """Assemble a :class:`StreamPipeline` on this engine's executor.

        The engine contributes the shared thread pool and default shape
        batcher; callers supply the source, the executor stage (e.g. a
        :class:`~repro.engine.executor.PlanExecutorStage` from
        :meth:`plan_for`, or the banded verify stage of
        :mod:`repro.search`), and the reducer.  ``trace_name`` /
        ``stage_names`` label the pipeline's spans and metric series.
        """
        return StreamPipeline(
            source,
            prefilter=prefilter,
            batcher=batcher if batcher is not None else ShapeBatcher(self.executor.lanes),
            stage=stage,
            reducer=reducer,
            executor=self.executor,
            max_in_flight=max_in_flight if max_in_flight is not None else self.max_in_flight,
            stats=stats,
            trace_name=trace_name,
            stage_names=stage_names,
        )

    def _score_pipeline(self, plan, requests, out: np.ndarray) -> PipelineStats:
        """Drive a request source through batcher → plan executor → collector."""
        pipe = self.pipeline(
            requests,
            stage=PlanExecutorStage(plan),
            reducer=ScoreCollector(out),
            batcher=ShapeBatcher(self.executor.lanes if plan.lane_batching else 1),
        )
        ps = pipe.drain()
        self.stats.absorb(ps)
        return ps

    # -- request entry points ----------------------------------------------
    def submit_batch(self, queries, subjects, backend: str | None = None) -> np.ndarray:
        """Scores for many independent pairs (the serving hot path)."""
        enc_q, enc_s = encode_pairs(queries, subjects)
        if not enc_q:
            return np.empty(0, dtype=np.int64)
        name = self._resolve(backend, enc_q, enc_s)
        plan = self.plan_cache.get_or_build(self.scheme, name, self.dtype)
        self.stats.record(name)
        out = np.empty(len(enc_q), dtype=np.int64)
        requests = (
            Request(key=k, query=q, subject=s) for k, (q, s) in enumerate(zip(enc_q, enc_s))
        )
        self._score_pipeline(plan, requests, out)
        return out

    def submit_prebatched(self, batch: Batch, backend: str | None = None) -> np.ndarray:
        """Execute one already shape-homogeneous :class:`Batch` directly.

        The online serving micro-batcher (:mod:`repro.serve`) buckets
        requests by shape itself; this entry point runs such a batch
        straight through the plan executor stage — no re-encoding and no
        second :class:`~repro.engine.batching.ShapeBatcher` pass — and
        folds the work into the engine stats.  Oversize batches execute in
        lane-width blocks (per-pair for backends without lane batching),
        exactly the splits and accounting :meth:`submit_batch` would
        produce.  Scores come back in batch request order.  Thread-safe:
        serving dispatch threads call it concurrently.
        """
        if self.closed:
            from repro.util.checks import ReproError

            raise ReproError("engine is closed")
        if not batch.requests:
            return np.empty(0, dtype=np.int64)
        enc_q = [r.query for r in batch.requests]
        enc_s = [r.subject for r in batch.requests]
        name = self._resolve(backend, enc_q, enc_s)
        plan = self.plan_cache.get_or_build(self.scheme, name, self.dtype)
        self.stats.record(name)
        stage = PlanExecutorStage(plan)
        lanes = self.executor.lanes if plan.lane_batching else 1
        with execute_timer(
            _DIRECT, "execute", batch=len(batch), shape=list(batch.shape)
        ) as t:
            parts = [
                Batch(shape=batch.shape, requests=batch.requests[off : off + lanes])
                for off in range(0, len(batch.requests), lanes)
            ]
            scores = np.concatenate([stage.execute(part)[0] for part in parts])
        lane_blocks = sum(1 for p in parts if len(p) > 1)
        self.stats.absorb(
            _direct_stats(
                len(batch),
                batch.cells,
                lane_blocks=lane_blocks,
                scalar_pops=len(parts) - lane_blocks,
                seconds=t.seconds,
            )
        )
        return scores

    def run(self, requests, backend: str | None = None) -> np.ndarray:
        """Compatibility wrapper: score a materialized request batch.

        ``requests`` is a sequence of ``(query, subject)`` pairs or
        :class:`~repro.engine.stages.Request` objects; returns scores in
        request order via the same streaming pipeline as everything else.
        """
        requests = list(requests)
        queries, subjects = [], []
        for item in requests:
            if isinstance(item, Request):
                queries.append(item.query)
                subjects.append(item.subject)
            else:
                q, s = item
                queries.append(q)
                subjects.append(s)
        return self.submit_batch(queries, subjects, backend)

    def stream(self, pairs, backend: str | None = None):
        """Score a stream of ``(query, subject)`` pairs incrementally.

        A generator yielding ``(index, score)`` as lane blocks fill and
        complete — input is consumed lazily with the engine's
        ``max_in_flight`` backpressure budget, so the stream may be far
        larger than memory.  Yield order follows block completion, not
        input order.  ``auto`` resolves against the streaming regime (many
        pairs) from the first pair's extent.
        """
        it = iter(pairs)
        try:
            first = next(it)
        except StopIteration:
            return
        q0, s0 = encode(first[0]), encode(first[1])
        name = backend if backend is not None else self.backend
        check_in(name, available_backends(), "backend")
        if name == "auto":
            # A stream is the many-pairs regime by definition; extent from
            # the first pair is the only shape information available.
            name = select_backend(
                self.scheme, pairs=1 << 20, extent=max(q0.size, s0.size)
            )
        plan = self.plan_cache.get_or_build(self.scheme, name, self.dtype)
        self.stats.record(name)

        def requests():
            yield Request(key=0, query=q0, subject=s0)
            for k, (q, s) in enumerate(it, start=1):
                yield Request(key=k, query=encode(q), subject=encode(s))

        out = _NullSink()
        pipe = self.pipeline(
            requests(),
            stage=PlanExecutorStage(plan),
            reducer=ScoreCollector(out),
            batcher=ShapeBatcher(self.executor.lanes if plan.lane_batching else 1),
        )
        try:
            yield from pipe.run()
        finally:
            self.stats.absorb(pipe.stats)

    def align_batch(self, queries, subjects, backend: str | None = None) -> list:
        """Full alignments for many pairs as lane-stack tracebacks.

        Pairs are cut into stacks of at most ``lanes`` — a same-shape batch
        fills them, mixed shapes are padded within a bound — and run across
        the worker threads; the ledger records each stack as a lane block
        (a lone pair as a scalar pop), as :meth:`submit_prebatched` does
        for scores.  Results come back in request order.
        """
        enc_q, enc_s = encode_pairs(queries, subjects)
        if not enc_q:
            return []
        name = self._resolve(backend, enc_q, enc_s, need_traceback=True)
        plan = self.plan_cache.get_or_build(self.scheme, name, self.dtype)
        self.stats.record(name)
        with execute_timer(_DIRECT, "execute", batch=len(enc_q)) as t:
            results, parts = self.executor.run_aligns(plan, enc_q, enc_s)
        lane_blocks = sum(1 for p in parts if len(p) > 1)
        self.stats.absorb(
            _direct_stats(
                len(enc_q),
                sum(q.size * s.size for q, s in zip(enc_q, enc_s)),
                lane_blocks=lane_blocks,
                scalar_pops=len(parts) - lane_blocks,
                seconds=t.seconds,
            )
        )
        return results

    # -- introspection -----------------------------------------------------
    def report(self) -> str:
        """Human-readable cache + work statistics (perf.report format)."""
        from repro.perf.report import cache_stats_table

        return cache_stats_table(self.plan_cache, engine=self)

    def __repr__(self):
        at = self.scheme.alignment_type.value
        return (
            f"ExecutionEngine({at}, backend={self.backend!r}, "
            f"workers={self.executor.max_workers}, lanes={self.executor.lanes})"
        )


#: Work run without a pipeline feeds the engine pipelines' metric series.
_DIRECT = "pipeline"


def _direct_stats(
    pairs: int, cells: int, lane_blocks: int, scalar_pops: int, seconds: float
) -> PipelineStats:
    """Ledger entry for work executed without a pipeline (no prefilter,
    no batcher): every pair is admitted, every block is one batch."""
    ps = PipelineStats()
    ps.items_in = ps.candidates = ps.admitted = ps.pairs = pairs
    ps.batches = lane_blocks + scalar_pops
    ps.lane_blocks = lane_blocks
    ps.scalar_pops = scalar_pops
    ps.cells_computed = cells
    ps.stages["execute"].add(pairs, seconds)
    return ps


class _NullSink:
    """No-op stand-in for the collector's output array in streams.

    Stream results reach the caller through the collector's ``(key,
    score)`` emissions; storing them as well would grow without bound on
    unbounded streams.
    """

    __slots__ = ()

    def __setitem__(self, key, value):
        pass
