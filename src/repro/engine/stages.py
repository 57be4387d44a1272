"""Composable streaming stages: Source → Prefilter → Batcher → Executor → Reducer.

The engine used to be one monolithic batch call; this module factors the
request path into five small protocol-typed stages so the same machinery
serves both regimes:

* a **materialized batch** (``ExecutionEngine.submit_batch``/``run``) is a
  list source, a shape batcher, a plan executor stage and an ordered score
  collector;
* a **stream** (``ExecutionEngine.stream``, the query-vs-database pipeline
  in :mod:`repro.search`) feeds the identical stages incrementally, with
  backpressure: at most ``max_in_flight`` admitted requests are ever
  buffered, and batches are force-flushed when the budget fills.

:class:`StreamPipeline` drives the stages as a pull-based generator:
results stream out of :meth:`StreamPipeline.run` as batches complete while
the source is still being consumed.  Batch execution overlaps through the
engine's thread-pooled :class:`~repro.engine.executor.BatchExecutor`
(bounded outstanding futures, reduced in submission order, so emission
order is deterministic).  Every stage is counted into a shared
:class:`PipelineStats`, rendered by
:func:`repro.perf.report.pipeline_stats_table`; the prefilter, execute
and reduce stages are also timed, each region read once by
:class:`repro.obs.timed` for its span and ledger seconds (execute also
for the ``pipeline_stage_seconds`` histogram).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Protocol, runtime_checkable

import numpy as np

from repro.obs import get_logger, get_registry, get_tracer, timed
from repro.obs.metrics import fold_ledger
from repro.util.checks import check_positive

#: Module-level so the hot loop pays a global load, not a dict lookup.
_log = get_logger("engine.pipeline")

__all__ = [
    "Request",
    "Batch",
    "Source",
    "Prefilter",
    "Batcher",
    "ExecutorStage",
    "Reducer",
    "StageStats",
    "PipelineStats",
    "StreamPipeline",
    "ScoreCollector",
]

#: Canonical stage names, in pipeline order.
STAGES = ("source", "prefilter", "batch", "execute", "reduce")


@dataclass(slots=True)
class Request:
    """One unit of alignment work flowing through the pipeline.

    ``key`` is caller-defined identity (the batch index for the engine, a
    ``(query_id, chunk_id)`` pair for database search); ``meta`` carries
    stage-private context (e.g. the source chunk for the top-K reducer).
    """

    key: object
    query: np.ndarray  # encoded uint8 codes
    subject: np.ndarray
    meta: dict | None = None

    @property
    def cells(self) -> int:
        """Full-DP cell count of this request (n · m)."""
        return int(self.query.size) * int(self.subject.size)


@dataclass(slots=True)
class Batch:
    """Same-shape requests grouped for one lane-block kernel invocation."""

    shape: tuple[int, int]
    requests: list

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def cells(self) -> int:
        return len(self.requests) * self.shape[0] * self.shape[1]

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """(k, n) query and (k, m) subject stacks for lane execution."""
        return (
            np.stack([r.query for r in self.requests]),
            np.stack([r.subject for r in self.requests]),
        )


# -- stage protocols --------------------------------------------------------
@runtime_checkable
class Source(Protocol):
    """Yields work items: :class:`Request` objects, or anything a prefilter
    can expand (e.g. reference :class:`~repro.workloads.chunks.Chunk`)."""

    def __iter__(self) -> Iterator[object]: ...


@runtime_checkable
class Prefilter(Protocol):
    """Expands (and cheaply filters) one source item into admitted requests.

    Implementations keep their own rejection accounting in ``candidates`` /
    ``admitted`` / ``rejected`` / ``rejected_cells`` attributes; the
    pipeline copies them into :class:`PipelineStats` as the run drains.
    """

    candidates: int
    admitted: int
    rejected: int
    rejected_cells: int

    def expand(self, item) -> Iterable[Request]: ...


@runtime_checkable
class Batcher(Protocol):
    """Groups admitted requests into executable same-shape batches."""

    def add(self, request: Request) -> Iterable[Batch]: ...

    def flush(self) -> Iterable[Batch]: ...

    @property
    def pending(self) -> int: ...


@runtime_checkable
class ExecutorStage(Protocol):
    """Runs one batch to scores (thread-safe: called from pool workers)."""

    def execute(self, batch: Batch) -> tuple[np.ndarray, dict]:
        """Scores plus the batch's cell ledger: ``cells_computed`` (cells
        actually relaxed) and the ``cells_skipped_*`` counts that sum with
        it to the batch's full-DP cells."""
        ...


@runtime_checkable
class Reducer(Protocol):
    """Consumes scored batches; whatever it returns streams to the caller."""

    def consume(self, batch: Batch, scores: np.ndarray) -> Iterable[object]: ...

    def finalize(self) -> Iterable[object]: ...


# -- instrumentation --------------------------------------------------------
@dataclass
class StageStats:
    """Call/item counts of one pipeline stage, plus wall time for the
    timed stages (prefilter, execute, reduce)."""

    seconds: float = 0.0
    calls: int = 0
    items: int = 0

    def add(self, items: int = 1, seconds: float = 0.0):
        self.seconds += seconds
        self.calls += 1
        self.items += items

    def merge(self, other: "StageStats"):
        self.seconds += other.seconds
        self.calls += other.calls
        self.items += other.items

    def as_dict(self) -> dict:
        return {"seconds": self.seconds, "calls": self.calls, "items": self.items}


@dataclass
class PipelineStats:
    """Work + timing accounting of one (or several merged) pipeline runs."""

    stages: dict = field(default_factory=lambda: {name: StageStats() for name in STAGES})
    items_in: int = 0  # items yielded by the source
    candidates: int = 0  # requests considered by the prefilter
    admitted: int = 0
    rejected: int = 0
    batches: int = 0
    lane_blocks: int = 0  # batches with > 1 request
    scalar_pops: int = 0
    pairs: int = 0  # requests executed
    cells_computed: int = 0  # DP cells actually relaxed (band-aware)
    cells_skipped_band: int = 0  # full-DP minus banded cells, executed pairs
    cells_skipped_bound: int = 0  # cells left unswept by lanes abandoned below the floor
    cells_skipped_prefilter: int = 0  # full-DP cells of rejected candidates
    flushes: int = 0  # backpressure-forced batcher flushes
    max_buffered: int = 0  # high-water mark of batcher-buffered requests
    _lock: object = field(default_factory=threading.Lock, repr=False)

    @property
    def rejection_rate(self) -> float:
        """Fraction of prefilter candidates rejected before execution."""
        return self.rejected / self.candidates if self.candidates else 0.0

    @property
    def cells_skipped(self) -> int:
        return self.cells_skipped_band + self.cells_skipped_bound + self.cells_skipped_prefilter

    @property
    def gcups(self) -> float:
        """Giga cells/s actually relaxed, over executor stage wall time."""
        t = self.stages["execute"].seconds
        return self.cells_computed / t / 1e9 if t else 0.0

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]  # a lock does not pickle; each copy makes its own
        return state

    def __setstate__(self, state: dict):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def merge(self, other: "PipelineStats"):
        for name, st in other.stages.items():
            self.stages.setdefault(name, StageStats()).merge(st)
        for f in _PIPELINE_COUNTERS:
            setattr(self, f, getattr(self, f) + getattr(other, f))
        self.max_buffered = max(self.max_buffered, other.max_buffered)

    def as_dict(self) -> dict:
        """JSON-ready form for `perf.report.snapshot` / bench artifacts."""
        d = {f: getattr(self, f) for f in _PIPELINE_COUNTERS}
        d["max_buffered"] = self.max_buffered
        d["rejection_rate"] = self.rejection_rate
        d["gcups"] = self.gcups
        d["stages"] = {name: st.as_dict() for name, st in self.stages.items()}
        return d


#: Additive PipelineStats fields, each with the counter its per-run delta
#: folds into (None: ledger only).  ``merge``, ``as_dict`` and
#: :func:`~repro.obs.metrics.fold_ledger` all read it.
_REQUESTS_HELP = "Prefilter dispositions of candidate requests"
_CELLS_HELP = "DP cells relaxed or skipped, by cause"
_PIPELINE_COUNTERS = {
    "items_in": None,
    "candidates": None,
    "admitted": ("pipeline_requests_total", _REQUESTS_HELP, {"disposition": "admitted"}),
    "rejected": ("pipeline_requests_total", _REQUESTS_HELP, {"disposition": "rejected"}),
    "batches": ("pipeline_batches_total", "Batches executed", {}),
    "lane_blocks": None,
    "scalar_pops": None,
    "pairs": ("pipeline_pairs_total", "Requests executed", {}),
    "cells_computed": ("pipeline_cells_total", _CELLS_HELP, {"kind": "computed"}),
    "cells_skipped_band": ("pipeline_cells_total", _CELLS_HELP, {"kind": "skipped_band"}),
    "cells_skipped_bound": ("pipeline_cells_total", _CELLS_HELP, {"kind": "skipped_bound"}),
    "cells_skipped_prefilter": (
        "pipeline_cells_total",
        _CELLS_HELP,
        {"kind": "skipped_prefilter"},
    ),
    "flushes": ("pipeline_flushes_total", "Backpressure-forced batcher flushes", {}),
}


def execute_timer(pipeline: str, stage: str, **attrs) -> timed:
    """One execute-stage batch as a :class:`~repro.obs.timed` region.

    Its one reading is the span ``stage``, an observation of
    ``pipeline_stage_seconds{pipeline, stage}`` and the ledger's seconds.
    """
    reg = get_registry()
    hist = (
        reg.histogram(
            "pipeline_stage_seconds",
            "Per-batch execute-stage wall time",
            labels=("pipeline", "stage"),
        )
        if reg.enabled
        else None
    )
    return timed(stage, hist=hist, labels={"pipeline": pipeline, "stage": stage}, **attrs)


class _Immediate:
    """Future look-alike for inline (single-worker) execution."""

    __slots__ = ("_value",)

    def __init__(self, value):
        self._value = value

    def done(self) -> bool:
        return True

    def result(self):
        return self._value


# -- built-in reducer -------------------------------------------------------
class ScoreCollector:
    """Writes scores into a dense array by request key; emits (key, score).

    The engine's batch entry points drain the emissions and return the
    array; ``ExecutionEngine.stream`` forwards them to the caller.
    """

    def __init__(self, out: np.ndarray):
        self.out = out

    def consume(self, batch: Batch, scores: np.ndarray):
        out = self.out
        for req, score in zip(batch.requests, scores):
            out[req.key] = score
            yield (req.key, int(score))

    def finalize(self):
        return ()


# -- the pipeline driver ----------------------------------------------------
class StreamPipeline:
    """Drives Source → Prefilter → Batcher → Executor → Reducer as a stream.

    Parameters
    ----------
    source:
        Iterable of work items (requests, or prefilter-expandable items).
    batcher / stage / reducer:
        The remaining stages; ``prefilter`` is optional (items must then be
        :class:`Request` objects already).
    executor:
        A :class:`~repro.engine.executor.BatchExecutor` whose thread pool
        overlaps batch execution.  ``None`` (or a single worker) executes
        inline.
    max_in_flight:
        Backpressure budget: the batcher never buffers more than this many
        admitted requests — reaching it force-flushes partial batches.
    max_outstanding:
        Cap on submitted-but-unreduced batches (defaults to twice the
        executor's workers); bounds memory while keeping the pool busy.
    """

    def __init__(
        self,
        source,
        *,
        batcher,
        stage,
        reducer,
        prefilter=None,
        executor=None,
        max_in_flight: int = 4096,
        max_outstanding: int | None = None,
        stats: PipelineStats | None = None,
        trace_name: str = "pipeline",
        stage_names: dict | None = None,
    ):
        self.source = source
        self.batcher = batcher
        self.stage = stage
        self.reducer = reducer
        self.prefilter = prefilter
        self.executor = executor
        self.max_in_flight = check_positive(max_in_flight, "max_in_flight")
        workers = getattr(executor, "max_workers", 1) if executor is not None else 1
        if max_outstanding is None:
            max_outstanding = 2 * workers
        self.max_outstanding = check_positive(max_outstanding, "max_outstanding")
        self.parallel = executor is not None and workers > 1
        self.stats = stats if stats is not None else PipelineStats()
        # Observability: trace_name labels the root span and every metric
        # series; stage_names maps generic stage slots to domain terms
        # (search passes prefilter→seed, execute→verify).
        self.trace_name = trace_name
        names = {"prefilter": "prefilter", "execute": "execute", "reduce": "reduce"}
        if stage_names:
            names.update(stage_names)
        self._span_names = names
        self._run_ctx = None  # SpanContext of the open root span, for threads

    # Executed on pool workers: must only touch stats under the lock.
    def _timed_execute(self, batch: Batch) -> np.ndarray:
        st = self.stats
        # Pool worker threads do not inherit the contextvar; parent on the
        # root-span context captured when the run opened.
        with execute_timer(
            self.trace_name,
            self._span_names["execute"],
            parent=self._run_ctx,
            batch=len(batch),
            shape=list(batch.shape),
        ) as t:
            scores, cells = self.stage.execute(batch)
            t.set(cells=cells["cells_computed"])
        with st._lock:
            st.stages["execute"].add(len(batch), t.seconds)
            for f, v in cells.items():
                setattr(st, f, getattr(st, f) + v)
        if _log.enabled_for("debug"):  # one compare on the default config
            _log.debug(
                "batch executed",
                pipeline=self.trace_name,
                batch=len(batch),
                cells=cells["cells_computed"],
                seconds=t.seconds,
            )
        return scores

    def run(self) -> Iterator[object]:
        """Generator: drives the stages, yielding reducer emissions."""
        if self.executor is not None and getattr(self.executor, "closed", False):
            from repro.util.checks import ReproError

            raise ReproError("executor is closed")
        tracer = get_tracer()
        if not tracer.enabled:
            yield from self._drive()
            return
        with tracer.span(self.trace_name, parallel=self.parallel) as root:
            self._run_ctx = root.context
            try:
                yield from self._drive()
                root.set(
                    pairs=self.stats.pairs,
                    batches=self.stats.batches,
                    cells=self.stats.cells_computed,
                )
            finally:
                self._run_ctx = None

    def _drive(self) -> Iterator[object]:
        st = self.stats
        reg = get_registry()
        base = vars(st).copy()
        depth_gauge = None
        if reg.enabled:
            depth_gauge = reg.gauge(
                "pipeline_buffered_requests",
                "Requests currently buffered in the batcher (backpressure queue depth)",
                labels=("pipeline",),
            )
        pending: deque = deque()  # (batch, future) in submission order

        def submit(batch: Batch):
            with st._lock:
                st.batches += 1
                st.pairs += len(batch)
                if len(batch) > 1:
                    st.lane_blocks += 1
                else:
                    st.scalar_pops += 1
            if self.parallel:
                pending.append((batch, self.executor.submit(self._timed_execute, batch)))
            else:
                pending.append((batch, _Immediate(self._timed_execute(batch))))

        def reduce_ready(drain_all: bool = False):
            while pending and (
                drain_all or len(pending) > self.max_outstanding or pending[0][1].done()
            ):
                batch, fut = pending.popleft()
                scores = fut.result()
                with timed(self._span_names["reduce"], batch=len(batch)) as t:
                    emitted = list(self.reducer.consume(batch, scores))
                st.stages["reduce"].add(len(batch), t.seconds)
                yield from emitted

        # Source and batcher are counted, not timed: only this table would
        # read their time, and the root span's self time already holds it.
        it = iter(self.source)
        while True:
            try:
                item = next(it)
            except StopIteration:
                st.stages["source"].add(0)
                break
            st.stages["source"].add()
            st.items_in += 1
            if self.prefilter is not None:
                with timed(self._span_names["prefilter"]) as t:
                    requests = list(self.prefilter.expand(item))
                    t.set(admitted=len(requests))
                st.stages["prefilter"].add(len(requests), t.seconds)
            else:
                requests = (item,)
            for req in requests:
                ready = list(self.batcher.add(req))
                st.stages["batch"].add()
                for batch in ready:
                    submit(batch)
                # Budget check per admitted request, not per source item: a
                # single prefilter expansion may admit many requests and
                # must not overshoot the in-flight budget.
                buffered = self.batcher.pending
                if buffered > st.max_buffered:
                    st.max_buffered = buffered
                if depth_gauge is not None:
                    depth_gauge.set(buffered, pipeline=self.trace_name)
                if buffered >= self.max_in_flight:
                    st.flushes += 1
                    for batch in self.batcher.flush():
                        submit(batch)
            yield from reduce_ready()
        for batch in self.batcher.flush():
            submit(batch)
        yield from reduce_ready(drain_all=True)
        tail = list(self.reducer.finalize())
        st.stages["reduce"].add(0)
        yield from tail
        self._sync_prefilter()
        fold_ledger(_PIPELINE_COUNTERS, st, base, pipeline=self.trace_name)

    def drain(self) -> PipelineStats:
        """Run to completion discarding emissions; returns the stats."""
        for _ in self.run():
            pass
        return self.stats

    def _sync_prefilter(self):
        pf = self.prefilter
        if pf is None:
            # Without a prefilter every sourced item is an admitted request.
            self.stats.candidates = self.stats.admitted = self.stats.items_in
            return
        self.stats.candidates = pf.candidates
        self.stats.admitted = pf.admitted
        self.stats.rejected = pf.rejected
        self.stats.cells_skipped_prefilter = pf.rejected_cells
