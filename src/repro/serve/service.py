"""The asyncio serving front: admission control + micro-batched execution.

:class:`AlignmentService` turns the offline batch engine into an online
service.  Callers ``await service.submit(query, subject)`` (or
``submit_align`` / ``submit_search`` / ``submit_map``); the service admits
the request against a bounded queue (per-priority capacity, optional
per-request deadline), parks pair work in the adaptive shape-bucketed
:class:`~repro.serve.batcher.MicroBatcher`, and dispatches full-or-expired
buckets to a small thread pool where the batch runs through
:meth:`repro.engine.ExecutionEngine.submit_prebatched` (scores) or
:meth:`~repro.engine.ExecutionEngine.align_batch` (alignments) — off the
event loop, so the loop keeps admitting while NumPy relaxes lanes.
Per-request asyncio futures are resolved as batches complete.

Searches and read mappings are micro-batched too, keyed on query length
and resolved config: a bucket runs as one multi-query
:func:`repro.search.search_topk` / :func:`repro.mapping.map_reads` call
against a local ``database=``, or as one round of a borrowed resident
:class:`~repro.shard.pool.ShardWorkerPool` given as ``pool=``.  One
length per bucket gives the pass a lone request's windowing, so each
result equals the request's lone answer.  Every kind shares one admit →
micro-batch → deadline-gated execute → resolve path.

Semantics worth knowing:

* **Deadlines** bound *admission-to-execution*: a request whose deadline
  passes while it waits in a bucket or in the dispatch queue is rejected
  with :class:`DeadlineExceededError` and never executes.  A request that
  reaches execution runs to completion even if slow; for pool-served
  requests the pool's own constructor ``timeout`` still bounds the
  worker gather.
* **Priorities** (:class:`~repro.serve.batcher.Priority`): BULK traffic is
  admitted only below ``bulk_fraction`` of the queue capacity and its
  buckets flush last; INTERACTIVE/NORMAL share the full queue.
* **Drain/close** mirror the engine's context-manager contract:
  ``async with AlignmentService(...) as svc`` (or ``await svc.close()``)
  flushes every bucket, resolves all in-flight futures, then shuts the
  dispatch pool and any owned engines down deterministically; ``close()``
  is idempotent and new submissions after it raise
  :class:`ServiceClosedError`.  A borrowed ``pool`` is never closed — its
  lifetime belongs to whoever built it.
"""

from __future__ import annotations

import asyncio
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from functools import partial
from dataclasses import dataclass

from repro.engine.engine import ExecutionEngine
from repro.engine.stages import Batch, Request
from repro.obs import get_logger, get_tracer
from repro.obs.health import HealthRegistry, engine_probe, pool_probe, service_probe
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.serve.batcher import MicroBatcher, PendingRequest, Priority
from repro.serve.stats import ServiceStats
from repro.util.checks import ReproError, ValidationError, check_positive
from repro.util.encoding import encode

__all__ = [
    "AlignmentService",
    "ServiceConfig",
    "ServiceError",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "DeadlineExceededError",
]


@dataclass(frozen=True)
class ServiceConfig:
    """SLO and load-shedding knobs (picklable by construction, like all configs).

    Backend choice is not a service knob: each score bucket runs on the
    engine's backend, and ``backend="auto"`` (the default) already picks
    one per bucket from its size and shape.

    ``slos`` declares the service's objectives (a tuple of
    :class:`~repro.obs.slo.SLObjective`); a non-empty tuple gives the
    service an :class:`~repro.obs.slo.SLOTracker` that every resolution
    feeds, and while any objective's *fast* burn-rate pair is alerting,
    admission sheds the classes named in ``shed_priorities``
    (:class:`Priority` names, BULK by default).  Shedding only ever
    refuses new requests at the front door — accepted work always runs
    to its normal resolution, so results never depend on the SLO state.
    """

    slos: tuple = ()
    shed_priorities: tuple = ("BULK",)

    def __post_init__(self):
        from repro.obs.slo import SLObjective
        from repro.util.checks import ValidationError, check_no_callables

        check_no_callables(self)
        for obj in self.slos:
            if not isinstance(obj, SLObjective):
                raise ValidationError(
                    f"slos entries must be SLObjective, got {obj!r}"
                )
        names = {p.name for p in Priority}
        for shed in self.shed_priorities:
            if shed not in names:
                raise ValidationError(
                    f"shed_priorities entries must be Priority names "
                    f"{sorted(names)}, got {shed!r}"
                )


class ServiceError(ReproError):
    """Base class for serving-front errors."""


class ServiceClosedError(ServiceError):
    """The service has been closed; no new requests are admitted."""


class ServiceOverloadedError(ServiceError):
    """Admission queue is at capacity for this priority class."""


class DeadlineExceededError(ServiceError, TimeoutError):
    """The request's deadline passed before it reached execution."""


class AlignmentService:
    """Asyncio alignment service with adaptive micro-batching.

    Parameters
    ----------
    engine:
        The :class:`~repro.engine.ExecutionEngine` to execute on; a private
        one (closed with the service) is created from ``scheme``/``backend``
        otherwise.
    scheme / backend:
        Used only when ``engine`` is None.
    target_batch:
        Micro-batch flush size; defaults to the engine's lane width so a
        full bucket fills exactly one lane block.
    max_linger:
        Longest a lone request waits for batch company, in seconds.  The
        effective linger adapts: it shrinks toward ``max_linger/10`` as the
        backlog approaches ``max_queue_depth``.
    max_queue_depth:
        Admission bound on in-service requests (buffered + executing).
    bulk_fraction:
        Fraction of ``max_queue_depth`` available to ``Priority.BULK``.
    dispatch_workers:
        Threads executing dispatched batches (separate from the engine's
        kernel pool, so a pipeline-driving search can never deadlock the
        batches' threads).
    database:
        Reference database served locally (anything
        :func:`repro.search.search` accepts; iterators are materialized
        once).  Records and sequences become a
        :class:`~repro.search.seeds.ReferenceIndex` here: encoded and
        validated at construction (an invalid base raises
        :class:`ValidationError` now, not on every request), with one
        k-mer table per ``kmer`` built by the first request that uses it.
    pool:
        A borrowed :class:`~repro.shard.pool.ShardWorkerPool` that serves
        ``submit_search`` / ``submit_map`` from its resident workers
        instead: each dispatched bucket is one ``pool.search_topk(queries)``
        / ``pool.map_topk(queries)`` round.  Mutually exclusive with
        ``database``; closing the service never closes the pool.  The pool
        serializes its rounds on an internal lock, so concurrent requests
        share a round rather than queue for one each.
    search_kwargs / map_kwargs:
        Default keyword arguments for ``submit_search`` / ``submit_map``.
    config:
        :class:`ServiceConfig`: ``config.slos`` declares the SLO contract
        and ``config.shed_priorities`` the classes shed while it burns.
    slo:
        An explicit :class:`~repro.obs.slo.SLOTracker` to feed (e.g. one
        an introspection server also reads).  Defaults to a private
        tracker built from ``config.slos``, or None (no SLO accounting,
        no shedding) when no objectives are declared.

    The service also carries the operational surface: ``health`` is a
    :class:`~repro.obs.health.HealthRegistry` with engine and service
    probes (plus a pool probe when serving from one) for ``/healthz`` and
    ``/readyz``, and :meth:`scrape_registry` merges the process registry
    with the service's own for ``/metrics``.
    """

    def __init__(
        self,
        engine: ExecutionEngine | None = None,
        *,
        scheme=None,
        backend: str = "auto",
        target_batch: int | None = None,
        max_linger: float = 0.002,
        max_queue_depth: int = 4096,
        bulk_fraction: float = 0.5,
        dispatch_workers: int = 4,
        database=None,
        pool=None,
        search_kwargs: dict | None = None,
        map_kwargs: dict | None = None,
        config: ServiceConfig | None = None,
        slo=None,
    ):
        if database is not None and pool is not None:
            raise ValidationError("pass database= or pool=, not both")
        if database is not None:
            from repro.search.seeds import ReferenceIndex, classify_database

            if hasattr(database, "__next__"):
                database = list(database)  # an iterator would be consumed once
            if classify_database(database)[0] in ("records", "sequence"):
                # Encoded and validated once; k-mer tables build on first use.
                database = ReferenceIndex(database)
        self._owned_engine = None
        if engine is None:
            engine = self._owned_engine = ExecutionEngine(scheme, backend=backend)
        self.engine = engine
        if target_batch is None:
            target_batch = engine.executor.lanes
        self.max_queue_depth = check_positive(max_queue_depth, "max_queue_depth")
        if not 0.0 <= bulk_fraction <= 1.0:
            raise ValidationError(
                f"bulk_fraction must be in [0, 1], got {bulk_fraction}"
            )
        self.bulk_fraction = bulk_fraction
        self.dispatch_workers = check_positive(dispatch_workers, "dispatch_workers")
        self.batcher = MicroBatcher(target_batch=target_batch, max_linger=max_linger)
        self.config = config if config is not None else ServiceConfig()
        self.stats = ServiceStats()
        if slo is None and self.config.slos:
            from repro.obs.slo import SLOTracker

            slo = SLOTracker(self.config.slos)
        self.slo = slo
        self._shed = frozenset(self.config.shed_priorities)
        self._log = get_logger("serve.service")
        self._database = database
        self.pool = pool
        self._defaults = {
            "search": dict(search_kwargs or {}),
            "map": dict(map_kwargs or {}),
        }
        for kind, defaults in self._defaults.items():
            if "engine" in defaults:
                raise ValidationError(
                    f"{kind}_kwargs cannot carry 'engine': the service manages "
                    "per-scheme search engines itself"
                )
        self.health = HealthRegistry()
        # Engine death means restart (liveness); a saturated or closed
        # admission queue means stop routing here (readiness).  The probe
        # holds a weak proxy: a service -> health -> service cycle would
        # keep a borrowed pool (and its queues) alive until a GC pass.
        self.health.add_probe("engine", engine_probe(engine))
        self.health.add_probe(
            "service", service_probe(weakref.proxy(self)), liveness=False
        )
        if pool is not None:
            self.health.add_probe("pool", pool_probe(pool))
        self._search_engines: dict = {}  # scheme cache_key → ExecutionEngine
        self._loop = None
        self._wake: asyncio.Event | None = None
        self._dispatch_pool: ThreadPoolExecutor | None = None
        self._flusher: asyncio.Task | None = None
        self._inflight: set = set()
        self._depth = 0  # admitted, not yet settled
        self._next_key = 0
        self._started = False
        self._closed = False

    # -- lifecycle ----------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def queue_depth(self) -> int:
        """Requests currently in service (buffered + executing)."""
        return self._depth

    def start(self):
        """Bind the running event loop and start the linger flusher.

        Idempotent; called automatically by the first submission.  Must run
        on the event loop the service will serve from.
        """
        if self._started:
            return self
        if self._closed:
            raise ServiceClosedError("service is closed")
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._dispatch_pool = ThreadPoolExecutor(
            max_workers=self.dispatch_workers, thread_name_prefix="repro-serve"
        )
        self._flusher = self._loop.create_task(self._flush_loop())
        self._started = True
        return self

    async def drain(self):
        """Dispatch every buffered bucket and await all in-flight work."""
        if not self._started:
            return
        for bucket in self.batcher.flush_all():
            self._dispatch(bucket, "drain")
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)

    async def close(self):
        """Drain, then shut the flusher/pool/owned engines down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        await self.drain()
        if self._flusher is not None:
            self._flusher.cancel()
            with suppress(asyncio.CancelledError):
                await self._flusher
            self._flusher = None
        if self._dispatch_pool is not None:
            self._dispatch_pool.shutdown(wait=True)
            self._dispatch_pool = None
        for eng in self._search_engines.values():
            eng.close()
        self._search_engines.clear()
        if self._owned_engine is not None:
            self._owned_engine.close()

    async def __aenter__(self):
        return self.start()

    async def __aexit__(self, *exc):
        await self.close()
        return False

    # -- admission ----------------------------------------------------------
    def capacity_for(self, priority) -> int:
        """Admission-queue capacity available to a priority class."""
        if Priority(priority) is Priority.BULK:
            return max(1, int(self.max_queue_depth * self.bulk_fraction))
        return self.max_queue_depth

    def _admit(self, kind, query, subject, priority, timeout) -> PendingRequest:
        priority = Priority(priority)
        if self._closed:
            self.stats.note_admission_reject("closed", priority.name)
            raise ServiceClosedError("service is closed")
        self.start()
        if (
            self.slo is not None
            and priority.name in self._shed
            and self.slo.fast_burn_active()
        ):
            # The error budget gates the front door: while a fast burn
            # pair is alerting, sheddable classes are refused outright so
            # the protected classes keep their latency.  Nothing accepted
            # is ever dropped — results stay bit-identical.
            self.stats.note_admission_reject("shed", priority.name)
            self._log.warning(
                "shedding at admission: fast burn-rate alert active",
                priority=priority.name,
                kind=kind,
            )
            raise ServiceOverloadedError(
                f"{priority.name} shed: fast burn-rate alert active"
            )
        cap = self.capacity_for(priority)
        if self._depth >= cap:
            self.stats.note_admission_reject("queue_full", priority.name)
            raise ServiceOverloadedError(
                f"queue depth {self._depth} at {priority.name} capacity {cap}"
            )
        enc_q = encode(query)
        enc_s = encode(subject) if subject is not None else None
        now = self._loop.time()
        req = PendingRequest(
            key=self._next_key,
            kind=kind,
            query=enc_q,
            subject=enc_s,
            future=self._loop.create_future(),
            priority=priority,
            deadline=now + timeout if timeout is not None else None,
            submitted=now,
        )
        self._next_key += 1
        self._depth += 1
        req.future.add_done_callback(self._on_settled)
        self.stats.note_submit(self._depth)
        return req

    def _on_settled(self, fut):
        self._depth -= 1

    def _slo_observe(self, req, *, latency_s=None, error=False):
        """Feed one accepted request's resolution into the SLO tracker."""
        if self.slo is not None:
            self.slo.observe(
                priority=req.priority.name, latency_s=latency_s, error=error
            )

    def _enqueue(self, req: PendingRequest):
        full = self.batcher.add(req, self._loop.time())
        if full is not None:
            self._dispatch(full, "size")
        else:
            self._wake.set()

    # -- request entry points ----------------------------------------------
    async def submit(
        self, query, subject, *, priority=Priority.NORMAL, timeout: float | None = None
    ) -> int:
        """Score one pair; resolves when its micro-batch completes."""
        tracer = get_tracer()
        with tracer.span("serve.submit", kind="score"):
            req = self._admit("score", query, subject, priority, timeout)
            req.trace = tracer.inject()
            self._enqueue(req)
            return await req.future

    async def submit_align(
        self, query, subject, *, priority=Priority.NORMAL, timeout: float | None = None
    ):
        """Full alignment (traceback) for one pair, micro-batched into lane stacks."""
        tracer = get_tracer()
        with tracer.span("serve.submit", kind="align"):
            req = self._admit("align", query, subject, priority, timeout)
            req.trace = tracer.inject()
            self._enqueue(req)
            return await req.future

    async def submit_search(
        self,
        query,
        *,
        priority=Priority.NORMAL,
        timeout: float | None = None,
        **overrides,
    ):
        """Top-K database placements for one query (needs ``database=`` or ``pool=``).

        Micro-batched with concurrent searches of the same length and
        resolved config: each bucket is one :func:`repro.search.search_topk`
        call on a dispatch thread, or one ``pool.search_topk`` round when
        the service fronts a pool, and each request gets exactly the hits
        it would get alone.  ``overrides`` update the service's default
        ``search_kwargs``; a custom ``scheme`` gets its own cached search
        engine, while ``engine`` is service-managed and may not be
        overridden.
        """
        return await self._submit_query("search", query, priority, timeout, overrides)

    async def submit_map(
        self,
        query,
        *,
        priority=Priority.NORMAL,
        timeout: float | None = None,
        **overrides,
    ):
        """Read placements for one read (needs ``database=`` or ``pool=``).

        Micro-batched like :meth:`submit_search`: each bucket is one
        :func:`repro.mapping.map_reads` call on a dispatch thread, or one
        ``pool.map_topk`` round when the service fronts a pool; returns the
        read's deduped placements, best first, exactly as mapped alone.
        ``overrides`` update the service's default ``map_kwargs`` (mapping
        fields like ``k``/``traceback`` and search fields like
        ``min_score`` both work; ``config=`` passes a whole
        :class:`~repro.mapping.MappingConfig`).  Admission control,
        priorities, deadlines and SLO accounting are shared with every
        other request kind.
        """
        return await self._submit_query("map", query, priority, timeout, overrides)

    async def _submit_query(self, kind, query, priority, timeout, overrides):
        """Admit one search/map request into the batcher and await its bucket."""
        if self._database is None and self.pool is None:
            raise ValidationError("service was created without a database or pool")
        if "engine" in overrides:
            raise ValidationError(
                f"submit_{kind} cannot override 'engine': the service manages "
                "per-scheme search engines itself"
            )
        tracer = get_tracer()
        with tracer.span(f"serve.submit_{kind}"):
            req = self._admit(kind, query, None, priority, timeout)
            req.trace = tracer.inject()
            try:
                # Resolved after admission, so a bad override fails only
                # this request; the config keys its bucket, so it must hash.
                req.config = self._query_config(
                    kind, {**self._defaults[kind], **overrides}
                )
                hash(req.config)
            except Exception as exc:
                self._fail(req, exc)
            else:
                self._enqueue(req)
            return await req.future

    # -- settlement -----------------------------------------------------------
    def _resolve(self, req: PendingRequest, result):
        if not req.future.done():
            req.future.set_result(result)
            latency = self._loop.time() - req.submitted
            self.stats.note_complete(latency)
            self._slo_observe(req, latency_s=latency)

    def _fail(self, req: PendingRequest, exc: BaseException):
        self.stats.note_failed()
        self._slo_observe(req, error=True)
        if not req.future.done():
            req.future.set_exception(exc)

    def _expire(
        self, req: PendingRequest, stage: str, detail="deadline passed before execution"
    ):
        self.stats.note_deadline(stage)
        self._slo_observe(req, error=True)
        if not req.future.done():
            req.future.set_exception(DeadlineExceededError(detail))

    # -- dispatch -----------------------------------------------------------
    def _dispatch(self, bucket, cause: str):
        now = self._loop.time()
        live = []
        for req in bucket.requests:
            if req.future.done():  # caller cancelled while buffered
                continue
            if req.deadline is not None and now >= req.deadline:
                self._expire(
                    req,
                    "dispatch",
                    f"deadline passed {now - req.deadline:.4f}s before execution",
                )
                continue
            live.append(req)
        if not live:
            return
        task = self._loop.create_task(
            self._run_batch(bucket.kind, bucket.shape, live, cause)
        )
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    def _execute_kind(self, kind: str, live: list, run, trace_ctx=None):
        """Runs on a dispatch thread: final deadline gate, then the bucket's call.

        Dispatch-time admission is not enough under pool saturation — a
        batch can sit in the thread queue past its members' deadlines, and
        the contract is that such requests never execute.  ``run`` (bound
        by :meth:`_bind`) executes the rest in one call.  Returns
        ``(executable, expired, results)``; results align with executable.
        ``trace_ctx`` is the dispatching batch span's context — dispatch
        threads don't inherit the loop's contextvars, so the parent link
        crosses explicitly.
        """
        now = self._loop.time()  # same monotonic clock the deadlines use
        executable, expired = [], []
        for r in live:
            if r.deadline is not None and now >= r.deadline:
                expired.append(r)
            else:
                executable.append(r)
        if not executable:
            return executable, expired, ()
        tracer = get_tracer()
        name = f"serve.execute_{kind}" if kind in ("search", "map") else "serve.execute"
        with tracer.activate(trace_ctx), tracer.span(
            name, kind=kind, size=len(executable)
        ):
            results = run(executable)
        return executable, expired, results

    async def _run_batch(self, kind: str, shape, live: list, cause: str):
        tracer = get_tracer()
        # Micro-batches mix requests (and traces); parent the batch span on
        # the first carrier so at least one stitched trace reaches the
        # worker side.  Other requests keep their own root spans.
        parent = None
        if tracer.enabled:
            parent = next((r.trace for r in live if r.trace is not None), None)
        try:
            run = self._bind(kind, shape, live[0].config)  # one config per bucket
            with tracer.span(
                "serve.batch", parent=parent, kind=kind, cause=cause, size=len(live)
            ) as sp:
                executable, expired, results = await self._loop.run_in_executor(
                    self._dispatch_pool, self._execute_kind, kind, live, run, sp.context
                )
        except Exception as exc:
            for r in live:
                self._fail(r, exc)
            return
        if executable:
            # Occupancy counts what actually executed: requests expired by
            # the thread-side deadline gate never filled a lane.
            self.stats.note_batch(len(executable), cause)
        for r in expired:
            self._expire(r, "execute")
        for r, res in zip(executable, results):
            self._resolve(r, int(res) if kind == "score" else res)

    def _bind(self, kind: str, shape, config):
        """The one call that executes a bucket's requests (loop thread).

        Search engines are looked up here because their per-scheme cache
        is not thread-safe.  A search or map bucket is one multi-query
        pass over the local database, or one pool round.
        """
        if kind == "score":
            return lambda reqs: self.engine.submit_prebatched(
                Batch(
                    shape=shape,
                    requests=[
                        Request(key=i, query=r.query, subject=r.subject)
                        for i, r in enumerate(reqs)
                    ],
                )
            )
        if kind == "align":
            return lambda reqs: self.engine.align_batch(
                [r.query for r in reqs], [r.subject for r in reqs]
            )
        pool, database = self.pool, self._database
        if pool is not None and kind == "map":
            call = partial(pool.map_topk, config=config)
        elif pool is not None:
            call = partial(pool.search_topk, **config.search_kwargs())
        elif kind == "map":
            from repro.mapping import map_reads

            engine = self._engine_for_search(config.search.resolved_scheme())

            def call(queries):
                run = map_reads(queries, database, engine=engine, config=config)
                return run.placements
        else:
            from repro.search.pipeline import search_topk

            engine = self._engine_for_search(config.resolved_scheme())
            call = partial(
                search_topk, database=database, engine=engine, **config.search_kwargs()
            )
        return lambda reqs: call([r.query for r in reqs])

    def _engine_for_search(self, scheme) -> ExecutionEngine:
        """Shared per-scheme search engine (loop thread only)."""
        key = scheme.cache_key()
        eng = self._search_engines.get(key)
        if eng is None:
            eng = self._search_engines[key] = ExecutionEngine(
                scheme, backend="rowscan"
            )
        return eng

    def _query_config(self, kind: str, kwargs: dict):
        """A search/map request's resolved, hashable config (loop thread):
        a :class:`~repro.mapping.MappingConfig`, or a
        :class:`~repro.search.SearchConfig` over the pool's settings."""
        if kind == "map":
            from repro.mapping import resolve_config

            return resolve_config(kwargs.pop("config", None), **kwargs)
        from repro.search.pipeline import SearchConfig

        base = self.pool.plan.search if self.pool is not None else SearchConfig()
        return base.with_overrides(**kwargs)

    async def _flush_loop(self):
        """Single linger timer: dispatches buckets whose wait has expired."""
        while True:
            now = self._loop.time()
            linger = self.batcher.effective_linger(self._depth, self.max_queue_depth)
            for bucket in self.batcher.due(now, linger):
                self._dispatch(bucket, "linger")
            nxt = self.batcher.next_due(linger)
            self._wake.clear()
            if nxt is None:
                await self._wake.wait()
            else:
                delay = max(0.0, nxt - self._loop.time())
                with suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(self._wake.wait(), timeout=delay)

    # -- introspection ------------------------------------------------------
    def scrape_registry(self) -> MetricsRegistry:
        """One merged registry for ``/metrics``: process + this service.

        The process-wide registry carries engine/search/pool
        instrumentation; the service's own holds the ``serve_*`` counters.
        Built fresh per scrape — the live registries keep the state.
        """
        out = MetricsRegistry()
        out.merge(get_registry().snapshot())
        out.merge(self.stats.registry.snapshot())
        return out

    def report(self) -> str:
        """Service-level stats table (perf.report format), plus the pool's."""
        from repro.perf.report import pool_stats_table, service_stats_table

        out = service_stats_table(self)
        if self.pool is not None:
            out += "\n\n" + pool_stats_table(self.pool, title="Resident pool")
        return out

    def __repr__(self):
        return (
            f"AlignmentService(target_batch={self.batcher.target_batch}, "
            f"max_linger={self.batcher.max_linger}, depth={self._depth}, "
            f"closed={self._closed})"
        )
