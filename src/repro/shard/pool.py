"""Persistent shard worker pool: spawn once, search many, swap online.

:class:`ShardWorkerPool` is the one sharded entry point.  Workers are
spawned **once**, the encoded reference is published **once** to a
shared-memory segment (:mod:`repro.shard.shm` — workers attach
zero-copy, so payload transfer is O(1) in the worker count), and each
worker then services many query sets over a command/result queue
protocol (``search`` / ``map`` / ``swap`` / ``ping`` / ``shutdown`` — see
:mod:`repro.shard.worker`).  A one-shot run is a pool used once::

    with ShardWorkerPool(reference, num_shards=4, k=10) as pool:
        topk = pool.search_topk(queries)

Every command round (:meth:`search_topk` and :meth:`map_topk` share one):

* returns results **bit-identical** to the single-process
  ``search_topk()`` / ``map_reads()`` (same chunk-ordinal ownership,
  same deterministic top-K merge);
* validates its per-call parameters before touching the workers, so a
  bad override (or a scheme the workers' engines were not built for) is
  a :class:`~repro.util.checks.ValidationError` that sends no command;
* surfaces a worker that raises as :class:`ShardWorkerError` with its
  traceback; one that dies silently is caught by exit-code polling; a
  wedged worker is bounded by ``timeout`` — never a hang.

Across rounds:

* **Warm reuse** — consecutive calls reuse resident workers and the
  resident reference; ``stats`` accounts cold vs. warm.
* **Reference swap** — :meth:`swap_reference` publishes the new database
  as a fresh segment, workers flip atomically between commands, and the
  old segment is unlinked only after every worker acknowledged, so no
  query ever sees a half-swapped reference.
* **Self-healing** — a worker found dead between calls (or a run that
  failed) triggers a full respawn on the next call instead of wedging
  it: survivors stop gracefully, the result queue is rebuilt (an
  abnormal death can poison the shared queue's write lock), and every
  worker comes back fresh — visible in ``stats.respawns``.
* **Host-clamped concurrency** — at most :attr:`max_concurrent`
  (``min(num_shards, cpu_count)``, read-only) search or map commands are
  in flight at once, so oversharded pools degrade to staggered execution
  instead of oversubscribing the host (see
  :func:`~repro.shard.worker.shard_engine_workers` for the thread-budget
  half of the policy).

Every exchange with the workers — spawn/ready, search, map, swap and
ping — is one pass of :meth:`ShardWorkerPool._exchange`, the only reader
of the result queue: it sends each shard its command (up to a limit),
drops stale replies by ``seq``, checks liveness and the deadline on every
empty poll, and hands each reply to the round.  Workers stop one way,
:meth:`ShardWorkerPool._break` (shutdown command, bounded join, then
terminate): a dead or wedged worker, a failed swap, healing and
:meth:`~ShardWorkerPool.close` all go through it.

Thread safety: public methods serialize on an internal lock, so a pool
can be shared by a serving front (e.g. ``AlignmentService(pool=...)``).
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import replace

from repro.obs import ClockOffset, get_registry, get_tracer
from repro.obs.metrics import fold_ledger
from repro.search.pipeline import SearchConfig
from repro.search.topk import Hit, TopKReducer
from repro.shard.plan import ShardPlan, build_pool_payloads
from repro.shard.stats import _POOL_COUNTERS, PoolStats
from repro.shard.worker import run_pool_worker
from repro.util.checks import ReproError, ValidationError
from repro.util.encoding import encode

__all__ = ["ShardWorkerPool", "ShardError", "ShardWorkerError"]

#: How often the reply loop wakes to check worker liveness (seconds).
_POLL_S = 0.2

#: How long a dead-but-unreported worker's message may trail its exit.
#: A worker that put its reply just before exiting can still have the
#: queue feeder's bytes in flight; past this window a silent death — even
#: one with exit code 0 (``os._exit(0)``, a feeder that failed to pickle)
#: — is an error, upholding the never-a-hang guarantee.
_DEAD_GRACE_S = 5.0

#: How long _break() waits for a worker to honour shutdown before
#: terminating it.
_SHUTDOWN_JOIN_S = 5.0

#: Per worker op: the round's span and its size attribute.
_ROUNDS = {"search": ("pool.search_topk", "queries"), "map": ("pool.map_topk", "reads")}


class ShardError(ReproError):
    """Base class for sharded-search failures."""


class ShardWorkerError(ShardError):
    """A worker process failed (reported an exception or died silently)."""


def _encode_all(seqs, empty_msg: str) -> tuple[list, int]:
    """Encoded sequences plus the longest length; refuses an empty set."""
    encoded = [encode(s) for s in seqs]
    qmax = max((e.size for e in encoded), default=0)
    if qmax == 0:
        raise ShardError(empty_msg)
    return encoded, qmax


class ShardWorkerPool:
    """A resident set of shard worker processes over one shared reference.

    Parameters
    ----------
    database:
        The reference to publish (anything :func:`repro.search.search`
        accepts).  Record/sequence databases are encoded once and
        published via shared memory; pre-windowed chunk databases are
        partitioned and pickled to workers at spawn (they cannot be
        re-windowed remotely).
    num_shards / plan / search_kwargs:
        Either a full :class:`~repro.shard.plan.ShardPlan` or a shard
        count (default 4) plus :class:`~repro.search.pipeline.SearchConfig`
        fields as keywords — never both, and an explicit ``num_shards``
        that conflicts with ``plan.num_shards`` is an error, not a silent
        tie.  Workers build their own engines from ``plan.engine``; an
        unknown keyword (``engine=`` included) is a
        :class:`~repro.util.checks.ValidationError`.
    timeout:
        Per-command-round bound in seconds on waiting for workers
        (None = no bound; crashes are detected either way).
    payloads:
        Explicit per-shard payload objects (test hook / advanced use);
        bypasses database publication entirely.

    The pool starts lazily on first use; :meth:`start` forces it.  Use as
    a context manager (or call :meth:`close`) to release the workers and
    unlink the shared segment deterministically.
    """

    def __init__(
        self,
        database=None,
        num_shards: int | None = None,
        *,
        plan: ShardPlan | None = None,
        timeout: float | None = None,
        payloads: list | None = None,
        **search_kwargs,
    ):
        if plan is None:
            plan = ShardPlan(
                num_shards=num_shards if num_shards is not None else 4,
                search=SearchConfig().with_overrides(**search_kwargs),
            )
        else:
            if search_kwargs:
                raise ReproError("pass search parameters via plan= or kwargs, not both")
            if num_shards is not None and num_shards != plan.num_shards:
                raise ReproError(
                    f"num_shards={num_shards} conflicts with "
                    f"plan.num_shards={plan.num_shards}; drop one"
                )
        if database is not None and payloads is not None:
            raise ReproError("pass database= or payloads=, not both")
        if payloads is not None and len(payloads) != plan.num_shards:
            raise ReproError(
                f"payloads has {len(payloads)} entries for "
                f"{plan.num_shards} shards"
            )
        self.plan = plan
        self.timeout = timeout
        self.stats = PoolStats(num_shards=plan.num_shards)
        self._database = database
        self._payloads = payloads  # per-shard, set at start()
        self._segment = None  # owning SharedSegment (None for chunk payloads)
        self._fingerprint: str | None = None
        self._ctx = multiprocessing.get_context(plan.start_method)
        self._result_q = None
        self._cmd_qs: list = []
        self._procs: list = []
        self._seq = 0
        self._cold_pending = False  # next search pays/reports the spawn
        self._started = False
        self._broken = False
        self._closed = False
        self._lock = threading.RLock()
        # Per-shard wall-clock offsets (estimated from PING round-trips),
        # used to map worker-shipped span timestamps onto this process.
        self._clock_offsets: dict = {}

    # -- introspection -------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    @property
    def max_concurrent(self) -> int:
        """Dispatch clamp: search/map commands in flight at once.

        ``min(num_shards, os.cpu_count())``, so a pool sharded wider than
        the host degrades to staggered execution rather than
        oversubscription.
        """
        return min(self.num_shards, os.cpu_count() or 1)

    @property
    def started(self) -> bool:
        return self._started

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def fingerprint(self) -> str | None:
        """Content fingerprint of the resident reference (None before start)."""
        return self._fingerprint

    @property
    def segment_name(self) -> str | None:
        """Name of the resident shared-memory segment, if any."""
        return self._segment.name if self._segment is not None else None

    def liveness(self) -> dict | None:
        """Per-shard worker aliveness, or None before the pool has started.

        Deliberately lock-free: the pool lock is held for the full
        duration of a dispatched search, and a health probe must not
        queue behind one.  ``_procs`` is only ever rebound wholesale or
        element-assigned (both atomic in CPython), so reading a stale
        snapshot is the worst case — acceptable for a health signal.
        """
        procs = self._procs
        if not self._started or not procs:
            return None
        return {
            shard_id: proc is not None and proc.is_alive()
            for shard_id, proc in enumerate(procs)
        }

    # -- lifecycle -----------------------------------------------------------
    def start(self, database=None) -> "ShardWorkerPool":
        """Publish the reference and spawn the workers (idempotent)."""
        with self._lock:
            if self._closed:
                raise ShardError("pool is closed")
            if self._started:
                return self
            if database is not None:
                self._database = database
            try:
                if self._payloads is None:
                    if self._database is None:
                        raise ShardError(
                            "pool needs a database (or explicit payloads)"
                        )
                    (
                        self._payloads,
                        self._segment,
                        self._fingerprint,
                    ) = build_pool_payloads(self._database, self.plan)
                    self._database = None  # the segment is the reference now
                    if self._segment is not None:
                        self.stats.payload_bytes = self._segment.meta.size
                    else:
                        self.stats.transport = "pickle"
                else:
                    self.stats.transport = "pickle"
                self._result_q = self._ctx.Queue()
                self._cmd_qs = [None] * self.num_shards
                self._procs = [None] * self.num_shards
                self._spawn_all()
            except BaseException:
                # A failed start must not leak workers or the /dev/shm
                # entry; the pool is closed, the caller may build a new one.
                self.close()
                raise
            self._cold_pending = True
            self._started = True
            return self

    def close(self) -> None:
        """Shut workers down and unlink the shared segment (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._break()
            for q in self._cmd_qs:
                if q is not None:
                    q.close()
            if self._result_q is not None:
                self._result_q.close()
            self._cmd_qs, self._procs = [], []
            if self._segment is not None:
                self._segment.destroy()
                self._segment = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # -- the commands --------------------------------------------------------
    def search_topk(
        self,
        queries,
        *,
        timeout: float | None = None,
        carrier: dict | None = None,
        **overrides,
    ) -> list[list[Hit]]:
        """Global per-query top-K over the resident reference, merged.

        ``overrides`` replace fields of the pool's
        :class:`~repro.search.pipeline.SearchConfig` for this call only
        (e.g. ``k=3``).  Bit-identical to a single-process
        ``search_topk(queries, database, ...)`` with the same parameters.

        ``carrier`` is an optional propagated trace position
        (:meth:`~repro.obs.Tracer.inject` form) for callers that reach
        the pool on a thread without the trace context active; by default
        the pool's span parents on the calling thread's current span.
        Either way, through the command protocol, every worker's spans
        stitch into the caller's trace.
        """
        enc_queries, qmax = _encode_all(
            queries, "sharded search needs at least one query"
        )
        search_cfg = self.plan.search.with_overrides(**overrides).resolved_for(qmax)

        def merge(shard_results):
            with get_tracer().span("pool.merge", shards=len(shard_results)):
                reducer = TopKReducer(
                    len(enc_queries), k=search_cfg.k, min_score=search_cfg.min_score
                )
                for results in shard_results:
                    reducer.absorb(results)
                return reducer.results()

        return self._round(
            "search", enc_queries, search_cfg, None, merge, timeout, carrier
        )

    def map_topk(
        self,
        reads,
        *,
        timeout: float | None = None,
        carrier: dict | None = None,
        config=None,
        **overrides,
    ) -> list:
        """Pool-served read mapping: per-read placements, globally merged.

        Each worker runs the full per-shard mapping stage over its own
        windows of the resident reference — both-strand search plus exact
        hit extension (:func:`repro.mapping.shard_map_placements`) — and
        ships back *pre-dedup* placements still carrying their source
        hits.  The parent merge (:func:`repro.mapping.merge_mapped`)
        replays the global hit-level top-K before deduping, making the
        result bit-identical to a single-process
        ``map_reads(reads, database, ...)`` with the same parameters.

        ``config`` is a :class:`repro.mapping.MappingConfig`; ``overrides``
        refine it the way :func:`repro.mapping.map_reads` kwargs do.
        ``carrier`` as in :meth:`search_topk`.
        """
        from repro.mapping import merge_mapped, resolve_config

        enc_reads, qmax = _encode_all(reads, "pool mapping needs at least one read")
        cfg = resolve_config(config, **overrides)
        search_cfg = replace(cfg.search, hit_window=True).resolved_for(qmax)
        map_cfg = replace(cfg, search=search_cfg)

        def merge(shard_results):
            with get_tracer().span("map.dedup", shards=len(shard_results)):
                return merge_mapped(
                    shard_results,
                    num_reads=len(enc_reads),
                    num_oriented=len(enc_reads) * cfg.orientations(),
                    hit_k=search_cfg.k,
                    k=cfg.k,
                    min_score=search_cfg.min_score,
                )

        return self._round(
            "map", enc_reads, search_cfg, map_cfg, merge, timeout, carrier
        )

    def _round(self, op, enc_queries, search_cfg, map_cfg, merge, timeout, carrier):
        """One command round: dispatch ``op`` to every shard, merge, account.

        ``search_cfg`` is resolved for the query set; it (and ``map_cfg``
        for ``map``) ships in every worker command, and ``merge`` folds
        the per-shard results, in shard order, into the caller's answer.
        A scheme the workers' engines were not built for fails here,
        before the workers are started or sent anything.
        """
        if search_cfg.scheme != self.plan.search.resolved_scheme():
            raise ValidationError(
                "search scheme differs from the pool's: workers build their "
                "engines from plan.search's scheme once; serve another scheme "
                "from a pool built with it"
            )
        span_name, size_attr = _ROUNDS[op]
        tracer = get_tracer()
        with tracer.span(
            span_name,
            parent=carrier,
            shards=self.num_shards,
            **{size_attr: len(enc_queries)},
        ) as sp, self._counted():
            cold = self._ensure_workers() or self._cold_pending
            self._cold_pending = False
            mode = "cold" if cold else "warm"
            seq = self._next_seq()
            # Workers trace under the round span's position, shipped as a
            # plain carrier dict through the (picklable) command tuple.
            wcarrier = sp.context.to_carrier() if sp.context is not None else None
            replies = self._fan_out(
                op, seq, enc_queries, search_cfg, map_cfg,
                self._deadline(timeout), wcarrier,
            )
            merged = merge([results for results, _ in replies])
            self.stats.record_round(op, mode, [shipped for _, shipped in replies])
            return merged

    def swap_reference(self, database) -> None:
        """Publish a new reference and flip every worker onto it.

        Workers switch atomically between commands — a search is served
        entirely by the reference that was resident when it was
        dispatched — and the old segment is unlinked only after the last
        worker acknowledged the swap, so no attach can race the unlink.

        A swap that fails part-way (a worker errored, died, or timed
        out) breaks the pool: every worker is terminated and the next
        call respawns them onto the old, still-published reference, so
        callers never see results merged across two references.
        """
        with self._counted():
            if not self._started:
                self.start(database)
                return
            self._ensure_workers()
            with get_tracer().span("pool.swap", shards=self.num_shards):
                self._swap(database)

    def _swap(self, database) -> None:
        """Publish, flip every worker, then unlink the old segment."""
        payloads, segment, fingerprint = build_pool_payloads(database, self.plan)
        seq = self._next_seq()
        try:
            # One reply per shard *before* judging the swap: a worker
            # that failed must not abort the wait while its siblings are
            # still mid-reply, because the failure path terminates them
            # — and killing a worker whose queue feeder holds the result
            # queue's shared write lock wedges the queue for every
            # respawned worker.  Once all replies landed, every live
            # worker is idle.
            self._exchange(
                "swapped",
                seq,
                lambda shard_id: self._cmd_qs[shard_id].put(
                    ("swap", seq, payloads[shard_id])
                ),
                self._deadline(None),
                keep_errors=True,
            )
        except BaseException:
            # Swap failed: workers that already acked sit on the new
            # reference while the pool (and any erroring worker)
            # keeps the old one.  Break the pool so the next call
            # respawns every worker onto the still-intact old
            # payloads — a mixed-reference pool would silently merge
            # results from two different references.  Only then drop
            # the uncommitted new segment (no worker maps it anymore).
            self._break()
            if segment is not None:
                segment.destroy()
            raise
        old, self._segment = self._segment, segment
        self._payloads, self._fingerprint = payloads, fingerprint
        if old is not None:
            old.destroy()  # every worker has detached: safe to unlink
        self.stats.payload_bytes = segment.meta.size if segment else 0
        self.stats.transport = "shared_memory" if segment else "pickle"
        self.stats.swaps += 1

    def ping(self, *, timeout: float | None = None) -> list[float]:
        """Round-trip every worker; returns per-shard latencies (seconds).

        Each entry is dispatch-to-reply-arrival for that shard (arrival
        stamped as its pong is collected), so a slow worker shows up in
        its own entry instead of inflating every shard's number.

        Side effect: each pong carries the worker's wall clock, from
        which a per-shard :class:`~repro.obs.ClockOffset` is estimated
        (midpoint assumption) and cached — worker span timestamps shipped
        in later search replies are mapped onto this process's axis with
        it.  Per-shard ping latency and offset land in the metrics
        registry as health gauges.
        """
        tracer = get_tracer()
        with self._counted(), tracer.span("pool.ping", shards=self.num_shards):
            self._ensure_workers()
            seq = self._next_seq()
            t0 = time.monotonic()
            t0_wall = time.time()
            # Unstaggered, and stamped as each pong lands: a shard's
            # latency never includes waiting behind a sibling.
            pongs = self._exchange(
                "pong",
                seq,
                lambda shard_id: self._cmd_qs[shard_id].put(("ping", seq)),
                self._deadline(timeout),
                on_reply=lambda shard_id, wall, ts: (time.monotonic() - t0, wall),
            )
            self.stats.pings += 1
            reg = get_registry()
            for shard_id, (latency, wall) in pongs.items():
                offset = self._clock_offsets[shard_id] = ClockOffset.from_roundtrip(
                    t0_wall, t0_wall + latency, wall
                )
                if reg.enabled:
                    reg.gauge(
                        "pool_shard_ping_seconds",
                        "Last PING round-trip per shard",
                        labels=("shard",),
                    ).set(latency, shard=shard_id)
                    reg.gauge(
                        "pool_shard_clock_offset_us",
                        "Estimated worker-minus-parent wall clock offset",
                        labels=("shard",),
                    ).set(offset.offset_us, shard=shard_id)
            return [pongs[shard_id][0] for shard_id in range(self.num_shards)]

    def report(self) -> str:
        """Pool residency/reuse table (perf.report format)."""
        from repro.perf.report import pool_stats_table

        return pool_stats_table(self)

    # -- internals -----------------------------------------------------------
    @contextmanager
    def _counted(self):
        """Hold the pool lock for one call; fold its :class:`PoolStats`
        delta into the registry on the way out, even when the call fails."""
        with self._lock:
            base = vars(self.stats).copy()
            try:
                yield
            finally:
                fold_ledger(_POOL_COUNTERS, self.stats, base)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _deadline(self, timeout: float | None):
        bound = timeout if timeout is not None else self.timeout
        return time.monotonic() + bound if bound is not None else None

    def _spawn(self, shard_id: int) -> None:
        cmd_q = self._ctx.Queue()
        proc = self._ctx.Process(
            target=run_pool_worker,
            args=(self.plan, shard_id, self._payloads[shard_id], cmd_q, self._result_q),
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )
        old_q = self._cmd_qs[shard_id]
        if old_q is not None:
            old_q.close()  # a dead worker's queue may hold stale commands
        self._cmd_qs[shard_id] = cmd_q
        self._procs[shard_id] = proc
        proc.start()
        self.stats.spawns += 1

    def _spawn_all(self) -> None:
        """Start every worker and wait for each to attach and report ready."""
        with get_tracer().span("pool.spawn", shards=self.num_shards):
            # Spawning is the dispatch; every worker starts at once
            # (unstaggered) and reports ready under seq -1.
            self._exchange("ready", -1, self._spawn, self._deadline(None))
        reg = get_registry()
        if reg.enabled:
            alive = reg.gauge(
                "pool_shard_alive", "1 while the shard worker is up", labels=("shard",)
            )
            for shard_id in range(self.num_shards):
                alive.set(1, shard=shard_id)

    def _ensure_workers(self) -> bool:
        """Start lazily; heal after worker death.  True if any spawned.

        Healing is all-or-nothing: a worker that died abnormally may
        have been killed holding the shared result queue's write lock
        (a SIGTERM can catch the queue feeder mid-send), and a newcomer
        sharing that queue would block forever on its first reply.  So
        survivors are stopped gracefully, the result queue itself is
        rebuilt, and the full complement respawns onto the fresh queue.
        """
        if self._closed:
            raise ShardError("pool is closed")
        if not self._started:
            self.start()
            return True
        if not self._broken and all(
            proc is not None and proc.is_alive() for proc in self._procs
        ):
            return False
        self._break()  # graceful stop of survivors (idempotent)
        self._broken = False
        self._result_q.close()
        self._result_q = self._ctx.Queue()
        self._spawn_all()
        self.stats.respawns += self.num_shards
        self._clock_offsets.clear()  # fresh workers, fresh clocks
        self._cold_pending = True
        return True

    def _break(self) -> None:
        """Stop every worker; the next call heals (all-or-nothing).

        The one shutdown path: a dead or wedged worker, a failed swap
        and healing break the pool through it, and :meth:`close` runs it
        before releasing the queues.  Workers
        still alive get a shutdown command and a bounded join before
        being terminated: SIGTERM-ing a live worker can catch its
        result-queue feeder thread between writing a reply and releasing
        the queue's shared write lock, which would leave the lock held
        forever and wedge every message a respawned worker tries to
        send.  A worker that ignores the shutdown (wedged) is terminated
        after the join window — the never-hang bound still holds.
        """
        self._broken = True
        for shard_id, proc in enumerate(self._procs):
            if proc is not None and proc.is_alive():
                try:
                    self._cmd_qs[shard_id].put(("shutdown", -1))
                except (OSError, ValueError):
                    pass
        # proc.pid is None when proc.start() itself failed (e.g. a spawn
        # bootstrap error); join/terminate assert on those.
        procs = [p for p in self._procs if p is not None and p.pid is not None]
        deadline = time.monotonic() + _SHUTDOWN_JOIN_S
        for proc in procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join()

    def _liveness_check(self, waiting_on, died_at: dict, deadline, label: str) -> None:
        """Raise (and break the pool) on dead workers or a passed deadline."""
        now = time.monotonic()
        reg = get_registry()
        for shard_id in waiting_on:
            proc = self._procs[shard_id]
            if proc is None or proc.is_alive():
                continue
            if reg.enabled:
                reg.gauge(
                    "pool_shard_alive",
                    "1 while the shard worker is up",
                    labels=("shard",),
                ).set(0, shard=shard_id)
            if proc.exitcode not in (0, None):
                self._break()
                raise ShardWorkerError(
                    f"shard {shard_id} worker died with exit code "
                    f"{proc.exitcode} before reporting a result"
                )
            # Exit code 0 without a reply: give the queue feeder a grace
            # window to deliver a trailing message, then treat the silence
            # itself as the failure.
            if now - died_at.setdefault(shard_id, now) > _DEAD_GRACE_S:
                self._break()
                raise ShardWorkerError(
                    f"shard {shard_id} worker exited cleanly (code 0) "
                    "but never reported a result"
                )
        if deadline is not None and now > deadline:
            self._break()
            missing = sorted(waiting_on)
            raise ShardError(
                f"timed out waiting for shard(s) {missing} during {label}"
            )

    def _exchange(
        self, label, seq, send, deadline, *, limit=None, keep_errors=False, on_reply=None
    ) -> dict:
        """The reply loop: one ``seq`` reply per shard, never a hang.

        ``send(shard_id)`` dispatches a shard's command; at most ``limit``
        shards (all when None) hold one at any moment, and the next is
        sent as each reply lands.  Every reply is ``(tag, shard_id, seq,
        body, ts)``; one whose ``seq`` is not this round's is a stale
        leftover of an earlier, failed round and is dropped.  An empty
        poll checks worker liveness and the deadline (``label`` names
        the round in a timeout).  An ``error`` reply raises
        :class:`ShardWorkerError` at once — or, with ``keep_errors``, once
        *every* shard has replied and is provably idle (the swap needs
        that before its failure path may terminate anyone).

        Returns ``{shard_id: on_reply(shard_id, body, ts)}``, called as
        each reply lands (the body itself without ``on_reply``).
        """
        num = self.num_shards
        limit = num if limit is None else limit
        pending = deque(range(num))
        replies: dict[int, object] = {}
        errors: dict[int, str] = {}
        died_at: dict[int, float] = {}
        while len(replies) + len(errors) < num:
            while pending and num - len(pending) - len(replies) - len(errors) < limit:
                send(pending.popleft())
            try:
                tag, shard_id, reply_seq, body, ts = self._result_q.get(timeout=_POLL_S)
            except queue_mod.Empty:
                waiting_on = set(range(num)) - replies.keys() - errors.keys()
                self._liveness_check(waiting_on, died_at, deadline, label)
                continue
            if reply_seq != seq:
                continue  # stale reply from an earlier, failed round
            if tag == "error":
                errors[shard_id] = body
                if not keep_errors:
                    break
            else:
                replies[shard_id] = body if on_reply is None else on_reply(shard_id, body, ts)
        if errors:
            shard_id = min(errors)
            raise ShardWorkerError(f"shard {shard_id} worker raised:\n{errors[shard_id]}")
        return replies

    def _fan_out(self, op, seq, enc_queries, search_cfg, map_cfg, deadline, carrier) -> list:
        """Staggered work round: ``(results, (ledger, hits))`` per shard, in order.

        At most :attr:`max_concurrent` shards hold a live command at any
        moment.  Every command has the one shape ``(op, seq, queries,
        search_cfg, map_cfg, carrier)`` (``map_cfg`` is None for
        ``search``).  When tracing, each shard's round trip is a
        ``pool.command`` span whose context the command ships, so the
        worker traces under it; replies carry the worker's finished spans
        and metrics delta, ingested as they land (span timestamps
        corrected by the shard's PING-estimated clock offset).  A failed
        round closes its still-open round trips with ``error=<type>``.
        """
        tracer = get_tracer()
        reg = get_registry()
        if reg.enabled:
            wait_gauge = reg.gauge(
                "pool_shard_queue_wait_seconds",
                "Reply-queue dwell of the shard's last result",
                labels=("shard",),
            )
        rt_spans: dict = {}  # shard_id → open command round-trip span

        def send(shard_id):
            shard_carrier = carrier
            if tracer.enabled:
                # Deliberately not entered: open per-shard round-trip
                # spans overlap, so none may own the ambient context.
                # Each ships its own context so the worker's spans
                # nest under its round trip, not the whole fan-out.
                rt = rt_spans[shard_id] = tracer.span("pool.command", shard=shard_id)
                shard_carrier = rt.context.to_carrier()
            self._cmd_qs[shard_id].put(
                (op, seq, enc_queries, search_cfg, map_cfg, shard_carrier)
            )

        def on_reply(shard_id, body, done_ts):
            results, ledger, hits, metrics, spans = body
            # CLOCK_MONOTONIC is system-wide, so the worker's reply
            # stamp compares across processes on one host: transfer
            # plus time spent behind other shards' results.
            wait = max(0.0, time.monotonic() - done_ts)
            if metrics and reg.enabled:
                reg.merge(metrics)
            if spans and tracer.enabled:
                tracer.ingest(spans, offset=self._clock_offsets.get(shard_id))
            rt = rt_spans.pop(shard_id, None)
            if rt is not None:
                rt.set(queue_wait_s=round(wait, 6)).finish()
            if reg.enabled:
                wait_gauge.set(wait, shard=shard_id)
            return results, (ledger, hits)

        try:
            replies = self._exchange(
                op, seq, send, deadline, limit=self.max_concurrent, on_reply=on_reply
            )
        except BaseException as exc:
            # A failed round still records every round trip it opened.
            for rt in rt_spans.values():
                rt.close(type(exc))
            raise
        return [replies[shard_id] for shard_id in range(self.num_shards)]

    def __repr__(self):
        state = (
            "closed"
            if self._closed
            else "started" if self._started else "unstarted"
        )
        return (
            f"ShardWorkerPool(shards={self.num_shards}, {state}, "
            f"searches={self.stats.searches}, transport={self.stats.transport})"
        )
