"""The shard worker: a persistent command loop over a resident reference.

``run_pool_worker`` is the ``multiprocessing.Process`` target for
:class:`~repro.shard.pool.ShardWorkerPool`.  It is a plain module-level
function taking only picklable arguments (the :class:`ShardPlan`, the
shard id, a database payload, and the command/result queues), so it works
under the ``spawn`` start method — nothing is inherited from the parent
except what crosses the pickle boundary.

Startup: the worker builds its engine **once**, attaches its payload (for
:class:`~repro.shard.plan.SharedRecordPayload` this maps the published
shared-memory segment and builds zero-copy record views — after the
engine, so a bad engine config never dies holding live views), and
reports ``ready``.  It then blocks on the command queue and services
commands until told to stop — the whole point: spawn + attach + engine
build are paid once and amortized over every subsequent search.

Per work command the worker asks its resident payload for a shard view
(:class:`~repro.search.seeds.ReferenceShard` over the attached records)
and searches it: one masked pass over the reference finds the query
k-mers' hits, each hit is mapped onto the command's windows, and only
windows this shard owns (``shard_of(id)``) holding at least ``min_seeds``
hits get seed tables, those admitting a query are verified, and the rest
are counted arithmetically.  The view dies with the command, so no view of the
segment outlives it.  The command is one :class:`repro.obs.timed` region,
view build included: the ``worker.{op}`` span when traced, and one
``pool_shard_search_seconds{shard}`` observation, which reaches the
parent in the reply's metrics delta.

Command protocol: the parent sends commands on the per-worker command
queue; every reply on the shared result queue has the one shape
``(tag, shard_id, seq, body, ts)``, where ``seq`` echoes the command's
sequence number (so the parent can discard stale replies after a failed
round) and ``ts`` is the worker's ``time.monotonic()`` at sending.

* startup → ``ready``, body None, ``seq == -1``;
* ``(op, seq, queries, search_cfg, map_cfg, carrier)`` → ``ok``, body
  ``(results, ledger, hits, metrics, spans)``;
* ``("swap", seq, payload)`` → ``swapped``, body None;
* ``("ping", seq)`` → ``pong``, body the worker's ``time.time()``;
* ``("shutdown", seq)`` → no reply;
* a command that raises → ``error``, body the formatted traceback.

Work commands (``op`` is ``"search"`` or ``"map"``): ``search_cfg`` is a
resolved :class:`~repro.search.pipeline.SearchConfig` whose windowing the
shard view maps its hits onto.  ``ledger`` is the shard run's
:class:`~repro.engine.stages.PipelineStats` and ``hits`` the number of
results it returns.  ``carrier`` (None = untraced) is a propagated trace
position: the worker traces the command under it and ships the finished
spans back in ``spans``, alongside ``metrics``, the metrics-registry delta
since its previous reply (counters/histograms only, so cross-process
merging never clobbers parent gauges).

* ``op == "search"`` (``map_cfg`` None) — ``results`` is one bounded
  per-query top-K over the shard's owned windows of the resident
  reference.
* ``op == "map"`` — ``map_cfg`` is a resolved
  :class:`repro.mapping.MappingConfig` and ``results`` is the full
  per-shard read-mapping stage
  (:func:`repro.mapping.shard_map_placements`): both-strand hit search
  over the shard's owned windows plus exact traceback extension, returning
  **pre-dedup** per-read placement lists (each placement still carrying
  its source hit) for the parent's global merge.

Control commands:

* ``swap`` — attach the new reference payload, then drop the old
  attachment; queries never observe a half-swapped state because the
  flip happens between commands, and the parent unlinks the old segment
  only after every worker has acknowledged.
* ``ping`` — liveness probe; the parent estimates from the ``pong``'s
  wall clock the offset that aligns shipped span timestamps.
* ``shutdown`` — the worker closes its engine, detaches, and exits 0.

Any exception while serving a command is reported as an ``error`` reply
and the loop *continues* — one failed search must not take the shard
down.  Startup failures report with ``seq == -1`` and exit.  A worker
that dies without reporting at all (hard crash, OOM kill) is detected by
the parent via exit-code polling.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import replace

from repro.obs import MetricsRegistry, get_registry, get_tracer, timed
from repro.search.pipeline import search
from repro.shard.plan import ShardPlan

__all__ = ["run_pool_worker", "shard_engine_workers"]


def shard_engine_workers(plan: ShardPlan) -> int | None:
    """Worker-thread budget for one shard's engine.

    ``None`` in the engine config means "size for the host"; a shard
    worker divides the host's cores among its siblings so N processes
    don't stack N full thread pools onto the same cores.

    Policy: the divisor is the number of workers that can actually run
    *concurrently* — ``min(num_shards, cpu_count)`` — never the raw shard
    count.  With more shards than cores each worker still gets one thread
    (the old ``max(1, cores // num_shards)`` clamp), and the concurrency
    excess is handled where it belongs: the pool staggers its dispatch so
    at most ``cpu_count`` shard searches are in flight at once (the
    read-only :attr:`~repro.shard.pool.ShardWorkerPool.max_concurrent`,
    the same ``min(num_shards, cpu_count)``), instead
    of running ``num_shards`` single-threaded workers against
    ``cpu_count`` cores simultaneously and paying the oversubscription in
    context switches.
    """
    if plan.engine.max_workers is not None:
        return plan.engine.max_workers
    import os

    cores = os.cpu_count() or 1
    return max(1, cores // min(plan.num_shards, cores))


def _attach(payload):
    """Resolve a payload to its worker-resident form.

    Shared-memory payloads attach and return a resident view holder;
    plain pickled payloads (chunk lists, test doubles) are already
    resident and pass through unchanged.
    """
    attach = getattr(payload, "attach", None)
    return attach() if attach is not None else payload


def _detach(resident) -> None:
    close = getattr(resident, "close", None)
    if close is not None:
        close()


def _work(resident, engine, plan: ShardPlan, shard_id: int, tracer, cmd):
    """One search or map command: ``(results, PipelineStats, hits)``.

    A function of its own so the shard view, which holds views into the
    shared segment, is released when the command ends, not when the next
    one rebinds it.
    """
    op, _, enc_queries, search_cfg, map_cfg, carrier = cmd
    reg = get_registry()
    hist = (
        reg.histogram(
            "pool_shard_search_seconds",
            "Per-shard wall time of one search or map command, shard view "
            "build included",
            labels=("shard",),
        )
        if reg.enabled
        else None
    )
    with tracer.activate(carrier), timed(
        f"worker.{op}",
        hist=hist,
        labels={"shard": shard_id},
        shard=shard_id,
        queries=len(enc_queries),
    ):
        source = resident.shard_view(replace(plan, search=search_cfg), shard_id)
        if op == "map":
            # The full per-shard mapping stage: both-strand search + exact
            # extension, NO dedup — the parent's merge replays the global
            # hit top-K over these pre-dedup lists (window bases are
            # stripped before shipping).
            from repro.mapping import shard_map_placements

            results, pstats, _ext = shard_map_placements(
                enc_queries, source, map_cfg, search_cfg, engine=engine
            )
            count = sum(len(p) for p in results)
        else:
            run = search(enc_queries, source, engine=engine, **search_cfg.search_kwargs())
            results = run.topk()
            pstats = run.stats
            count = sum(len(hits) for hits in results)
    return results, pstats, count


def run_pool_worker(plan: ShardPlan, shard_id: int, payload, cmd_q, out_q) -> None:
    """Serve search commands for one shard until shutdown (see module doc)."""

    def reply(tag, seq, body=None):
        out_q.put((tag, shard_id, seq, body, time.monotonic()))

    resident = engine = None
    try:
        # Engine first: it depends only on the plan, so a bad config dies
        # before any shared-memory views exist (a child exiting with live
        # exported views can't unmap cleanly and whines at shutdown).
        scheme = plan.search.resolved_scheme()
        engine = plan.engine.build(scheme, max_workers=shard_engine_workers(plan))
        resident = _attach(payload)
    except BaseException:
        reply("error", -1, traceback.format_exc())
        if resident is not None:
            _detach(resident)
        if engine is not None:
            engine.close()
        return
    reply("ready", -1)
    tracer = get_tracer()
    tracer.process = f"shard-{shard_id}"
    # A forked child inherits the parent's tracer state; shipping those
    # inherited spans back would duplicate them in the parent's buffer.
    tracer.disable()
    tracer.clear()
    registry = get_registry()
    prev_metrics = registry.snapshot()
    try:
        while True:
            cmd = cmd_q.get()
            op, seq = cmd[0], cmd[1]
            try:
                if op == "shutdown":
                    return
                if op == "ping":
                    reply("pong", seq, time.time())
                elif op == "swap":
                    fresh = _attach(cmd[2])
                    old, resident = resident, fresh
                    _detach(old)
                    reply("swapped", seq)
                elif op in ("search", "map"):
                    carrier = cmd[5]
                    if carrier is not None:
                        tracer.enable()
                    work = _work(resident, engine, plan, shard_id, tracer, cmd)
                    spans = []
                    if carrier is not None:
                        spans = [s.to_tuple() for s in tracer.drain()]
                        tracer.disable()
                    cur_metrics = registry.snapshot()
                    delta = MetricsRegistry.diff(prev_metrics, cur_metrics)
                    prev_metrics = cur_metrics
                    # Gauges are point-in-time per-process readings; the
                    # parent keeps its own per-shard gauges instead.
                    metrics = {
                        name: entry
                        for name, entry in delta.items()
                        if entry["kind"] != "gauge"
                    }
                    reply("ok", seq, (*work, metrics, spans))
                else:
                    raise ValueError(f"unknown pool command {op!r}")
            except BaseException:
                reply("error", seq, traceback.format_exc())
    finally:
        engine.close()
        _detach(resident)
