"""Traced runs: per-layer metrics from the library's own spans and counters.

Every layer already records spans at its boundaries through the
process-wide tracer of :mod:`repro.obs`; a ``--trace 1`` run turns it on
(:func:`repro.obs.enable_tracing`) for its load phases and nothing else.
Spans a run uses:

========================  ==========================  ========================
span                      recorded by                 attributes used
========================  ==========================  ========================
``serve.execute_search``  service dispatch thread     —
``serve.execute``         service dispatch thread     ``kind``, ``size``
``search``                one search pass             —
``seed``                  seed prefilter, per window  —
``verify``                verify batch (pool thread)  ``batch``, ``cells``
``reduce``                top-K reduce, per batch     —
``pool.map_topk``         pool call (incl. lock)      ``reads``
``pool.command``          one shard's round trip      —
``worker.map``            shard worker process        —
``map.extend``            hit extension               —
``map.dedup``             parent merge of shards      —
========================  ==========================  ========================

Pool workers trace under the caller's span and ship their spans back in
each reply, placed on this process's clock, so worker stage times are
visible here.  Counts come from the metrics registry
(:func:`repro.obs.get_registry`; workers ship their counter deltas in
each reply) and from ``ServiceStats``.  A phase's spans and counter
deltas stay in memory until the run ends.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from dataclasses import dataclass

from repro.obs import MetricsRegistry, disable_tracing, enable_tracing, get_registry

#: Ring bound of the tracer during a traced phase; a phase that fills it
#: is reported incomplete, not silently truncated.
SPAN_CAPACITY = 2_000_000


@dataclass
class Capture:
    """What one traced phase left: its spans, counter deltas and service counts."""

    spans: list
    counters: dict
    serve: dict | None
    dropped: int

    def of(self, name: str, **attrs) -> list:
        return [
            s
            for s in self.spans
            if s.name == name and all((s.attrs or {}).get(k) == v for k, v in attrs.items())
        ]

    def count(self, metric: str, **labels) -> float:
        """Registry counter delta over the phase, summed over matching series."""
        entry = self.counters.get(metric)
        if entry is None:
            return 0.0
        names = list(entry["labels"])
        return float(
            sum(
                value
                for key, value in entry["series"].items()
                if all(key[names.index(k)] == v for k, v in labels.items())
            )
        )

    def complete(self) -> bool:
        """No span was lost: the ring never overflowed, and every search
        pass (in a worker too, whose own ring is smaller) kept one verify
        span per batch it ran."""
        passes = self.of("search")
        batches = sum((s.attrs or {}).get("batches", 0) for s in passes)
        return self.dropped == 0 and len(self.of("verify")) == batches


def serve_counts(stats, before: dict | None = None) -> dict:
    """``ServiceStats`` batch counters, as a delta from ``before`` when given."""
    now = {
        "batches": stats.batches,
        "batched": stats.batched_requests,
        "completed": stats.completed,
        "linger": stats.flush_causes.get("linger", 0),
    }
    if before is not None:
        now = {k: v - before[k] for k, v in now.items()}
    return now


@contextmanager
def traced(captures: dict, phase: str, stats=None):
    """Trace the body; store its :class:`Capture` as ``captures[phase]``."""
    tracer = enable_tracing(SPAN_CAPACITY)
    tracer.clear()
    registry = get_registry()
    before = registry.snapshot()
    serve = serve_counts(stats) if stats is not None else None
    try:
        yield
    finally:
        disable_tracing()
        dropped = tracer.dropped
        captures[phase] = Capture(
            spans=tracer.drain(),
            counters=MetricsRegistry.diff(before, registry.snapshot()),
            serve=serve_counts(stats, serve) if stats is not None else None,
            dropped=dropped,
        )


# -- span arithmetic -------------------------------------------------------------
def _ms(span) -> float:
    return span.dur_us / 1e3


def _interval(span) -> tuple[float, float]:
    return span.start_us, span.start_us + span.dur_us


def _covered_us(span, children) -> float:
    """Microseconds of ``span`` that at least one child covers."""
    lo, hi = _interval(span)
    parts = sorted(
        (max(lo, a), min(hi, b)) for a, b in map(_interval, children) if b > lo and a < hi
    )
    covered, end = 0.0, lo
    for a, b in parts:
        if b > end:
            covered += b - max(a, end)
            end = b
    return covered


def self_times(spans) -> dict:
    """Per span name: count, total and self milliseconds.

    Self time is a span's duration minus the part of it that its children
    cover.  Children may overlap one another (verify batches run on pool
    threads while the pass seeds the next window), so the covered part is
    the union of their intervals.
    """
    children: dict = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append(s)
    out: dict = {}
    for s in spans:
        row = out.setdefault(s.name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += _ms(s)
        row["self_ms"] += (s.dur_us - _covered_us(s, children.get(s.span_id, ()))) / 1e3
    return out


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


@dataclass
class _Call:
    """One pool call and the spans of its trace."""

    call: object
    lock_wait_ms: float
    busy_ms: list  # per shard worker
    dedup_ms: float


def _pool_calls(cap: Capture) -> list:
    by_trace: dict = {}
    for s in cap.spans:
        by_trace.setdefault(s.trace_id, []).append(s)
    calls = []
    for call in cap.of("pool.map_topk"):
        trace = by_trace[call.trace_id]
        commands = [s for s in trace if s.name == "pool.command" and s.parent_id == call.span_id]
        calls.append(
            _Call(
                call=call,
                # Opened before the pool lock is taken; the first shard
                # command is sent once it is held.
                lock_wait_ms=(min(s.start_us for s in commands) - call.start_us) / 1e3,
                busy_ms=[_ms(s) for s in trace if s.name == "worker.map"],
                dedup_ms=sum(_ms(s) for s in trace if s.name == "map.dedup"),
            )
        )
    return calls


# -- per-layer metrics -----------------------------------------------------------
def layer_metrics(caps: dict, ctx: dict) -> tuple[dict, dict]:
    """Every per-layer metric (``{name: value}``) and the request budgets.

    Metrics describe the *latency phase* ``caps[ctx["latency"].kind]`` —
    the phase whose latencies the document reports (open if the workload
    has one, else closed).  The traced closed phase ``caps["closed"]``
    gives shard CPU use and, against the untraced closed phase, the
    tracing overhead.  ``ctx`` carries what spans cannot: ``latency`` and
    ``closed`` (load phases), ``untraced_rps``, ``num_shards``,
    ``warmup_s`` and ``cells_per_pair`` (DP cells of one score or
    alignment request).  A layer a workload's path does not reach reports 0.

    Budgets split an average latency-phase request into its layers, in
    ms: ``search`` for a service-served search, ``shard`` for a
    pool-served call.
    """
    lat, closed = ctx["latency"], ctx["closed"]
    cap = caps[lat.kind]
    mean_latency_ms = _mean(lat.latencies) * 1e3

    passes = cap.of("search")
    kids: dict = {p.span_id: [] for p in passes}
    for s in cap.spans:
        if s.parent_id in kids:
            kids[s.parent_id].append(s)

    def stage(name):
        return [s for p in passes for s in kids[p.span_id] if s.name == name]

    seeds, verifies, reduces = stage("seed"), stage("verify"), stage("reduce")
    queries = cap.count("search_queries_total")
    admitted = cap.count("pipeline_requests_total", pipeline="search", disposition="admitted")
    rejected = cap.count("pipeline_requests_total", pipeline="search", disposition="rejected")
    pass_ms = sum(map(_ms, passes))
    seed_ms = sum(map(_ms, seeds))
    verify_ms = sum(map(_ms, verifies))
    reduce_ms = sum(map(_ms, reduces))
    pass_self_ms = sum((p.dur_us - _covered_us(p, kids[p.span_id])) / 1e3 for p in passes)
    verified = [(s.attrs or {}).get("batch", 0) for s in verifies]

    m = {}
    m["search.pass_self_ms_per_query"] = _div(pass_self_ms, queries)
    m["search.passes_per_query"] = _div(cap.count("search_runs_total"), queries)
    m["search.seed_ms_per_query"] = _div(seed_ms, queries)
    m["search.seed_share"] = _div(seed_ms, pass_ms)
    m["search.windows_scanned_per_query"] = _div(len(seeds), queries)
    m["search.admit_ratio"] = _div(admitted, admitted + rejected)
    m["search.verify_ms_per_query"] = _div(verify_ms, queries)
    m["search.verify_cells"] = _div(
        cap.count("pipeline_cells_total", pipeline="search", kind="computed"), queries
    )
    m["search.verify_gcups"] = _div(
        sum((s.attrs or {}).get("cells", 0) for s in verifies), verify_ms / 1e3
    ) / 1e9
    m["search.lane_share"] = _div(sum(n for n in verified if n > 1), sum(verified))
    m["search.hit_ratio"] = _div(cap.count("search_hits_total"), admitted)
    m["search.reduce_ms_per_query"] = _div(reduce_ms, queries)

    calls = _pool_calls(cap)
    reads = sum((c.call.attrs or {}).get("reads", 0) for c in calls)
    extended = cap.count("mapping_extend_total")
    m["mapping.extend_ms_per_read"] = _div(sum(map(_ms, cap.of("map.extend"))), reads)
    m["mapping.extend_hits_per_read"] = _div(extended, reads)
    m["mapping.banded_share"] = _div(cap.count("mapping_extend_total", path="banded"), extended)
    m["mapping.dedup_ms_per_call"] = _mean(c.dedup_ms for c in calls)

    shards = ctx["num_shards"]
    m["shard.queries_per_call"] = _div(reads, len(calls))
    m["shard.call_ms"] = _mean(_ms(c.call) for c in calls)
    m["shard.lock_wait_ms"] = _mean(c.lock_wait_ms for c in calls)
    m["shard.worker_busy_ms"] = _mean(max(c.busy_ms) for c in calls)
    m["shard.ipc_wait_ms"] = (
        m["shard.call_ms"]
        - m["shard.lock_wait_ms"]
        - m["shard.worker_busy_ms"]
        - m["mapping.dedup_ms_per_call"]
    )
    m["shard.executor_wait_ms"] = mean_latency_ms - m["shard.call_ms"] if calls else 0.0
    m["shard.imbalance"] = _mean(max(c.busy_ms) / _mean(c.busy_ms) for c in calls)
    closed_busy_ms = sum(map(_ms, caps["closed"].of("worker.map")))
    m["shard.cpu_util"] = _div(closed_busy_ms / 1e3, closed.seconds * shards)
    m["shard.scaling_eff"] = _mean(sum(c.busy_ms) / (_ms(c.call) * shards) for c in calls)

    searches = cap.of("serve.execute_search")
    scores = cap.of("serve.execute", kind="score")
    aligns = cap.of("serve.execute", kind="align")
    if searches:  # one dispatch per request, executed as one call
        exec_ms = _mean(map(_ms, searches))
    else:  # micro-batches: each member is charged its batch's execution
        executed = scores + aligns
        exec_ms = _div(
            sum(_ms(s) * s.attrs["size"] for s in executed),
            sum(s.attrs["size"] for s in executed),
        )
    serve = cap.serve
    m["serve.wait_ms"] = mean_latency_ms - exec_ms if serve else 0.0
    if serve:
        m["serve.dispatches_per_request"] = _div(
            serve["batches"] + len(searches), serve["completed"]
        )
        m["serve.batch_occupancy"] = _div(serve["batched"], serve["batches"])
        m["serve.linger_flush_share"] = _div(serve["linger"], serve["batches"])
    else:
        m["serve.dispatches_per_request"] = 0.0
        m["serve.batch_occupancy"] = 0.0
        m["serve.linger_flush_share"] = 0.0
    is_open = lat.kind == "open"
    m["serve.queue_depth_hwm"] = float(max((n for _, n in lat.backlog), default=0))
    m["serve.backlog_growth"] = lat.backlog_growth() if is_open else 0.0

    for kind, spans in (("score", scores), ("align", aligns)):
        busy_ms = sum(map(_ms, spans))
        cells = sum(s.attrs["size"] for s in spans) * ctx["cells_per_pair"]
        m[f"engine.{kind}_exec_ms"] = _mean(map(_ms, spans))
        m[f"engine.{kind}_gcups"] = _div(cells, busy_ms / 1e3) / 1e9
    m["engine.warmup_s"] = ctx["warmup_s"]
    m["proc.gen_late_p99_ms"] = lat.summary()["gen_late_p99_ms"] if is_open else 0.0
    m["obs.trace_overhead"] = _div(ctx["untraced_rps"], closed.throughput) - 1.0

    budgets = {}
    if searches and passes:
        n = len(searches)  # one single-query pass per request
        parts = {
            "serve_wait_ms": m["serve.wait_ms"],
            "search_setup_ms": exec_ms - pass_ms / n,
            "pass_self_ms": pass_self_ms / n,
            "seed_ms": seed_ms / n,
            "verify_ms": verify_ms / n,
            "reduce_ms": reduce_ms / n,
        }
        budgets["search"] = {
            "latency_ms": mean_latency_ms,
            **parts,
            # Verify runs on pool threads while the pass seeds on; the
            # parts above add up to the latency plus this overlap.
            "overlap_ms": sum(parts.values()) - mean_latency_ms,
        }
    if calls:
        budgets["shard"] = {
            "latency_ms": mean_latency_ms,
            "executor_wait_ms": m["shard.executor_wait_ms"],
            "lock_wait_ms": m["shard.lock_wait_ms"],
            "ipc_wait_ms": m["shard.ipc_wait_ms"],
            "worker_busy_ms": m["shard.worker_busy_ms"],
            "merge_ms": m["mapping.dedup_ms_per_call"],
        }
    return m, budgets
