"""Tests for the observability subsystem (repro.obs + instrumentation).

Covers the PR's acceptance checklist:

* tracer mechanics — parent links via contextvars, explicit carriers,
  the ring bound, the zero-allocation disabled path, retro-recording;
* metrics mechanics — the three instrument kinds, labeled series,
  registration conflicts, snapshot/diff/merge composability, and exact
  counts under a multi-thread hammer;
* exports — Chrome ``trace_event`` structure (validated by the same
  gate CI uses), Prometheus text, ``perf.report.snapshot``;
* cross-process propagation — a traced sharded search yields ONE
  stitched trace with worker-process spans, and the stitching survives a
  worker being killed and respawned between traced calls.
"""

import json
import threading

import pytest

from repro.obs import (
    ClockOffset,
    MetricsRegistry,
    Span,
    SpanContext,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_registry,
    get_tracer,
    timed,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.perf.report import snapshot as perf_snapshot
from repro.perf.report import trace_tree
from repro.search import SearchConfig, search
from repro.shard import ShardPlan, ShardWorkerPool
from repro.util.checks import ValidationError
from repro.workloads.reads import read_pairs

from helpers import hit_keys, planted_instance


@pytest.fixture
def tracer():
    """A private enabled tracer (no global state touched)."""
    return Tracer(capacity=64, enabled=True)


@pytest.fixture
def global_obs():
    """Enable the global tracer for a test; restore/clear afterwards."""
    t = enable_tracing(capacity=16384)
    t.clear()
    yield t
    disable_tracing()
    t.clear()


# -- tracer mechanics --------------------------------------------------------
class TestTracer:
    def test_disabled_path_is_shared_noop(self):
        t = Tracer(enabled=False)
        a = t.span("a", anything=1)
        b = t.span("b")
        assert a is b  # one shared object: no allocation when disabled
        with a as sp:
            assert sp.context is None
            sp.set(x=1)  # surface matches the live span
        sp.finish()
        assert t.spans() == []
        assert t.record_span("c", 0.5) is None

    def test_nested_spans_link_to_parent(self, tracer):
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                with tracer.span("grandchild"):
                    pass
        spans = {s.name: s for s in tracer.spans()}
        assert spans["root"].parent_id is None
        assert spans["child"].parent_id == spans["root"].span_id
        assert spans["grandchild"].parent_id == spans["child"].span_id
        assert len({s.trace_id for s in spans.values()}) == 1
        assert root.context.trace_id == child.context.trace_id

    def test_sibling_spans_share_parent(self, tracer):
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        spans = {s.name: s for s in tracer.spans()}
        assert spans["a"].parent_id == spans["b"].parent_id == spans["root"].span_id

    def test_explicit_parent_overrides_ambient(self, tracer):
        with tracer.span("root") as root:
            foreign = SpanContext("t-x", "s-x")
            with tracer.span("adopted", parent=foreign):
                pass
            with tracer.span("carrier-adopted", parent=foreign.to_carrier()):
                pass
        spans = {s.name: s for s in tracer.spans()}
        assert spans["adopted"].trace_id == "t-x"
        assert spans["adopted"].parent_id == "s-x"
        assert spans["carrier-adopted"].parent_id == "s-x"
        assert spans["root"].trace_id != "t-x"
        assert root.context is not None

    def test_carrier_roundtrip_through_activate(self, tracer):
        with tracer.span("root"):
            ctx = tracer.current()
            carrier = ctx.to_carrier()
        # Far side of a queue/thread hop: no ambient context here.
        assert tracer.current() is None
        with tracer.activate(carrier):
            with tracer.span("remote"):
                pass
        spans = {s.name: s for s in tracer.spans()}
        assert spans["remote"].trace_id == spans["root"].trace_id
        assert spans["remote"].parent_id == spans["root"].span_id

    def test_activate_none_is_a_noop(self, tracer):
        with tracer.activate(None):
            assert tracer.current() is None
        with tracer.activate({}):
            assert tracer.current() is None

    def test_ring_bound_drops_oldest(self):
        t = Tracer(capacity=4, enabled=True)
        for i in range(10):
            with t.span(f"s{i}"):
                pass
        spans = t.spans()
        assert [s.name for s in spans] == ["s6", "s7", "s8", "s9"]
        assert t.dropped == 6
        t.clear()
        assert t.dropped == 0

    def test_record_span_retro_records(self, tracer):
        with tracer.span("root"):
            got = tracer.record_span("timed", 0.25, batch=3)
        spans = {s.name: s for s in tracer.spans()}
        assert got is spans["timed"]
        assert spans["timed"].parent_id == spans["root"].span_id
        assert spans["timed"].dur_us == pytest.approx(0.25e6)
        assert spans["timed"].attrs == {"batch": 3}
        # start defaults to now - duration: it ends by roughly "now".
        end_us = spans["timed"].start_us + spans["timed"].dur_us
        assert abs(end_us - spans["root"].start_us) < 5e6

    def test_timed_feeds_span_histogram_and_seconds(self, global_obs):
        h = MetricsRegistry().histogram("region_seconds", labels=("k",))
        with timed("region", hist=h, labels={"k": "a"}, n=1) as t:
            with global_obs.span("inner"):
                pass
            t.set(m=2)
        spans = {s.name: s for s in global_obs.spans()}
        assert spans["inner"].parent_id == spans["region"].span_id
        assert spans["region"].attrs == {"n": 1, "m": 2}
        # One reading feeds all three.
        assert t.seconds > 0
        assert spans["region"].dur_us == t.seconds * 1e6
        assert h.value(k="a")["sum"] == t.seconds
        assert h.value(k="a")["count"] == 1

    def test_timed_without_tracing_still_times(self):
        assert not get_tracer().enabled
        with timed("quiet") as t:
            pass
        assert t.seconds > 0 and get_tracer().spans() == []

    def test_exception_stamps_error_attr(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("nope")
        (span,) = tracer.spans()
        assert span.attrs["error"] == "RuntimeError"

    def test_drain_empties_buffer(self, tracer):
        with tracer.span("a"):
            pass
        assert [s.name for s in tracer.drain()] == ["a"]
        assert tracer.spans() == []

    def test_span_tuple_roundtrip(self, tracer):
        with tracer.span("x", k=1):
            pass
        (span,) = tracer.spans()
        assert Span.from_tuple(span.to_tuple()) == span


class TestClockOffset:
    def test_roundtrip_estimate(self):
        # Remote clock 2s ahead; symmetric 100ms round trip.
        off = ClockOffset.from_roundtrip(10.0, 10.1, 12.05)
        assert off.offset_us == pytest.approx(2.0e6)
        assert off.rtt_us == pytest.approx(0.1e6)
        assert off.to_local_us(12.05e6) == pytest.approx(10.05e6)

    def test_ingest_applies_offset(self, tracer):
        foreign = Span(
            trace_id="t", span_id="s", parent_id=None, name="w",
            start_us=5_000_000.0, pid=999, tid=1, process="shard-0",
        )
        tracer.ingest([foreign.to_tuple()], offset=ClockOffset(offset_us=1e6))
        (span,) = tracer.spans()
        assert span.start_us == pytest.approx(4_000_000.0)
        assert span.process == "shard-0"


# -- chrome export -----------------------------------------------------------
class TestChromeExport:
    def _spans(self, tracer):
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        return tracer.spans()

    def test_export_shape_and_validation(self, tracer):
        doc = to_chrome_trace(self._spans(tracer))
        text = json.dumps(doc)  # must be JSON-serializable as-is
        assert "traceEvents" in json.loads(text)
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        ms = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert len(xs) == 2
        assert {e["name"] for e in ms} == {"process_name", "thread_name"}
        summary = validate_chrome_trace(doc, require_single_trace=True)
        assert summary == {"spans": 2, "processes": 1, "traces": 1, "roots": 1}

    def test_validation_rejects_orphans(self, tracer):
        spans = self._spans(tracer)
        spans[0].parent_id = "s-not-a-span"  # orphan the child's root
        with pytest.raises(ValidationError, match="orphaned"):
            validate_chrome_trace(to_chrome_trace(spans))

    def test_validation_requires_worker_process(self, tracer):
        doc = to_chrome_trace(self._spans(tracer))
        with pytest.raises(ValidationError, match="process"):
            validate_chrome_trace(doc, require_worker_process=True)

    def test_validation_rejects_empty(self):
        with pytest.raises(ValidationError):
            validate_chrome_trace({"traceEvents": []})

    def test_trace_tree_renders_hierarchy(self, tracer):
        text = trace_tree(self._spans(tracer), title="T")
        root_line, child_line = text.splitlines()[2:4]
        assert root_line.startswith("root")
        assert child_line.startswith("  child")
        assert "(no spans)" in trace_tree([])


# -- metrics -----------------------------------------------------------------
class TestMetrics:
    def test_counter_inc_and_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("req_total", labels=("kind",))
        c.inc(kind="a")
        c.inc(2, kind="a")
        c.inc(kind="b")
        assert c.value(kind="a") == 3
        assert c.value(kind="b") == 1
        with pytest.raises(ValidationError):
            c.inc(-1, kind="a")
        with pytest.raises(ValidationError):
            c.inc(kind="a", extra="x")

    def test_gauge_set_add(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(5)
        g.add(-2)
        assert g.value() == 3

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.05, 0.5, 5.0):
            h.observe(v)
        val = h.value()
        assert val["count"] == 5
        assert val["sum"] == pytest.approx(5.605)
        assert val["buckets"] == {"0.01": 1, "0.1": 2, "1.0": 1}
        assert val["inf"] == 1

    def test_registration_idempotent_and_conflicts(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", labels=("k",))
        assert reg.counter("x_total", labels=("k",)) is a
        with pytest.raises(ValidationError):
            reg.gauge("x_total", labels=("k",))
        with pytest.raises(ValidationError):
            reg.counter("x_total", labels=("other",))

    def test_snapshot_diff(self):
        reg = MetricsRegistry()
        c = reg.counter("n_total")
        g = reg.gauge("depth")
        h = reg.histogram("lat", buckets=(1.0,))
        c.inc(3)
        g.set(7)
        h.observe(0.5)
        before = reg.snapshot()
        c.inc(2)
        g.set(4)
        h.observe(2.0)
        delta = MetricsRegistry.diff(before, reg.snapshot())
        assert delta["n_total"]["series"][()] == 2
        assert delta["depth"]["series"][()] == 4  # gauges: latest reading
        assert delta["lat"]["series"][()]["count"] == 1
        assert delta["lat"]["series"][()]["sum"] == pytest.approx(2.0)
        # A no-change interval produces an empty diff for that metric.
        empty = MetricsRegistry.diff(reg.snapshot(), reg.snapshot())
        assert "n_total" not in empty
        assert "lat" not in empty

    def test_merge_adds_counters_overwrites_gauges(self):
        worker = MetricsRegistry()
        worker.counter("n_total").inc(5)
        worker.gauge("depth").set(9)
        worker.histogram("lat", buckets=(1.0,)).observe(0.5)
        parent = MetricsRegistry()
        parent.counter("n_total").inc(1)
        parent.merge(worker.snapshot())
        assert parent.counter("n_total").value() == 6
        assert parent.gauge("depth").value() == 9
        assert parent.get("lat").value()["count"] == 1

    def test_merge_with_extra_labels_keeps_series_distinct(self):
        worker = MetricsRegistry()
        worker.counter("w_total").inc(5)
        parent = MetricsRegistry()
        parent.merge(worker.snapshot(), extra_labels={"shard": 0})
        parent.merge(worker.snapshot(), extra_labels={"shard": 1})
        c = parent.get("w_total")
        assert c.value(shard="0") == 5
        assert c.value(shard="1") == 5

    def test_prometheus_export(self):
        reg = MetricsRegistry()
        reg.counter("req_total", help="requests", labels=("kind",)).inc(3, kind="a")
        reg.histogram("lat_seconds", buckets=(0.1, 1.0)).observe(0.5)
        text = reg.to_prometheus()
        assert "# TYPE req_total counter" in text
        assert 'req_total{kind="a"} 3' in text
        assert "# HELP req_total requests" in text
        assert 'lat_seconds_bucket{le="0.1"} 0' in text
        assert 'lat_seconds_bucket{le="1.0"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_count 1" in text

    def test_as_dict_flattens_labels(self):
        reg = MetricsRegistry()
        reg.counter("n_total", labels=("a", "b")).inc(2, a="x", b="y")
        d = reg.as_dict()
        assert d["n_total"]["series"] == {"a=x,b=y": 2}

    def test_thread_hammer_exact_counts(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total", labels=("worker",))
        g = reg.gauge("adds")
        h = reg.histogram("vals", buckets=(0.5,))
        threads, per_thread = 8, 5000

        def hammer(i):
            for k in range(per_thread):
                c.inc(worker=str(i % 2))
                g.add(1)
                h.observe((k % 10) / 10.0)

        ts = [threading.Thread(target=hammer, args=(i,)) for i in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        total = threads * per_thread
        assert c.value(worker="0") + c.value(worker="1") == total
        assert g.value() == total
        assert h.value()["count"] == total


# -- layer integration -------------------------------------------------------
class TestInstrumentation:
    def test_traced_search_is_one_trace(self, global_obs):
        ref, queries, _ = planted_instance(6000, 3, 60, seed=71)
        run = search(queries, ref, k=3, window=120, overlap=76)
        run.topk()
        spans = global_obs.spans()
        names = {s.name for s in spans}
        assert {"search", "seed", "verify", "reduce"} <= names
        summary = validate_chrome_trace(
            to_chrome_trace(spans), require_single_trace=True
        )
        assert summary["roots"] == 1

    def test_search_metrics_recorded(self):
        reg = get_registry()
        before = reg.snapshot()
        ref, queries, _ = planted_instance(6000, 3, 60, seed=72)
        search(queries, ref, k=3, window=120, overlap=76).topk()
        delta = MetricsRegistry.diff(before, reg.snapshot())
        assert delta["search_runs_total"]["series"][()] == 1
        assert delta["search_queries_total"]["series"][()] == 3
        pairs = delta["pipeline_pairs_total"]["series"][("search",)]
        assert pairs > 0

    def test_service_stats_registry_coherent(self):
        from repro.serve.stats import ServiceStats

        st = ServiceStats()
        st.note_submit(depth=3)
        st.note_batch(2, cause="full")
        st.note_complete(0.01)
        st.note_deadline("dispatch")
        st.note_deadline("execute")
        st.note_admission_reject("queue_full", "BULK")
        st.note_admission_reject("queue_full", "INTERACTIVE")
        st.note_admission_reject("shed", "BULK")
        assert st.submitted == 1
        assert st.completed == 1
        # Derived from the two dedicated series, summed over stage and
        # over priority.
        assert st.rejected == {"deadline": 2, "queue_full": 2, "shed": 1}
        assert st.occupancy == {2: 1}
        # The same numbers are visible through the registry export, each
        # kept once.
        prom = st.registry.to_prometheus()
        assert "serve_submitted_total 1" in prom
        assert 'serve_deadline_exceeded_total{stage="dispatch"} 1' in prom
        assert 'serve_deadline_exceeded_total{stage="execute"} 1' in prom
        assert (
            'serve_admission_rejected_total{cause="queue_full",priority="BULK"} 1'
            in prom
        )
        assert 'serve_admission_rejected_total{cause="shed",priority="BULK"} 1' in prom
        assert "serve_rejected_total" not in prom


# -- perf.report aggregation -------------------------------------------------
class TestSnapshotAggregation:
    def test_perf_snapshot_document(self, global_obs):
        ref, queries, _ = planted_instance(6000, 2, 60, seed=73)
        run = search(queries, ref, k=3, window=120, overlap=76)
        run.topk()
        doc = perf_snapshot(pipelines=[run.stats], tracer=global_obs)
        text = json.dumps(doc)  # the whole point: one JSON document
        assert doc["pipelines"][0]["pairs"] == run.stats.pairs
        assert "search_runs_total" in doc["metrics"]
        assert doc["trace"]["spans"] == len(global_obs.spans())
        assert "search" in doc["trace"]["tree"]
        assert "pipelines" in json.loads(text)

    def test_stats_as_dict_are_json_ready(self):
        from repro.engine.stages import PipelineStats
        from repro.serve.stats import ServiceStats
        from repro.shard.stats import PoolStats

        ledger = PipelineStats(pairs=4)
        ps = PoolStats(num_shards=1)
        ps.record_round("search", "cold", [(ledger, 2)])
        for obj in (ledger, ps, ServiceStats()):
            json.dumps(obj.as_dict())
        assert ps.as_dict()["last_run"]["workers"][0]["pairs"] == 4
        assert ps.as_dict()["last_run"]["totals"]["hits"] == 2
        assert ps.snapshot()["last_run"]["warm"] is False
        assert "workers" not in ps.snapshot()["last_run"]


# -- cross-process propagation ----------------------------------------------
def _plan(num_shards=2, **search_kw):
    return ShardPlan(
        num_shards=num_shards,
        search=SearchConfig(**search_kw),
        start_method="fork",
    )


class TestPoolPropagation:
    def test_pool_search_stitches_worker_spans(self, global_obs):
        ref, queries, _ = planted_instance(8000, 3, 80, seed=74)
        with ShardWorkerPool(ref, plan=_plan(k=3), timeout=120) as pool:
            pool.ping()  # estimate per-worker clock offsets
            global_obs.clear()  # trace only the search itself
            with global_obs.span("client"):
                pool.search_topk(queries)
        spans = global_obs.spans()
        summary = validate_chrome_trace(
            to_chrome_trace(spans),
            require_worker_process=True,
            require_single_trace=True,
        )
        assert summary["roots"] == 1
        assert summary["processes"] == 3  # parent + 2 shard workers
        by_name = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)
        # Every worker's root span hangs off a pool.command round trip.
        commands = {s.span_id for s in by_name["pool.command"]}
        assert len(by_name["worker.search"]) == 2
        for w in by_name["worker.search"]:
            assert w.parent_id in commands
            assert w.process.startswith("shard-")

    def test_propagation_survives_worker_respawn(self, global_obs):
        ref, queries, _ = planted_instance(8000, 3, 80, seed=75)
        with ShardWorkerPool(ref, plan=_plan(k=3), timeout=120) as pool:
            with global_obs.span("first"):
                first = pool.search_topk(queries)
            pool._procs[1].terminate()
            pool._procs[1].join()
            global_obs.clear()
            with global_obs.span("second"):
                second = pool.search_topk(queries)
            assert pool.stats.respawns == pool.num_shards
        assert hit_keys(second) == hit_keys(first)
        spans = global_obs.spans()
        summary = validate_chrome_trace(
            to_chrome_trace(spans),
            require_worker_process=True,
            require_single_trace=True,
        )
        # The respawned workers' spans re-attach under the new root: no
        # orphans (validate checked reachability), exactly one root, and
        # a worker.search span from every respawned shard.
        assert summary["roots"] == 1
        workers = [s for s in spans if s.name == "worker.search"]
        assert {s.process for s in workers} == {"shard-0", "shard-1"}

    def test_untraced_pool_search_ships_no_spans(self, global_obs):
        disable_tracing()
        ref, queries, _ = planted_instance(6000, 2, 60, seed=76)
        with ShardWorkerPool(ref, plan=_plan(k=3), timeout=120) as pool:
            pool.search_topk(queries)
        assert global_obs.spans() == []


# -- one clock: every timed region is read once ------------------------------
class TestOneClock:
    def test_pool_map_round_observes_each_shard_once(self, global_obs):
        """The shard histogram and the worker span are the same reading."""
        rs = read_pairs(4, read_length=60, reference_length=6000, seed=77)
        reads = [rs.reads[i] for i in range(len(rs))]
        reg = get_registry()
        with ShardWorkerPool(rs.reference, plan=_plan(), timeout=120) as pool:
            pool.start()
            global_obs.clear()
            before = reg.snapshot()
            pool.map_topk(reads, min_score=90)
            delta = MetricsRegistry.diff(before, reg.snapshot())
        series = delta["pool_shard_search_seconds"]["series"]
        workers = {
            s.attrs["shard"]: s for s in global_obs.spans() if s.name == "worker.map"
        }
        assert sorted(workers) == [0, 1]
        for shard, span in workers.items():
            observed = series[(str(shard),)]
            assert observed["count"] == 1
            assert observed["sum"] * 1e6 == pytest.approx(span.dur_us, abs=1.0)

    def test_search_verify_histogram_matches_spans(self, global_obs):
        ref, queries, _ = planted_instance(6000, 3, 60, seed=78)
        reg = get_registry()
        before = reg.snapshot()
        search(queries, ref, k=3, window=120, overlap=76).topk()
        delta = MetricsRegistry.diff(before, reg.snapshot())
        observed = delta["pipeline_stage_seconds"]["series"][("search", "verify")]
        verifies = [s for s in global_obs.spans() if s.name == "verify"]
        assert observed["count"] == len(verifies) > 0
        assert observed["sum"] * 1e6 == pytest.approx(
            sum(s.dur_us for s in verifies), abs=1.0
        )


# -- one ledger: pool accounting and worker-shipped counters agree ----------
def _counted(delta: dict, name: str, **labels) -> int:
    """Sum of a counter delta's series whose labels include ``labels``."""
    entry = delta.get(name)
    if entry is None:
        return 0
    want = {k: str(v) for k, v in labels.items()}
    return sum(
        value
        for key, value in entry["series"].items()
        if want.items() <= dict(zip(entry["labels"], key)).items()
    )


class TestOneLedger:
    def _assert_parity(self, pool, delta):
        totals = pool.stats.snapshot()["last_run"]["totals"]
        assert totals["pairs"] > 0
        assert totals["pairs"] == _counted(
            delta, "pipeline_pairs_total", pipeline="search"
        )
        assert totals["batches"] == _counted(delta, "pipeline_batches_total")
        assert totals["admitted"] == _counted(
            delta, "pipeline_requests_total", disposition="admitted"
        )
        assert totals["cells_computed"] == _counted(
            delta, "pipeline_cells_total", kind="computed"
        )
        assert totals["hits"] == _counted(delta, "search_hits_total")
        text = pool.report()
        # The first round after start() pays the spawn.
        title = "Last round (2 shards, cold, spawned this round)"
        assert title in text
        # One row per shard (plus the total row) under the header rule.
        rows = text.split(title)[1].strip().splitlines()[3:]
        assert [r.split()[0] for r in rows] == ["0", "1", "total"]
        return totals

    def test_pool_ledgers_match_shipped_counters(self):
        ref, queries, _ = planted_instance(8000, 3, 80, seed=81)
        rs = read_pairs(4, read_length=60, reference_length=6000, seed=82)
        reads = [rs.reads[i] for i in range(len(rs))]
        reg = get_registry()
        with ShardWorkerPool(ref, plan=_plan(k=3), timeout=120) as pool:
            pool.start()
            before = reg.snapshot()
            pool.search_topk(queries)
            self._assert_parity(pool, MetricsRegistry.diff(before, reg.snapshot()))
        with ShardWorkerPool(rs.reference, plan=_plan(), timeout=120) as pool:
            pool.start()
            before = reg.snapshot()
            pool.map_topk(reads, min_score=90)
            delta = MetricsRegistry.diff(before, reg.snapshot())
            totals = self._assert_parity(pool, delta)
        assert totals["hits"] == _counted(delta, "mapping_extend_total")

    def test_map_reads_ledgers_match_counters(self):
        from repro.mapping import map_reads

        rs = read_pairs(6, read_length=60, reference_length=6000, seed=84)
        reg = get_registry()
        before = reg.snapshot()
        res = map_reads(rs, rs.reference, min_score=90)
        delta = MetricsRegistry.diff(before, reg.snapshot())
        ext, dd = res.extend, res.dedup
        assert ext.banded > 0 and dd.offered > 0
        assert ext.banded == _counted(delta, "mapping_extend_total", path="banded")
        assert ext.full == _counted(delta, "mapping_extend_total", path="full")
        assert dd.kept == res.total_placements
        assert dd.kept == _counted(delta, "mapping_placements_total")
        assert dd.offered == _counted(delta, "mapping_dedup_total", outcome="offered")
        assert dd.duplicates == _counted(
            delta, "mapping_dedup_total", outcome="duplicate"
        )
        assert dd.reads == len(rs) == _counted(delta, "mapping_reads_total")

    def test_reused_dedup_ledger_matches_counters(self):
        # Two merges into one ledger: the ledger accumulates, and each
        # merge folds only its own delta into the registry.
        from repro.mapping import DedupStats, merge_mapped, resolve_config
        from repro.mapping.mapper import shard_map_placements

        rs = read_pairs(6, read_length=60, reference_length=6000, seed=88)
        cfg = resolve_config(None, min_score=90)
        per_read, _stats, _ext = shard_map_placements(list(rs.reads), rs.reference, cfg)
        n = len(rs)
        dd = DedupStats()
        reg = get_registry()
        before = reg.snapshot()
        for _ in range(2):
            merge_mapped(
                [per_read],
                num_reads=n,
                num_oriented=n * cfg.orientations(),
                hit_k=cfg.search.k,
                k=cfg.k,
                min_score=cfg.search.min_score,
                stats=dd,
            )
        delta = MetricsRegistry.diff(before, reg.snapshot())
        assert dd.offered > 0 and dd.reads == 2 * n
        assert dd.reads == _counted(delta, "mapping_reads_total")
        assert dd.kept == _counted(delta, "mapping_placements_total")
        assert dd.offered == _counted(delta, "mapping_dedup_total", outcome="offered")
        assert dd.duplicates == _counted(
            delta, "mapping_dedup_total", outcome="duplicate"
        )

    def test_pool_map_counts_reads_and_placements(self):
        # A pool-served map ends in the same merge as map_reads, so the
        # reads it sends and the placements it returns are counted too.
        rs = read_pairs(5, read_length=60, reference_length=6000, seed=85)
        reads = [rs.reads[i] for i in range(len(rs))]
        reg = get_registry()
        with ShardWorkerPool(rs.reference, plan=_plan(), timeout=120) as pool:
            pool.start()
            before = reg.snapshot()
            placements = pool.map_topk(reads, min_score=90)
            delta = MetricsRegistry.diff(before, reg.snapshot())
        returned = sum(len(p) for p in placements)
        assert returned > 0
        assert _counted(delta, "mapping_reads_total") == len(reads)
        assert _counted(delta, "mapping_placements_total") == returned
        assert _counted(delta, "pool_maps_total", mode="cold") == 1

    def test_pool_respawns_and_swaps_match_counters(self):
        ref, queries, _ = planted_instance(8000, 3, 80, seed=86)
        ref2, _, _ = planted_instance(8000, 3, 80, seed=87)
        reg = get_registry()
        with ShardWorkerPool(ref, plan=_plan(k=3), timeout=120) as pool:
            before = reg.snapshot()
            pool.search_topk(queries)
            pool._procs[1].terminate()
            pool._procs[1].join()
            pool.search_topk(queries)  # heals: every worker respawns
            pool.swap_reference(ref2)
            delta = MetricsRegistry.diff(before, reg.snapshot())
            st = pool.stats
            assert st.respawns == pool.num_shards and st.swaps == 1
            assert st.respawns == _counted(delta, "pool_respawns_total")
            assert st.swaps == _counted(delta, "pool_swaps_total")
            assert st.cold_searches == 2
            assert st.cold_searches == _counted(delta, "pool_searches_total", mode="cold")

    def test_pipeline_stats_pickle_round_trip(self):
        import pickle

        from repro.engine.stages import _PIPELINE_COUNTERS

        ref, queries, _ = planted_instance(6000, 3, 60, seed=83)
        run = search(queries, ref, k=3, window=120, overlap=76)
        run.topk()
        ledger = run.stats
        assert ledger.pairs > 0
        copy = pickle.loads(pickle.dumps(ledger))
        for f in (*_PIPELINE_COUNTERS, "max_buffered"):
            assert getattr(copy, f) == getattr(ledger, f), f
        assert copy.stages == ledger.stages
        assert copy._lock is not ledger._lock
        with copy._lock:
            copy.merge(ledger)
        assert copy.pairs == 2 * ledger.pairs
        assert copy.stages["execute"].calls == 2 * ledger.stages["execute"].calls


# -- Prometheus text-format conformance --------------------------------------
class TestPrometheusConformance:
    """The 0.0.4 exposition rules a real scraper depends on."""

    def test_help_line_escaping(self):
        reg = MetricsRegistry()
        reg.counter("esc_total", help="line one\nline two \\ backslash").inc()
        text = reg.to_prometheus()
        assert "# HELP esc_total line one\\nline two \\\\ backslash" in text
        assert "\nline two" not in text.split("# HELP", 1)[1].split("\n", 1)[0]

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        c = reg.counter("lv_total", labels=("path",))
        c.inc(path='a"b\\c\nd')
        text = reg.to_prometheus()
        assert 'lv_total{path="a\\"b\\\\c\\nd"} 1' in text
        # Each sample stays one line: escaping kept the newline literal.
        sample_lines = [l for l in text.splitlines() if l.startswith("lv_total{")]
        assert len(sample_lines) == 1

    def test_label_order_follows_declaration(self):
        reg = MetricsRegistry()
        c = reg.counter("ord_total", labels=("zeta", "alpha"))
        c.inc(zeta="z", alpha="a")
        assert 'ord_total{zeta="z",alpha="a"} 1' in reg.to_prometheus()

    def test_series_are_sorted_and_typed(self):
        reg = MetricsRegistry()
        c = reg.counter("s_total", help="h", labels=("k",))
        c.inc(k="b")
        c.inc(k="a")
        text = reg.to_prometheus()
        lines = text.splitlines()
        assert lines.index("# HELP s_total h") < lines.index("# TYPE s_total counter")
        a = lines.index('s_total{k="a"} 1')
        b = lines.index('s_total{k="b"} 1')
        assert lines.index("# TYPE s_total counter") < a < b
        assert text.endswith("\n")  # exposition must end with a newline

    def test_histogram_invariants(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", labels=("op",), buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.5, 5.0):
            h.observe(v, op="x")
        lines = reg.to_prometheus().splitlines()
        buckets = [l for l in lines if l.startswith("lat_seconds_bucket")]
        # Cumulative and monotone, le is the LAST label, +Inf == _count.
        assert buckets == [
            'lat_seconds_bucket{op="x",le="0.01"} 1',
            'lat_seconds_bucket{op="x",le="0.1"} 2',
            'lat_seconds_bucket{op="x",le="1.0"} 3',
            'lat_seconds_bucket{op="x",le="+Inf"} 4',
        ]
        assert 'lat_seconds_count{op="x"} 4' in lines
        (sum_line,) = [l for l in lines if l.startswith("lat_seconds_sum")]
        assert float(sum_line.split()[-1]) == pytest.approx(5.555)

    def test_invalid_names_rejected_at_registration(self):
        reg = MetricsRegistry()
        with pytest.raises(ValidationError):
            reg.counter("bad-name")
        with pytest.raises(ValidationError):
            reg.counter("9starts_with_digit")
        with pytest.raises(ValidationError):
            reg.counter("ok_total", labels=("bad-label",))
        with pytest.raises(ValidationError):
            reg.counter("ok_total", labels=("__reserved",))
        with pytest.raises(ValidationError):
            reg.histogram("hist_seconds", labels=("le",))  # reserved for buckets
        reg.counter("ok:total", labels=("ok_label",)).inc(ok_label="v")  # colons OK

    def test_merged_shard_labels_scrape_cleanly(self):
        parent = MetricsRegistry()
        worker = MetricsRegistry()
        worker.counter("req_total", help="reqs", labels=("cause",)).inc(cause="a")
        parent.merge(worker.snapshot(), extra_labels={"shard": 0})
        parent.merge(worker.snapshot(), extra_labels={"shard": 1})
        text = parent.to_prometheus()
        assert 'req_total{cause="a",shard="0"} 1' in text
        assert 'req_total{cause="a",shard="1"} 1' in text
