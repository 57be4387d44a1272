"""Tests for the sharded search subsystem (repro.shard)."""

import os
import pickle
import time

import numpy as np
import pytest

from repro.engine import EngineConfig, ExecutionEngine
from repro.obs import get_registry
from repro.obs.slo import SLObjective
from repro.perf.report import pool_stats_table
from repro.search import (
    ReferenceIndex,
    ReferenceShard,
    SearchConfig,
    TopKReducer,
    merge_topk,
    search_topk,
)
from repro.search.topk import Hit
from repro.serve import ServiceConfig, SyncAlignmentClient
from repro.shard import (
    ChunkPayload,
    ShardError,
    ShardPlan,
    ShardRouter,
    ShardWorkerError,
    ShardWorkerPool,
    SharedRecordPayload,
    build_pool_payloads,
)
from repro.util.checks import ReproError, ValidationError
from repro.util.rng import make_rng
from repro.workloads import (
    FastaRecord,
    chunk_sequence,
    partition_chunks,
    random_genome,
    shard_of,
)


from helpers import hit_keys as _hit_keys
from helpers import planted_instance, traced_spans


def _planted_instance(ref_len, count, qlen, seed, divergence=0.02):
    ref, queries, _ = planted_instance(ref_len, count, qlen, seed, divergence)
    return ref, queries


class TestPartitioning:
    def test_shard_of_round_robin(self):
        assert [shard_of(i, 3) for i in range(7)] == [0, 1, 2, 0, 1, 2, 0]

    def test_shard_of_validates(self):
        with pytest.raises(ValidationError):
            shard_of(0, 0)

    def test_shard_views_disjoint_cover(self):
        ref = random_genome(2000, seed=1)
        chunks = list(chunk_sequence(ref, 200, 50))
        records = ReferenceIndex(ref).records
        shards = [list(ReferenceShard(records, 3, i).chunks(200, 50)) for i in range(3)]
        ids = [sorted(c.id for c in part) for part in shards]
        assert sorted(sum(ids, [])) == [c.id for c in chunks]
        for i, part in enumerate(shards):
            assert all(c.id % 3 == i for c in part)

    def test_shard_view_validates_shard_id(self):
        with pytest.raises(ValidationError):
            ReferenceShard((), 2, 2)

    def test_partition_chunks_preserves_scan_order(self):
        chunks = list(chunk_sequence(random_genome(2000, seed=2), 150, 0))
        parts = partition_chunks(iter(chunks), 4)
        assert len(parts) == 4
        for part in parts:
            assert [c.id for c in part] == sorted(c.id for c in part)
        assert sum(len(p) for p in parts) == len(chunks)


class TestConfigsPicklable:
    """Satellite: plan/stage configs pickle round-trip by construction."""

    def test_round_trips(self):
        for obj in (
            SearchConfig(k=3, kmer=9, min_score=5),
            EngineConfig(backend="simd", dtype="int16", lanes=32),
            ServiceConfig(
                slos=(SLObjective("score-p99", latency_s=0.05, priority="NORMAL"),),
                shed_priorities=("BULK", "NORMAL"),
            ),
            ShardPlan(num_shards=3, search=SearchConfig(k=2)),
        ):
            clone = pickle.loads(pickle.dumps(obj))
            assert clone == obj

    def test_callables_rejected_at_construction(self):
        with pytest.raises(ValidationError, match="picklable"):
            SearchConfig(min_score=lambda: 5)
        with pytest.raises(ValidationError, match="picklable"):
            EngineConfig(max_workers=lambda: 2)
        with pytest.raises(ValidationError, match="picklable"):
            ServiceConfig(slos=lambda: ())

    def test_search_config_validates(self):
        with pytest.raises(ValidationError, match="verify"):
            SearchConfig(verify="sometimes")
        with pytest.raises(ValidationError, match="AlignmentScheme"):
            SearchConfig(scheme="global")

    def test_plan_validates(self):
        with pytest.raises(ValidationError, match="start_method"):
            ShardPlan(start_method="thread")
        with pytest.raises(ValidationError):
            ShardPlan(num_shards=0)

    def test_resolved_plan_is_idempotent_and_picklable(self):
        resolved = SearchConfig(k=4).resolved_for(100)
        assert resolved.window == 200
        assert resolved.overlap == 116
        assert resolved.resolved_for(100) == resolved
        plan = ShardPlan(num_shards=2, search=resolved)
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_engine_config_builds_engine(self):
        with EngineConfig(backend="rowscan", max_workers=1).build() as eng:
            assert isinstance(eng, ExecutionEngine)
            assert int(eng.submit_batch(["ACGT"], ["ACGT"])[0]) == 8

    def test_engine_config_rejects_bad_dtype(self):
        with pytest.raises(TypeError):
            EngineConfig(dtype="floatish")


class TestMergeableTopK:
    def _hit(self, score, record="r", start=0, chunk_id=0, qid=0):
        return Hit(
            query_id=qid, record=record, start=start, end=start + 10,
            score=score, chunk_id=chunk_id,
        )

    def test_ties_prefer_earlier_records(self):
        """Regression (satellite 1): score ties order by record before start."""
        red = TopKReducer(1, k=2)
        late_rec_early_start = self._hit(5, record="chr2", start=10, chunk_id=9)
        early_rec_late_start = self._hit(5, record="chr1", start=500, chunk_id=3)
        third = self._hit(5, record="chr3", start=0, chunk_id=11)
        for h in (late_rec_early_start, third, early_rec_late_start):
            red.offer_hit(h)
        (hits,) = red.results()
        assert [(h.record, h.start) for h in hits] == [("chr1", 500), ("chr2", 10)]

    def test_arrival_order_invariance(self):
        rng = np.random.default_rng(3)
        hits = [
            self._hit(int(rng.integers(0, 5)), record=f"r{int(rng.integers(3))}",
                      start=int(rng.integers(0, 50)) * 10, chunk_id=cid)
            for cid in range(40)
        ]
        expect = None
        for _ in range(5):
            order = list(hits)
            rng.shuffle(order)
            red = TopKReducer(1, k=7)
            for h in order:
                red.offer_hit(h)
            got = _hit_keys(red.results())
            if expect is None:
                expect = got
            assert got == expect

    def test_merge_equals_unsharded(self):
        rng = np.random.default_rng(4)
        hits = [
            self._hit(int(rng.integers(0, 30)), record="r", start=cid * 7, chunk_id=cid,
                      qid=cid % 3)
            for cid in range(60)
        ]
        full = TopKReducer(3, k=5)
        for h in hits:
            full.offer_hit(h)
        # Shard by chunk id, bound each shard to the same k, merge.
        shard_results = []
        for shard in range(4):
            red = TopKReducer(3, k=5)
            for h in hits:
                if h.chunk_id % 4 == shard:
                    red.offer_hit(h)
            shard_results.append(red.results())
        merged = merge_topk(shard_results, num_queries=3, k=5)
        assert _hit_keys(merged) == _hit_keys(full.results())

    def test_absorb_respects_min_score_and_k(self):
        red = TopKReducer(1, k=2, min_score=10)
        kept = red.absorb([[self._hit(9), self._hit(11, chunk_id=1),
                            self._hit(12, chunk_id=2), self._hit(13, chunk_id=3)]])
        assert kept == 3  # 9 filtered; 11 admitted then evicted by 13
        (hits,) = red.results()
        assert [h.score for h in hits] == [13, 12]


class TestPayloads:
    def test_raw_sequence_ships_one_record(self):
        plan = ShardPlan(num_shards=3, search=SearchConfig(window=100, overlap=20))
        ref = random_genome(1000, seed=5)
        payloads, segment, fingerprint = build_pool_payloads(ref, plan)
        try:
            # A prepared ReferenceIndex publishes its already-encoded records.
            _, index_segment, index_fingerprint = build_pool_payloads(
                ReferenceIndex(ref), plan
            )
            index_segment.destroy()
            assert index_fingerprint == fingerprint
            assert len(payloads) == 3
            assert all(isinstance(p, SharedRecordPayload) for p in payloads)
            assert len({id(p) for p in payloads}) == 1  # one published copy
            assert fingerprint == segment.meta.fingerprint
            attached = payloads[0].attach()
            views = [attached.shard_view(plan, i) for i in range(3)]
            assert [(v.num_shards, v.shard_id) for v in views] == [(3, i) for i in range(3)]
            ids = sorted(c.id for v in views for c in v.chunks(100, 20))
            assert ids == list(range(len(ids))) and len(ids) > 0
            del views  # record views pin the attachment's mapping
            attached.close()
        finally:
            segment.destroy()

    def test_prewindowed_chunks_partition(self):
        chunks = list(chunk_sequence(random_genome(1000, seed=6), 100, 20))
        plan = ShardPlan(num_shards=2)
        payloads, segment, _ = build_pool_payloads(iter(chunks), plan)
        assert segment is None
        assert all(isinstance(p, ChunkPayload) for p in payloads)
        got = [c.id for p in payloads for c in p.chunks]
        assert sorted(got) == [c.id for c in chunks]

    def test_unresolved_plan_refuses_to_window(self):
        plan = ShardPlan(num_shards=2)  # no window/overlap resolved
        payloads, segment, _ = build_pool_payloads(random_genome(500, seed=7), plan)
        attached = payloads[0].attach()
        try:
            with pytest.raises(ValidationError, match="unresolved"):
                attached.shard_view(plan, 0)
        finally:
            attached.close()
            segment.destroy()


class TestShardedSearch:
    """One-shot runs: a pool used once, torn down by its ``with`` block."""

    def test_four_shards_bit_identical_spawn(self):
        """Acceptance: 4 spawn workers return the single-process hit set."""
        ref, queries = _planted_instance(30000, 8, 100, seed=21)
        single = search_topk(queries, ref, k=5)
        with traced_spans() as spans:
            with ShardWorkerPool(ref, num_shards=4, k=5, timeout=300) as pool:
                assert pool.plan.start_method == "spawn"
                got = pool.search_topk(queries)
                stats = pool.stats
        assert _hit_keys(got) == _hit_keys(single)
        assert len(stats.as_dict()["last_run"]["workers"]) == 4
        assert stats.snapshot()["last_run"]["totals"]["pairs"] > 0
        # Each shard's reply-queue dwell: a pool.command span attribute and
        # the per-shard gauge.
        commands = [s for s in spans if s.name == "pool.command"]
        assert sorted(s.attrs["shard"] for s in commands) == [0, 1, 2, 3]
        assert all(s.attrs["queue_wait_s"] >= 0.0 for s in commands)
        wait = get_registry().get("pool_shard_queue_wait_seconds").series()
        assert all(wait[(str(i),)] >= 0.0 for i in range(4))
        assert "Last round (4 shards, cold, spawned this round)" in pool_stats_table(stats)

    def test_single_shard_degenerate(self):
        ref, queries = _planted_instance(12000, 4, 80, seed=22)
        plan = ShardPlan(num_shards=1, search=SearchConfig(k=3), start_method="fork")
        with ShardWorkerPool(ref, plan=plan, timeout=120) as pool:
            got = pool.search_topk(queries)
        assert _hit_keys(got) == _hit_keys(search_topk(queries, ref, k=3))

    def test_multi_record_database(self):
        rng = make_rng(23)
        records = [
            FastaRecord(name=f"ctg{i}", sequence=random_genome(6000, seed=rng))
            for i in range(3)
        ]
        queries = [records[i % 3].sequence[200:280] for i in range(5)]
        plan = ShardPlan(num_shards=3, search=SearchConfig(k=4), start_method="fork")
        with ShardWorkerPool(records, plan=plan, timeout=120) as pool:
            got = pool.search_topk(queries)
        assert _hit_keys(got) == _hit_keys(search_topk(queries, records, k=4))

    def test_prewindowed_chunk_database(self):
        ref, queries = _planted_instance(10000, 3, 80, seed=24)
        chunks = list(chunk_sequence(ref, 160, 96))
        plan = ShardPlan(num_shards=2, search=SearchConfig(k=3), start_method="fork")
        with ShardWorkerPool(iter(chunks), plan=plan, timeout=120) as pool:
            got = pool.search_topk(queries)
        assert _hit_keys(got) == _hit_keys(search_topk(queries, chunks, k=3))

    def test_engine_kwarg_rejected(self):
        with pytest.raises(ValidationError, match="engine"):
            ShardWorkerPool(random_genome(500, seed=25), 2, engine=object())

    def test_plan_and_kwargs_conflict(self):
        with pytest.raises(ReproError, match="not both"):
            ShardWorkerPool(num_shards=2, plan=ShardPlan(num_shards=2), k=5)

    def test_plan_and_num_shards_conflict(self):
        with pytest.raises(ReproError, match="conflicts"):
            ShardWorkerPool(num_shards=8, plan=ShardPlan(num_shards=2))
        # A matching explicit count (or none at all) is fine.
        assert ShardWorkerPool(num_shards=2, plan=ShardPlan(num_shards=2)).num_shards == 2
        assert ShardWorkerPool(plan=ShardPlan(num_shards=2)).num_shards == 2


class _ExitBomb:
    """Payload whose shard_view kills the worker without reporting."""

    def shard_view(self, plan, shard_id):
        if shard_id == 1:
            os._exit(3)
        return iter(())


class _SilentExitBomb:
    """Payload whose shard_view exits the worker cleanly without reporting."""

    def shard_view(self, plan, shard_id):
        if shard_id == 1:
            os._exit(0)
        return iter(())


class _HangBomb:
    """Payload whose shard_view wedges the worker forever."""

    def shard_view(self, plan, shard_id):
        time.sleep(600)
        return iter(())


class _FirstCommandBomb:
    """Chunk payload whose shard 1 raises on its first command only.

    Each worker holds its own unpickled copy, so ``_fired`` is per shard.
    """

    def __init__(self, payload):
        self.payload = payload
        self._fired = False

    def shard_view(self, plan, shard_id):
        if shard_id == 1 and not self._fired:
            self._fired = True
            raise RuntimeError("injected first-command failure")
        return self.payload.shard_view(plan, shard_id)


class TestWorkerFailures:
    def _plan(self):
        return ShardPlan(num_shards=2, start_method="fork")

    def _first_command_bombed(self, chunks):
        payloads, _, _ = build_pool_payloads(iter(chunks), self._plan())
        return ShardWorkerPool(
            plan=self._plan(),
            timeout=120,
            payloads=[_FirstCommandBomb(p) for p in payloads],
        )

    def test_failed_round_leaves_no_stale_reply(self):
        """The round after a worker error equals single-process search: a
        sibling's reply to the failed round (another query set) is dropped
        by its seq."""
        ref, queries = _planted_instance(6000, 3, 80, seed=33)
        chunks = list(chunk_sequence(ref, 160, 96))
        with self._first_command_bombed(chunks) as pool:
            with pytest.raises(ShardWorkerError, match="injected first-command"):
                pool.search_topk(queries[:1])
            got = pool.search_topk(queries)
            assert pool.stats.respawns == 0
        assert _hit_keys(got) == _hit_keys(search_topk(queries, chunks))

    def test_failed_round_records_its_spans(self):
        ref, queries = _planted_instance(6000, 3, 80, seed=34)
        with traced_spans() as spans:
            with self._first_command_bombed(list(chunk_sequence(ref, 160, 96))) as pool:
                with pytest.raises(ShardWorkerError):
                    pool.search_topk(queries)
        commands = {s.attrs["shard"]: s for s in spans if s.name == "pool.command"}
        assert len(commands) == len([s for s in spans if s.name == "pool.command"])
        assert sorted(commands) == [0, 1]
        assert commands[1].attrs["error"] == "ShardWorkerError"
        (round_span,) = [s for s in spans if s.name == "pool.search_topk"]
        assert round_span.attrs["error"] == "ShardWorkerError"

    def _bombed(self, bomb, timeout=120):
        return ShardWorkerPool(plan=self._plan(), timeout=timeout, payloads=[bomb] * 2)

    def test_worker_exception_surfaces(self):
        ref, queries = _planted_instance(4000, 2, 80, seed=26)
        plan = ShardPlan(
            num_shards=2, start_method="fork",
            engine=EngineConfig(backend="no-such-backend"),
        )
        with pytest.raises(ShardWorkerError, match="worker raised"):
            with ShardWorkerPool(ref, plan=plan, timeout=120) as pool:
                pool.search_topk(queries)

    def test_worker_hard_crash_is_error_not_hang(self):
        _, queries = _planted_instance(4000, 2, 80, seed=27)
        t0 = time.perf_counter()
        with self._bombed(_ExitBomb()) as pool:
            with pytest.raises(ShardWorkerError, match="exit code 3"):
                pool.search_topk(queries)
        assert time.perf_counter() - t0 < 60

    def test_silent_exit0_death_is_error_not_hang(self, monkeypatch):
        """Exit code 0 without a result must not satisfy the gather loop."""
        import repro.shard.pool as shard_pool

        monkeypatch.setattr(shard_pool, "_DEAD_GRACE_S", 0.5)
        _, queries = _planted_instance(4000, 2, 80, seed=29)
        t0 = time.perf_counter()
        with self._bombed(_SilentExitBomb()) as pool:
            with pytest.raises(ShardWorkerError, match="never reported"):
                pool.search_topk(queries)
        assert time.perf_counter() - t0 < 60

    def test_gather_timeout(self):
        _, queries = _planted_instance(4000, 2, 80, seed=28)
        with self._bombed(_HangBomb(), timeout=2.0) as pool:
            with pytest.raises(ShardError, match="timed out"):
                pool.search_topk(queries)


class TestShardRouter:
    def test_sync_client_drives_router_unchanged(self):
        ref, queries = _planted_instance(12000, 3, 80, seed=32)
        plan = ShardPlan(
            num_shards=2, search=SearchConfig(k=3), start_method="fork"
        )
        with ShardWorkerPool(ref, plan=plan, timeout=120) as pool:
            router = ShardRouter(2, pool=pool, search_kwargs={"k": 3})
            with SyncAlignmentClient(service=router) as client:
                hits = client.search(queries[0])
                scores = client.score_many([(q, ref[:80]) for q in queries])
            assert router.closed and not pool.closed
        single = search_topk([queries[0]], ref, k=3)[0]
        assert _hit_keys([hits]) == _hit_keys([single])
        with ExecutionEngine(backend="rowscan") as eng:
            direct = [int(x) for x in eng.submit_batch(queries, [ref[:80]] * len(queries))]
        assert scores == direct
