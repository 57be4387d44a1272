"""Tests for the online serving subsystem (repro.serve)."""

import asyncio
import time

import numpy as np
import pytest

from repro.engine import ExecutionEngine
from repro.perf.report import service_stats_table
from repro.search import search_one
from repro.serve import (
    AlignmentService,
    DeadlineExceededError,
    MicroBatcher,
    PendingRequest,
    Priority,
    ServiceClosedError,
    ServiceOverloadedError,
    SyncAlignmentClient,
)
from repro.util.checks import ReproError, ValidationError
from repro.util.rng import make_rng
from repro.workloads import MutationModel, mutate, random_genome


def _pairs(count, seed=5, lengths=(24, 40, 64)):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        q = "".join(rng.choice(list("ACGT"), int(rng.choice(lengths))))
        s = "".join(rng.choice(list("ACGT"), int(rng.choice(lengths))))
        out.append((q, s))
    return out


def _req(key, qlen=8, slen=8, priority=Priority.NORMAL, kind="score"):
    loop = asyncio.new_event_loop()
    fut = loop.create_future()
    loop.close()
    return PendingRequest(
        key=key,
        kind=kind,
        query=np.zeros(qlen, dtype=np.uint8),
        subject=np.zeros(slen, dtype=np.uint8),
        future=fut,
        priority=priority,
    )


class TestMicroBatcher:
    def test_full_bucket_returned_on_target(self):
        mb = MicroBatcher(target_batch=3, max_linger=1.0)
        assert mb.add(_req(0), now=0.0) is None
        assert mb.add(_req(1), now=0.1) is None
        full = mb.add(_req(2), now=0.2)
        assert full is not None and len(full) == 3
        assert mb.pending == 0

    def test_shapes_bucket_separately(self):
        mb = MicroBatcher(target_batch=2, max_linger=1.0)
        assert mb.add(_req(0, qlen=8), now=0.0) is None
        assert mb.add(_req(1, qlen=16), now=0.0) is None
        assert mb.pending == 2
        full = mb.add(_req(2, qlen=8), now=0.0)
        assert full is not None and full.shape == (8, 8)
        assert mb.pending == 1

    def test_due_pops_expired_most_urgent_first(self):
        mb = MicroBatcher(target_batch=10, max_linger=0.01)
        mb.add(_req(0, qlen=8, priority=Priority.BULK), now=0.0)
        mb.add(_req(1, qlen=16, priority=Priority.INTERACTIVE), now=0.0)
        mb.add(_req(2, qlen=32), now=1.0)  # not yet due
        due = mb.due(now=0.5, linger=0.01)
        assert [b.priority for b in due] == [Priority.INTERACTIVE, Priority.BULK]
        assert mb.pending == 1

    def test_next_due_tracks_oldest(self):
        mb = MicroBatcher(target_batch=10, max_linger=0.5)
        assert mb.next_due(0.5) is None
        mb.add(_req(0), now=2.0)
        mb.add(_req(1, qlen=16), now=1.0)
        assert mb.next_due(0.5) == pytest.approx(1.5)

    def test_adaptive_linger_shrinks_with_backlog(self):
        mb = MicroBatcher(target_batch=10, max_linger=0.01)
        idle = mb.effective_linger(0, 100)
        half = mb.effective_linger(50, 100)
        full = mb.effective_linger(100, 100)
        assert idle == pytest.approx(0.01)
        assert half == pytest.approx(0.005)
        assert full == pytest.approx(mb.min_linger)
        assert idle > half > full

    def test_flush_all_clears(self):
        mb = MicroBatcher(target_batch=10, max_linger=1.0)
        for i in range(4):
            mb.add(_req(i, qlen=8 + 8 * (i % 2)), now=0.0)
        buckets = mb.flush_all()
        assert sum(len(b) for b in buckets) == 4
        assert mb.pending == 0 and mb.flush_all() == []

    def test_validation(self):
        with pytest.raises(ValidationError):
            MicroBatcher(target_batch=0)
        with pytest.raises(ValidationError):
            MicroBatcher(max_linger=-1.0)


class TestAlignmentService:
    def test_results_bit_identical_to_direct_engine(self):
        pairs = _pairs(257)

        async def serve():
            async with AlignmentService(backend="rowscan", max_linger=0.002) as svc:
                scores = await asyncio.gather(
                    *(svc.submit(q, s) for q, s in pairs)
                )
                assert svc.stats.batches < len(pairs)  # actually micro-batched
                return scores

        served = asyncio.run(serve())
        with ExecutionEngine(backend="rowscan") as eng:
            direct = eng.submit_batch([q for q, _ in pairs], [s for _, s in pairs])
        assert served == [int(x) for x in direct]

    def test_deadline_expiry_rejects_before_execution(self):
        async def main():
            with ExecutionEngine(backend="rowscan") as eng:
                async with AlignmentService(eng, target_batch=64, max_linger=0.01) as svc:
                    with pytest.raises(DeadlineExceededError):
                        await svc.submit("ACGTACGT", "ACGTACGT", timeout=0.0)
                    # Never reached execution: the engine saw no work at all.
                    assert eng.stats.pipeline.pairs == 0
                    assert not eng.stats.backends_used
                    assert svc.stats.rejected == {"deadline": 1}
                    assert svc.stats.completed == 0

        asyncio.run(main())

    def test_deadline_tighter_than_linger_still_executes(self):
        # A servable deadline must trigger an early flush, not passively
        # expire while the bucket waits out a much longer linger bound.
        async def main():
            async with AlignmentService(
                backend="rowscan", target_batch=64, max_linger=10.0
            ) as svc:
                score = await asyncio.wait_for(
                    svc.submit("ACGT", "ACGT", timeout=0.05), timeout=5.0
                )
                assert svc.stats.rejected == {}
                return score

        assert asyncio.run(main()) == 8

    def test_linger_flush_fires_on_lone_request(self):
        async def main():
            async with AlignmentService(
                backend="rowscan", target_batch=64, max_linger=0.005
            ) as svc:
                score = await asyncio.wait_for(svc.submit("ACGT", "ACGT"), timeout=5.0)
                assert svc.stats.flush_causes == {"linger": 1}
                assert svc.stats.occupancy == {1: 1}
                return score

        assert asyncio.run(main()) == 8  # 4 matches x +2

    def test_drain_on_close_resolves_all_inflight(self):
        pairs = _pairs(17, seed=9, lengths=(16, 24))

        async def main():
            svc = AlignmentService(backend="rowscan", target_batch=64, max_linger=30.0)
            async with svc:
                tasks = [
                    asyncio.create_task(svc.submit(q, s)) for q, s in pairs
                ]
                await asyncio.sleep(0.01)
                assert svc.queue_depth == len(pairs)  # all buffered, none flushed
            # __aexit__ drained: every future resolved with a real score.
            scores = await asyncio.gather(*tasks)
            assert svc.stats.flush_causes.get("drain", 0) >= 1
            return scores

        scores = asyncio.run(main())
        with ExecutionEngine(backend="rowscan") as eng:
            direct = eng.submit_batch([q for q, _ in pairs], [s for _, s in pairs])
        assert scores == [int(x) for x in direct]

    def test_queue_full_rejection_and_priority_classes(self):
        async def main():
            async with AlignmentService(
                backend="rowscan",
                max_queue_depth=4,
                bulk_fraction=0.5,
                target_batch=100,
                max_linger=30.0,
            ) as svc:
                tasks = [
                    asyncio.create_task(svc.submit("ACGTACGT", "ACGTACGT"))
                    for _ in range(2)
                ]
                await asyncio.sleep(0.005)
                # Depth 2 = bulk capacity (4 * 0.5): BULK is turned away...
                with pytest.raises(ServiceOverloadedError):
                    await svc.submit("ACGT", "ACGT", priority=Priority.BULK)
                # ...while NORMAL still fits.
                tasks += [
                    asyncio.create_task(svc.submit("ACGTACGT", "ACGTACGT"))
                    for _ in range(2)
                ]
                await asyncio.sleep(0.005)
                with pytest.raises(ServiceOverloadedError):
                    await svc.submit("ACGT", "ACGT")
                assert svc.stats.rejected == {"queue_full": 2}
            # close() drained the buffered bucket; every admitted future resolved
            await asyncio.gather(*tasks)

        asyncio.run(main())

    def test_closed_service_rejects_new_requests(self):
        async def main():
            svc = AlignmentService(backend="rowscan")
            async with svc:
                assert await svc.submit("ACGT", "ACGT") == 8
            with pytest.raises(ServiceClosedError):
                await svc.submit("ACGT", "ACGT")
            await svc.close()  # double close is a no-op

        asyncio.run(main())

    def test_align_requests_micro_batch(self):
        pairs = _pairs(9, seed=11, lengths=(20,))

        async def main():
            async with AlignmentService(backend="rowscan", max_linger=0.002) as svc:
                return await asyncio.gather(
                    *(svc.submit_align(q, s) for q, s in pairs)
                )

        results = asyncio.run(main())
        with ExecutionEngine(backend="rowscan") as eng:
            direct = eng.align_batch([q for q, _ in pairs], [s for _, s in pairs])
        for got, want in zip(results, direct):
            assert got.score == want.score
            assert got.query_aligned == want.query_aligned
            assert got.subject_aligned == want.subject_aligned

    def test_execution_failure_propagates_to_futures(self):
        async def main():
            eng = ExecutionEngine(backend="rowscan")
            eng.close()  # a closed engine must fail the batch, not serve it
            async with AlignmentService(eng, max_linger=0.001) as svc:
                with pytest.raises(ReproError):
                    await svc.submit_align("ACGT", "ACGT")
                with pytest.raises(ReproError):
                    await svc.submit("ACGT", "ACGT")
                assert svc.stats.failed == 2

        asyncio.run(main())

    def test_deadline_checked_again_on_dispatch_thread(self):
        # A request whose deadline passes while its batch waits for a pool
        # thread must be expired by the thread-side gate, not executed —
        # and occupancy stats must count only what actually ran.
        async def main():
            async with AlignmentService(backend="rowscan", max_linger=0.001) as svc:
                ok = svc._admit("score", "ACGT", "ACGT", Priority.NORMAL, timeout=None)
                late = svc._admit("score", "ACGT", "ACGT", Priority.NORMAL, timeout=None)
                late.deadline = svc._loop.time() - 1.0  # expired in the queue
                await svc._run_batch("score", ok.shape, [ok, late], "size")
                assert await ok.future == 8
                with pytest.raises(DeadlineExceededError):
                    await late.future
                assert svc.stats.rejected == {"deadline": 1}
                assert svc.stats.occupancy == {1: 1}  # expired req filled no lane
                assert svc.engine.stats.pipeline.pairs == 1

        asyncio.run(main())

    def test_bulk_fraction_validated(self):
        with pytest.raises(ValidationError):
            AlignmentService(backend="rowscan", bulk_fraction=1.5)
        with pytest.raises(ValidationError):
            AlignmentService(backend="rowscan", bulk_fraction=-0.1)

    def test_search_routing_matches_search_one(self):
        rng = make_rng(31)
        ref = random_genome(15_000, seed=rng)
        model = MutationModel(substitution=0.02, insertion=0.001, deletion=0.001)
        query = mutate(ref[4000:4100], model, seed=rng)

        async def main():
            async with AlignmentService(
                backend="rowscan",
                database=ref,
                search_kwargs={"k": 3, "min_score": 150},
            ) as svc:
                return await svc.submit_search(query)

        hits = asyncio.run(main())
        direct = search_one(query, ref, k=3, min_score=150)
        assert [(h.record, h.start, h.score) for h in hits] == [
            (h.record, h.start, h.score) for h in direct
        ]
        assert hits and hits[0].start <= 4000 < hits[0].end

    def test_search_without_database_raises(self):
        async def main():
            async with AlignmentService(backend="rowscan") as svc:
                with pytest.raises(ValidationError):
                    await svc.submit_search("ACGTACGTACGTACGT")

        asyncio.run(main())

    def test_bad_map_override_fails_the_request(self):
        # Resolving the request's config runs after admission; a bad
        # override must resolve the future with the error, not strand it.
        async def main():
            async with AlignmentService(database="ACGT" * 50) as svc:
                with pytest.raises(ValidationError, match="unknown mapping"):
                    await asyncio.wait_for(svc.submit_map("ACGTACGT", bogus=1), 30)
                return svc.stats.failed, svc.queue_depth

        assert asyncio.run(main()) == (1, 0)

    def test_search_custom_scheme_and_engine_override_rejected(self):
        from repro.core.scoring import (
            linear_gap_scoring,
            semiglobal_scheme,
            simple_subst_scoring,
        )

        rng = make_rng(37)
        ref = random_genome(8_000, seed=rng)
        query = ref[2000:2080].copy()
        scheme = semiglobal_scheme(linear_gap_scoring(simple_subst_scoring(3, -2), -2))

        async def main():
            async with AlignmentService(
                backend="rowscan",
                database=ref,
                search_kwargs={"k": 2, "scheme": scheme},
            ) as svc:
                hits = await svc.submit_search(query)
                with pytest.raises(ValidationError):
                    await svc.submit_search(query, engine="nope")
                return hits

        hits = asyncio.run(main())
        direct = search_one(query, ref, k=2, scheme=scheme)
        assert [(h.start, h.score) for h in hits] == [
            (h.start, h.score) for h in direct
        ]
        assert hits[0].score == 3 * 80  # exact placement under the custom scheme
        with pytest.raises(ValidationError):
            AlignmentService(database=ref, search_kwargs={"engine": "nope"})

    def test_stats_table_renders(self):
        async def main():
            async with AlignmentService(backend="rowscan", max_linger=0.001) as svc:
                await asyncio.gather(
                    *(svc.submit(q, s) for q, s in _pairs(8, seed=13))
                )
                text = svc.report()
                assert "Alignment service" in text
                assert "latency p50 / p99" in text
                assert "Batch occupancy" in text
                assert service_stats_table(svc.stats)  # bare stats also accepted

        asyncio.run(main())


class TestResidentReferenceIndex:
    """``AlignmentService(database=)`` seeds every request through one index."""

    def test_invalid_reference_fails_at_construction(self):
        with pytest.raises(ValidationError, match="invalid DNA character 'N'"):
            AlignmentService(database="ACGTNNACGT" * 100)

    def test_search_and_map_match_the_full_dp_oracles(self):
        from repro.mapping import exhaustive_map, placement_key
        from repro.search import exhaustive_topk
        from repro.workloads.reads import read_pairs

        rs = read_pairs(8, read_length=80, reference_length=6_000, seed=23)
        ref = rs.reference
        reads = [rs.reads[i] for i in range(len(rs))]
        kwargs = {"k": 3, "min_score": 120}
        # Full verification: the default anchored band may clip shoulder
        # placements that the full-DP oracle keeps.
        search_kwargs = {**kwargs, "verify": "full"}

        async def main():
            async with AlignmentService(
                backend="rowscan",
                database=ref,
                search_kwargs=search_kwargs,
                map_kwargs=kwargs,
            ) as svc:
                hits = await asyncio.gather(*(svc.submit_search(r) for r in reads))
                maps = await asyncio.gather(*(svc.submit_map(r) for r in reads))
                return hits, maps

        hits, maps = asyncio.run(main())
        oracle = exhaustive_topk(reads, ref, **kwargs)
        assert [[(h.record, h.start, h.score, h.chunk_id) for h in per] for per in hits] == [
            [(h.record, h.start, h.score, h.chunk_id) for h in per] for per in oracle
        ]
        assert any(hits)
        placements = exhaustive_map(reads, ref, **kwargs).placements
        assert [[placement_key(p) for p in per] for per in maps] == [
            [placement_key(p) for p in per] for per in placements
        ]

    def test_concurrent_kmer_overrides_build_each_table_once(self, monkeypatch):
        from repro.search import resolve_windowing, search_topk, seeds
        from repro.workloads import chunk_sequence

        builds = []
        real = seeds._kmer_table

        def counting(records, k):
            builds.append(k)
            time.sleep(0.02)  # hold the build open while other requests arrive
            return real(records, k)

        monkeypatch.setattr(seeds, "_kmer_table", counting)
        rng = make_rng(43)
        ref = random_genome(20_000, seed=rng)
        model = MutationModel(substitution=0.02, insertion=0.001, deletion=0.001)
        queries = [mutate(ref[p : p + 90], model, seed=rng) for p in range(500, 19_000, 1_200)]
        kmers = [11 if i % 2 else 13 for i in range(len(queries))]

        async def main():
            async with AlignmentService(
                backend="rowscan", database=ref, dispatch_workers=8, search_kwargs={"k": 2}
            ) as svc:
                return await asyncio.gather(
                    *(svc.submit_search(q, kmer=k) for q, k in zip(queries, kmers))
                )

        served = asyncio.run(main())
        assert sorted(builds) == [11, 13]
        for q, k, hits in zip(queries, kmers, served):
            window, overlap = resolve_windowing(len(q))
            (scanned,) = search_topk([q], chunk_sequence(ref, window, overlap), k=2, kmer=k)
            assert [(h.start, h.score, h.chunk_id, h.seeds) for h in hits] == [
                (h.start, h.score, h.chunk_id, h.seeds) for h in scanned
            ]
        assert all(served)


class TestCoalescedQueries:
    """Concurrent searches and maps run as one multi-query pass per bucket,
    and each request still gets exactly its lone answer."""

    KWARGS = {"min_score": 120}  # 0.75 x perfect for 80 bp reads

    def test_burst_matches_lone_answers_in_fewer_passes(self):
        from repro.mapping import exhaustive_map, map_one, placement_key

        from helpers import hit_keys, mixed_burst

        ref, burst = mixed_burst(seed=61)

        async def main():
            async with AlignmentService(
                database=ref,
                search_kwargs={"k": 5, **self.KWARGS},
                map_kwargs=self.KWARGS,
            ) as svc:
                hits = await asyncio.gather(
                    *(svc.submit_search(q, **o) for q, o in burst)
                )
                search_batches = svc.stats.batches
                maps = await asyncio.gather(*(svc.submit_map(q, **o) for q, o in burst))
                return hits, maps, search_batches, svc.stats.batches - search_batches

        hits, maps, search_batches, map_batches = asyncio.run(main())
        # One bucket per (length, k) at least, and fewer passes than requests.
        assert 4 <= search_batches < len(burst)
        assert 4 <= map_batches < len(burst)
        lone = [search_one(q, ref, **{"k": 5, **self.KWARGS, **o}) for q, o in burst]
        assert hit_keys(hits) == hit_keys(lone)
        assert any(hits)
        for (q, o), got in zip(burst, maps):
            want = map_one(q, ref, **{**self.KWARGS, **o})
            assert [(placement_key(p), p.score) for p in got] == [
                (placement_key(p), p.score) for p in want
            ]
        # The 80 bp default-k bucket against the full-DP mapping oracle.
        group = [i for i, (q, o) in enumerate(burst) if q.size == 80 and not o]
        oracle = exhaustive_map([burst[i][0] for i in group], ref, **self.KWARGS)
        assert [[placement_key(p) for p in maps[i]] for i in group] == [
            [placement_key(p) for p in per] for per in oracle.placements
        ]

    def test_bad_requests_fail_alone_in_a_burst(self):
        from repro.mapping import map_one, placement_key

        from helpers import hit_keys, mixed_burst

        ref, burst = mixed_burst(seed=67)
        reads = [q for q, o in burst if q.size == 150 and not o]

        async def main():
            # A long linger keeps the victim buffered while it is cancelled.
            async with AlignmentService(
                database=ref,
                max_linger=0.05,
                search_kwargs=self.KWARGS,
                map_kwargs=self.KWARGS,
            ) as svc:
                good = [svc.submit_search(q) for q in reads]
                good += [svc.submit_map(q) for q in reads]
                bad = [
                    svc.submit_search("ACGTACGT"),  # shorter than kmer=11
                    svc.submit_search(reads[0], timeout=0),
                    svc.submit_map(reads[1], bogus=1),
                    svc.submit_search(reads[1], band=[32]),  # cannot key a bucket
                ]
                victim = asyncio.ensure_future(svc.submit_map(reads[2]))
                tasks = [asyncio.ensure_future(c) for c in good + bad]
                await asyncio.sleep(0)  # everything admitted and buffered
                victim.cancel()
                out = await asyncio.gather(*tasks, return_exceptions=True)
                with pytest.raises(asyncio.CancelledError):
                    await victim
                return out, svc.stats.snapshot(), svc.queue_depth

        out, snap, depth = asyncio.run(main())
        hits, maps, bad = out[: len(reads)], out[len(reads) : 2 * len(reads)], out[-4:]
        assert hit_keys(hits) == hit_keys(
            [search_one(q, ref, **self.KWARGS) for q in reads]
        )
        for q, got in zip(reads, maps):
            assert [placement_key(p) for p in got] == [
                placement_key(p) for p in map_one(q, ref, **self.KWARGS)
            ]
        assert isinstance(bad[0], ValidationError) and "shorter" in str(bad[0])
        assert isinstance(bad[1], DeadlineExceededError)
        assert isinstance(bad[2], ValidationError) and "unknown mapping" in str(bad[2])
        assert isinstance(bad[3], TypeError) and "unhashable" in str(bad[3])
        assert snap["completed"] == 2 * len(reads)
        assert snap["failed"] == 3
        assert snap["deadline_exceeded"] == {"dispatch": 1}
        assert depth == 0


class TestSyncClient:
    def test_score_and_score_many_match_direct(self):
        pairs = _pairs(65, seed=17)
        with SyncAlignmentClient(backend="rowscan", max_linger=0.002) as client:
            many = client.score_many(pairs)
            one = client.score(*pairs[0])
        with ExecutionEngine(backend="rowscan") as eng:
            direct = eng.submit_batch([q for q, _ in pairs], [s for _, s in pairs])
        assert many == [int(x) for x in direct]
        assert one == int(direct[0])

    def test_score_many_larger_than_queue_depth(self):
        # A workload bigger than the admission queue must window itself
        # instead of rejecting its own tail.
        pairs = _pairs(40, seed=19, lengths=(16,))
        with SyncAlignmentClient(
            backend="rowscan", max_linger=0.001, max_queue_depth=8
        ) as client:
            many = client.score_many(pairs)
            assert client.stats.rejected == {}
        with ExecutionEngine(backend="rowscan") as eng:
            direct = eng.submit_batch([q for q, _ in pairs], [s for _, s in pairs])
        assert many == [int(x) for x in direct]

    def test_score_many_bulk_windows_to_bulk_capacity(self):
        # BULK windows must respect the *bulk* admission cap, not the full
        # queue depth — otherwise the call rejects its own tail.
        pairs = _pairs(15, seed=21, lengths=(16,))
        with SyncAlignmentClient(
            backend="rowscan",
            max_linger=0.001,
            max_queue_depth=20,
            bulk_fraction=0.2,
        ) as client:
            many = client.score_many(pairs, priority=Priority.BULK)
            assert client.stats.rejected == {}
        with ExecutionEngine(backend="rowscan") as eng:
            direct = eng.submit_batch([q for q, _ in pairs], [s for _, s in pairs])
        assert many == [int(x) for x in direct]

    def test_align_and_report(self):
        with SyncAlignmentClient(backend="rowscan", max_linger=0.001) as client:
            res = client.align("ACGTACGT", "ACGTACGT")
            assert res.score == 16
            assert "Alignment service" in client.report()

    def test_close_is_idempotent_and_rejects_after(self):
        client = SyncAlignmentClient(backend="rowscan", max_linger=0.001)
        assert client.score("ACGT", "ACGT") == 8
        client.close()
        client.close()
        with pytest.raises(ServiceClosedError):
            client.score("ACGT", "ACGT")

    def test_failed_construction_does_not_leak_loop_thread(self):
        import threading

        svc = AlignmentService(backend="rowscan")
        asyncio.run(svc.close())  # a service that refuses to start
        before = threading.active_count()
        with pytest.raises(ServiceClosedError):
            SyncAlignmentClient(service=svc)
        assert threading.active_count() == before  # loop thread joined
