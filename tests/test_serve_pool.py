"""Tests for the pool-served front door: ``AlignmentService(pool=...)``.

A service given a resident :class:`~repro.shard.ShardWorkerPool` serves
``submit_search`` / ``submit_map`` from the pool's workers through the
same admit → micro-batch → deadline-gated execute → resolve path as every
other request kind.  Covered here:

* coalescing — a burst of concurrent requests takes fewer pool rounds
  than requests, and each still gets exactly its lone answer;

* healing — a dead pool worker never gates admission: the next request
  respawns the pool and returns oracle-identical placements;
* admission — SLO shedding, deadlines and drain-on-close apply to
  pool-served requests exactly as to local ones, and accepted results stay
  bit-identical to the single-process oracles;
* construction — ``database=`` and ``pool=`` are exclusive, and the
  ``ShardRouter`` alias builds a pool-served service.

Search/map parity of the pool-served path and the sync client live with
their subsystems' suites (``test_shard_pool``, ``test_mapping``,
``test_shard``).
"""

import asyncio
import os
import signal

import pytest

from repro.mapping import map_one, placement_key
from repro.obs import SLObjective, SLOTracker
from repro.search import SearchConfig, search_one, search_topk
from repro.serve import (
    AlignmentService,
    DeadlineExceededError,
    Priority,
    ServiceOverloadedError,
)
from repro.shard import ShardPlan, ShardRouter, ShardWorkerPool
from repro.util.checks import ValidationError
from repro.workloads.reads import read_pairs

from helpers import hit_keys, mixed_burst, planted_instance

MIN_SCORE = 120  # 0.75 x perfect for 80 bp reads at match=+2


def _plan(num_shards=2, **search_kw):
    return ShardPlan(
        num_shards=num_shards, search=SearchConfig(**search_kw), start_method="fork"
    )


def _keys(placements):
    return [placement_key(p) for p in placements]


@pytest.fixture(scope="module")
def reads():
    rs = read_pairs(8, read_length=80, reference_length=12_000, seed=7)
    return rs.reads, rs.reference


class TestConstruction:
    def test_database_and_pool_are_exclusive(self):
        pool = ShardWorkerPool(plan=_plan())
        with pytest.raises(ValidationError, match="not both"):
            AlignmentService(database="ACGT" * 10, pool=pool)


class TestHealing:
    def test_dead_worker_heals_on_next_request(self, reads):
        reads, ref = reads
        want = _keys(map_one(reads[0], ref, min_score=MIN_SCORE))

        async def main(pool):
            async with AlignmentService(
                pool=pool, map_kwargs={"min_score": MIN_SCORE}
            ) as svc:
                assert _keys(await svc.submit_map(reads[0])) == want
                victim = pool._procs[1]
                os.kill(victim.pid, signal.SIGKILL)
                victim.join()
                assert not svc.health.readiness().healthy
                # The dead worker gates nothing: the next request is
                # admitted, its pool call respawns the workers, and the
                # answer is still the oracle's.
                healed = await svc.submit_map(reads[0])
                return healed, svc.health.readiness()

        with ShardWorkerPool(ref, plan=_plan(), timeout=120) as pool:
            healed, verdict = asyncio.run(main(pool))
            assert pool.stats.respawns == pool.num_shards
        assert _keys(healed) == want
        assert verdict.healthy, verdict.failing()


class TestAdmission:
    def test_bulk_shed_under_fast_burn(self):
        ref, queries, _ = planted_instance(8000, 3, 80, seed=81)
        clock = [1000.0]
        tracker = SLOTracker(
            [
                # Impossible latency bound: every NORMAL completion is bad.
                SLObjective(
                    name="normal", target=0.99, latency_s=1e-9, priority="NORMAL"
                ),
                SLObjective(
                    name="interactive", target=0.5, latency_s=30.0,
                    priority="INTERACTIVE",
                ),
            ],
            clock=lambda: clock[0],
        )
        with ShardWorkerPool(ref, plan=_plan(k=3), timeout=120) as pool:

            async def main():
                async with AlignmentService(
                    pool=pool, search_kwargs={"k": 3}, slo=tracker
                ) as svc:
                    before = [
                        await svc.submit_search(q, priority=Priority.INTERACTIVE)
                        for q in queries
                    ]
                    # Pool-served completions feed the SLO tracker.
                    assert tracker.budget("interactive")["events"] == len(queries)
                    for _ in range(30):
                        await svc.submit_search(queries[0])
                        clock[0] += 1.0
                    assert tracker.budget("normal")["bad"] == 30
                    assert tracker.fast_burn_active()
                    searches = pool.stats.searches
                    with pytest.raises(ServiceOverloadedError, match="shed"):
                        await svc.submit_search(queries[0], priority=Priority.BULK)
                    assert pool.stats.searches == searches  # never reached it
                    during = [
                        await svc.submit_search(q, priority=Priority.INTERACTIVE)
                        for q in queries
                    ]
                    shed = svc.scrape_registry().get("serve_admission_rejected_total")
                    return before, during, shed.value(cause="shed", priority="BULK")

            before, during, shed = asyncio.run(main())
        assert shed == 1
        assert tracker.budget("interactive")["bad"] == 0
        oracle = hit_keys(search_topk(queries, ref, k=3))
        assert hit_keys(before) == hit_keys(during) == oracle

    def test_zero_timeout_never_reaches_pool(self, reads):
        reads, ref = reads

        async def main(pool):
            async with AlignmentService(
                pool=pool, map_kwargs={"min_score": MIN_SCORE}
            ) as svc:
                with pytest.raises(DeadlineExceededError):
                    await svc.submit_map(reads[0], timeout=0)
                return svc.stats.snapshot()["deadline_exceeded"]

        with ShardWorkerPool(ref, plan=_plan()) as pool:
            pool.start()
            expired = asyncio.run(main(pool))
            assert pool.stats.searches == 0
        assert expired == {"dispatch": 1}  # the batcher's gate, as for scores

    def test_close_resolves_inflight_pool_request(self, reads):
        reads, ref = reads

        async def main(pool):
            svc = AlignmentService(pool=pool, map_kwargs={"min_score": MIN_SCORE})
            svc.start()
            task = asyncio.ensure_future(svc.submit_map(reads[0]))
            await asyncio.sleep(0)  # admitted and dispatched, not yet done
            assert svc.queue_depth == 1
            await svc.close()
            assert task.done()
            return task.result()

        with ShardWorkerPool(ref, plan=_plan()) as pool:
            placements = asyncio.run(main(pool))
        assert _keys(placements) == _keys(map_one(reads[0], ref, min_score=MIN_SCORE))


class TestCoalescing:
    def test_burst_matches_lone_answers_in_fewer_rounds(self):
        # Concurrent requests of one length and config share one pool
        # round; mixed lengths and overrides land in separate rounds.
        ref, burst = mixed_burst(seed=73)

        async def main(pool):
            async with AlignmentService(
                pool=pool,
                search_kwargs={"k": 5, "min_score": MIN_SCORE},
                map_kwargs={"min_score": MIN_SCORE},
            ) as svc:
                hits = await asyncio.gather(
                    *(svc.submit_search(q, **o) for q, o in burst)
                )
                rounds = pool.stats.searches
                maps = await asyncio.gather(*(svc.submit_map(q, **o) for q, o in burst))
                map_rounds = pool.stats.searches - rounds
                return hits, maps, rounds, map_rounds, svc.stats.batches

        with ShardWorkerPool(ref, plan=_plan(), timeout=120) as pool:
            pool.start()
            hits, maps, search_rounds, map_rounds, batches = asyncio.run(main(pool))
        assert 4 <= search_rounds < len(burst)
        assert 4 <= map_rounds < len(burst)
        assert batches == search_rounds + map_rounds  # one round per bucket
        kw = {"k": 5, "min_score": MIN_SCORE}
        lone = [search_one(q, ref, **{**kw, **o}) for q, o in burst]
        assert hit_keys(hits) == hit_keys(lone)
        assert any(hits)
        for (q, o), got in zip(burst, maps):
            want = map_one(q, ref, min_score=MIN_SCORE, **o)
            assert [(placement_key(p), p.score) for p in got] == [
                (placement_key(p), p.score) for p in want
            ]


class TestShardRouterAlias:
    def test_alias_is_a_pool_served_service(self):
        with ShardWorkerPool(plan=_plan()) as pool:
            svc = ShardRouter(num_shards=2, pool=pool)
            assert isinstance(svc, AlignmentService) and svc.pool is pool
            with pytest.raises(ValidationError, match="num_shards"):
                ShardRouter(num_shards=3, pool=pool)
