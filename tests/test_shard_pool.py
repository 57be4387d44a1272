"""Tests for the persistent shard worker pool (repro.shard.pool / shm).

Covers the two satellite checklists of the pool PR:

* shared-memory lifecycle — the segment is unlinked on pool close *and*
  after worker crashes, no ``/dev/shm`` entry leaks, double-close is
  idempotent, and a worker attaching after a reference swap sees the new
  reference (old hits impossible);
* pool reuse — two warm ``search_topk`` calls return bit-identical
  results to two fresh one-shot pool runs and to the ``exhaustive_topk``
  oracle, and a worker killed between calls is respawned (or surfaced)
  rather than wedging the next call;
* call validation — a bad per-call override or a scheme the workers
  cannot serve fails in the parent, sends no command, and leaves the
  pool's cold/warm accounting intact.
"""

import glob
import os
import pickle
import time

import pytest

from repro.core.scoring import (
    linear_gap_scoring,
    semiglobal_scheme,
    simple_subst_scoring,
)
from repro.engine import EngineConfig
from repro.mapping import MappingConfig, map_reads, placement_key
from repro.search import SearchConfig, search_topk
from repro.search.pipeline import exhaustive_topk
from repro.shard import (
    ChunkPayload,
    ShardError,
    ShardPlan,
    ShardWorkerError,
    ShardWorkerPool,
    build_pool_payloads,
    publish_records,
)
from repro.shard.shm import SEGMENT_PREFIX, attach_segment, fingerprint_records
from repro.util.checks import ReproError, ValidationError
from repro.util.encoding import encode
from repro.workloads import FastaRecord, chunk_sequence, random_genome
from repro.workloads.reads import read_pairs

from helpers import hit_keys, planted_instance, traced_spans


def _shm_entries():
    return glob.glob(f"/dev/shm/{SEGMENT_PREFIX}-*")


class _FailingSwapPayload:
    """Swap payload whose worker-side attach always raises.

    Module-level so it pickles across the command queue; the worker's
    ``_attach`` finds the ``attach`` method and the raise surfaces as an
    ``("error", ...)`` reply mid-swap.
    """

    def attach(self):
        raise RuntimeError("injected swap failure")


def _oracle_keys(per_query):
    """Reduced identity for oracle parity: the prefilterless oracle never
    counts seeds, so compare everything but ``h.seeds`` (as test_search
    does)."""
    return [[(h.start, h.score, h.chunk_id) for h in hits] for hits in per_query]


def _plan(num_shards=2, **search):
    return ShardPlan(
        num_shards=num_shards,
        search=SearchConfig(**search),
        start_method="fork",
    )


@pytest.fixture(autouse=True)
def no_segment_leaks():
    """Every test must leave /dev/shm exactly as it found it."""
    before = set(_shm_entries())
    yield
    leaked = set(_shm_entries()) - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


class TestSharedMemoryLifecycle:
    def _records(self, n=3, length=400, seed=50):
        return tuple(
            (f"r{i}", encode(random_genome(length, seed=seed + i))) for i in range(n)
        )

    def test_publish_attach_roundtrip_readonly(self):
        records = self._records()
        seg = publish_records(records)
        assert os.path.exists(f"/dev/shm/{seg.name}")
        ref = attach_segment(seg.meta)
        got = ref.records()
        assert [name for name, _ in got] == [name for name, _ in records]
        for (_, view), (_, codes) in zip(got, records):
            assert (view == codes).all()
            assert not view.flags.writeable
        del got, view, codes  # exported views would pin the worker mapping
        ref.close()
        seg.destroy()
        assert not os.path.exists(f"/dev/shm/{seg.name}")

    def test_destroy_and_close_are_idempotent(self):
        seg = publish_records(self._records(1))
        seg.destroy()
        seg.destroy()
        seg.close()
        seg.unlink()  # no FileNotFoundError either

    def test_unlink_while_attached_keeps_memory_alive(self):
        """POSIX semantics the swap relies on: readers outlive the name."""
        records = self._records(1)
        seg = publish_records(records)
        ref = attach_segment(seg.meta)
        seg.destroy()
        assert not os.path.exists(f"/dev/shm/{seg.name}")
        (_, view), = ref.records()
        assert (view == records[0][1]).all()  # still readable, name gone
        del view
        ref.close()

    def test_attach_after_destroy_is_clean_error(self):
        seg = publish_records(self._records(1))
        meta = seg.meta
        seg.destroy()
        with pytest.raises(ReproError, match="gone"):
            attach_segment(meta)

    def test_meta_is_picklable_and_fingerprinted(self):
        records = self._records()
        seg = publish_records(records)
        try:
            clone = pickle.loads(pickle.dumps(seg.meta))
            assert clone == seg.meta
            assert clone.fingerprint == seg.meta.fingerprint
            other = publish_records(self._records(seed=99))
            try:
                assert other.meta.fingerprint != seg.meta.fingerprint
            finally:
                other.destroy()
        finally:
            seg.destroy()

    def test_fingerprint_encoding_is_injective(self):
        """Field boundaries must be hashed: shifting bytes between the
        name and the codes (or between adjacent records) must change the
        fingerprint, else a collision makes a pool skip a needed swap."""
        import numpy as np

        a = fingerprint_records((("ab", np.array([1, 2], dtype=np.uint8)),))
        b = fingerprint_records((("a", np.array([0x62, 1, 2], dtype=np.uint8)),))
        assert a != b
        one = fingerprint_records((("r", np.array([1, 2, 3], dtype=np.uint8)),))
        split = fingerprint_records(
            (
                ("r", np.array([1, 2], dtype=np.uint8)),
                ("r", np.array([3], dtype=np.uint8)),
            )
        )
        assert one != split

    def test_empty_records_publish_minimal_segment(self):
        seg = publish_records(())
        try:
            assert seg.meta.size == 1 and seg.meta.records == ()
        finally:
            seg.destroy()

    def test_chunk_database_ships_pickled_without_segment(self):
        chunks = list(chunk_sequence(random_genome(1500, seed=53), 150, 30))
        payloads, seg, fingerprint = build_pool_payloads(iter(chunks), _plan())
        assert seg is None
        assert all(isinstance(p, ChunkPayload) for p in payloads)
        # The fingerprint is a pure function of the chunk list's content.
        assert fingerprint == build_pool_payloads(chunks, _plan())[2]
        shifted = list(chunk_sequence(random_genome(1500, seed=54), 150, 30))
        assert fingerprint != build_pool_payloads(shifted, _plan())[2]


class TestPoolLifecycle:
    def test_segment_unlinked_on_close_and_double_close(self):
        ref, queries, _ = planted_instance(8000, 3, 80, seed=54)
        pool = ShardWorkerPool(ref, plan=_plan(k=3), timeout=120)
        pool.start()
        name = pool.segment_name
        assert name and os.path.exists(f"/dev/shm/{name}")
        pool.close()
        assert not os.path.exists(f"/dev/shm/{name}")
        pool.close()  # idempotent
        with pytest.raises(ShardError, match="closed"):
            pool.search_topk(queries)

    def test_segment_unlinked_after_worker_crashes(self):
        ref, _, _ = planted_instance(6000, 2, 80, seed=55)
        with ShardWorkerPool(ref, plan=_plan(k=3), timeout=120) as pool:
            pool.start()
            name = pool.segment_name
            for proc in pool._procs:
                proc.terminate()
                proc.join()
        assert not os.path.exists(f"/dev/shm/{name}")

    def test_worker_startup_error_does_not_leak_segment(self):
        ref, queries, _ = planted_instance(4000, 2, 80, seed=56)
        plan = ShardPlan(
            num_shards=2,
            search=SearchConfig(k=3),
            engine=EngineConfig(backend="no-such-backend"),
            start_method="fork",
        )
        pool = ShardWorkerPool(ref, plan=plan, timeout=120)
        with pytest.raises(ShardWorkerError, match="worker raised"):
            pool.start()
        assert pool.closed  # a failed start closes the pool

    def test_swap_unlinks_old_segment_and_serves_new_reference(self):
        ref1, queries1, _ = planted_instance(8000, 3, 80, seed=57)
        ref2, queries2, _ = planted_instance(9000, 3, 80, seed=58)
        with ShardWorkerPool(ref1, plan=_plan(k=3), timeout=120) as pool:
            before = pool.search_topk(queries1)
            old, old_fingerprint = pool.segment_name, pool.fingerprint
            pool.swap_reference(ref2)
            assert pool.segment_name != old
            assert not os.path.exists(f"/dev/shm/{old}")
            # Attach-after-swap: results now come from ref2, matching a
            # single-process run over ref2 exactly.
            got = pool.search_topk(queries2)
            assert hit_keys(got) == hit_keys(search_topk(queries2, ref2, k=3))
            _, segment, fingerprint = build_pool_payloads(ref2, _plan())
            segment.destroy()
            assert pool.fingerprint == fingerprint != old_fingerprint
            assert pool.stats.swaps == 1
        assert hit_keys(before) == hit_keys(search_topk(queries1, ref1, k=3))

    def test_failed_swap_breaks_pool_and_old_reference_survives(self, monkeypatch):
        """A swap one worker fails must not leave a mixed-reference pool.

        Workers that acked the swap sit on the new reference; the pool
        keeps the old payloads.  The failure must break the pool so the
        next call respawns everyone onto the old reference — results
        after a failed swap match the old reference exactly, never a
        merge across both.
        """
        import repro.shard.pool as pool_mod

        ref1, queries, _ = planted_instance(8000, 3, 80, seed=71)
        ref2, _, _ = planted_instance(9000, 3, 80, seed=72)
        with ShardWorkerPool(ref1, plan=_plan(k=3), timeout=120) as pool:
            first = pool.search_topk(queries)
            fingerprint = pool.fingerprint
            entries_before = set(_shm_entries())
            real_build = pool_mod.build_pool_payloads

            def sabotage(database, plan):
                payloads, segment, fingerprint = real_build(database, plan)
                payloads[1] = _FailingSwapPayload()
                return payloads, segment, fingerprint

            monkeypatch.setattr(pool_mod, "build_pool_payloads", sabotage)
            with pytest.raises(ShardWorkerError, match="injected swap failure"):
                pool.swap_reference(ref2)
            monkeypatch.undo()
            # New segment destroyed, old one intact; pool still serves ref1.
            assert set(_shm_entries()) == entries_before
            assert pool.fingerprint == fingerprint
            # Every worker respawns onto the old payloads: bit-identical
            # to the pre-swap answer, no half-swapped worker surviving.
            after = pool.search_topk(queries)
            assert pool.stats.respawns == pool.num_shards
            assert hit_keys(after) == hit_keys(first)
            assert hit_keys(after) == hit_keys(search_topk(queries, ref1, k=3))

    def test_one_shot_pool_tears_down(self):
        ref, queries, _ = planted_instance(6000, 2, 80, seed=68)
        with traced_spans() as spans:
            with ShardWorkerPool(ref, plan=_plan(k=3), timeout=120) as pool:
                got = pool.search_topk(queries)
        assert pool.closed and pool.liveness() is None  # nothing resident
        assert not _shm_entries()
        assert hit_keys(got) == hit_keys(search_topk(queries, ref, k=3))
        assert pool.stats.last_round[0] is False
        # The lazy start paid the spawn inside the round, as one region.
        (round_span,) = [s for s in spans if s.name == "pool.search_topk"]
        (spawn,) = [s for s in spans if s.name == "pool.spawn"]
        assert spawn.parent_id == round_span.span_id and spawn.dur_us > 0

    def test_ping_and_report(self):
        ref, _, _ = planted_instance(4000, 2, 80, seed=59)
        with ShardWorkerPool(ref, plan=_plan(), timeout=120) as pool:
            rtts = pool.ping()
            assert len(rtts) == 2 and all(r >= 0 for r in rtts)
            assert "Shard worker pool" in pool.report()
            assert pool.stats.pings == 1

    def test_max_concurrent_is_host_clamped_and_overridable(self, monkeypatch):
        ref, queries, _ = planted_instance(6000, 2, 60, seed=60)
        cores = os.cpu_count() or 1
        pool = ShardWorkerPool(ref, plan=_plan(num_shards=4, k=2), timeout=120)
        assert pool.max_concurrent == min(4, cores)
        pool.close()
        # A one-core host clamps a 4-shard pool to one command in flight:
        # each shard's round trip starts only after the previous one ended.
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        with traced_spans() as spans:
            with ShardWorkerPool(ref, plan=_plan(num_shards=4, k=2), timeout=120) as pool:
                assert pool.max_concurrent == 1
                got = pool.search_topk(queries)
        assert hit_keys(got) == hit_keys(search_topk(queries, ref, k=2))
        trips = sorted(
            (s for s in spans if s.name == "pool.command"), key=lambda s: s.start_us
        )
        assert [s.attrs["shard"] for s in trips] == [0, 1, 2, 3]
        for prev, nxt in zip(trips, trips[1:]):
            assert nxt.start_us >= prev.start_us + prev.dur_us - 1000.0


class TestPoolReuse:
    def test_warm_calls_bit_identical_to_fresh_runs_and_oracle(self):
        """Acceptance: warm reuse changes nothing about the answer."""
        ref, queries, _ = planted_instance(6000, 3, 60, seed=61)
        # Full verify + a floor, the repo's oracle-parity convention: the
        # default banded tail may differ from the oracle on sub-band
        # shoulder placements (as test_search pins separately).
        kw = dict(k=3, min_score=80, min_seeds=1, verify="full")
        with ShardWorkerPool(ref, plan=_plan(**kw), timeout=120) as pool:
            warm1 = pool.search_topk(queries)
            warm2 = pool.search_topk(queries)
            assert pool.stats.warm_searches == 1
            assert pool.stats.cold_searches == 1
            assert pool.stats.spawns == 2  # workers spawned exactly once
        fresh = []
        for _ in range(2):
            with ShardWorkerPool(ref, plan=_plan(**kw), timeout=120) as one_shot:
                fresh.append(one_shot.search_topk(queries))
        fresh1, fresh2 = fresh
        oracle = exhaustive_topk(
            queries, ref, k=3, min_score=80, window=120, overlap=76
        )
        assert (
            hit_keys(warm1)
            == hit_keys(warm2)
            == hit_keys(fresh1)
            == hit_keys(fresh2)
        )
        assert _oracle_keys(warm1) == _oracle_keys(oracle)

    def test_worker_killed_between_calls_is_respawned(self):
        ref, queries, _ = planted_instance(8000, 3, 80, seed=62)
        with ShardWorkerPool(ref, plan=_plan(k=3), timeout=120) as pool:
            first = pool.search_topk(queries)
            pool._procs[1].terminate()
            pool._procs[1].join()
            second = pool.search_topk(queries)  # must not wedge
            assert hit_keys(second) == hit_keys(first)
            # Healing is all-or-nothing (the shared result queue is
            # rebuilt, so every worker respawns, not just the dead one).
            assert pool.stats.respawns == pool.num_shards
            assert pool.stats.last_round[0] is False  # respawn = cold again
            third = pool.search_topk(queries)
            assert hit_keys(third) == hit_keys(first)
            assert pool.stats.last_round[0] is True

    def test_per_call_overrides_do_not_stick(self):
        ref, queries, _ = planted_instance(6000, 3, 60, seed=63)
        with ShardWorkerPool(ref, plan=_plan(k=5), timeout=120) as pool:
            narrow = pool.search_topk(queries, k=1)
            assert all(len(hits) <= 1 for hits in narrow)
            assert hit_keys(narrow) == hit_keys(search_topk(queries, ref, k=1))
            wide = pool.search_topk(queries)
            assert hit_keys(wide) == hit_keys(search_topk(queries, ref, k=5))

    def test_chunk_database_pool_uses_pickle_transport(self):
        ref, queries, _ = planted_instance(6000, 2, 80, seed=64)
        chunks = list(chunk_sequence(ref, 160, 96))
        with ShardWorkerPool(iter(chunks), plan=_plan(k=3), timeout=120) as pool:
            got = pool.search_topk(queries)
            again = pool.search_topk(queries)
            assert pool.stats.transport == "pickle"
            assert pool.segment_name is None
        expect = search_topk(queries, chunks, k=3)
        assert hit_keys(got) == hit_keys(again) == hit_keys(expect)

    def test_multi_record_database_round_trips(self):
        records = [
            FastaRecord(name=f"ctg{i}", sequence=random_genome(3000, seed=65 + i))
            for i in range(3)
        ]
        queries = [records[i].sequence[100:180] for i in range(3)]
        with ShardWorkerPool(records, plan=_plan(num_shards=3, k=4), timeout=120) as pool:
            got = pool.search_topk(queries)
            assert hit_keys(got) == hit_keys(search_topk(queries, records, k=4))


class TestRouterWithPool:
    def test_router_serves_searches_from_resident_pool(self):
        """``ShardRouter(pool=...)`` is ``AlignmentService(pool=...)``."""
        import asyncio

        from repro.serve import AlignmentService
        from repro.shard import ShardRouter

        ref, queries, _ = planted_instance(8000, 3, 80, seed=70)
        with ShardWorkerPool(ref, plan=_plan(k=3), timeout=120) as pool:
            pool.start()

            async def run():
                router = ShardRouter(2, pool=pool, search_kwargs={"k": 3})
                assert isinstance(router, AlignmentService)
                async with router:
                    hits = [await router.submit_search(q) for q in queries]
                    score = await router.submit(queries[0], ref[:80])
                    text = router.report()
                return hits, score, text

            hits, score, text = asyncio.run(run())
            # Router is a borrower: closing it left the pool running.
            assert not pool.closed
            assert pool.stats.searches == len(queries)
            assert "Resident pool" in text
        single = search_topk(queries, ref, k=3)
        assert hit_keys([[h for h in hs] for hs in hits]) == hit_keys(single)
        assert isinstance(score, int)


class TestCallValidation:
    """Bad per-call input fails in the parent, before any command is sent."""

    def _other_scheme(self):
        return semiglobal_scheme(linear_gap_scoring(simple_subst_scoring(3, -2), -2))

    def test_bad_override_keeps_the_cold_flag(self):
        ref, queries, _ = planted_instance(6000, 2, 80, seed=73)
        with ShardWorkerPool(ref, plan=_plan(k=3), timeout=120) as pool:
            with pytest.raises(ValidationError, match="bogus"):
                pool.search_topk(queries, bogus=1)
            assert not pool.started  # validated before the workers spawned
            got = pool.search_topk(queries)
            assert pool.stats.cold_searches == 1
            assert pool.stats.warm_searches == 0
            assert pool.stats.last_round[0] is False
        assert hit_keys(got) == hit_keys(search_topk(queries, ref, k=3))

    def test_search_scheme_mismatch_fails_in_parent(self):
        ref, queries, _ = planted_instance(6000, 2, 80, seed=74)
        with ShardWorkerPool(ref, plan=_plan(k=3), timeout=120) as pool:
            first = pool.search_topk(queries)
            seq = pool._seq
            with pytest.raises(ValidationError, match="scheme"):
                pool.search_topk(queries, scheme=self._other_scheme())
            assert pool._seq == seq and pool.stats.searches == 1  # nothing sent
            after = pool.search_topk(queries)
            assert pool.stats.respawns == 0
        assert hit_keys(after) == hit_keys(first)
        assert hit_keys(after) == hit_keys(search_topk(queries, ref, k=3))

    def test_map_scheme_mismatch_fails_in_parent(self):
        rs = read_pairs(6, read_length=80, reference_length=6000, seed=75)
        reads = [rs.reads[i] for i in range(len(rs))]
        other = MappingConfig(search=SearchConfig(verify="full", scheme=self._other_scheme()))
        with ShardWorkerPool(rs.reference, plan=_plan(), timeout=120) as pool:
            with pytest.raises(ValidationError, match="scheme"):
                pool.map_topk(reads, config=other)
            assert not pool.started and pool._seq == 0  # nothing sent
            got = pool.map_topk(reads, min_score=120)
            assert pool.stats.cold_searches == 1
        want = map_reads(rs, rs.reference, min_score=120).placements
        assert [[placement_key(p) for p in ps] for ps in got] == [
            [placement_key(p) for p in ps] for ps in want
        ]

