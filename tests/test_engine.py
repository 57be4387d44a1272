"""Tests for the batched execution engine (repro.engine)."""

import numpy as np
import pytest

from repro.core import Aligner
from repro.core.backend import available_backends, capability_matrix, select_backend
from repro.core.recurrence import score_reference
from repro.core.scoring import (
    default_scheme,
    linear_gap_scoring,
    local_scheme,
    simple_subst_scoring,
)
from repro.engine import (
    BatchExecutor,
    ExecutionEngine,
    PlanCache,
    PlanExecutorStage,
    Request,
    ScoreCollector,
    ShapeBatcher,
    StreamPipeline,
    encode_pairs,
    group_by_shape,
)
from repro.util.checks import ReproError, ValidationError
from repro.util.encoding import encode


def _mixed_pairs(count, seed=5, lengths=(16, 24, 40)):
    rng = np.random.default_rng(seed)
    qs, ss = [], []
    for _ in range(count):
        qs.append("".join(rng.choice(list("ACGT"), int(rng.choice(lengths)))))
        ss.append("".join(rng.choice(list("ACGT"), int(rng.choice(lengths)))))
    return qs, ss


def _refs(qs, ss, scheme):
    return [score_reference(encode(q), encode(s), scheme) for q, s in zip(qs, ss)]


class TestShapeBucketing:
    def test_groups_partition_requests(self):
        qs, ss = _mixed_pairs(30)
        enc_q, enc_s = encode_pairs(qs, ss)
        buckets = group_by_shape(enc_q, enc_s)
        seen = np.concatenate([b.indices for b in buckets])
        assert sorted(seen) == list(range(30))
        for b in buckets:
            assert b.queries.shape == (len(b), b.shape[0])
            assert b.subjects.shape == (len(b), b.shape[1])
            for row, k in zip(b.queries, b.indices):
                assert np.array_equal(row, enc_q[k])

    def test_bucket_cells(self):
        enc_q, enc_s = encode_pairs(["ACGT", "ACGT"], ["ACG", "ACG"])
        (bucket,) = group_by_shape(enc_q, enc_s)
        assert bucket.shape == (4, 3)
        assert bucket.cells == 2 * 4 * 3

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValidationError):
            encode_pairs(["AC"], ["AC", "GT"])


class TestAutoSelection:
    def test_many_short_pairs_pick_lanes(self):
        assert select_backend(default_scheme(), pairs=1000, extent=150) == "rowscan"

    def test_single_long_pair_picks_tiled(self):
        assert select_backend(default_scheme(), pairs=1, extent=100_000) == "tiled"

    def test_single_short_pair_picks_rowscan(self):
        assert select_backend(default_scheme(), pairs=1, extent=64) == "rowscan"

    def test_traceback_requires_capable_backend(self):
        name = select_backend(
            default_scheme(), pairs=1, extent=100_000, need_traceback=True
        )
        assert capability_matrix()[name].supports_traceback

    def test_never_picks_simulated_or_comparator(self):
        caps = capability_matrix()
        for pairs, extent in [(1, 50), (1, 50_000), (500, 100), (10_000, 150)]:
            name = select_backend(default_scheme(), pairs=pairs, extent=extent)
            assert not caps[name].simulated and not caps[name].comparator


class TestEngine:
    def test_submit_batch_matches_reference(self):
        qs, ss = _mixed_pairs(60)
        eng = ExecutionEngine(plan_cache=PlanCache())
        assert list(eng.submit_batch(qs, ss)) == _refs(qs, ss, eng.scheme)

    def test_every_backend_name_accepted(self):
        qs, ss = _mixed_pairs(4, seed=9, lengths=(12, 18))
        scheme = default_scheme()
        refs = _refs(qs, ss, scheme)
        eng = ExecutionEngine(scheme, plan_cache=PlanCache())
        for name in sorted(available_backends()):
            if not capability_matrix().get(name, None) and name != "auto":
                continue
            if name != "auto" and not capability_matrix()[name].supports_scheme(scheme):
                continue
            assert list(eng.submit_batch(qs, ss, backend=name)) == refs, name

    def test_local_scheme_through_comparator(self):
        scheme = local_scheme(linear_gap_scoring(simple_subst_scoring(2, -1), -1))
        qs, ss = _mixed_pairs(6, seed=2, lengths=(15, 21))
        eng = ExecutionEngine(scheme, plan_cache=PlanCache())
        assert list(eng.submit_batch(qs, ss, backend="ssw")) == _refs(qs, ss, scheme)

    def test_invalid_backend_rejected(self):
        eng = ExecutionEngine(plan_cache=PlanCache())
        with pytest.raises(ValidationError):
            eng.submit_batch(["ACGT"], ["ACGT"], backend="quantum")

    def test_empty_batch(self):
        eng = ExecutionEngine(plan_cache=PlanCache())
        assert eng.submit_batch([], []).size == 0
        assert eng.align_batch([], []) == []

    def test_align_batch_matches_scores(self):
        qs, ss = _mixed_pairs(10)
        eng = ExecutionEngine(plan_cache=PlanCache())
        results = eng.align_batch(qs, ss)
        assert [r.score for r in results] == _refs(qs, ss, eng.scheme)

    def test_single_worker_engine(self):
        qs, ss = _mixed_pairs(20)
        eng = ExecutionEngine(max_workers=1, plan_cache=PlanCache())
        assert list(eng.submit_batch(qs, ss)) == _refs(qs, ss, eng.scheme)

    def test_engine_matches_aligner_batch(self):
        qs, ss = _mixed_pairs(25, seed=13)
        eng = ExecutionEngine(plan_cache=PlanCache())
        assert list(eng.submit_batch(qs, ss)) == list(Aligner().score_batch(qs, ss))


class TestPlanCache:
    def test_repeat_traffic_hits(self):
        cache = PlanCache()
        qs, ss = _mixed_pairs(8)
        eng = ExecutionEngine(plan_cache=cache)
        eng.submit_batch(qs, ss)
        assert cache.misses == 1 and cache.hits == 0
        eng.submit_batch(qs, ss)
        assert cache.misses == 1 and cache.hits == 1

    def test_distinct_parameterisations_distinct_plans(self):
        cache = PlanCache()
        qs, ss = _mixed_pairs(4, lengths=(10, 14))
        ExecutionEngine(plan_cache=cache).submit_batch(qs, ss)
        ExecutionEngine(plan_cache=cache, dtype=np.int16).submit_batch(qs, ss)
        scheme = local_scheme(linear_gap_scoring(simple_subst_scoring(2, -1), -1))
        ExecutionEngine(scheme, plan_cache=cache).submit_batch(qs, ss)
        assert len(cache) == 3
        assert cache.misses == 3

    def test_plans_layer_on_kernel_cache(self):
        from repro.stage.compile import global_kernel_cache

        cache = PlanCache()
        qs, ss = _mixed_pairs(4)
        before = len(global_kernel_cache)
        ExecutionEngine(plan_cache=cache).submit_batch(qs, ss)
        stats = cache.stats()
        assert stats["kernels"] == len(global_kernel_cache) >= before
        assert {"plan_hits", "plan_misses", "kernel_hits", "kernel_misses"} <= set(stats)

    def test_stats_surface_through_perf_report(self):
        from repro.perf import cache_stats_table

        cache = PlanCache()
        eng = ExecutionEngine(plan_cache=cache)
        qs, ss = _mixed_pairs(8)
        eng.submit_batch(qs, ss)
        text = cache_stats_table(cache, engine=eng)
        assert "plan" in text and "kernel" in text
        assert "Engine work" in text

    def test_engine_stats_accumulate(self):
        eng = ExecutionEngine(plan_cache=PlanCache())
        qs, ss = _mixed_pairs(16)
        eng.submit_batch(qs, ss)
        eng.submit_batch(qs, ss)
        assert sum(eng.stats.backends_used.values()) == 2
        ps = eng.stats.pipeline
        assert ps.pairs == 32
        assert ps.cells_computed > 0
        assert ps.batches == ps.lane_blocks + ps.scalar_pops > 0

    def test_work_table_counts_lane_blocks_not_calls(self):
        """One call of 200 same-shape pairs at 64 lanes is 4 batches."""
        from repro.perf import cache_stats_table

        cache = PlanCache()
        with ExecutionEngine(backend="rowscan", lanes=64, plan_cache=cache) as eng:
            eng.submit_batch(["ACGTACGTAC"] * 200, ["ACGTTCGTA"] * 200)
            ps = eng.stats.pipeline
            assert ps.batches == ps.lane_blocks + ps.scalar_pops == 4
            text = cache_stats_table(cache, engine=eng)
        lines = text[text.index("Engine work") :].splitlines()
        header, row = lines[2].split(), lines[4].split()
        assert header[:2] == ["batches", "pairs"]
        assert row[:2] == ["4", "200"]

    def test_one_ledger_for_scores_and_aligns(self):
        """Alignments land in the same ledger as scores: each lane stack
        is one lane block, a lone pair one scalar pop."""
        qs, ss = _mixed_pairs(100, seed=13)
        # Five short pairs share a stack; a long one would be mostly
        # padding there, so it runs alone.
        aq, as_ = qs[:5] + ["ACGT" * 100], ss[:5] + ["TGCA" * 100]
        with ExecutionEngine(backend="rowscan", plan_cache=PlanCache()) as eng:
            eng.submit_batch(qs, ss)
            ps = eng.stats.pipeline
            blocks, pops, cells = ps.lane_blocks, ps.scalar_pops, ps.cells_computed
            eng.align_batch(aq, as_)
            assert ps.pairs == 106
            assert ps.lane_blocks == blocks + 1
            assert ps.scalar_pops == pops + 1
            assert ps.cells_computed == cells + sum(len(q) * len(s) for q, s in zip(aq, as_))
            assert ps.batches == ps.lane_blocks + ps.scalar_pops
            assert ps.stages["execute"].items == 106


class TestLifecycle:
    def test_engine_context_manager(self):
        qs, ss = _mixed_pairs(10)
        with ExecutionEngine(plan_cache=PlanCache()) as eng:
            refs = _refs(qs, ss, eng.scheme)
            assert list(eng.submit_batch(qs, ss)) == refs
        assert eng.closed

    def test_closed_engine_rejects_work(self):
        eng = ExecutionEngine(plan_cache=PlanCache())
        eng.close()
        with pytest.raises(ReproError, match="closed"):
            eng.submit_batch(["ACGT"], ["ACG"])
        with pytest.raises(ReproError, match="closed"):
            eng.align_batch(["ACGT"], ["ACG"])

    def test_double_close_noop(self):
        eng = ExecutionEngine(plan_cache=PlanCache())
        eng.close()
        eng.close()  # must not raise
        assert eng.closed

    def test_executor_context_manager(self):
        with BatchExecutor(max_workers=2) as ex:
            fut = ex.submit(lambda: 7)
            assert fut.result() == 7
        assert ex.closed
        with pytest.raises(ReproError, match="closed"):
            ex.submit(lambda: 1)
        ex.close()  # double close is a no-op
        ex.close()

    def test_closed_executor_rejects_runs(self):
        eng = ExecutionEngine(plan_cache=PlanCache())
        plan = eng.plan_for("rowscan")
        ex = BatchExecutor(max_workers=2)
        ex.close()
        enc_q, enc_s = encode_pairs(["ACGT"], ["ACG"])
        with pytest.raises(ReproError, match="closed"):
            ex.run_aligns(plan, enc_q, enc_s)


class TestRunAndStream:
    def test_run_wraps_pipeline(self):
        qs, ss = _mixed_pairs(20, seed=3)
        eng = ExecutionEngine(plan_cache=PlanCache())
        assert list(eng.run(list(zip(qs, ss)))) == _refs(qs, ss, eng.scheme)

    def test_run_accepts_request_objects(self):
        qs, ss = _mixed_pairs(8, seed=4)
        eng = ExecutionEngine(plan_cache=PlanCache())
        reqs = [Request(key=k, query=encode(q), subject=encode(s)) for k, (q, s) in enumerate(zip(qs, ss))]
        assert list(eng.run(reqs)) == _refs(qs, ss, eng.scheme)

    def test_stream_scores_everything(self):
        qs, ss = _mixed_pairs(40, seed=7)
        eng = ExecutionEngine(plan_cache=PlanCache())
        got = dict(eng.stream(zip(qs, ss)))
        refs = _refs(qs, ss, eng.scheme)
        assert sorted(got) == list(range(40))
        assert [got[k] for k in range(40)] == refs

    def test_stream_is_lazy(self):
        # The source must be consumed incrementally, not materialized.
        eng = ExecutionEngine(plan_cache=PlanCache(), max_in_flight=8, lanes=4)
        pulled = []

        def pairs():
            qs, ss = _mixed_pairs(256, seed=8, lengths=(12,))
            for k, (q, s) in enumerate(zip(qs, ss)):
                pulled.append(k)
                yield q, s

        stream = eng.stream(pairs())
        first = next(stream)
        assert isinstance(first, tuple)
        # Backpressure: far fewer than all 256 pairs pulled for one result
        # (bounded by lane size x outstanding batches, not stream length).
        assert len(pulled) < 256
        rest = dict(stream)
        assert len(rest) == 255

    def test_empty_stream(self):
        eng = ExecutionEngine(plan_cache=PlanCache())
        assert list(eng.stream(iter(()))) == []


class TestStreamingBackpressure:
    def test_forced_flushes_bound_buffering(self):
        qs, ss = _mixed_pairs(60, seed=11, lengths=(10, 14, 18))
        eng = ExecutionEngine(plan_cache=PlanCache(), max_in_flight=6)
        out = eng.submit_batch(qs, ss)
        assert list(out) == _refs(qs, ss, eng.scheme)
        ps = eng.stats.pipeline
        assert ps.flushes > 0
        assert ps.max_buffered <= 6 + 1  # checked after each admitted request

    def test_default_budget_no_flushes_on_small_batches(self):
        qs, ss = _mixed_pairs(16, seed=12)
        eng = ExecutionEngine(plan_cache=PlanCache())
        eng.submit_batch(qs, ss)
        assert eng.stats.pipeline.flushes == 0


class TestStreamPipelineStages:
    def _plan(self):
        eng = ExecutionEngine(plan_cache=PlanCache())
        return eng, eng.plan_for("rowscan")

    def test_shape_batcher_emits_full_lanes(self):
        batcher = ShapeBatcher(max_lanes=4)
        reqs = [
            Request(key=k, query=encode("ACGT"), subject=encode("ACG"))
            for k in range(6)
        ]
        emitted = []
        for r in reqs:
            emitted.extend(batcher.add(r))
        assert len(emitted) == 1 and len(emitted[0]) == 4
        assert batcher.pending == 2
        rest = batcher.flush()
        assert len(rest) == 1 and len(rest[0]) == 2
        assert batcher.pending == 0

    def test_prefilter_stage_counts_rejections(self):
        class EvenKeys:
            candidates = admitted = rejected = rejected_cells = 0

            def expand(self, req):
                self.candidates += 1
                if req.key % 2 == 0:
                    self.admitted += 1
                    return [req]
                self.rejected += 1
                self.rejected_cells += req.cells
                return []

        eng, plan = self._plan()
        qs, ss = _mixed_pairs(10, seed=13, lengths=(9,))
        out = np.full(10, -1, dtype=np.int64)
        reqs = [
            Request(key=k, query=encode(q), subject=encode(s))
            for k, (q, s) in enumerate(zip(qs, ss))
        ]
        pipe = StreamPipeline(
            reqs,
            prefilter=EvenKeys(),
            batcher=ShapeBatcher(4),
            stage=PlanExecutorStage(plan),
            reducer=ScoreCollector(out),
            executor=eng.executor,
        )
        emitted = list(pipe.run())
        refs = _refs(qs, ss, eng.scheme)
        assert sorted(k for k, _ in emitted) == [0, 2, 4, 6, 8]
        for k in range(10):
            assert out[k] == (refs[k] if k % 2 == 0 else -1)
        assert pipe.stats.candidates == 10
        assert pipe.stats.rejected == 5
        assert pipe.stats.rejection_rate == 0.5
        assert pipe.stats.cells_skipped_prefilter > 0

    def test_stage_timings_populated(self):
        eng, plan = self._plan()
        qs, ss = _mixed_pairs(12, seed=14)
        out = np.empty(12, dtype=np.int64)
        reqs = (
            Request(key=k, query=encode(q), subject=encode(s))
            for k, (q, s) in enumerate(zip(qs, ss))
        )
        pipe = StreamPipeline(
            reqs,
            batcher=ShapeBatcher(8),
            stage=PlanExecutorStage(plan),
            reducer=ScoreCollector(out),
            executor=eng.executor,
        )
        pipe.drain()
        st = pipe.stats
        assert st.stages["source"].items == 12
        assert st.stages["execute"].items == 12
        assert st.stages["reduce"].items == 12
        assert st.pairs == 12
        assert st.cells_computed == sum(len(q) * len(s) for q, s in zip(qs, ss))
        # No prefilter: every sourced item counts as admitted.
        assert st.candidates == st.admitted == 12

    def test_pipeline_stats_table_renders(self):
        from repro.perf import pipeline_stats_table

        eng, plan = self._plan()
        qs, ss = _mixed_pairs(6, seed=15)
        out = np.empty(6, dtype=np.int64)
        reqs = [
            Request(key=k, query=encode(q), subject=encode(s))
            for k, (q, s) in enumerate(zip(qs, ss))
        ]
        pipe = StreamPipeline(
            reqs,
            batcher=ShapeBatcher(8),
            stage=PlanExecutorStage(plan),
            reducer=ScoreCollector(out),
        )
        pipe.drain()
        text = pipeline_stats_table(pipe.stats)
        assert "execute" in text and "rejection rate" in text and "GCUPS" in text


class TestEngineFasterThanSequential:
    def test_lane_blocks_beat_sequential_loop(self):
        """Engine batching must beat the seed's per-pair sequential loop.

        Timed over the same 1k+ mixed-shape workload as
        ``benchmarks/bench_engine_batch.py`` but with a lenient bound so CI
        noise cannot flake it (the benchmark records the real ratio).
        """
        import time

        qs, ss = _mixed_pairs(1024, seed=17, lengths=(32, 48, 64, 96))
        a = Aligner()
        eng = ExecutionEngine(plan_cache=PlanCache())
        eng.submit_batch(qs[:8], ss[:8])  # warm kernels + plan

        t0 = time.perf_counter()
        seq = [a.score(q, s) for q, s in zip(qs, ss)]
        t1 = time.perf_counter()
        out = eng.submit_batch(qs, ss)
        t2 = time.perf_counter()

        assert list(out) == seq
        assert (t2 - t1) < (t1 - t0), (
            f"engine {t2 - t1:.3f}s not faster than sequential {t1 - t0:.3f}s"
        )


class TestSubmitPrebatched:
    """The serving front's entry point: same-shape batches, no re-bucketing."""

    def _batch(self, count, qlen=24, slen=32, seed=23):
        rng = np.random.default_rng(seed)
        reqs = [
            Request(
                key=k,
                query=rng.integers(0, 4, qlen).astype(np.uint8),
                subject=rng.integers(0, 4, slen).astype(np.uint8),
            )
            for k in range(count)
        ]
        from repro.engine import Batch

        return Batch(shape=(qlen, slen), requests=reqs)

    def test_matches_submit_batch(self):
        batch = self._batch(12)
        with ExecutionEngine(backend="rowscan", plan_cache=PlanCache()) as eng:
            direct = eng.submit_batch(
                [r.query for r in batch.requests], [r.subject for r in batch.requests]
            )
            pre = eng.submit_prebatched(batch)
        np.testing.assert_array_equal(pre, direct)

    def test_single_request_scalar_path(self):
        batch = self._batch(1)
        with ExecutionEngine(backend="rowscan", plan_cache=PlanCache()) as eng:
            pre = eng.submit_prebatched(batch)
            assert pre.shape == (1,)
            assert eng.stats.pipeline.scalar_pops == 1

    def test_empty_batch(self):
        from repro.engine import Batch

        with ExecutionEngine(backend="rowscan", plan_cache=PlanCache()) as eng:
            out = eng.submit_prebatched(Batch(shape=(0, 0), requests=[]))
            assert out.size == 0
            assert eng.stats.pipeline.batches == 0 and not eng.stats.backends_used

    def test_stats_accounted(self):
        batch = self._batch(8, qlen=16, slen=20)
        with ExecutionEngine(backend="rowscan", plan_cache=PlanCache()) as eng:
            eng.submit_prebatched(batch)
            st = eng.stats
            assert sum(st.backends_used.values()) == 1
            assert st.pipeline.batches == 1
            assert st.pipeline.pairs == 8
            assert st.pipeline.cells_computed == 8 * 16 * 20
            assert st.pipeline.lane_blocks == 1
            assert st.pipeline.stages["execute"].calls == 1

    def test_oversize_batch_splits_at_lane_width(self):
        # A serving bucket larger than the engine's lane width must execute
        # (and be accounted) as the same lane blocks submit_batch produces.
        batch = self._batch(10)
        with ExecutionEngine(backend="rowscan", lanes=4, plan_cache=PlanCache()) as eng:
            pre = eng.submit_prebatched(batch)
            assert eng.stats.pipeline.batches == 3  # 4 + 4 + 2
            assert eng.stats.pipeline.lane_blocks == 3
            assert eng.stats.pipeline.scalar_pops == 0
            direct = eng.submit_batch(
                [r.query for r in batch.requests], [r.subject for r in batch.requests]
            )
        np.testing.assert_array_equal(pre, direct)

    def test_closed_engine_rejects_prebatched(self):
        batch = self._batch(2)
        eng = ExecutionEngine(backend="rowscan", plan_cache=PlanCache())
        eng.close()
        with pytest.raises(ReproError):
            eng.submit_prebatched(batch)

    def test_non_lane_backend_falls_back_per_pair(self):
        batch = self._batch(4)
        with ExecutionEngine(backend="reference", plan_cache=PlanCache()) as eng:
            pre = eng.submit_prebatched(batch)
            # Per-pair execution must be accounted as scalar pops (the same
            # split submit_batch records via ShapeBatcher(1)), not as a
            # phantom lane block.
            assert eng.stats.pipeline.scalar_pops == 4
            assert eng.stats.pipeline.lane_blocks == 0
            direct = eng.submit_batch(
                [r.query for r in batch.requests], [r.subject for r in batch.requests]
            )
            assert eng.stats.pipeline.scalar_pops == 8
        np.testing.assert_array_equal(pre, direct)


class TestEngineStatsThreadSafety:
    """Concurrent serving dispatch threads hammer one engine's stats."""

    def test_concurrent_submit_batch_counts_exactly(self):
        import threading

        threads, calls, pairs_per_call = 8, 12, 24
        qs, ss = _mixed_pairs(pairs_per_call, seed=29, lengths=(16, 24))
        with ExecutionEngine(backend="rowscan", plan_cache=PlanCache()) as eng:
            eng.submit_batch(qs[:2], ss[:2])  # warm the plan
            base_calls = sum(eng.stats.backends_used.values())
            base_pairs = eng.stats.pipeline.pairs
            errors = []

            def hammer():
                try:
                    for _ in range(calls):
                        eng.submit_batch(qs, ss)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            ts = [threading.Thread(target=hammer) for _ in range(threads)]
            for t in ts:
                t.start()
            for t in ts:
                t.join()
            assert not errors
            # Every counter must land exactly: a lost update under racing
            # locks would show up as a short count.
            ps = eng.stats.pipeline
            assert sum(eng.stats.backends_used.values()) - base_calls == threads * calls
            assert ps.pairs - base_pairs == threads * calls * pairs_per_call
            assert ps.batches == ps.lane_blocks + ps.scalar_pops

    def test_concurrent_mixed_batch_and_align(self):
        import sys
        import threading

        qs, ss = _mixed_pairs(10, seed=31, lengths=(16, 20))
        with ExecutionEngine(backend="rowscan", plan_cache=PlanCache()) as eng:
            errors = []

            def score_hammer():
                try:
                    for _ in range(6):
                        eng.submit_batch(qs, ss)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            def align_hammer():
                try:
                    for _ in range(6):
                        eng.align_batch(qs[:4], ss[:4])
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            ts = [threading.Thread(target=score_hammer) for _ in range(3)] + [
                threading.Thread(target=align_hammer) for _ in range(3)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # interleave the two folds densely
            try:
                for t in ts:
                    t.start()
                for t in ts:
                    t.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in ts)
            assert not errors
            # Score and align pairs fold into the one pipeline ledger under
            # the engine lock — both must land exactly.
            ps = eng.stats.pipeline
            assert ps.pairs == 3 * 6 * 10 + 3 * 6 * 4
            assert ps.batches == ps.lane_blocks + ps.scalar_pops
            assert sum(eng.stats.backends_used.values()) == 6 * 6
