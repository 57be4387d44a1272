"""Tests for the read-mapping subsystem (repro.mapping).

The contract under test, end to end: ``map_reads`` (seed + extend fast
path) is **bit-identical** to ``exhaustive_map`` (full-DP oracle) when
``min_score`` sits above the random-junk noise floor, and the
single-process result is bit-identical to every distributed serving
path — pool-served (``ShardWorkerPool.map_topk``), service
(``AlignmentService.submit_map`` over a local database or a resident
pool).  Identity is compared on ``placement_key`` — (record,
ref_start, ref_end, strand, score, cigar, clip coords) — so any drift
in extension, dedup, or merge order fails loudly.

``MIN_SCORE = 120`` for 80 bp reads at match=+2 is ~0.75 x the perfect
score — above the ~90-100 junk-alignment floor that unseeded random
placements reach through cheap end gaps (the oracle finds those, the
seed prefilter by design cannot).
"""

import asyncio
import random

import numpy as np
import pytest

from repro.mapping import (
    MappingConfig,
    PlacementDedup,
    exhaustive_map,
    map_one,
    map_reads,
    merge_mapped,
    placement_key,
    placement_rank,
    resolve_config,
    true_origin_accuracy,
)
from repro.mapping.cigar import apply_cigar, parse_cigar
from repro.mapping.extend import extend_hit
from repro.search import SearchConfig
from repro.search.pipeline import search
from repro.search.topk import Hit, TopKReducer, merge_topk
from repro.serve.service import AlignmentService
from repro.shard.plan import ShardPlan
from repro.shard.pool import ShardWorkerPool
from repro.shard.router import ShardRouter
from repro.util.checks import ValidationError
from repro.util.encoding import decode, encode
from repro.workloads.reads import read_pairs

MIN_SCORE = 120  # 0.75 x perfect for 80 bp reads at match=+2


def keys(per_read):
    return [[placement_key(p) for p in ps] for ps in per_read]


@pytest.fixture(scope="module")
def workload():
    """One shared read set: 24 x 80 bp paired reads over a 12 kb genome."""
    rs = read_pairs(24, read_length=80, reference_length=12_000, seed=7)
    return rs, rs.reference


class TestResolveConfig:
    def test_kwargs_split_between_mapping_and_search(self):
        cfg = resolve_config(None, k=3, min_score=50, traceback="full")
        assert cfg.k == 3
        assert cfg.traceback == "full"
        assert cfg.search.min_score == 50

    def test_k_is_mapping_level(self):
        # Bare k= sets the placement budget, not the hit top-K.
        base = MappingConfig()
        cfg = resolve_config(None, k=2)
        assert cfg.k == 2
        assert cfg.search.k == base.search.k

    def test_config_passes_through(self):
        cfg = MappingConfig(k=4, both_strands=False)
        assert resolve_config(cfg) is cfg

    def test_config_plus_overrides(self):
        cfg = resolve_config(MappingConfig(k=4), min_score=77)
        assert cfg.k == 4
        assert cfg.search.min_score == 77

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(ValidationError):
            resolve_config(None, bogus=1)

    def test_invalid_traceback_rejected(self):
        with pytest.raises(ValidationError):
            MappingConfig(traceback="diagonal")

    def test_default_verify_is_full(self):
        # Banded verify clips boundary-straddling scores, which would
        # break min_score parity with the oracle; mapping defaults to
        # exact window scores.
        assert MappingConfig().search.verify == "full"


class TestHitMetaPassthrough:
    """Satellite regression: opaque hit metadata through merges."""

    def _hit(self, qid, start, score, chunk_id, meta=None):
        return Hit(
            query_id=qid,
            record="ref",
            start=start,
            end=start + 100,
            score=score,
            chunk_id=chunk_id,
            meta=meta,
        )

    def test_meta_carried_through_merge_unchanged(self):
        meta = {"diag_lo": 3, "diag_hi": 9, "window": np.arange(4, dtype=np.uint8)}
        shard_a = [[self._hit(0, 0, 50, 0, meta)]]
        shard_b = [[self._hit(0, 100, 40, 1, None)]]
        merged = merge_topk([shard_a, shard_b], num_queries=1, k=5)
        assert merged[0][0].meta is meta  # same object, byte-for-byte
        assert merged[0][1].meta is None

    def test_meta_does_not_affect_tie_order(self):
        # Two score-tied hits: rank prefers the earlier window/chunk
        # whether or not metadata rides along.
        def run(with_meta):
            m = {"diag_lo": 0, "diag_hi": 1} if with_meta else None
            a = [[self._hit(0, 200, 50, 2, m)]]
            b = [[self._hit(0, 100, 50, 1, None)]]
            return [
                (h.start, h.chunk_id)
                for h in merge_topk([a, b], num_queries=1, k=5)[0]
            ]

        assert run(True) == run(False) == [(100, 1), (200, 2)]

    def test_meta_excluded_from_equality(self):
        a = self._hit(0, 0, 50, 0, {"diag_lo": 1})
        b = self._hit(0, 0, 50, 0, None)
        assert a == b

    def test_reducer_offer_retains_meta(self):
        red = TopKReducer(1, k=2)

        class _Chunk:
            record, start, end, id = "ref", 0, 100, 0

        meta = {"diag_lo": 5, "diag_hi": 7}
        red.offer(0, _Chunk, 42, meta=meta)
        assert red.results()[0][0].meta is meta


class TestExtend:
    def test_banded_and_full_modes_agree(self, workload):
        rs, ref = workload
        fast = map_reads(rs, ref, min_score=MIN_SCORE, traceback="banded")
        full = map_reads(rs, ref, min_score=MIN_SCORE, traceback="full")
        assert keys(fast.placements) == keys(full.placements)
        # The banded path actually engaged (certificate accepts), and the
        # full run never touched the banded counters.
        assert fast.extend.banded > 0
        assert full.extend.full == full.extend.hits
        assert fast.extend.cells <= full.extend.cells

    def test_placement_scores_are_exact(self, workload):
        # Placement.score is the traceback score, never the (possibly
        # banded) verify score — re-deriving the alignment from the CIGAR
        # and rescoring the M columns must be consistent.
        rs, ref = workload
        res = map_reads(rs, ref, min_score=MIN_SCORE)
        seen = 0
        for ps in res.placements:
            for p in ps:
                assert p.score >= MIN_SCORE
                assert p.ref_end > p.ref_start
                seen += 1
        assert seen > 0

    def test_cigar_reconstructs_against_reference(self, workload):
        # Apply each placement's CIGAR to the read and the *reference*
        # slice it claims: the M/D runs must consume exactly
        # [ref_start, ref_end) and reproduce reference bases verbatim.
        rs, ref = workload
        res = map_reads(rs, ref, min_score=MIN_SCORE)
        checked = 0
        for rid, ps in enumerate(res.placements):
            read = encode(rs.reads[rid])
            for p in ps:
                q = read if p.strand == "+" else read[::-1] ^ np.uint8(3)
                window = ref[p.ref_start : p.ref_end]
                qa, sa = apply_cigar(parse_cigar(p.cigar), q, window)
                assert sa.replace("-", "") == decode(window)
                assert qa.replace("-", "") == decode(
                    q[p.query_start : p.query_end]
                )
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("mode", ["banded", "full"])
    def test_batched_extension_matches_per_hit(self, workload, mode):
        # One call's hits extended in lane rounds equal the hits extended
        # one by one: same placements in the same order, same counters.
        from dataclasses import replace

        from repro.mapping.extend import ExtendStats
        from repro.mapping.mapper import _encode_reads, _extend_all, _oriented

        rs, ref = workload
        cfg = resolve_config(None, min_score=MIN_SCORE)
        scheme = cfg.search.resolved_scheme()
        enc = _encode_reads(rs)
        oriented = _oriented(enc, cfg)
        hits = search(
            oriented, ref, **replace(cfg.search, hit_window=True).search_kwargs()
        ).topk()
        # Envelopes far off the true diagonal on every third hit force
        # certificate fallbacks next to accepted slices.
        hits = [
            [
                replace(h, meta={**h.meta, "diag_lo": 0, "diag_hi": 0}) if k % 3 == 0 else h
                for k, h in enumerate(row)
            ]
            for row in hits
        ]
        per_read, batched = _extend_all(enc, hits, cfg, scheme, mode=mode)

        stats = ExtendStats()
        alone: list = [[] for _ in enc]
        for qid, row in enumerate(hits):
            for h in row:
                p = extend_hit(
                    oriented[qid],
                    h,
                    scheme,
                    mode=mode,
                    extend_pad=cfg.extend_pad,
                    query_id=qid % len(enc),
                    strand="-" if qid >= len(enc) else "+",
                    stats=stats,
                )
                alone[p.query_id].append(p)

        def view(rows):
            return [[(placement_key(p), p.score, p.chunk_id, p.hit) for p in ps] for ps in rows]

        assert view(per_read) == view(alone)
        assert batched == stats
        assert stats.hits == sum(len(row) for row in hits) > 0
        if mode == "banded":
            assert stats.banded > 0 and stats.fallback_score > 0
            assert stats.full == stats.hits - stats.banded
        else:
            assert stats.full == stats.hits and stats.banded == 0

    def test_extend_hit_fallback_on_clipped_band(self):
        # A lying envelope (far off the true diagonal) forces the
        # certificate to reject the banded slice and fall back to the
        # full window; the placement must still be exact.
        rng = np.random.default_rng(0)
        window = rng.integers(0, 4, 400).astype(np.uint8)
        query = window[200:280].copy()
        scheme = MappingConfig().search.resolved_scheme()
        hit_kwargs = dict(
            query_id=0, record="ref", start=0, end=400, chunk_id=0, score=160
        )
        honest = Hit(**hit_kwargs, meta={"diag_lo": 200, "diag_hi": 200})
        lying = Hit(**hit_kwargs, meta={"diag_lo": 0, "diag_hi": 0})
        p_honest = extend_hit(query, honest, scheme, window=window)
        p_lying = extend_hit(query, lying, scheme, window=window)
        assert placement_key(p_honest) == placement_key(p_lying)
        assert p_honest.ref_start == 200 and p_honest.score == 160


class TestOracleIdentity:
    def test_map_reads_bit_identical_to_exhaustive(self, workload):
        rs, ref = workload
        fast = map_reads(rs, ref, min_score=MIN_SCORE)
        oracle = exhaustive_map(rs, ref, min_score=MIN_SCORE)
        assert keys(fast.placements) == keys(oracle.placements)
        assert oracle.oracle and not fast.oracle

    @pytest.mark.parametrize("seed", [3, 42])
    def test_identity_across_seeds(self, seed):
        rs = read_pairs(12, read_length=80, reference_length=8_000, seed=seed)
        fast = map_reads(rs, rs.reference, min_score=MIN_SCORE)
        oracle = exhaustive_map(rs, rs.reference, min_score=MIN_SCORE)
        assert keys(fast.placements) == keys(oracle.placements)

    def test_true_origin_accuracy(self, workload):
        rs, ref = workload
        res = map_reads(rs, ref, min_score=MIN_SCORE)
        assert true_origin_accuracy(res, rs.origins()) == 1.0

    def test_both_strands_recovered(self, workload):
        # read_pairs alternates strands; every read must map back to its
        # sampled orientation.
        rs, ref = workload
        res = map_reads(rs, ref, min_score=MIN_SCORE)
        strands = {res.best(i).strand for i in range(len(rs)) if res.best(i)}
        assert strands == {"+", "-"}
        for i in range(len(rs)):
            best = res.best(i)
            assert best is not None and best.strand == rs.strand_of(i)

    def test_map_one_matches_map_reads_row(self, workload):
        # Keys are context-free: a read mapped alone (query_id 0) must
        # compare equal to its batch row (query_id i).
        rs, ref = workload
        batch = map_reads(rs, ref, min_score=MIN_SCORE)
        for i in (0, 3, 7):
            single = map_one(rs.reads[i], ref, min_score=MIN_SCORE)
            assert [placement_key(p) for p in single] == [
                placement_key(p) for p in batch.placements[i]
            ]

    def test_empty_reads(self, workload):
        _rs, ref = workload
        res = map_reads([], ref, min_score=MIN_SCORE)
        assert res.num_reads == 0 and res.placements == []
        oracle = exhaustive_map([], ref, min_score=MIN_SCORE)
        assert oracle.placements == []
        assert res.report()  # renders without a search-stats table

    def test_result_report_renders(self, workload):
        rs, ref = workload
        res = map_reads(rs, ref, min_score=MIN_SCORE)
        text = res.report()
        assert "Read mapping" in text and "Hit search pipeline" in text
        assert str(res.num_reads) in text


class TestDedupMerge:
    def test_placement_rank_is_total_and_score_first(self, workload):
        rs, ref = workload
        res = map_reads(rs, ref, min_score=MIN_SCORE, k=5)
        for ps in res.placements:
            ranks = [placement_rank(p) for p in ps]
            assert ranks == sorted(ranks, reverse=True)
            # Strictly decreasing — the order is total, no rank ties.
            assert all(a > b for a, b in zip(ranks, ranks[1:]))

    def test_dedup_collapses_duplicates(self, workload):
        rs, ref = workload
        res = map_reads(rs, ref, min_score=MIN_SCORE)
        dd = PlacementDedup(num_reads=len(rs), k=5)
        for ps in res.placements:
            for p in ps:
                dd.offer(p)
                dd.offer(p)  # same placement again — must collapse
        assert dd.stats.duplicates >= dd.stats.kept
        assert keys(dd.results()) == keys(res.placements)

    def test_merge_is_order_independent(self, workload):
        # The sharded-merge invariant: however per-shard placement lists
        # are ordered or grouped, the merged result is identical.
        rs, ref = workload
        cfg = resolve_config(None, min_score=MIN_SCORE)
        from repro.mapping.mapper import shard_map_placements

        per_read, _stats, _ext = shard_map_placements(list(rs.reads), ref, cfg)
        n, orient = len(rs), cfg.orientations()

        def merge(shard_lists):
            return merge_mapped(
                shard_lists,
                num_reads=n,
                num_oriented=n * orient,
                hit_k=cfg.search.k,
                k=cfg.k,
                min_score=cfg.search.min_score,
            )

        want = merge([per_read])
        # Split placements across two fake "shards", several shufflings.
        rng = random.Random(13)
        for _ in range(3):
            a = [[], []]
            for ps in per_read:
                rows = [[], []]
                for p in ps:
                    rows[rng.randrange(2)].append(p)
                for s in (0, 1):
                    rng.shuffle(rows[s])
                    a[s].append(rows[s])
            got = merge([a[0], a[1]])
            assert keys(got) == keys(want)


class TestBoundedVerify:
    """Full verify stops relaxing lanes that cannot reach ``min_score``;
    placements stay bit-identical to the full-DP oracle."""

    @pytest.fixture(scope="class")
    def large(self):
        rs = read_pairs(16, read_length=80, reference_length=30_000, seed=5)
        return rs, exhaustive_map(rs, rs.reference, min_score=MIN_SCORE)

    def test_map_reads_abandons_lanes_and_matches_oracle(self, large):
        rs, oracle = large
        fast = map_reads(rs, rs.reference, min_score=MIN_SCORE)
        assert keys(fast.placements) == keys(oracle.placements)
        st = fast.search_stats
        assert st.cells_skipped_bound > 0
        # No floor, no abandoned lane: the same pairs, every cell relaxed.
        unfloored = map_reads(rs, rs.reference, min_score=None).search_stats
        assert unfloored.cells_skipped_bound == 0
        assert unfloored.pairs == st.pairs
        assert unfloored.cells_computed == st.cells_computed + st.cells_skipped_bound

    def test_pool_map_topk_abandons_lanes_and_matches_oracle(self, large):
        rs, oracle = large
        reads = [rs.reads[i] for i in range(len(rs))]
        plan = ShardPlan(num_shards=2, search=SearchConfig(), start_method="fork")
        with ShardWorkerPool(rs.reference, plan=plan) as pool:
            got = pool.map_topk(reads, min_score=MIN_SCORE)
            ledgers = [ledger for ledger, _hits in pool.stats.last_round[1]]
        assert keys(got) == keys(oracle.placements)
        assert sum(ledger.cells_skipped_bound for ledger in ledgers) > 0


class TestPoolParity:
    def test_pool_map_topk_bit_identical(self, workload):
        rs, ref = workload
        direct = map_reads(rs, ref, min_score=MIN_SCORE)
        want = keys(direct.placements)
        reads = [rs.reads[i] for i in range(len(rs))]
        plan = ShardPlan(num_shards=3, search=SearchConfig(), start_method="fork")
        with ShardWorkerPool(ref, plan=plan) as pool:
            cold = pool.map_topk(reads, min_score=MIN_SCORE)
            assert keys(cold) == want
            warm = pool.map_topk(reads, min_score=MIN_SCORE)
            assert keys(warm) == want
            snap = pool.stats.snapshot()
            assert snap["searches"] == 2 and snap["warm_searches"] == 1


class TestServeRouter:
    def test_service_submit_map_matches_direct(self, workload):
        rs, ref = workload

        async def main():
            async with AlignmentService(
                database=ref, map_kwargs={"min_score": MIN_SCORE}
            ) as svc:
                return await asyncio.gather(
                    *(svc.submit_map(rs.reads[i]) for i in range(4))
                )

        got = asyncio.run(main())
        for i, ps in enumerate(got):
            want = map_one(rs.reads[i], ref, min_score=MIN_SCORE)
            assert [placement_key(p) for p in ps] == [
                placement_key(p) for p in want
            ]

    def test_router_pool_path_matches_direct(self, workload):
        """The alias's call form: ``AlignmentService(pool=...)`` underneath."""
        rs, ref = workload
        plan = ShardPlan(num_shards=2, search=SearchConfig(), start_method="fork")

        async def main(pool):
            async with ShardRouter(
                num_shards=2, pool=pool, map_kwargs={"min_score": MIN_SCORE}
            ) as router:
                return [await router.submit_map(rs.reads[i]) for i in range(4)]

        with ShardWorkerPool(ref, plan=plan) as pool:
            got = asyncio.run(main(pool))
        for i, ps in enumerate(got):
            want = map_one(rs.reads[i], ref, min_score=MIN_SCORE)
            assert [placement_key(p) for p in ps] == [
                placement_key(p) for p in want
            ]
