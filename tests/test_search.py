"""Tests for the streaming query-vs-database search (repro.search)."""

import numpy as np
import pytest

from repro.core.recurrence import score_reference
from repro.core.scoring import linear_gap_scoring, local_scheme, simple_subst_scoring
from repro.engine import ExecutionEngine, PlanCache
from repro.search import (
    QueryIndex,
    ReferenceIndex,
    ReferenceShard,
    SeedPrefilter,
    TopKReducer,
    default_search_scheme,
    exhaustive_topk,
    kmer_codes,
    merge_topk,
    resolve_windowing,
    search,
    search_topk,
)
from repro.util.checks import ValidationError
from repro.util.encoding import decode, encode
from repro.util.rng import make_rng
from repro.workloads import MutationModel, chunk_sequence, mutate, random_genome
from repro.workloads.chunks import Chunk, chunk_records
from repro.workloads.fasta import FastaRecord


from helpers import hit_keys
from helpers import planted_instance as _planted_instance


def _hit_keys(per_query):
    return [[(h.start, h.score, h.chunk_id) for h in hits] for hits in per_query]


class TestKmers:
    def test_kmer_codes_brute_force(self):
        seq = encode("ACGTACG")
        got = kmer_codes(seq, 3)
        brute = [int(seq[i]) * 16 + int(seq[i + 1]) * 4 + int(seq[i + 2]) for i in range(5)]
        assert list(got) == brute
        seq = random_genome(70, seed=8)
        for k in (1, 11, 16, 17, 31):
            got = kmer_codes(seq, k)
            brute = [
                sum(int(seq[i + j]) << 2 * (k - 1 - j) for j in range(k))
                for i in range(seq.size - k + 1)
            ]
            assert got.dtype == np.int64 and got.tolist() == brute, k
            assert kmer_codes(seq[: k - 1], k).size == 0, k

    def test_kmer_codes_short_sequence(self):
        assert kmer_codes(encode("AC"), 3).size == 0

    def test_k_bounds(self):
        with pytest.raises(ValidationError):
            kmer_codes(encode("ACGT"), 0)
        with pytest.raises(ValidationError):
            kmer_codes(encode("ACGT"), 32)

    def test_seed_scan_counts_match_set_intersection(self):
        rng = make_rng(3)
        k = 5
        queries = [rng.integers(0, 4, 40).astype(np.uint8) for _ in range(8)]
        index = QueryIndex(queries, k=k)
        subject = rng.integers(0, 4, 120).astype(np.uint8)
        counts, _, _ = index.seed_scan(subject)
        sset = set(kmer_codes(subject, k).tolist())
        for qid, q in enumerate(queries):
            expect = len(set(kmer_codes(q, k).tolist()) & sset)
            assert counts[qid] == expect

    @pytest.mark.parametrize("kmer", [5, 8, 11, 17])
    @pytest.mark.parametrize("block", [None, 7])
    def test_hits_match_brute_force(self, kmer, block, monkeypatch):
        from repro.search import seeds

        if block is not None:  # many blocks, hits straddling their seams
            monkeypatch.setattr(seeds, "PASS_BLOCK", block)
        rng = make_rng(kmer)
        ref = random_genome(3_000, seed=rng)
        queries = [ref[s : s + 60] for s in (100, 1_200, 2_900)]
        queries.append(random_genome(60, seed=rng))
        index = QueryIndex(queries, k=kmer)
        # Plant a k-mer that shares a query k-mer's low code bits only: the
        # mask lets it through and the searchsorted must drop it.
        decoy = queries[3][:kmer].copy()
        decoy[0] = (decoy[0] + 1) % 4
        subject = np.concatenate([ref, decoy, queries[3][5:40]])
        pos, kidx = index.hits(subject)
        codes = kmer_codes(subject, kmer)
        member = {int(c): i for i, c in enumerate(index.kmers)}
        expect = [(p, member[int(c)]) for p, c in enumerate(codes) if int(c) in member]
        assert list(zip(pos.tolist(), kidx.tolist())) == expect
        assert pos.dtype == kidx.dtype == np.int64
        empty = index.hits(subject[: kmer - 1])
        assert empty[0].size == empty[1].size == 0

    def test_query_shorter_than_k_rejected(self):
        with pytest.raises(ValidationError, match="shorter"):
            QueryIndex(["ACG"], k=11)


class TestSeedPrefilter:
    def test_expand_admits_seed_sharing_queries(self):
        ref = random_genome(400, seed=9)
        queries = [ref[50:90], random_genome(40, seed=10)]
        index = QueryIndex(queries, k=11)
        pf = SeedPrefilter(index, min_seeds=2)
        chunk = Chunk(id=0, record="ref", start=0, sequence=ref[:200])
        reqs = pf.expand(chunk)
        admitted = {r.meta["query_id"] for r in reqs}
        assert 0 in admitted  # exact substring of the window
        assert pf.candidates == 2
        assert pf.admitted + pf.rejected == 2
        if 1 not in admitted:
            assert pf.rejected_cells == 40 * 200


class TestTopKReducer:
    def _chunk(self, cid, start):
        return Chunk(id=cid, record="r", start=start, sequence=np.zeros(10, np.uint8))

    def test_bounded_and_sorted(self):
        red = TopKReducer(1, k=3)
        for cid, score in enumerate([5, 9, 1, 7, 8]):
            red.offer(0, self._chunk(cid, cid * 10), score)
        (hits,) = red.results()
        assert [h.score for h in hits] == [9, 8, 7]

    def test_ties_prefer_earlier_windows(self):
        red = TopKReducer(1, k=2)
        for cid, start in [(0, 30), (1, 10), (2, 20)]:
            red.offer(0, self._chunk(cid, start), 5)
        (hits,) = red.results()
        assert [h.start for h in hits] == [10, 20]

    def test_ties_prefer_earlier_records_over_starts(self):
        """Regression: the tie order is (score, record, start) — a later
        record's smaller window offset must not outrank an earlier record,
        or sharded merges would depend on shard arrival order."""
        red = TopKReducer(1, k=1)
        late = Chunk(id=9, record="chr2", start=5, sequence=np.zeros(10, np.uint8))
        early = Chunk(id=3, record="chr1", start=400, sequence=np.zeros(10, np.uint8))
        red.offer(0, late, 5)
        red.offer(0, early, 5)
        (hits,) = red.results()
        assert (hits[0].record, hits[0].start) == ("chr1", 400)

    def test_min_score_filters(self):
        red = TopKReducer(1, k=5, min_score=10)
        assert red.offer(0, self._chunk(0, 0), 9) is None
        assert red.offer(0, self._chunk(1, 10), 10) is not None
        (hits,) = red.results()
        assert len(hits) == 1

    def test_non_admitted_returns_none(self):
        red = TopKReducer(1, k=1)
        assert red.offer(0, self._chunk(0, 0), 5) is not None
        assert red.offer(0, self._chunk(1, 10), 3) is None  # worse than kept


class TestOracleIdentity:
    """The streaming pipeline retains exactly the exhaustive full-DP hits."""

    def test_identical_hit_sets_small_instance(self):
        ref, queries, _ = _planted_instance(8000, 16, 80, seed=42)
        window = 160
        # band=window makes banded == full DP structurally (no cell of an
        # n ≤ m problem is excluded), so identity must be exact.
        run = search(
            queries, ref, k=4, min_score=100, min_seeds=1, window=window, band=window
        )
        got = run.topk()
        oracle = exhaustive_topk(queries, ref, k=4, min_score=100, window=window)
        assert _hit_keys(got) == _hit_keys(oracle)
        # And the prefilter actually did reject most candidates.
        assert run.stats.rejection_rate > 0.9

    def test_full_verify_mode_matches_oracle(self):
        ref, queries, _ = _planted_instance(5000, 8, 60, seed=77)
        got = search_topk(
            queries, ref, k=3, min_score=80, min_seeds=1, window=120, verify="full"
        )
        oracle = exhaustive_topk(queries, ref, k=3, min_score=80, window=120)
        assert _hit_keys(got) == _hit_keys(oracle)

    def test_banded_default_recovers_all_plants(self):
        # The default (narrower) band still finds every true placement —
        # only sub-band shoulder placements may differ from the oracle.
        ref, queries, positions = _planted_instance(12_000, 12, 100, seed=5)
        topk = search_topk(queries, ref, k=2, min_score=150)
        for qid, p in enumerate(positions):
            assert topk[qid], f"query {qid} found nothing"
            best = topk[qid][0]
            assert best.start <= p < best.end


class TestStreamingScale:
    def test_128_queries_vs_1mbp_reference_streams(self):
        """Acceptance: 128 queries against a ≥1 Mbp synthetic reference.

        Results must stream (first hit before the scan finishes), every
        planted query must be recovered, and the seed prefilter must
        reject the overwhelming majority of candidate pairs.
        """
        ref, queries, positions = _planted_instance(
            1_000_000, 128, 150, seed=7, divergence=0.03
        )
        consumed = {"n": 0}

        def counting_chunks():
            for c in chunk_sequence(ref, 300, 166):
                consumed["n"] += 1
                yield c

        run = search(
            queries, counting_chunks(), k=3, min_score=200, window=300, overlap=166
        )
        first_at = None
        events = 0
        for _hit in run:
            if first_at is None:
                first_at = consumed["n"]
            events += 1
        topk = run.topk()
        total = consumed["n"]
        assert total > 3000  # ≥1 Mbp really was windowed
        assert events >= 128
        assert first_at < total, "no hit streamed before the scan finished"
        for qid, p in enumerate(positions):
            assert topk[qid], f"query {qid} found nothing"
            best = topk[qid][0]
            assert best.start <= p < best.end, (qid, p, best)
        st = run.stats
        assert st.rejection_rate > 0.95
        assert st.cells_skipped_prefilter > 0
        assert st.cells_skipped_band > 0
        assert st.cells_computed < st.cells_skipped


class TestBackpressure:
    def test_bounded_in_flight_budget(self):
        ref, queries, _ = _planted_instance(6000, 8, 60, seed=11)
        run = search(
            queries, ref, k=3, min_score=80, min_seeds=1, window=120, max_in_flight=4
        )
        baseline = search_topk(queries, ref, k=3, min_score=80, min_seeds=1, window=120)
        assert _hit_keys(run.topk()) == _hit_keys(baseline)
        assert run.stats.max_buffered <= 4 + 1

    def test_report_renders(self):
        ref, queries, _ = _planted_instance(4000, 4, 50, seed=13)
        run = search(queries, ref, k=2)
        run.topk()
        text = run.report()
        assert "rejection rate" in text and "cells skipped (band)" in text


class TestPrewindowedDatabases:
    def test_wide_chunk_iterator_gets_covering_band(self):
        # A pre-windowed database with chunks wider than 2*qlen: the
        # per-batch auto band must still cover the placement offset
        # (regression: a band derived from an assumed window lost hits).
        rng = make_rng(29)
        ref = random_genome(4000, seed=rng)
        query = ref[2300:2400].copy()  # offset 300 inside chunk [2000, 2500)
        chunks = chunk_sequence(ref, window=500, overlap=120)
        (hits,) = search([query], chunks, k=1, min_seeds=1).topk()
        assert hits and hits[0].score == 2 * 100  # exact placement found

    def test_chunk_list_and_iterator_agree(self):
        ref, queries, _ = _planted_instance(5000, 6, 70, seed=37)
        chunks = list(chunk_sequence(ref, window=200, overlap=90))
        a = search_topk(queries, iter(chunks), k=2, min_score=90)
        b = search_topk(queries, chunks, k=2, min_score=90)
        assert _hit_keys(a) == _hit_keys(b)


class TestEngineOwnership:
    def test_private_engine_closed_on_drain(self):
        ref, queries, _ = _planted_instance(3000, 4, 50, seed=41)
        run = search(queries, ref, k=1)
        run.topk()
        assert run.pipeline.executor.closed

    def test_private_engine_closed_via_context_manager(self):
        ref, queries, _ = _planted_instance(3000, 4, 50, seed=43)
        with search(queries, ref, k=1) as run:
            next(iter(run), None)
        assert run.pipeline.executor.closed

    def test_caller_engine_left_open(self):
        ref, queries, _ = _planted_instance(3000, 4, 50, seed=47)
        with ExecutionEngine(default_search_scheme(), backend="rowscan", plan_cache=PlanCache()) as eng:
            search(queries, ref, k=1, engine=eng).topk()
            assert not eng.closed  # caller-owned engines are not touched


class TestSearchConfiguration:
    def test_shared_engine_and_plan_cache(self):
        ref, queries, _ = _planted_instance(4000, 4, 50, seed=17)
        scheme = default_search_scheme()
        cache = PlanCache()
        with ExecutionEngine(scheme, backend="rowscan", plan_cache=cache) as eng:
            a = search_topk(queries, ref, k=2, engine=eng)
            b = search_topk(queries, ref, k=2, engine=eng)
        assert _hit_keys(a) == _hit_keys(b)
        assert len(cache) == 1  # both runs shared one plan

    def test_engine_scheme_mismatch_rejected(self):
        eng = ExecutionEngine(plan_cache=PlanCache())  # global default scheme
        with pytest.raises(ValidationError, match="scheme"):
            search(["ACGTACGTACGTACG"], random_genome(500, seed=1), engine=eng)

    def test_local_scheme_rejected(self):
        scheme = local_scheme(linear_gap_scoring(simple_subst_scoring(2, -1), -1))
        with pytest.raises(ValidationError, match="global"):
            search(["ACGTACGTACGTACG"], random_genome(500, seed=1), scheme=scheme)

    def test_window_smaller_than_query_rejected(self):
        with pytest.raises(ValidationError, match="window"):
            search(["A" * 50], random_genome(500, seed=1), window=30)

    def test_bad_verify_mode_rejected(self):
        with pytest.raises(ValidationError, match="verify"):
            search(["A" * 20], random_genome(500, seed=1), verify="psychic")

    def test_scores_match_reference_dp(self):
        # Every reported hit score is the exact semiglobal score of the
        # (query, window) pair it names.
        ref, queries, _ = _planted_instance(3000, 4, 50, seed=23)
        scheme = default_search_scheme()
        window = 120
        topk = search_topk(
            queries, ref, k=2, min_seeds=1, window=window, band=window, min_score=60
        )
        for qid, hits in enumerate(topk):
            for h in hits:
                sub = ref[h.start : h.end]
                assert h.score == score_reference(encode(queries[qid]), sub, scheme)


def _indexed_reference(seed):
    """Multi-record reference covering the lookup's edge cases: an empty
    record, records shorter than k and than a window, a tandem repeat,
    and records whose last window is short."""
    rng = make_rng(seed)
    unit = random_genome(7, seed=rng)
    tandem = np.concatenate(
        [random_genome(300, seed=rng), np.tile(unit, 120), random_genome(200, seed=rng)]
    )
    return [
        FastaRecord("chr1", random_genome(2_000, seed=rng)),
        FastaRecord("empty", np.empty(0, dtype=np.uint8)),
        FastaRecord("tiny", random_genome(5, seed=rng)),
        FastaRecord("short", random_genome(90, seed=rng)),
        FastaRecord("tandem", tandem),
        FastaRecord("chr2", random_genome(1_337, seed=rng)),
    ]


def _indexed_queries(records, seed):
    rng = make_rng(seed)
    model = MutationModel(substitution=0.03, insertion=0.005, deletion=0.005)
    seqs = {r.name: r.sequence for r in records}
    picks = [
        seqs["chr1"][100:180],
        seqs["chr1"][1_500:1_570],
        seqs["tandem"][280:360],  # straddles the repeat's start
        seqs["tandem"][500:575],  # inside the repeat
        seqs["short"][5:85],
        seqs["chr2"][-75:],  # the last, short window
        seqs["chr2"][600:680],
    ]
    queries = [mutate(q, model, seed=rng) for q in picks]
    return queries + [random_genome(80, seed=rng)]


def _admissions(prefilter, items):
    got = {}
    for item in items:
        for r in prefilter.expand(item):
            c = r.meta["chunk"]
            got[r.key] = (
                r.meta["seeds"],
                r.meta["diag_lo"],
                r.meta["diag_hi"],
                c.record,
                c.start,
                decode(c.sequence),
            )
    counters = (
        prefilter.candidates,
        prefilter.admitted,
        prefilter.rejected,
        prefilter.rejected_cells,
    )
    return got, counters


class TestReferenceIndex:
    """Seeding through the reference index ≡ scanning every window."""

    @pytest.mark.parametrize("windowing", ["default", "short_tail", "no_overlap"])
    @pytest.mark.parametrize("kmer", [8, 11, 17])
    @pytest.mark.parametrize("min_seeds", [1, 2, 3])
    def test_lookup_admits_exactly_what_the_scan_admits(self, min_seeds, kmer, windowing):
        for seed in (1, 2):
            records = _indexed_reference(seed)
            queries = _indexed_queries(records, seed + 10)
            qmax = max(len(q) for q in queries)
            window, overlap = {
                "default": resolve_windowing(qmax),
                "short_tail": (150, 40),
                "no_overlap": (100, 0),  # k-mers straddling a boundary seed nothing
            }[windowing]
            index = QueryIndex(queries, k=kmer)
            scan = _admissions(
                SeedPrefilter(index, min_seeds=min_seeds),
                chunk_records(records, window, overlap),
            )
            pf = SeedPrefilter(index, min_seeds=min_seeds)
            lookup = _admissions(pf, pf.lookup(ReferenceIndex(records), window, overlap))
            assert lookup == scan
            assert scan[0], "the instance admits nothing"

    @pytest.mark.parametrize("min_seeds", [1, 2])
    def test_search_stats_and_hits_match_scan_and_oracle(self, min_seeds):
        records = _indexed_reference(3)
        queries = _indexed_queries(records, 13)
        window, overlap = resolve_windowing(max(len(q) for q in queries))
        kwargs = dict(k=3, min_seeds=min_seeds, min_score=110, verify="full")
        reference = ReferenceIndex(records)
        indexed = search(queries, reference, **kwargs)
        scanned = search(queries, chunk_records(records, window, overlap), **kwargs)
        assert hit_keys(indexed.topk()) == hit_keys(scanned.topk())
        a, b = indexed.stats, scanned.stats
        for field in (
            "candidates",
            "admitted",
            "rejected",
            "cells_skipped_prefilter",
            "pairs",
            "cells_computed",
        ):
            assert getattr(a, field) == getattr(b, field), field
        # Only the lookup and the admitting windows pass through the pipeline.
        assert a.items_in < b.items_in
        oracle = exhaustive_topk(queries, records, k=3, min_score=110)
        assert _hit_keys(indexed.topk()) == _hit_keys(oracle)
        assert _hit_keys(exhaustive_topk(queries, reference, k=3, min_score=110)) == (
            _hit_keys(oracle)
        )

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 5])
    @pytest.mark.parametrize("kmer", [8, 11, 17])
    @pytest.mark.parametrize("min_seeds", [1, 2, 3])
    def test_shard_views_partition_the_lookup(self, num_shards, kmer, min_seeds):
        """The masked pass over each shard's windows ≡ the table lookup."""
        for seed, windowing in ((1, None), (2, (150, 40))):
            records = _indexed_reference(seed)
            queries = _indexed_queries(records, seed + 10)
            window, overlap = windowing or resolve_windowing(max(len(q) for q in queries))
            index = QueryIndex(queries, k=kmer)
            reference = ReferenceIndex(records)
            pf = SeedPrefilter(index, min_seeds=min_seeds)
            whole, counters = _admissions(pf, pf.lookup(reference, window, overlap))
            union, sums = {}, np.zeros(4, dtype=np.int64)
            for shard_id in range(num_shards):
                shard = ReferenceShard(reference.records, num_shards, shard_id)
                pf = SeedPrefilter(index, min_seeds=min_seeds)
                got, part = _admissions(pf, pf.lookup(shard, window, overlap))
                assert all(key[1] % num_shards == shard_id for key in got)
                union.update(got)
                sums += part
            assert union == whole
            assert tuple(sums) == counters
            assert whole, "the instance admits nothing"

    def test_shard_views_search_merges_to_the_index_search(self):
        records = _indexed_reference(4)
        queries = _indexed_queries(records, 14)
        kwargs = dict(k=3, min_score=110)
        reference = ReferenceIndex(records)
        whole = search(queries, reference, **kwargs)
        shards = [ReferenceShard(reference.records, 3, i) for i in range(3)]
        runs = [search(queries, shard, **kwargs) for shard in shards]
        merged = merge_topk([run.topk() for run in runs], num_queries=len(queries), k=3)
        assert hit_keys(merged) == hit_keys(whole.topk())
        for field in ("candidates", "admitted", "rejected", "cells_skipped_prefilter"):
            assert sum(getattr(run.stats, field) for run in runs) == getattr(
                whole.stats, field
            ), field
        assert _hit_keys(merged) == _hit_keys(exhaustive_topk(queries, records, **kwargs))

    def test_tables_are_compact_sorted_and_built_once(self):
        ref = random_genome(5_000, seed=3)
        index = ReferenceIndex(ref)
        t11 = index.table(11)
        assert t11.codes.dtype == np.uint32
        assert t11.record.dtype == t11.pos.dtype == np.int32

        def nbytes(table):
            return table.codes.nbytes + table.record.nbytes + table.pos.nbytes

        assert nbytes(t11) == 12 * (5_000 - 10)  # 12 bytes per base
        assert index.table(11) is t11
        assert np.all(np.diff(t11.codes.astype(np.int64)) >= 0)
        assert np.array_equal(kmer_codes(ref, 11)[t11.pos], t11.codes)
        t17 = index.table(17)
        assert t17.codes.dtype == np.int64 and nbytes(t17) == 16 * (5_000 - 16)

    def test_reused_across_searches(self, monkeypatch):
        from repro.search import seeds

        builds = []
        real = seeds._kmer_table
        monkeypatch.setattr(
            seeds, "_kmer_table", lambda records, k: builds.append(k) or real(records, k)
        )
        ref, queries, _ = _planted_instance(6_000, 4, 60, seed=19)
        index = ReferenceIndex(ref)
        a = search_topk(queries, index, k=2)
        b = search_topk(queries[:2], index, k=2, kmer=13)
        c = search_topk(queries, index, k=2)
        assert builds == [11, 13]
        assert _hit_keys(a) == _hit_keys(c) == _hit_keys(search_topk(queries, ref, k=2))
        assert _hit_keys(b) == _hit_keys(search_topk(queries[:2], ref, k=2, kmer=13))

    def test_invalid_reference_rejected_at_construction(self):
        with pytest.raises(ValidationError, match="'chrN'.*invalid DNA character 'N'"):
            ReferenceIndex([FastaRecord("chr1", encode("ACGT")), FastaRecord("chrN", "ACGTN")])
        with pytest.raises(ValidationError, match="not chunks"):
            ReferenceIndex(list(chunk_sequence(random_genome(300, seed=1), 100, 20)))
