"""Tests for the lane-batched banded verify kernel and seed-anchored bands.

Covers the compiled banded kernel (``banded_score_lanes`` through the
``stage/`` codegen path, and ``banded_score`` as its one-lane call on 1-D
rows) against the masked-DP oracle, the band/edge geometry, the seed-diagonal envelope from the
prefilter, band-keyed bucketing, and the backend routing of verify
buckets.
"""

import numpy as np
import pytest
from test_banded import (
    AFF,
    HARSH_AFF,
    LIN,
    SEMI_AFF,
    SEMI_LIN,
    _masked_reference_banded,
)

from repro.core.banded import band_cells, banded_score, banded_score_lanes, effective_band
from repro.core.recurrence import score_reference
from repro.core.scoring import affine_gap_scoring, semiglobal_scheme, simple_subst_scoring
from repro.engine import ExecutionEngine, PlanCache
from repro.engine.batching import ShapeBatcher
from repro.engine.stages import Batch, Request
from repro.search.pipeline import BandedVerifyStage, search
from repro.search.seeds import QueryIndex, kmer_codes
from repro.util.checks import ValidationError
from repro.util.encoding import encode
from repro.util.rng import make_rng
from repro.workloads import MutationModel, mutate, random_genome

ALL_SCHEMES = pytest.mark.parametrize(
    "scheme",
    [LIN, AFF, SEMI_LIN, SEMI_AFF, HARSH_AFF],
    ids=["linear", "affine", "semi-linear", "semi-affine", "harsh-affine"],
)


def _random_stack(rng, scheme, lanes, size=30):
    from repro.core.types import AlignmentType

    semi = scheme.alignment_type is AlignmentType.SEMIGLOBAL
    n, m = (int(x) for x in rng.integers(1, size, 2))
    extra = int(rng.integers(0, 10))
    band = extra if semi else abs(n - m) + extra
    qs = rng.integers(0, 4, (lanes, n)).astype(np.uint8)
    ss = rng.integers(0, 4, (lanes, m)).astype(np.uint8)
    return qs, ss, band


class TestLaneKernelBitIdentity:
    @ALL_SCHEMES
    def test_matches_scalar_sweep(self, scheme):
        rng = np.random.default_rng(7)
        for _ in range(12):
            lanes = int(rng.integers(1, 7))
            qs, ss, band = _random_stack(rng, scheme, lanes)
            got = banded_score_lanes(qs, ss, scheme, band)
            want = [_masked_reference_banded(q, s, scheme, band) for q, s in zip(qs, ss)]
            assert got.tolist() == want

    @ALL_SCHEMES
    def test_matches_masked_oracle(self, scheme):
        rng = np.random.default_rng(11)
        for _ in range(6):
            qs, ss, band = _random_stack(rng, scheme, 3, size=20)
            got = banded_score_lanes(qs, ss, scheme, band)
            want = [
                _masked_reference_banded(q, s, scheme, band) for q, s in zip(qs, ss)
            ]
            assert got.tolist() == want

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
    def test_dtypes_agree(self, dtype):
        rng = np.random.default_rng(13)
        qs = rng.integers(0, 4, (4, 24)).astype(np.uint8)
        ss = rng.integers(0, 4, (4, 30)).astype(np.uint8)
        got = banded_score_lanes(qs, ss, SEMI_AFF, 9, dtype=dtype)
        want = [_masked_reference_banded(q, s, SEMI_AFF, 9) for q, s in zip(qs, ss)]
        assert got.dtype == np.int64 and got.tolist() == want

    def test_widen_matches_scalar(self):
        rng = np.random.default_rng(17)
        qs = rng.integers(0, 4, (3, 20)).astype(np.uint8)
        ss = rng.integers(0, 4, (3, 8)).astype(np.uint8)
        got = banded_score_lanes(qs, ss, LIN, 2, widen=True)
        # Widened to the corner: band |20 - 8| = 12.
        want = [_masked_reference_banded(q, s, LIN, 12) for q, s in zip(qs, ss)]
        assert got.tolist() == want
        with pytest.raises(ValidationError, match="widen"):
            banded_score_lanes(qs, ss, LIN, 2)

    @pytest.mark.parametrize(
        "scheme",
        [LIN, AFF, SEMI_LIN, SEMI_AFF],
        ids=["linear", "affine", "semi-linear", "semi-affine"],
    )
    @pytest.mark.parametrize(
        "n, m, band",
        [(16, 16, 0), (9, 23, 0), (14, 11, 40), (80, 6, 2)],
        ids=["band-0", "band-0-unequal", "band-over-m", "n-over-m"],
    )
    def test_one_pair_is_its_lane(self, scheme, n, m, band):
        # banded_score is the one-lane call of the same kernel on 1-D rows:
        # each pair's score equals its lane in the stack, and the oracle.
        rng = np.random.default_rng(n * 100 + m + band)
        qs = rng.integers(0, 4, (3, n)).astype(np.uint8)
        ss = rng.integers(0, 4, (3, m)).astype(np.uint8)
        lanes = banded_score_lanes(qs, ss, scheme, band, widen=True, dtype=np.int64)
        wide = effective_band(n, m, band, scheme, widen=True)
        for q, s, lane in zip(qs, ss, lanes.tolist()):
            one = banded_score(q, s, scheme, band, widen=True)
            assert type(one) is int and one == lane
            assert one == _masked_reference_banded(q, s, scheme, wide)

    def test_requires_uniform_stack(self):
        qs = np.zeros((2, 10), dtype=np.uint8)
        ss = np.zeros((3, 12), dtype=np.uint8)
        with pytest.raises(ValidationError, match="lanes"):
            banded_score_lanes(qs, ss, SEMI_LIN, 4)


class TestEdgeGeometry:
    def test_band_zero_after_widening(self):
        # Equal lengths: widen keeps band 0 — the pure diagonal.
        q, s = encode("ACGTACGT"), encode("ACCTACGT")
        want = _masked_reference_banded(q, s, LIN, 0)
        assert banded_score(q, s, LIN, 0, widen=True) == want
        got = banded_score_lanes(q[None, :], s[None, :], LIN, 0, widen=True)
        assert got[0] == want
        assert band_cells(8, 8, 0) == 8

    @ALL_SCHEMES
    def test_band_at_least_m_is_full_dp(self, scheme):
        rng = np.random.default_rng(23)
        n, m = 11, 7
        band = max(n, m)
        qs = rng.integers(0, 4, (2, n)).astype(np.uint8)
        ss = rng.integers(0, 4, (2, m)).astype(np.uint8)
        wider = banded_score_lanes(qs, ss, scheme, band + 5)
        assert banded_score_lanes(qs, ss, scheme, band).tolist() == wider.tolist()
        assert wider.tolist() == [score_reference(q, s, scheme) for q, s in zip(qs, ss)]
        assert band_cells(n, m, band) == n * m

    @pytest.mark.parametrize("scheme", [SEMI_LIN, SEMI_AFF], ids=["linear", "affine"])
    def test_single_row_and_single_column(self, scheme):
        rng = np.random.default_rng(29)
        for n, m in [(1, 17), (17, 1), (1, 1)]:
            for band in (0, 2, 20):
                qs = rng.integers(0, 4, (2, n)).astype(np.uint8)
                ss = rng.integers(0, 4, (2, m)).astype(np.uint8)
                got = banded_score_lanes(qs, ss, scheme, band)
                want = [
                    _masked_reference_banded(q, s, scheme, band)
                    for q, s in zip(qs, ss)
                ]
                assert got.tolist() == want

    def test_effective_band_semiglobal_vs_global(self):
        # Global must reach the corner: widen lifts the band to |n - m|;
        # semiglobal keeps any requested band.
        assert effective_band(20, 8, 3, LIN, widen=True) == 12
        assert effective_band(20, 8, 3, SEMI_LIN, widen=True) == 3
        assert effective_band(20, 8, 14, LIN, widen=True) == 14
        with pytest.raises(ValidationError, match="corner"):
            effective_band(20, 8, 3, LIN)


class TestSeedEnvelope:
    def test_seed_scan_matches_counts_and_envelope(self):
        rng = make_rng(41)
        ref = random_genome(4000, seed=rng)
        queries = [ref[100:180].copy(), ref[2000:2080].copy()]
        index = QueryIndex(queries, k=11)
        window = ref[80:400]
        counts, diag_lo, diag_hi = index.seed_scan(window)
        wset = set(kmer_codes(window, 11).tolist())
        assert counts.tolist() == [
            len(set(kmer_codes(q, 11).tolist()) & wset) for q in queries
        ]
        # Query 0 sits at offset 20 in the window: every seed diagonal is 20.
        assert counts[0] > 0 and diag_lo[0] == diag_hi[0] == 20
        # Query 1 shares no seeds: sentinel envelope stays inverted.
        assert counts[1] == 0 and diag_lo[1] > diag_hi[1]

    def test_band_of_anchors_and_quantizes(self):
        eng = ExecutionEngine(plan_cache=PlanCache(), backend="rowscan")
        stage = BandedVerifyStage(eng.plan_for("rowscan"), band_pad=16)
        q = np.zeros(100, dtype=np.uint8)
        s = np.zeros(300, dtype=np.uint8)

        def req(meta):
            return Request(key=0, query=q, subject=s, meta=meta)

        extent = abs(300 - 100) + 16
        # Anchored: max(|diag|) + pad, rounded up to the 32-cell quantum.
        assert stage.band_of(req({"diag_lo": 40, "diag_hi": 44})) == 64
        # Wide envelopes cap at the window extent.
        assert stage.band_of(req({"diag_lo": -10, "diag_hi": 290})) == extent
        # No envelope (or inverted sentinel) falls back to the extent.
        assert stage.band_of(req({})) == extent
        big = 2**62
        assert stage.band_of(req({"diag_lo": big, "diag_hi": -big})) == extent
        # An explicit band overrides anchoring entirely.
        fixed = BandedVerifyStage(eng.plan_for("rowscan"), band=40)
        assert fixed.band_of(req({"diag_lo": 0, "diag_hi": 0})) == 40


class TestBandKeyedBatching:
    def test_key_of_splits_same_shape(self):
        batcher = ShapeBatcher(max_lanes=8, key_of=lambda r: r.meta["band"])
        q = np.zeros(10, dtype=np.uint8)
        s = np.zeros(20, dtype=np.uint8)
        reqs = [
            Request(key=i, query=q, subject=s, meta={"band": 32 * (1 + i % 2)})
            for i in range(6)
        ]
        batches = []
        for r in reqs:
            batches.extend(batcher.add(r))
        batches.extend(batcher.flush())
        assert len(batches) == 2
        for batch in batches:
            bands = {r.meta["band"] for r in batch.requests}
            assert len(bands) == 1 and batch.shape == (10, 20)


class TestSimulatedBackendBanded:
    @pytest.mark.parametrize("backend", ["gpu", "fpga"])
    def test_capability_and_score(self, backend):
        from repro.core import Aligner
        from repro.core.backend import capability_matrix

        assert capability_matrix()[backend].banded
        a = Aligner(SEMI_AFF, backend=backend)
        rng = np.random.default_rng(43)
        q = rng.integers(0, 4, 30).astype(np.uint8)
        s = rng.integers(0, 4, 50).astype(np.uint8)
        assert a.banded_score(q, s, 12) == _masked_reference_banded(q, s, SEMI_AFF, 12)

    @pytest.mark.parametrize("backend", ["gpu", "fpga", "simd"])
    def test_plan_score_banded_block(self, backend):
        eng = ExecutionEngine(SEMI_LIN, plan_cache=PlanCache(), backend=backend)
        plan = eng.plan_for(backend)
        rng = np.random.default_rng(47)
        qs = rng.integers(0, 4, (3, 20)).astype(np.uint8)
        ss = rng.integers(0, 4, (3, 35)).astype(np.uint8)
        got = plan.score_banded_block(qs, ss, 10)
        want = [_masked_reference_banded(q, s, SEMI_LIN, 10) for q, s in zip(qs, ss)]
        assert got.tolist() == want

    @pytest.mark.parametrize("scheme", [SEMI_AFF, AFF], ids=["semi-affine", "affine"])
    @pytest.mark.parametrize("backend", ["gpu", "fpga"])
    def test_lane_less_block_is_one_stack_call(self, backend, scheme, monkeypatch):
        # Backends without lane batching still sweep a banded block as one
        # lane stack of the kernel score_banded runs on one lane.
        import repro.core.banded as banded

        plan = ExecutionEngine(scheme, plan_cache=PlanCache(), backend=backend).plan_for(backend)
        assert not plan.lane_batching
        rng = np.random.default_rng(59)
        qs = rng.integers(0, 4, (16, 30)).astype(np.uint8)
        ss = rng.integers(0, 4, (16, 45)).astype(np.uint8)
        calls = []

        def counted(queries, *args, **kwargs):
            calls.append(np.shape(queries))
            return real(queries, *args, **kwargs)

        real = banded.banded_score_lanes
        monkeypatch.setattr(banded, "banded_score_lanes", counted)
        got = plan.score_banded_block(qs, ss, 8, widen=True)
        assert calls == [(16, 30)]
        assert got.dtype == np.int64
        assert got.tolist() == [
            plan.score_banded(q, s, 8, widen=True) for q, s in zip(qs, ss)
        ]
        monkeypatch.undo()
        stage = BandedVerifyStage(plan, 8)
        reqs = [Request(k, q, s) for k, (q, s) in enumerate(zip(qs, ss))]
        scores, _ = stage.execute(Batch(shape=(30, 45), requests=reqs))
        assert scores.tolist() == got.tolist()
        assert stage.path_stats()["lanes"]["pairs"] == 16


class TestSearchRouting:
    def _workload(self):
        rng = make_rng(53)
        ref = random_genome(30_000, seed=rng)
        positions = rng.integers(0, ref.size - 100, 24)
        model = MutationModel(substitution=0.03, insertion=0.0, deletion=0.0)
        queries = [mutate(ref[p : p + 100], model, seed=rng) for p in positions]
        return ref, queries

    def _flat(self, run):
        return [[(h.record, h.start, h.score) for h in hs] for hs in run.topk()]

    def test_lane_and_scalar_paths_agree(self):
        ref, queries = self._workload()
        lane = search(queries, ref, k=3, min_score=160)
        scalar = search(queries, ref, k=3, min_score=160, lane_verify=False)
        legacy = search(
            queries, ref, k=3, min_score=160, anchor=False, lane_verify=False
        )
        assert self._flat(lane) == self._flat(scalar) == self._flat(legacy)
        stats = lane.pipeline.stage.path_stats()
        assert stats["lanes"]["pairs"] > 0
        assert scalar.pipeline.stage.path_stats()["lanes"]["pairs"] == 0
        # Anchoring never computes more cells than the window extent.
        assert (
            lane.stats.cells_computed + scalar.stats.cells_computed
        ) <= 2 * legacy.stats.cells_computed
