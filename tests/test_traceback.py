"""Tests for linear-space traceback (repro.core.traceback / blockdp)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blockdp import (
    DIAG,
    E_CLOSE,
    E_STAY,
    F_CLOSE,
    F_STAY,
    H_E,
    H_F,
    LEFT,
    UP,
    fill_block,
    sweep_best,
    sweep_last_rows,
)
from repro.core.recurrence import align_reference, dp_matrices, score_reference
from repro.core.scoring import (
    affine_gap_scoring,
    global_scheme,
    linear_gap_scoring,
    local_scheme,
    rescore_alignment,
    semiglobal_scheme,
    simple_subst_scoring,
)
from repro.core.traceback import (
    DEFAULT_BLOCK_CUTOFF,
    _block_lanes,
    _pad,
    align_block,
    align_lanes,
    align_linear_space,
    align_pairs,
    lane_parts,
)
from repro.util.encoding import encode

from helpers import assert_valid_result, random_dna_str

SUB = simple_subst_scoring(2, -1)
LINEAR = linear_gap_scoring(SUB, -1)
AFFINE = affine_gap_scoring(SUB, -2, -1)

SCHEMES = {
    "global-linear": global_scheme(LINEAR),
    "global-affine": global_scheme(AFFINE),
    "local-linear": local_scheme(LINEAR),
    "local-affine": local_scheme(AFFINE),
    "semiglobal-linear": semiglobal_scheme(LINEAR),
    "semiglobal-affine": semiglobal_scheme(AFFINE),
}

dna = st.text(alphabet="ACGT", min_size=1, max_size=50)


def _ref_flags(q, s, scoring):
    """The walker's move equalities, computed from the reference matrices."""
    ref = dp_matrices(q, s, global_scheme(scoring))
    H = ref.H
    sub = scoring.subst.table[q[:, None], s[None, :]]
    Hc = H[1:, 1:]
    bits = {DIAG: Hc == H[:-1, :-1] + sub}
    if scoring.is_affine:
        go, ge = scoring.gaps.open, scoring.gaps.extend
        E, F = ref.E, ref.F
        e_stay = E[1:, 1:] == E[:-1, 1:] + ge
        e_stay[0] = False  # no extension from the border row
        f_stay = F[1:, 1:] == F[1:, :-1] + ge
        f_stay[:, 0] = False
        bits.update(
            {
                H_E: Hc == E[1:, 1:],
                H_F: Hc == F[1:, 1:],
                E_STAY: e_stay,
                E_CLOSE: E[1:, 1:] == H[:-1, 1:] + go + ge,
                F_STAY: f_stay,
                F_CLOSE: F[1:, 1:] == H[1:, :-1] + go + ge,
            }
        )
    else:
        g = scoring.gaps.gap
        bits.update({UP: Hc == H[:-1, 1:] + g, LEFT: Hc == H[1:, :-1] + g})
    return ref, bits


def _matrix_end(H, scheme):
    """The end cell a strict-improvement scan of ``H`` picks (the tie rule)."""
    n, m = H.shape[0] - 1, H.shape[1] - 1
    at = scheme.alignment_type.value
    if at == "global":
        return n, m
    if at == "local":
        return divmod(int(np.argmax(H)), m + 1)
    i = int(np.argmax(H[:, m]))
    j = int(np.argmax(H[n]))
    return (n, j) if H[n, j] > H[i, m] else (i, m)


def _matrix_walk(q, s, scheme):
    """``(query_aligned, subject_aligned, i0, i1, j0, j1)`` walked over full
    score matrices.

    The walker as it ran on H/E/F before move flags, here over the
    reference matrices of the scheme: from the end cell, the diagonal
    first, then E, then F; a gap state extends before it closes.  The H
    state stops on the top or left border, or (local) where H is 0; a
    global walk goes on along the border to the corner.
    """
    scoring = scheme.scoring
    ref = dp_matrices(q, s, scheme)
    H, E, F = ref.H, ref.E, ref.F
    table = scoring.subst.table
    glob = scheme.alignment_type.value == "global"
    local = scheme.alignment_type.value == "local"
    i1, j1 = _matrix_end(H, scheme)
    i, j, state = i1, j1, "H"
    qa, sa = [], []

    def step(di, dj):
        qa.append("ACGT"[q[i - 1]] if di else "-")
        sa.append("ACGT"[s[j - 1]] if dj else "-")
        return i - di, j - dj

    while True:
        if state == "H":
            if i == 0 or j == 0:
                if not glob or i == j == 0:
                    break
                i, j = step(int(i > 0), int(i == 0))
            elif local and H[i, j] == 0:
                break
            elif H[i, j] == H[i - 1, j - 1] + table[q[i - 1], s[j - 1]]:
                i, j = step(1, 1)
            elif scoring.is_affine and H[i, j] == E[i, j]:
                state = "E"
            elif scoring.is_affine and H[i, j] == F[i, j]:
                state = "F"
            elif not scoring.is_affine and H[i, j] == H[i - 1, j] + scoring.gaps.gap:
                i, j = step(1, 0)
            else:
                i, j = step(0, 1)
        elif state == "E":
            if not (i > 1 and E[i, j] == E[i - 1, j] + scoring.gaps.extend):
                state = "H"
            i, j = step(1, 0)
        else:
            if not (j > 1 and F[i, j] == F[i, j - 1] + scoring.gaps.extend):
                state = "H"
            i, j = step(0, 1)
    return "".join(reversed(qa)), "".join(reversed(sa)), i, i1, j, j1


class TestFillBlock:
    @pytest.mark.parametrize("scoring", [LINEAR, AFFINE], ids=["linear", "affine"])
    def test_matches_reference_global(self, scoring):
        # Every move flag is the equality the walker would test on the
        # reference matrices (F in scan form equals the textbook F for
        # open <= 0); borders carry no flags.
        rng = np.random.default_rng(1)
        for _ in range(10):
            n, m = rng.integers(1, 30, 2)
            q = rng.integers(0, 4, n).astype(np.uint8)
            s = rng.integers(0, 4, m).astype(np.uint8)
            flags = fill_block(q, s, scoring)
            assert flags.shape == (n + 1, m + 1) and flags.dtype == np.uint8
            _ref, bits = _ref_flags(q, s, scoring)
            for bit, want in bits.items():
                np.testing.assert_array_equal((flags[1:, 1:] & bit) != 0, want)
            assert not flags[0].any() and not flags[:, 0].any()

    def test_top_open_discount(self):
        # With a pre-opened vertical gap, an initial deletion costs only
        # the extension: H(1,0) = ge (not go+ge) ...
        q, s = encode("AA"), encode("A")
        assert sweep_last_rows(q[:1], s, AFFINE, top_open=True)[0][0] == -1
        assert sweep_last_rows(q[:1], s, AFFINE, top_open=False)[0][0] == -3
        # ... so at (2, 1) the diagonal beats re-entering the gap, which
        # ties it when the gap must be opened.
        opened = fill_block(q, s, AFFINE, top_open=True)
        closed = fill_block(q, s, AFFINE, top_open=False)
        assert opened[2, 1] & DIAG and not opened[2, 1] & H_E
        assert closed[2, 1] & DIAG and closed[2, 1] & H_E

    @pytest.mark.parametrize("scoring", [LINEAR, AFFINE], ids=["linear", "affine"])
    def test_walk_matches_matrix_walk(self, scoring):
        # The flag walker picks the co-optimal path the walk over score
        # matrices picks (homopolymer runs make many of them).
        rng = np.random.default_rng(53)
        for _ in range(30):
            q = rng.choice([0, 0, 0, 1], int(rng.integers(1, 25))).astype(np.uint8)
            s = rng.choice([0, 0, 0, 1], int(rng.integers(1, 25))).astype(np.uint8)
            res = align_block(q, s, global_scheme(scoring))
            assert (res.query_aligned, res.subject_aligned) == _matrix_walk(
                q, s, global_scheme(scoring)
            )[:2]

    @pytest.mark.parametrize(
        "name", ["local-linear", "local-affine", "semiglobal-linear", "semiglobal-affine"]
    )
    def test_one_pass_walk_matches_matrix_walk(self, name):
        # A read-scale local or semi-global lane is one fill of its whole
        # matrix and one walk from the end cell: the alignment, start cell
        # included, is the one the matrix walk under the tie rule picks.
        # Low-entropy pairs make many co-optimal paths; uniform ones put
        # zero-floor cells on them.
        scheme = SCHEMES[name]
        rng = np.random.default_rng(67)
        for alphabet in ([0, 0, 0, 1],) * 40 + ([0, 1, 2, 3],) * 40:
            q = rng.choice(alphabet, int(rng.integers(1, 25))).astype(np.uint8)
            s = rng.choice(alphabet, int(rng.integers(1, 25))).astype(np.uint8)
            want = _matrix_walk(q, s, scheme)
            for res in (align_block(q, s, scheme), align_linear_space(q, s, scheme)):
                got = (
                    res.query_aligned,
                    res.subject_aligned,
                    res.query_start,
                    res.query_end,
                    res.subject_start,
                    res.subject_end,
                )
                assert got == want

    def test_top_open_linear_rejected(self):
        with pytest.raises(ValueError):
            fill_block(encode("A"), encode("A"), LINEAR, top_open=True)


class TestSweeps:
    def test_last_row_equals_matrix_row(self):
        rng = np.random.default_rng(5)
        for scoring in (LINEAR, AFFINE):
            n, m = 25, 31
            q = rng.integers(0, 4, n).astype(np.uint8)
            s = rng.integers(0, 4, m).astype(np.uint8)
            H_last, E_last = sweep_last_rows(q, s, scoring)
            ref = dp_matrices(q, s, global_scheme(scoring))
            np.testing.assert_array_equal(H_last, ref.H[n])
            if scoring.is_affine:
                np.testing.assert_array_equal(E_last, ref.E[n])

    @pytest.mark.parametrize("name", ["local-linear", "local-affine"])
    def test_sweep_best_finds_local_optimum(self, name):
        scheme = SCHEMES[name]
        rng = np.random.default_rng(13)
        for _ in range(10):
            n, m = rng.integers(1, 40, 2)
            q = rng.integers(0, 4, n).astype(np.uint8)
            s = rng.integers(0, 4, m).astype(np.uint8)
            best, (i, j) = sweep_best(q, s, scheme, zero_init=True, track="all")
            ref = dp_matrices(q, s, scheme)
            assert best == ref.best_score
            assert ref.H[i, j] == best  # position attains the optimum

    @pytest.mark.parametrize("name", ["semiglobal-linear", "semiglobal-affine"])
    def test_sweep_best_semiglobal_border(self, name):
        scheme = SCHEMES[name]
        rng = np.random.default_rng(17)
        for _ in range(10):
            n, m = rng.integers(1, 40, 2)
            q = rng.integers(0, 4, n).astype(np.uint8)
            s = rng.integers(0, 4, m).astype(np.uint8)
            best, (i, j) = sweep_best(q, s, scheme, zero_init=True, track="border")
            ref = dp_matrices(q, s, scheme)
            assert best == ref.best_score
            assert i == n or j == m


@pytest.mark.parametrize("name", sorted(SCHEMES))
class TestAlignLinearSpace:
    def test_score_and_rescore(self, name):
        scheme = SCHEMES[name]
        rng = np.random.default_rng(hash(name) % 2**32)
        for _ in range(15):
            q = random_dna_str(rng, int(rng.integers(1, 80)))
            s = random_dna_str(rng, int(rng.integers(1, 80)))
            res = align_linear_space(encode(q), encode(s), scheme, cutoff=64)
            assert res.score == score_reference(encode(q), encode(s), scheme)
            assert_valid_result(res, q, s, scheme)

    def test_matches_block_mode(self, name):
        scheme = SCHEMES[name]
        rng = np.random.default_rng(4242)
        q = random_dna_str(rng, 70)
        s = random_dna_str(rng, 65)
        deep = align_linear_space(encode(q), encode(s), scheme, cutoff=16)
        block = align_block(encode(q), encode(s), scheme)
        assert deep.score == block.score
        # Both must rescore to the same optimum (strings may differ on ties).
        assert rescore_alignment(deep.query_aligned, deep.subject_aligned, scheme.scoring) == rescore_alignment(
            block.query_aligned, block.subject_aligned, scheme.scoring
        )

    @settings(max_examples=20, deadline=None)
    @given(q=dna, s=dna, cutoff=st.sampled_from([8, 32, 256]))
    def test_property_any_cutoff(self, name, q, s, cutoff):
        scheme = SCHEMES[name]
        res = align_linear_space(encode(q), encode(s), scheme, cutoff=cutoff)
        assert res.score == score_reference(encode(q), encode(s), scheme)
        assert_valid_result(res, q, s, scheme)


class TestAffineGapRuns:
    def test_long_gap_crossing_midline(self):
        # A 30-char deletion spanning the Hirschberg split must be charged
        # one gap-open, not two (Myers–Miller E-join).
        scheme = SCHEMES["global-affine"]
        core = "ACGTACGTACGTACGTACGTACGTACGTA"
        q = encode(core[:14] + "G" * 30 + core[14:])
        s = encode(core)
        res = align_linear_space(q, s, scheme, cutoff=8)
        assert res.score == score_reference(q, s, scheme)
        assert "-" * 30 in res.subject_aligned
        assert rescore_alignment(res.query_aligned, res.subject_aligned, scheme.scoring) == res.score

    def test_adversarial_gap_positions(self):
        scheme = SCHEMES["global-affine"]
        rng = np.random.default_rng(77)
        for _ in range(10):
            base = random_dna_str(rng, 60)
            cut = int(rng.integers(5, 55))
            gap_len = int(rng.integers(5, 25))
            ins = random_dna_str(rng, gap_len)
            q = encode(base[:cut] + ins + base[cut:])
            s = encode(base)
            res = align_linear_space(q, s, scheme, cutoff=8)
            assert res.score == score_reference(q, s, scheme)


class TestLocalEdgeCases:
    def test_no_positive_alignment_is_empty(self):
        res = align_linear_space(encode("AAAA"), encode("TTTT"), SCHEMES["local-linear"])
        assert res.score == 0
        assert res.query_aligned == "" and res.subject_aligned == ""

    def test_local_segment_bounds(self):
        q = "TTTT" + "ACGTACGT" + "TTTT"
        s = "GGGG" + "ACGTACGT" + "GGGG"
        res = align_linear_space(encode(q), encode(s), SCHEMES["local-linear"])
        assert res.score == 16
        assert q[res.query_start : res.query_end] == "ACGTACGT"
        assert s[res.subject_start : res.subject_end] == "ACGTACGT"

    def test_semiglobal_read_in_reference(self):
        ref = "TTTTACGTACGTTTTT"
        read = "ACGTACGT"
        res = align_linear_space(encode(read), encode(ref), SCHEMES["semiglobal-linear"])
        assert res.score == 16
        assert res.query_start == 0 and res.query_end == len(read)
        assert ref[res.subject_start : res.subject_end] == read


class TestLargerInputs:
    @pytest.mark.parametrize("name", ["global-linear", "global-affine"])
    def test_medium_global(self, name):
        scheme = SCHEMES[name]
        rng = np.random.default_rng(123)
        base = rng.integers(0, 4, 400).astype(np.uint8)
        q = base.copy()
        # mutate ~5%
        pos = rng.choice(400, 20, replace=False)
        q[pos] = (q[pos] + 1 + rng.integers(0, 3, 20)) % 4
        res = align_linear_space(q, base, scheme, cutoff=256)
        assert rescore_alignment(res.query_aligned, res.subject_aligned, scheme.scoring) == res.score
        from repro.core.kernels import score_rowscan

        assert res.score == score_rowscan(q, base, scheme)


# -- lane stacks ---------------------------------------------------------

def _fields(res):
    return (
        res.score,
        res.query_aligned,
        res.subject_aligned,
        res.query_start,
        res.query_end,
        res.subject_start,
        res.subject_end,
    )


def _assert_lanes_match_singles(qs, ss, scheme, cutoff):
    """Every lane equals the one-pair call, and rescores to the optimum."""
    got = align_lanes([encode(q) for q in qs], [encode(s) for s in ss], scheme, cutoff)
    assert len(got) == len(qs)
    for q, s, res in zip(qs, ss, got):
        want = align_linear_space(encode(q), encode(s), scheme, cutoff)
        assert _fields(res) == _fields(want)
        assert res.meta == want.meta
        assert res.score == score_reference(encode(q), encode(s), scheme)
        assert_valid_result(res, q, s, scheme)


def _homopolymer(base_runs):
    return "".join(base * length for base, length in base_runs)


runs = st.lists(st.tuples(st.sampled_from("ACGT"), st.integers(1, 6)), min_size=1, max_size=8)


@st.composite
def homopolymer_indel_pairs(draw):
    """A homopolymer-run read and a copy with runs grown or shrunk: rich in
    co-optimal gap placements."""
    base = draw(runs)
    edited = [(b, max(1, n + draw(st.integers(-2, 2)))) for b, n in base]
    return _homopolymer(base), _homopolymer(edited)


@pytest.mark.parametrize("name", sorted(SCHEMES))
class TestAlignLanes:
    @settings(max_examples=25, deadline=None)
    @given(
        pairs=st.lists(st.tuples(dna, dna), min_size=1, max_size=6),
        cutoff=st.sampled_from([8, 64, DEFAULT_BLOCK_CUTOFF, None]),
    )
    def test_mixed_widths_match_singles(self, name, pairs, cutoff):
        qs, ss = zip(*pairs)
        _assert_lanes_match_singles(qs, ss, SCHEMES[name], cutoff)

    @settings(max_examples=25, deadline=None)
    @given(
        pairs=st.lists(homopolymer_indel_pairs(), min_size=1, max_size=5),
        cutoff=st.sampled_from([8, DEFAULT_BLOCK_CUTOFF]),
    )
    def test_homopolymer_indels_match_singles(self, name, pairs, cutoff):
        qs, ss = zip(*pairs)
        _assert_lanes_match_singles(qs, ss, SCHEMES[name], cutoff)

    def test_one_lane_and_unit_extents(self, name):
        scheme = SCHEMES[name]
        _assert_lanes_match_singles(["ACGTTGCA"], ["ACGTGCA"], scheme, None)
        # n = 1 and m = 1 lanes padded next to wide ones.
        qs = ["A", "ACGTACGTAC", "G", "TTGACCA"]
        ss = ["ACGTTA", "C", "G", "TTGCCAGGA"]
        for cutoff in (8, DEFAULT_BLOCK_CUTOFF):
            _assert_lanes_match_singles(qs, ss, scheme, cutoff)

    def test_block_at_cutoff_equals_align_block(self, name):
        # A segment of at most `cutoff` cells is one block: the result is
        # align_block's, whatever the recursion would have chosen.
        scheme = SCHEMES[name]
        rng = np.random.default_rng(29)
        for _ in range(6):
            q = encode(random_dna_str(rng, int(rng.integers(1, 40))))
            s = encode(random_dna_str(rng, int(rng.integers(1, 40))))
            cells = (q.size + 1) * (s.size + 1)  # the segment is at most this
            for cutoff in (cells, cells + 1, DEFAULT_BLOCK_CUTOFF):
                assert _fields(align_linear_space(q, s, scheme, cutoff)) == _fields(
                    align_block(q, s, scheme)
                )

    def test_align_pairs_keeps_input_order(self, name):
        scheme = SCHEMES[name]
        rng = np.random.default_rng(31)
        qs = [encode(random_dna_str(rng, int(rng.integers(1, 30)))) for _ in range(70)]
        ss = [encode(random_dna_str(rng, int(rng.integers(1, 30)))) for _ in range(70)]
        got = align_pairs(qs, ss, scheme)
        assert [_fields(r) for r in got] == [
            _fields(align_linear_space(q, s, scheme)) for q, s in zip(qs, ss)
        ]


class TestLaneEdgeCases:
    def test_local_without_positive_score_is_empty_in_a_stack(self):
        scheme = SCHEMES["local-affine"]
        got = align_lanes(
            [encode("AAAA"), encode("ACGTAC"), encode("CCC")],
            [encode("TTTT"), encode("GACGTA"), encode("GGGGG")],
            scheme,
        )
        assert [r.score for r in got] == [0, 10, 0]
        for k in (0, 2):
            assert got[k].query_aligned == got[k].subject_aligned == ""
            assert (got[k].query_start, got[k].query_end) == (0, 0)
        _assert_lanes_match_singles(
            ["AAAA", "ACGTAC", "CCC"], ["TTTT", "GACGTA", "GGGGG"], scheme, 8
        )

    def test_affine_gap_crossing_a_split_next_to_blocks(self):
        # One lane recurses (a 30-base deletion across the midline, charged
        # one open), its neighbours are solved as blocks in the same call.
        scheme = SCHEMES["global-affine"]
        core = "ACGTACGTACGTACGTACGTACGTACGTA"
        qs = [core[:14] + "G" * 30 + core[14:], "ACGT", "ACGGT"]
        ss = [core, "AGT", "ACGT"]
        got = align_lanes([encode(q) for q in qs], [encode(s) for s in ss], scheme, cutoff=64)
        assert "-" * 30 in got[0].subject_aligned
        _assert_lanes_match_singles(qs, ss, scheme, 64)

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_above_cutoff_lane_next_to_one_pass_lanes(self, name, monkeypatch):
        # Each lane picks its path by its own extents: the one lane whose
        # matrix passes the cutoff goes through the segment sweeps and the
        # recursion, its one-pass neighbours do not, and every lane still
        # equals its single-pair call.
        import repro.core.traceback as tb

        scheme = SCHEMES[name]
        rng = np.random.default_rng(71)
        big = _homopolymer([("ACGT"[int(b)], int(k)) for b, k in rng.integers(1, 4, (12, 2))])
        qs = ["ACGTA", big, "AAT", "CCAG"]
        ss = ["AACGT", big[3:] + "GATTACA", "AT", "CAAG"]
        segmented = []
        segments = tb._segments
        monkeypatch.setattr(
            tb, "_segments", lambda q, s, sch: segmented.append(len(q)) or segments(q, s, sch)
        )
        _assert_lanes_match_singles(qs, ss, scheme, 48)
        # The stacked call segments only the big lane; so does its own call.
        assert segmented[0] == 1 and all(count == 1 for count in segmented)

    @pytest.mark.parametrize("name", ["local-affine", "semiglobal-linear"])
    def test_one_pass_fill_groups_stay_within_flag_budget(self, name, monkeypatch):
        # A stack whose whole-matrix flags pass the budget is filled in
        # lane groups, one after another; each lane is unchanged.
        import repro.core.traceback as tb

        monkeypatch.setattr(tb, "FILL_FLAG_BYTES", 400)
        padded = []
        fill = tb.fill_best
        monkeypatch.setattr(
            tb,
            "fill_best",
            lambda q, s, *a, **k: padded.append(q.shape[0] * (q.shape[1] + 1) * (s.shape[1] + 1))
            or fill(q, s, *a, **k),
        )
        rng = np.random.default_rng(73)
        qs = [random_dna_str(rng, int(rng.integers(1, 15))) for _ in range(12)]
        ss = [random_dna_str(rng, int(rng.integers(1, 25))) for _ in range(12)]
        got = align_lanes([encode(q) for q in qs], [encode(s) for s in ss], SCHEMES[name])
        assert len(padded) > 1 and max(padded) <= 400
        monkeypatch.undo()
        want = align_lanes([encode(q) for q in qs], [encode(s) for s in ss], SCHEMES[name])
        assert [_fields(r) for r in got] == [_fields(r) for r in want]
        _assert_lanes_match_singles(qs, ss, SCHEMES[name], None)

    @pytest.mark.parametrize("top_open", [False, True])
    @pytest.mark.parametrize("bottom_open", [False, True])
    def test_open_boundary_leaf_blocks(self, top_open, bottom_open):
        # Myers–Miller leaves enter or leave the block inside a vertical
        # gap; a stack of such leaves walks each lane as it would alone.
        rng = np.random.default_rng(37)
        qsegs = [rng.integers(0, 4, int(rng.integers(1, 12))).astype(np.uint8) for _ in range(6)]
        ssegs = [rng.integers(0, 4, int(rng.integers(1, 12))).astype(np.uint8) for _ in range(6)]
        got = _block_lanes(qsegs, ssegs, AFFINE, top_open, bottom_open)
        for q, s, ops in zip(qsegs, ssegs, got):
            assert ops == _block_lanes([q], [s], AFFINE, top_open, bottom_open)[0]
            assert sum(op != 2 for op in ops) == q.size  # 2 = LEFT
            assert sum(op != 1 for op in ops) == s.size  # 1 = UP
            if bottom_open:
                assert ops[-1] == 1  # ends inside the vertical gap

    @pytest.mark.parametrize("scoring", [LINEAR, AFFINE], ids=["linear", "affine"])
    def test_padding_is_invisible_to_each_lane(self, scoring):
        rng = np.random.default_rng(41)
        qs = [rng.integers(0, 4, int(rng.integers(1, 20))).astype(np.uint8) for _ in range(5)]
        ss = [rng.integers(0, 4, int(rng.integers(1, 20))).astype(np.uint8) for _ in range(5)]
        stacked = fill_block(_pad(qs), _pad(ss), scoring)
        for k, (q, s) in enumerate(zip(qs, ss)):
            own = fill_block(q, s, scoring)
            np.testing.assert_array_equal(stacked[k, : q.size + 1, : s.size + 1], own)

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_sweep_best_lanes_match_singles(self, name):
        scheme = SCHEMES[name]
        at = scheme.alignment_type.value
        track = {"global": "corner", "local": "all"}.get(at, "border")
        rng = np.random.default_rng(43)
        qs = [rng.integers(0, 4, int(rng.integers(0, 20))).astype(np.uint8) for _ in range(7)]
        ss = [rng.integers(0, 4, int(rng.integers(0, 20))).astype(np.uint8) for _ in range(7)]
        n = [q.size for q in qs]
        m = [s.size for s in ss]
        for zero_init in (False, True):
            best, (bi, bj) = sweep_best(_pad(qs), _pad(ss), scheme, zero_init, track, n=n, m=m)
            for k, (q, s) in enumerate(zip(qs, ss)):
                one = sweep_best(q, s, scheme, zero_init, track)
                assert (int(best[k]), (int(bi[k]), int(bj[k]))) == one

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_sweep_best_tie_order_matches_matrix_scan(self, name):
        # The optimum each sweep reports is the one a strict-improvement
        # scan of the reference matrix picks: first in row-major order
        # ("all"), the last column top-down then the last row ("border").
        scheme = SCHEMES[name]
        at = scheme.alignment_type.value
        track = {"global": "corner", "local": "all"}.get(at, "border")
        rng = np.random.default_rng(47)
        for _ in range(12):
            # Low-entropy inputs: many co-optimal cells.
            q = rng.choice([0, 0, 1], int(rng.integers(1, 15))).astype(np.uint8)
            s = rng.choice([0, 0, 1], int(rng.integers(1, 15))).astype(np.uint8)
            # The forward sweep of the scheme, then the reversed-prefix
            # global sweep tracking the same kind of cell.
            reverse = global_scheme(scheme.scoring)
            for sch, zero_init in ((scheme, at != "global"), (reverse, False)):
                H = dp_matrices(q, s, sch).H
                n, m = q.size, s.size
                if track == "corner":
                    want = (int(H[n, m]), (n, m))
                elif track == "all":
                    flat = int(np.argmax(H))
                    want = (int(H.flat[flat]), divmod(flat, m + 1))
                else:
                    i = int(np.argmax(H[:, m]))
                    want = (int(H[i, m]), (i, m))
                    j = int(np.argmax(H[n]))
                    if H[n, j] > want[0]:
                        want = (int(H[n, j]), (n, j))
                got = sweep_best(_pad([q, q[::-1]]), _pad([s, s[::-1]]), sch, zero_init, track)
                assert (int(got[0][0]), (int(got[1][0][0]), int(got[1][1][0]))) == want


class TestLaneParts:
    def test_every_pair_once_sorted_and_capped(self):
        rng = np.random.default_rng(59)
        qs = ["A" * int(n) for n in rng.integers(1, 50, 150)]
        ss = ["C" * int(m) for m in rng.integers(1, 50, 150)]
        parts = lane_parts(qs, ss, width=16)
        assert sorted(k for part in parts for k in part) == list(range(150))
        flat = [k for part in parts for k in part]
        assert flat == sorted(flat, key=lambda k: (len(qs[k]), len(ss[k])))
        assert max(len(part) for part in parts) <= 16

    def test_padding_stays_below_half_of_a_stack(self):
        rng = np.random.default_rng(61)
        qs = ["A" * int(n) for n in rng.integers(1, 400, 200)]
        ss = ["C" * int(m) for m in rng.integers(1, 400, 200)]
        for part in lane_parts(qs, ss):
            n = [len(qs[k]) + 1 for k in part]
            m = [len(ss[k]) + 1 for k in part]
            assert len(part) * max(n) * max(m) <= 2 * sum(a * b for a, b in zip(n, m))

    def test_same_shape_batch_fills_stacks(self):
        parts = lane_parts(["ACGT"] * 130, ["ACG"] * 130, width=64)
        assert [len(part) for part in parts] == [64, 64, 2]
        assert lane_parts(["ACGT"] * 3, ["ACG"] * 3, width=1) == [[0], [1], [2]]
