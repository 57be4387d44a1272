"""Tests for the specialized score kernels (repro.core.kernels)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.kernels import (
    BOUND_SLAB,
    build_matrix_kernel,
    build_rowscan_kernel,
    fill_matrix,
    pick_neg_inf,
    score_lanes,
    score_rowscan,
    sweep_lanes,
)
from repro.core.recurrence import dp_matrices, score_reference
from repro.core.scoring import (
    affine_gap_scoring,
    global_scheme,
    linear_gap_scoring,
    local_scheme,
    matrix_subst_scoring,
    semiglobal_scheme,
    simple_subst_scoring,
)
from repro.util.checks import ValidationError
from repro.util.encoding import encode

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

dna = st.text(alphabet="ACGT", min_size=1, max_size=40)


def _rand_pair(rng, lo=1, hi=50):
    n, m = rng.integers(lo, hi, 2)
    return (
        rng.integers(0, 4, n).astype(np.uint8),
        rng.integers(0, 4, m).astype(np.uint8),
    )


@pytest.mark.parametrize("name", sorted(SCHEMES))
class TestRowscanMatchesReference:
    def test_random_pairs(self, name):
        scheme = SCHEMES[name]
        rng = np.random.default_rng(hash(name) % 2**32)
        for _ in range(25):
            q, s = _rand_pair(rng)
            assert score_rowscan(q, s, scheme) == score_reference(q, s, scheme)

    @settings(max_examples=25, deadline=None)
    @given(q=dna, s=dna)
    def test_property(self, name, q, s):
        scheme = SCHEMES[name]
        assert score_rowscan(encode(q), encode(s), scheme) == score_reference(
            encode(q), encode(s), scheme
        )

    def test_extreme_shapes(self, name):
        scheme = SCHEMES[name]
        one = encode("A")
        many = encode("ACGT" * 25)
        assert score_rowscan(one, many, scheme) == score_reference(one, many, scheme)
        assert score_rowscan(many, one, scheme) == score_reference(many, one, scheme)


@pytest.mark.parametrize("name", sorted(SCHEMES))
class TestMatrixKernel:
    def test_scores_match(self, name):
        scheme = SCHEMES[name]
        rng = np.random.default_rng(99)
        for _ in range(10):
            q, s = _rand_pair(rng, hi=30)
            *_, score, _pos = fill_matrix(q, s, scheme)
            assert score == score_reference(q, s, scheme)

    def test_full_matrices_match_reference(self, name):
        scheme = SCHEMES[name]
        rng = np.random.default_rng(7)
        q, s = _rand_pair(rng, hi=20)
        H, E, F, _P, _score, pos = fill_matrix(q, s, scheme)
        ref = dp_matrices(q, s, scheme)
        np.testing.assert_array_equal(H, ref.H)
        if scheme.scoring.is_affine:
            np.testing.assert_array_equal(E, ref.E)
            np.testing.assert_array_equal(F, ref.F)
        assert pos == ref.best_pos

    def test_predecessor_tracking(self, name):
        scheme = SCHEMES[name]
        q, s = encode("ACGTAC"), encode("AGTACC")
        H, E, F, P, score, pos = fill_matrix(q, s, scheme, track_predecessor=True)
        assert P is not None and P.shape == H.shape
        assert set(np.unique(P[1:, 1:])) <= {0, 1, 2}


class TestLanes:
    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_matches_per_pair(self, name):
        scheme = SCHEMES[name]
        rng = np.random.default_rng(11)
        lanes = 16
        qs = rng.integers(0, 4, (lanes, 30)).astype(np.uint8)
        ss = rng.integers(0, 4, (lanes, 35)).astype(np.uint8)
        got = score_lanes(qs, ss, scheme)
        want = [score_reference(qs[k], ss[k], scheme) for k in range(lanes)]
        assert list(got) == want

    def test_single_lane(self):
        scheme = SCHEMES["global-linear"]
        q = encode("ACGTACGT")[None, :]
        s = encode("ACGTCGT")[None, :]
        assert score_lanes(q, s, scheme)[0] == score_reference(q[0], s[0], scheme)

    def test_int16_lanes_match(self):
        # The paper's 16-bit SIMD lane scores.
        scheme = SCHEMES["global-affine"]
        rng = np.random.default_rng(21)
        qs = rng.integers(0, 4, (8, 60)).astype(np.uint8)
        ss = rng.integers(0, 4, (8, 60)).astype(np.uint8)
        got16 = score_lanes(qs, ss, scheme, dtype=np.int16)
        got32 = score_lanes(qs, ss, scheme, dtype=np.int32)
        np.testing.assert_array_equal(got16, got32)

    def test_shape_validation(self):
        scheme = SCHEMES["global-linear"]
        with pytest.raises(ValidationError):
            score_lanes(np.zeros((2, 5), np.uint8), np.zeros((3, 5), np.uint8), scheme)
        with pytest.raises(ValidationError):
            score_lanes(np.zeros(5, np.uint8), np.zeros((1, 5), np.uint8), scheme)

    def test_bad_codes_rejected(self):
        scheme = SCHEMES["global-linear"]
        qs = np.full((2, 4), 9, dtype=np.uint8)
        with pytest.raises(ValidationError):
            score_lanes(qs, qs, scheme)


#: Every scheme above plus a non-uniform substitution matrix (σ_max = 5).
FLOOR_SCHEMES = {
    **SCHEMES,
    "local-affine-matrix": local_scheme(
        affine_gap_scoring(
            matrix_subst_scoring(
                np.array([[5, -1, 1, -1], [-1, 5, -1, 1], [1, -1, 5, -1], [-1, 1, -1, 5]])
            ),
            -3,
            -1,
        )
    ),
}


class TestFloor:
    """``score_lanes(floor=f)``: exact on every lane scoring ≥ f, in
    ``[exact, f)`` on every other lane."""

    @pytest.mark.parametrize("name", sorted(FLOOR_SCHEMES))
    @settings(max_examples=30, deadline=None)
    @given(
        lanes=st.integers(1, 6),
        n=st.integers(1, 5 * BOUND_SLAB),
        m=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        related=st.booleans(),
    )
    @example(lanes=1, n=BOUND_SLAB - 1, m=9, seed=0, related=True)
    @example(lanes=1, n=4 * BOUND_SLAB, m=40, seed=1, related=False)
    def test_floor_exact_on_every_lane_that_reaches_it(
        self, name, lanes, n, m, seed, related
    ):
        scheme = FLOOR_SCHEMES[name]
        rng = np.random.default_rng(seed)
        qs = rng.integers(0, 4, (lanes, n)).astype(np.uint8)
        ss = rng.integers(0, 4, (lanes, m)).astype(np.uint8)
        if related:  # high scorers: lanes that survive several checks
            ss[:, : min(n, m)] = qs[:, : min(n, m)]
        exact = score_lanes(qs, ss, scheme)
        below_min = -100 * (n + m)
        above_max = max(scheme.scoring.subst.max_score, 0) * min(n, m) + 1
        floors = {below_min, above_max} | {int(e) + d for e in exact for d in (0, 1)}
        for f in sorted(floors):
            got, cells = sweep_lanes(qs, ss, scheme, floor=f)
            reach = exact >= f
            np.testing.assert_array_equal(got[reach], exact[reach])
            assert np.all(got[~reach] < f) and np.all(got[~reach] >= exact[~reach])
            assert cells <= lanes * n * m
            np.testing.assert_array_equal(score_lanes(qs, ss, scheme, floor=f), got)
        # Nothing is abandoned below every possible score.
        assert sweep_lanes(qs, ss, scheme, floor=below_min)[1] == lanes * n * m

    def test_unreachable_floor_abandons_every_lane_early(self):
        scheme = SCHEMES["semiglobal-linear"]
        rng = np.random.default_rng(5)
        qs = rng.integers(0, 4, (8, 60)).astype(np.uint8)
        ss = rng.integers(0, 4, (8, 90)).astype(np.uint8)
        scores, cells = sweep_lanes(qs, ss, scheme, floor=2 * 60 + 1)
        assert np.all(scores <= 2 * 60) and cells < 8 * 60 * 90 // 2
        assert sweep_lanes(qs, ss, scheme)[1] == 8 * 60 * 90


class TestOverflowGuards:
    def test_int16_long_sequence_rejected(self):
        # Differential scores can exceed the 16-bit headroom (paper §IV-A).
        scheme = SCHEMES["global-linear"]
        q = np.zeros(10000, dtype=np.uint8)
        with pytest.raises(ValidationError, match="overflow"):
            score_rowscan(q, q, scheme, dtype=np.int16)

    def test_int16_short_sequence_allowed(self):
        scheme = SCHEMES["global-linear"]
        q = encode("ACGT" * 30)
        assert score_rowscan(q, q, scheme, dtype=np.int16) == 2 * 120

    def test_pick_neg_inf(self):
        assert pick_neg_inf(np.int16) == -(2**13)
        assert pick_neg_inf(np.int32) == -(2**30)
        with pytest.raises(ValidationError):
            pick_neg_inf(np.float32)


class TestSpecializationArtifacts:
    """The paper's central claim: abstractions leave no residue."""

    def test_global_kernel_has_no_nu_clamp(self):
        src = build_rowscan_kernel(SCHEMES["global-linear"]).source
        # ν = −∞ folded away: no comparison against the sentinel survives.
        assert str(-(2**30)) not in src

    def test_local_kernel_keeps_zero_clamp(self):
        src = build_rowscan_kernel(SCHEMES["local-linear"]).source
        assert "np.maximum" in src and ", 0)" in src

    def test_linear_kernel_has_no_E_buffer(self):
        src = build_rowscan_kernel(SCHEMES["global-linear"]).source
        assert "E[" not in src

    def test_affine_kernel_uses_E_buffer(self):
        src = build_rowscan_kernel(SCHEMES["global-affine"]).source
        assert "E[" in src

    def test_simple_scoring_inlined_no_table(self):
        src = build_rowscan_kernel(SCHEMES["global-linear"]).source
        assert "table" not in src and "np.where" in src

    def test_uniform_matrix_detected_as_simple(self):
        # A match/mismatch matrix in disguise still specializes to a compare.
        scheme = global_scheme(
            linear_gap_scoring(matrix_subst_scoring(np.eye(4, dtype=int) * 3 - 1), -1)
        )
        src = build_rowscan_kernel(scheme).source
        assert "table" not in src and "np.where" in src

    def test_matrix_scoring_uses_gather(self):
        m = np.array(
            [[5, -1, 1, -1], [-1, 5, -1, 1], [1, -1, 5, -1], [-1, 1, -1, 5]]
        )
        scheme = global_scheme(linear_gap_scoring(matrix_subst_scoring(m), -1))
        src = build_rowscan_kernel(scheme).source
        assert "table[" in src

    def test_score_only_matrix_kernel_has_no_pred_store(self):
        src = build_matrix_kernel(SCHEMES["global-linear"], track_predecessor=False).source
        assert "P[" not in src

    def test_traceback_matrix_kernel_stores_pred(self):
        src = build_matrix_kernel(SCHEMES["global-linear"], track_predecessor=True).source
        assert "P[" in src

    def test_matrix_substitution_scores(self):
        m = np.array(
            [[5, -1, 1, -1], [-1, 5, -1, 1], [1, -1, 5, -1], [-1, 1, -1, 5]]
        )
        scheme = global_scheme(linear_gap_scoring(matrix_subst_scoring(m), -2))
        rng = np.random.default_rng(31)
        q, s = _rand_pair(rng, hi=25)
        assert score_rowscan(q, s, scheme) == score_reference(q, s, scheme)
