"""Tests for the high-level Aligner and the C-wrapper-style API."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import align, align_score
from repro.core.aligner import BACKEND_FACTORIES, Aligner
from repro.core.api import (
    align_batch_scores,
    compute_global_score,
    compute_local_score,
    compute_semiglobal_score,
    construct_global_alignment,
    construct_local_alignment,
    construct_semiglobal_alignment,
)
from repro.core.recurrence import score_reference
from repro.core.scoring import (
    affine_gap_scoring,
    local_scheme,
    rescore_alignment,
    simple_subst_scoring,
)
from repro.util.checks import ValidationError
from repro.util.encoding import encode

dna = st.text(alphabet="ACGT", min_size=1, max_size=40)


class TestAlignerBackends:
    @pytest.mark.parametrize("backend", ["rowscan", "scalar", "reference"])
    def test_backends_agree(self, backend):
        a = Aligner(backend=backend)
        assert a.score("ACGTACGT", "ACGTCGT") == 13

    def test_invalid_backend(self):
        with pytest.raises(ValidationError):
            Aligner(backend="quantum")

    def test_invalid_cutoff(self):
        with pytest.raises(ValidationError):
            Aligner(traceback_cutoff=0)

    def test_repr(self):
        assert "global" in repr(Aligner())

    def test_core_is_not_a_backend_name(self):
        # The frontend is not registered under an alias of its own.
        assert Aligner not in BACKEND_FACTORIES.values()
        with pytest.raises(ValidationError, match="rowscan"):
            Aligner(backend="core")

    @settings(max_examples=20, deadline=None)
    @given(q=dna, s=dna)
    def test_score_align_consistent(self, q, s):
        a = Aligner()
        res = a.align(q, s)
        assert res.score == a.score(q, s)

    def test_int16_dtype(self):
        a = Aligner(dtype=np.int16)
        assert a.score("ACGT" * 10, "ACGT" * 10) == 80


class TestBatch:
    def test_batch_matches_singles(self):
        rng = np.random.default_rng(3)
        a = Aligner()
        queries = ["".join(rng.choice(list("ACGT"), 20)) for _ in range(10)]
        subjects = ["".join(rng.choice(list("ACGT"), 25)) for _ in range(10)]
        batch = a.score_batch(queries, subjects)
        singles = [a.score(q, s) for q, s in zip(queries, subjects)]
        assert list(batch) == singles

    def test_mixed_lengths_grouped(self):
        a = Aligner()
        queries = ["ACGT", "ACGTACGT", "TTTT", "GGGG", "ACGTACGT"]
        subjects = ["ACGA", "ACGTAGGT", "TTAT", "GCGG", "ACCTACGT"]
        batch = a.score_batch(queries, subjects)
        singles = [a.score(q, s) for q, s in zip(queries, subjects)]
        assert list(batch) == singles

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValidationError):
            Aligner().score_batch(["AC"], ["AC", "GT"])

    def test_align_batch(self):
        a = Aligner()
        results = a.align_batch(["ACGT", "GGTT"], ["ACGA", "GCTT"])
        assert len(results) == 2
        assert all(r.score == a.score(q, s) for r, q, s in zip(results, ["ACGT", "GGTT"], ["ACGA", "GCTT"]))

    def test_scalar_backend_batch_fallback(self):
        a = Aligner(backend="scalar")
        batch = a.score_batch(["ACGT", "GGTT"], ["ACGA", "GCTT"])
        assert list(batch) == [a.score("ACGT", "ACGA"), a.score("GGTT", "GCTT")]


class TestTopLevelApi:
    def test_align_default_scheme(self):
        res = align("ACGTACGT", "ACGTCGT")
        assert res.score == 13
        assert rescore_alignment(
            res.query_aligned, res.subject_aligned, repro.default_scheme().scoring
        ) == 13

    def test_align_score(self):
        assert align_score("ACGT", "ACGT") == 8

    def test_custom_scheme(self):
        scheme = local_scheme(affine_gap_scoring(simple_subst_scoring(3, -2), -4, -1))
        q, s = "TTACGTACGTT", "GGACGTACGGG"
        assert align_score(q, s, scheme) == score_reference(encode(q), encode(s), scheme)

    def test_batch_scores_function(self):
        out = align_batch_scores(["ACGT", "AAAA"], ["ACGT", "TTTT"])
        assert out[0] == 8

    def test_version(self):
        assert repro.__version__


class TestCWrappers:
    """The paper's extern-C-style entry points."""

    def test_construct_global(self):
        res = construct_global_alignment("ACGTACGT", "ACGTCGT")
        assert res.score == 13
        assert len(res.query_aligned) == len(res.subject_aligned)

    def test_construct_global_affine(self):
        res = construct_global_alignment(
            "AAACCCGGG", "AAAGGG", gap_open=-2, gap_extend=-1
        )
        assert res.score == 12 - 5

    def test_construct_local(self):
        res = construct_local_alignment("TTTACGTACGTTT", "GGGACGTACGGGG")
        assert res.score == 14

    def test_construct_semiglobal(self):
        res = construct_semiglobal_alignment("ACGTACGT", "TTTTACGTACGTTTTT")
        assert res.score == 16

    def test_score_only_variants(self):
        assert compute_global_score("ACGT", "ACGT") == 8
        assert compute_local_score("AAAA", "TTTT") == 0
        assert compute_semiglobal_score("ACGT", "TTACGTTT") == 8

    def test_custom_match_scores(self):
        assert compute_global_score("ACGT", "ACGT", match=5) == 20

    @settings(max_examples=15, deadline=None)
    @given(q=dna, s=dna)
    def test_wrappers_match_reference(self, q, s):
        from repro.core.scoring import default_scheme

        assert compute_global_score(q, s) == score_reference(
            encode(q), encode(s), default_scheme()
        )
