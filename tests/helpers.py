"""Shared test utilities: brute-force alignment oracles.

The reference DP in ``repro.core.recurrence`` is itself the oracle for every
optimized path, so these helpers provide an *independent* check of the
reference: exhaustive enumeration of all alignment paths on tiny inputs,
scored through ``rescore_alignment`` (which knows nothing about DP).
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from repro.core.scoring import rescore_alignment
from repro.core.types import AlignmentScheme, AlignmentType, Scoring
from repro.obs import disable_tracing, enable_tracing
from repro.util.encoding import decode, encode


def all_global_alignments(q: str, s: str):
    """Yield every gapped global alignment of ``q`` vs ``s`` (exponential)."""
    if not q and not s:
        yield "", ""
        return
    if q and s:
        for qa, sa in all_global_alignments(q[:-1], s[:-1]):
            yield qa + q[-1], sa + s[-1]
    if q:
        for qa, sa in all_global_alignments(q[:-1], s):
            yield qa + q[-1], sa + "-"
    if s:
        for qa, sa in all_global_alignments(q, s[:-1]):
            yield qa + "-", sa + s[-1]


def brute_force_global(q: str, s: str, scoring: Scoring) -> int:
    return max(
        rescore_alignment(qa, sa, scoring) for qa, sa in all_global_alignments(q, s)
    )


def brute_force_local(q: str, s: str, scoring: Scoring) -> int:
    best = 0  # the empty alignment is always allowed
    for i0 in range(len(q) + 1):
        for i1 in range(i0 + 1, len(q) + 1):
            for j0 in range(len(s) + 1):
                for j1 in range(j0 + 1, len(s) + 1):
                    best = max(best, brute_force_global(q[i0:i1], s[j0:j1], scoring))
    return best


def brute_force_semiglobal(q: str, s: str, scoring: Scoring) -> int:
    """Overlap alignment: path from the top/left border to the bottom/right."""
    n, m = len(q), len(s)
    best = None
    for i0 in range(n + 1):
        for j0 in range(m + 1):
            if i0 != 0 and j0 != 0:
                continue
            for i1 in range(i0, n + 1):
                for j1 in range(j0, m + 1):
                    if i1 != n and j1 != m:
                        continue
                    sc = brute_force_global(q[i0:i1], s[j0:j1], scoring)
                    best = sc if best is None else max(best, sc)
    return best


def brute_force(q: str, s: str, scheme: AlignmentScheme) -> int:
    at = scheme.alignment_type
    if at is AlignmentType.GLOBAL:
        return brute_force_global(q, s, scheme.scoring)
    if at is AlignmentType.LOCAL:
        return brute_force_local(q, s, scheme.scoring)
    return brute_force_semiglobal(q, s, scheme.scoring)


def random_dna(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 4, size=n).astype(np.uint8)


def random_dna_str(rng: np.random.Generator, n: int) -> str:
    return decode(random_dna(rng, n))


def assert_valid_result(result, q, s, scheme):
    """Structural checks every AlignmentResult must satisfy."""
    qs = decode(encode(q)) if not isinstance(q, str) else q
    ss = decode(encode(s)) if not isinstance(s, str) else s
    # aligned strings reproduce the claimed spans once gaps are removed
    assert result.query_aligned.replace("-", "") == qs[result.query_start : result.query_end]
    assert result.subject_aligned.replace("-", "") == ss[result.subject_start : result.subject_end]
    # the reported score matches an independent rescore of the alignment
    assert rescore_alignment(
        result.query_aligned, result.subject_aligned, scheme.scoring
    ) == result.score
    at = scheme.alignment_type
    if at is AlignmentType.GLOBAL:
        assert result.query_start == 0 and result.query_end == len(qs)
        assert result.subject_start == 0 and result.subject_end == len(ss)
    elif at is AlignmentType.SEMIGLOBAL:
        assert result.query_start == 0 or result.subject_start == 0
        assert result.query_end == len(qs) or result.subject_end == len(ss)
    else:
        assert result.score >= 0


def planted_instance(ref_len, count, qlen, seed, divergence=0.02):
    """Search-test instance: reference + queries sampled from it with
    mild mutations (one definition shared by the search and shard suites)."""
    from repro.util.rng import make_rng
    from repro.workloads import MutationModel, mutate, random_genome

    rng = make_rng(seed)
    ref = random_genome(ref_len, seed=rng)
    positions = rng.integers(0, ref.size - qlen, count)
    model = MutationModel(
        substitution=divergence, insertion=0.001, deletion=0.001, indel_mean=2.0
    )
    queries = [mutate(ref[p : p + qlen], model, seed=rng) for p in positions]
    return ref, queries, positions


def mixed_burst(seed):
    """A serving burst of 16 requests over one reference: 150 and 80 bp
    reads, with ``k=3`` beside the default ``k`` — four buckets of four.

    Returns ``(reference, [(read, overrides), ...])``.
    """
    from repro.workloads.reads import read_pairs

    rs = read_pairs(8, read_length=150, reference_length=12_000, seed=seed)
    reads = [rs.reads[i] for i in range(len(rs))]
    burst = [
        (read if i % 2 else read[:80], {"k": 3} if i % 4 < 2 else {})
        for i, read in enumerate(reads + reads)
    ]
    return rs.reference, burst


def hit_keys(per_query):
    """Full identity tuples of per-query hit lists, for parity assertions."""
    return [
        [(h.record, h.start, h.end, h.score, h.chunk_id, h.seeds) for h in hits]
        for hits in per_query
    ]


@contextmanager
def traced_spans():
    """Trace the block with the global tracer; the yielded list receives
    the spans it finished (the tracer is off and empty afterwards)."""
    tracer = enable_tracing(capacity=16384)
    tracer.clear()
    spans: list = []
    try:
        yield spans
    finally:
        disable_tracing()
        spans.extend(tracer.drain())
