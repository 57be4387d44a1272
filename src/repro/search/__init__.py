"""repro.search — streaming query-vs-database search on the stage pipeline.

Seed-and-verify over chunked references: a k-mer prefilter rejects most
(query, window) candidates before a band-constrained semiglobal DP scores
the survivors into bounded per-query top-K heaps.  Results stream while
the database is still being scanned.  See :func:`search` for the entry
point and :func:`exhaustive_topk` for the full-DP oracle.
"""

from repro.search.pipeline import (
    BandedVerifyStage,
    SearchConfig,
    SearchRun,
    default_search_scheme,
    exhaustive_topk,
    resolve_windowing,
    search,
    search_one,
    search_topk,
)
from repro.search.seeds import (
    QueryIndex,
    ReferenceIndex,
    ReferenceShard,
    SeedPrefilter,
    kmer_codes,
)
from repro.search.topk import Hit, TopKReducer, merge_topk

__all__ = [
    "BandedVerifyStage",
    "SearchConfig",
    "SearchRun",
    "default_search_scheme",
    "exhaustive_topk",
    "resolve_windowing",
    "search",
    "search_one",
    "search_topk",
    "QueryIndex",
    "ReferenceIndex",
    "ReferenceShard",
    "SeedPrefilter",
    "kmer_codes",
    "Hit",
    "TopKReducer",
    "merge_topk",
]
