"""repro.mapping — hit extension + traceback read mapping.

Reads in → exact reference placements/CIGARs out: the search pipeline
finds window-level hits on both strands, :mod:`~repro.mapping.extend`
runs exact traceback per hit (envelope-sliced with a correctness
certificate, full-window fallback), and :mod:`~repro.mapping.dedup`
collapses overlapping-window duplicates under one deterministic total
order.  See :func:`map_reads` for the entry point and
:func:`exhaustive_map` for the full-DP oracle every fast path is
asserted bit-identical against.
"""

from repro.mapping.cigar import (
    apply_cigar,
    cigar_string,
    edit_stats,
    from_alignment,
    parse_cigar,
    query_span,
    ref_span,
    validate_cigar,
)
from repro.mapping.dedup import (
    DedupStats,
    PlacementDedup,
    merge_mapped,
    placement_rank,
)
from repro.mapping.extend import (
    ExtendStats,
    Placement,
    extend_hit,
    extend_hits,
    placement_key,
)
from repro.mapping.mapper import (
    MappingConfig,
    MappingResult,
    exhaustive_map,
    map_one,
    map_reads,
    resolve_config,
    shard_map_placements,
    true_origin_accuracy,
)

__all__ = [
    "apply_cigar",
    "cigar_string",
    "edit_stats",
    "from_alignment",
    "parse_cigar",
    "query_span",
    "ref_span",
    "validate_cigar",
    "DedupStats",
    "PlacementDedup",
    "merge_mapped",
    "placement_rank",
    "ExtendStats",
    "Placement",
    "extend_hit",
    "extend_hits",
    "placement_key",
    "MappingConfig",
    "MappingResult",
    "exhaustive_map",
    "map_one",
    "map_reads",
    "resolve_config",
    "shard_map_placements",
    "true_origin_accuracy",
]
