"""Deterministic placement dedup, mergeable across shards.

Reference windows overlap (by construction — no placement may be lost at
a window boundary), so neighbouring windows routinely extend to the
*same* placement: same record, same coordinates, same strand, same
CIGAR.  This module collapses those duplicates and ranks what is left by
one total order, shared by every mapping path:

    ``(score desc, record asc, ref_start asc, strand + first,
       ref_end asc, query_start asc, cigar asc)``

— the deterministic refinement of the "(score, ref_pos, strand, record)"
contract: no two *distinct* placements of a read ever tie, so results
never depend on arrival order.  Among identical placements the one from
the earliest window (smallest ``chunk_id``) is kept, pinning provenance
deterministically too.

Sharded merges need one more invariant.  Each shard extends the hits of
its **local** bounded top-K, which may retain hits the global top-K
evicts; deduping the union of shard placements directly could therefore
let an evicted hit's placement sneak into a freed slot.
:func:`merge_mapped` — the one merge entry point, used by the
single-process mapper and the worker pool alike —
replays the *hit-level* retention first (every placement carries its
source hit), keeps only placements whose hit survives the global merge,
and dedups those: bit-identical to single-process mapping by the same
monotonicity argument as the search top-K merge.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mapping.extend import Placement, placement_key
from repro.obs.metrics import fold_ledger
from repro.search.topk import TopKReducer, _RevStr
from repro.util.checks import check_positive

__all__ = ["DedupStats", "PlacementDedup", "merge_mapped", "placement_rank"]


def placement_rank(p: Placement) -> tuple:
    """Retention rank: larger is better-kept.  Total over distinct keys."""
    return (
        p.score,
        _RevStr(p.record),
        -p.ref_start,
        p.strand == "+",
        -p.ref_end,
        -p.query_start,
        _RevStr(p.cigar),
    )


@dataclass
class DedupStats:
    """Counts of one dedup pass (perf.report's dedup rows); its time is
    the ``map.dedup`` span.  :func:`merge_mapped`, where every map path
    ends, folds them once through the field table below."""

    reads: int = 0  # reads merged
    offered: int = 0
    duplicates: int = 0  # collapsed into an already-seen placement
    kept: int = 0  # distinct placements that made the final top-K


#: DedupStats field → the counter a merge's count folds into.
_OFFERS_HELP = "Placements offered to dedup, and those collapsed as duplicates"
_DEDUP_COUNTERS = {
    "reads": ("mapping_reads_total", "Reads mapped", {}),
    "offered": ("mapping_dedup_total", _OFFERS_HELP, {"outcome": "offered"}),
    "duplicates": ("mapping_dedup_total", _OFFERS_HELP, {"outcome": "duplicate"}),
    "kept": ("mapping_placements_total", "Final placements returned", {}),
}


class PlacementDedup:
    """Per-read distinct-placement collection with deterministic ranking.

    Mergeable the same way the search reducer is: :meth:`offer` takes
    placements in any order (including another instance's
    :meth:`results`) and the outcome depends only on the set offered.
    """

    def __init__(self, num_reads: int, k: int = 5):
        self.k = check_positive(k, "k")
        self.stats = DedupStats()
        self._seen: list[dict] = [dict() for _ in range(num_reads)]

    def offer(self, p: Placement) -> bool:
        """Consider one placement; False when it collapsed into a duplicate."""
        self.stats.offered += 1
        seen = self._seen[p.query_id]
        key = placement_key(p)
        held = seen.get(key)
        if held is not None:
            # Identical placements differ only in window provenance; the
            # earliest window wins so merges stay order-independent.
            if p.chunk_id < held.chunk_id:
                seen[key] = p
            self.stats.duplicates += 1
            return False
        seen[key] = p
        return True

    def results(self) -> list[list[Placement]]:
        """Final per-read placements, best first, at most ``k`` each."""
        out = []
        kept = 0
        for seen in self._seen:
            ranked = sorted(seen.values(), key=placement_rank, reverse=True)[: self.k]
            kept += len(ranked)
            out.append(ranked)
        self.stats.kept += kept
        return out


def merge_mapped(
    shard_lists: list,
    *,
    num_reads: int,
    num_oriented: int,
    hit_k: int,
    k: int,
    min_score: int | None = None,
    stats: DedupStats | None = None,
) -> list[list[Placement]]:
    """Merge per-shard pre-dedup placement lists into final placements.

    ``shard_lists`` holds, per shard, a per-read list of placements — one
    per locally retained hit, each still carrying its source ``hit``.
    The source hits replay through the standard bounded top-K reducer
    (sized for the *oriented* query count the search actually ran with,
    ``num_oriented``, and the search's ``hit_k``/``min_score``), and only
    placements whose hit survives that global merge reach the dedup —
    exactly the hit set a single-process run would have extended.
    ``stats``, if given, is a :class:`DedupStats` ledger the merge adds
    its counts to; only this call's delta reaches the registry.
    """
    reducer = TopKReducer(num_oriented, k=hit_k, min_score=min_score)
    for per_read in shard_lists:
        for placements in per_read:
            for p in placements:
                reducer.offer_hit(p.hit)
    surviving = {
        (h.query_id, h.chunk_id)
        for per_query in reducer.results()
        for h in per_query
    }
    dedup = PlacementDedup(num_reads, k=k)
    if stats is not None:
        dedup.stats = stats
    base = vars(dedup.stats).copy()
    for per_read in shard_lists:
        for placements in per_read:
            for p in placements:
                if (p.hit.query_id, p.hit.chunk_id) in surviving:
                    dedup.offer(p)
    final = dedup.results()
    dedup.stats.reads += num_reads
    fold_ledger(_DEDUP_COUNTERS, dedup.stats, base)
    return final
