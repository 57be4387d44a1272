"""Per-hit extension: window-level search hits → exact reference placements.

A :class:`~repro.search.topk.Hit` says "this read scores S somewhere in
this window"; a :class:`Placement` says exactly where, with the CIGAR to
prove it.  The stage re-runs ``core.traceback`` for every retained hit
of a call, as lane-stack rounds (:func:`extend_hits`):

* **banded path** — the hit's seed-diagonal envelope (``diag_lo`` /
  ``diag_hi``, carried opaquely through the top-K merge in ``Hit.meta``)
  bounds where the read can sit, so traceback runs on just the envelope's
  column slice of the window (diagonal ``d`` puts query position 0 at
  window column ``d``; the slice ``[diag_lo − pad, diag_hi + qlen + pad)``
  therefore covers every seeded placement plus indel drift);
* **certificate** — the sliced result is accepted only if its score
  equals the hit's verified window score *and* the aligned segment stays
  clear of any artificially cut slice edge.  Slicing turns a cut column
  into a free-end-gap border that the full window does not have, so an
  edge-touching result proves nothing; score equality proves an optimal
  whole-window placement lies inside the slice (a slice alignment is a
  window alignment with the same score, so slice score ≤ window score
  always, with equality exactly when the slice contains an optimum).
* **fallback** — on any miss (no envelope, score mismatch — e.g. a
  band-clipped shoulder hit — or an edge-touching segment) the hit is
  re-aligned on the *full* window with ``align_block`` semantics, which
  is what the exhaustive oracle does unconditionally.

Determinism note: within a slice, ``core.traceback`` breaks ties by the
same rule as on the full window (the end cell by the score sweep's scan
order, then the one-pass walk's move order back to the border; see its
module docstring), so the certificate makes the banded path
bit-identical to full-window traceback whenever the optimal placement is
unique inside the window.  An exact equal-scoring repeat of
the read inside one window shares the read's k-mers, which widens the
seed envelope to span both copies — so repeats resolve inside one slice
with full-window tie order, not across slices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.traceback import align_pairs
from repro.mapping.cigar import cigar_string, from_alignment
from repro.obs.metrics import fold_ledger

__all__ = ["ExtendStats", "Placement", "extend_hit", "extend_hits"]


@dataclass(slots=True)
class Placement:
    """One exact reference placement of a read (mapping's unit result).

    Coordinates are forward-reference, 0-based half-open; for a ``-``
    strand placement the CIGAR (and ``query_start``/``query_end``) are
    relative to the reverse-complemented read, SAM-style.  ``hit`` keeps
    the source search hit (opaque to equality) so shard merges can
    replay the hit-level top-K retention exactly.
    """

    query_id: int  # read index (strand-folded)
    record: str
    ref_start: int
    ref_end: int
    strand: str  # "+" or "-"
    score: int
    cigar: str
    query_start: int  # soft-clipped prefix of the oriented read
    query_end: int
    chunk_id: int  # provenance: the window that produced it
    seeds: int = 0
    hit: object = field(default=None, compare=False, repr=False)

    def __repr__(self):
        return (
            f"Placement(q{self.query_id} {self.record}:{self.ref_start}-"
            f"{self.ref_end}{self.strand} score={self.score} {self.cigar})"
        )


def placement_key(p: Placement) -> tuple:
    """Identity of a placement — what overlapping-window duplicates share.

    Deliberately excludes ``query_id``: dedup buckets per read already,
    and a read's placements must compare equal whether it was mapped
    alone (``map_one`` — id 0) or at position ``i`` of a batch (a
    coalesced service bucket, say).
    """
    return (
        p.record,
        p.ref_start,
        p.ref_end,
        p.strand,
        p.query_start,
        p.cigar,
    )


@dataclass
class ExtendStats:
    """Counts of one extension pass (perf.report's extend rows); its
    time is the ``map.extend`` span.  Each :func:`extend_hits` call folds
    its delta once through the field table below."""

    hits: int = 0
    banded: int = 0  # envelope slice accepted by the certificate
    fallback_score: int = 0  # slice score ≠ hit score → full window
    fallback_edge: int = 0  # segment touched a cut slice edge → full window
    full: int = 0  # aligned on the whole window (no slice, or a fallback)
    cells_banded: int = 0
    cells_full: int = 0

    @property
    def cells(self) -> int:
        return self.cells_banded + self.cells_full


#: ExtendStats field → the counter its delta folds into (None: ledger only).
_EXTEND_HELP = "Hits extended to exact placements, by traceback path"
_EXTEND_COUNTERS = {
    "hits": None,
    "banded": ("mapping_extend_total", _EXTEND_HELP, {"path": "banded"}),
    "fallback_score": None,
    "fallback_edge": None,
    "full": ("mapping_extend_total", _EXTEND_HELP, {"path": "full"}),
    "cells_banded": None,
    "cells_full": None,
}


def _result_to_placement(res, hit, query_id, strand, qlen, window_offset) -> Placement:
    ops = from_alignment(res, qlen)
    return Placement(
        query_id=query_id,
        record=hit.record,
        ref_start=hit.start + window_offset + res.subject_start,
        ref_end=hit.start + window_offset + res.subject_end,
        strand=strand,
        score=int(res.score),
        cigar=cigar_string(ops),
        query_start=res.query_start,
        query_end=res.query_end,
        chunk_id=hit.chunk_id,
        seeds=hit.seeds,
        hit=hit,
    )


def extend_hits(
    items,
    scheme,
    *,
    mode: str = "banded",
    extend_pad: int = 16,
    stats: ExtendStats | None = None,
) -> list[Placement]:
    """Run exact traceback for many hits in lane rounds; placements in order.

    ``items`` holds one ``(query, hit, window, query_id, strand)`` per hit:
    ``query`` is the *oriented* (possibly reverse-complemented) encoded read
    the hit was searched with, ``window`` ``None`` for the bases the reducer
    stashed in ``hit.meta["window"]``, ``query_id`` ``None`` for the hit's
    own.  Round one aligns every envelope slice as lane stacks
    (:func:`~repro.core.traceback.align_pairs`) and checks each lane's
    certificate; round two aligns on the whole window every hit without a
    slice (``mode="full"``, the oracle path, has none) or whose certificate
    failed.  Each placement equals the one a lone hit gets.
    """
    stats = stats if stats is not None else ExtendStats()
    base = vars(stats).copy()
    jobs = []
    for query, hit, window, query_id, strand in items:
        if window is None:
            window = (hit.meta or {}).get("window")
            if window is None:
                raise ValueError("hit carries no window bases; pass window=")
        q = np.asarray(query, dtype=np.uint8)
        w = np.asarray(window, dtype=np.uint8)
        meta = hit.meta or {}
        dlo, dhi = meta.get("diag_lo"), meta.get("diag_hi")
        lo, hi = 0, w.size
        if mode == "banded" and dlo is not None and dhi is not None and dlo <= dhi:
            lo = max(0, int(dlo) - extend_pad)
            hi = min(w.size, int(dhi) + q.size + extend_pad)
        qid = query_id if query_id is not None else hit.query_id
        jobs.append((q, w, lo, hi, hit, qid, strand))
    stats.hits += len(jobs)

    placed: list = [None] * len(jobs)
    # A slice narrower than the window; else full-window is identical.
    sliced = [k for k, (_q, w, lo, hi, *_) in enumerate(jobs) if hi - lo < w.size]
    slice_results = align_pairs(
        [jobs[k][0] for k in sliced],
        [w[lo:hi] for _q, w, lo, hi, *_ in (jobs[k] for k in sliced)],
        scheme,
    )
    for k, res in zip(sliced, slice_results):
        q, w, lo, hi, hit, qid, strand = jobs[k]
        stats.cells_banded += (q.size + 1) * (hi - lo + 1)
        if res.score != hit.score:
            stats.fallback_score += 1
        elif (lo > 0 and res.subject_start == 0) or (hi < w.size and res.subject_end == hi - lo):
            stats.fallback_edge += 1  # touched a cut edge: the free border is a lie
        else:
            stats.banded += 1
            placed[k] = _result_to_placement(res, hit, qid, strand, q.size, lo)

    whole = [k for k in range(len(jobs)) if placed[k] is None]
    whole_results = align_pairs([jobs[k][0] for k in whole], [jobs[k][1] for k in whole], scheme)
    for k, res in zip(whole, whole_results):
        q, w, _lo, _hi, hit, qid, strand = jobs[k]
        stats.cells_full += (q.size + 1) * (w.size + 1)
        stats.full += 1
        placed[k] = _result_to_placement(res, hit, qid, strand, q.size, 0)

    fold_ledger(_EXTEND_COUNTERS, stats, base)
    return placed


def extend_hit(
    query,
    hit,
    scheme,
    *,
    window=None,
    mode: str = "banded",
    extend_pad: int = 16,
    query_id: int | None = None,
    strand: str = "+",
    stats: ExtendStats | None = None,
) -> Placement:
    """Run exact traceback for one hit (the one-hit :func:`extend_hits`).

    ``window`` defaults to the bases the reducer stashed in
    ``hit.meta["window"]``; ``mode="full"`` skips the envelope slice and
    always aligns the whole window (the oracle path).
    """
    return extend_hits(
        [(query, hit, window, query_id, strand)],
        scheme,
        mode=mode,
        extend_pad=extend_pad,
        stats=stats,
    )[0]
