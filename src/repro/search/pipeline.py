"""Streaming query-vs-database search: scan → seed → banded verify → top-K.

The paper's system scores pre-materialized pairs; real deployments (read
mapping, database search) are *streams* — references are scanned
incrementally, most candidates are rejected by a cheap k-mer seed test,
and only the survivors pay banded DP.  This module composes those steps
from the engine's stage pipeline (:mod:`repro.engine.stages`):

::

    ReferenceIndex lookup / Chunk stream    (Source: candidate windows)
        → SeedPrefilter(QueryIndex)         (Prefilter: shared k-mers)
        → ShapeBatcher                      (Batcher: same-shape lanes)
        → BandedVerifyStage                 (Executor: core.banded kernel)
        → TopKReducer                       (Reducer: bounded per-query heaps)

:func:`search` returns a :class:`SearchRun` — iterating it drives the
pipeline with backpressure (at most ``max_in_flight`` admitted candidates
buffered) and yields :class:`~repro.search.topk.Hit` events as verify
batches drain, *while the reference is still being scanned*.  Streamed
hits are admissions into the then-current top-K; a later, better hit can
still evict one, so :meth:`SearchRun.topk` is the authoritative final
answer.  :func:`exhaustive_topk` is the full-DP oracle (every pair, no
prefilter, no band) with the identical retention rule, used by the tests
and as the benchmark baseline.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass, replace

import numpy as np

from repro.core.banded import band_cells
from repro.core.scoring import linear_gap_scoring, semiglobal_scheme, simple_subst_scoring
from repro.core.types import AlignmentScheme, AlignmentType
from repro.engine.batching import ShapeBatcher
from repro.engine.engine import ExecutionEngine
from repro.engine.executor import PlanExecutorStage
from repro.engine.stages import Batch, PipelineStats
from repro.search.seeds import QueryIndex, ReferenceIndex, SeedPrefilter, classify_database
from repro.search.topk import Hit, TopKReducer
from repro.util.checks import ValidationError, check_no_callables, check_positive
from repro.util.encoding import encode
from repro.workloads.chunks import chunk_records, chunk_sequence

__all__ = [
    "BandedVerifyStage",
    "SearchConfig",
    "SearchRun",
    "classify_database",
    "default_search_scheme",
    "exhaustive_topk",
    "resolve_windowing",
    "search",
    "search_topk",
]


def default_search_scheme() -> AlignmentScheme:
    """Semiglobal +2/−1 match/mismatch, linear gap −1.

    Semiglobal (free end gaps) is the natural mode for placing a query
    inside a longer reference window; the scoring mirrors the library's
    default global scheme.
    """
    return semiglobal_scheme(linear_gap_scoring(simple_subst_scoring(2, -1), -1))


def resolve_windowing(
    qmax: int,
    window: int | None = None,
    overlap: int | None = None,
    band_pad: int = 16,
) -> tuple[int, int]:
    """Resolve the reference windowing for a longest-query extent.

    The single place the default windowing lives: ``search()``, the
    exhaustive oracle, and the shard planner all call it, so a sharded run
    produces exactly the chunk ids (and therefore the hit set) of the
    single-process scan.  Defaults: ``2·qmax`` windows overlapping by
    ``qmax + band_pad`` so no placement is lost at a boundary.
    """
    if window is None:
        window = 2 * qmax
    check_positive(window, "window")
    if window < qmax:
        raise ValidationError(
            f"window {window} is smaller than the longest query ({qmax})"
        )
    if overlap is None:
        overlap = min(window - 1, qmax + band_pad)
    return window, overlap


@dataclass(frozen=True)
class SearchConfig:
    """Picklable-by-construction parameterisation of one :func:`search`.

    Every field is a plain value or a frozen scheme dataclass — never a
    callable, a bound kernel, or an engine — so a config can cross a
    process boundary intact; :meth:`__post_init__` enforces it at
    construction, not at pickling time.  ``ShardPlan`` embeds one to
    rebuild identical search pipelines inside worker processes, and
    :meth:`search_kwargs` expands it for :func:`search`.
    """

    k: int = 10
    kmer: int = 11
    min_seeds: int = 2
    window: int | None = None
    overlap: int | None = None
    band: int | None = None
    band_pad: int = 16
    anchor: bool = True
    min_score: int | None = None
    verify: str = "banded"
    scheme: AlignmentScheme | None = None
    max_in_flight: int = 2048
    #: Stash each retained hit's window bases in ``Hit.meta["window"]``
    #: (what the read mapper needs to extend hits without replaying the
    #: chunk stream); off by default — hits stay plain scalars.
    hit_window: bool = False

    def __post_init__(self):
        check_no_callables(self)
        if self.scheme is not None and not isinstance(self.scheme, AlignmentScheme):
            raise ValidationError(
                f"SearchConfig.scheme must be an AlignmentScheme, got {self.scheme!r}"
            )
        if self.verify not in ("banded", "full"):
            raise ValidationError(
                f"verify must be 'banded' or 'full', got {self.verify!r}"
            )

    def resolved_scheme(self) -> AlignmentScheme:
        return self.scheme if self.scheme is not None else default_search_scheme()

    def with_overrides(self, **overrides) -> "SearchConfig":
        """This config with ``overrides`` applied; an unknown field name
        is a :class:`~repro.util.checks.ValidationError` naming it."""
        if not overrides:
            return self
        unknown = overrides.keys() - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise ValidationError(f"unknown search parameter(s): {sorted(unknown)}")
        return replace(self, **overrides)

    def resolved_for(self, qmax: int) -> "SearchConfig":
        """Pin windowing and scheme for a concrete query set (idempotent)."""
        window, overlap = resolve_windowing(
            qmax, self.window, self.overlap, self.band_pad
        )
        return replace(
            self, window=window, overlap=overlap, scheme=self.resolved_scheme()
        )

    def search_kwargs(self) -> dict:
        """The config as :func:`search` keyword arguments."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


class BandedVerifyStage:
    """Executor stage: band-constrained semiglobal verification.

    The band bounds the query's placement offset inside the window plus
    indel drift; cells outside it are never relaxed, and
    :meth:`execute` reports exactly how many were skipped versus full DP.

    Band derivation (``band=None``, the default) has two tiers:

    * **window extent** — ``|m − n| + band_pad`` covers every full-query
      placement offset inside a window of any width, including databases
      supplied as pre-windowed chunk iterators whose width the frontend
      never sees.
    * **seed anchor** — when the prefilter recorded the request's
      seed-diagonal envelope (``meta["diag_lo"/"diag_hi"]``) and
      ``anchor=True``, the band is centered on the anchor instead:
      ``max(|diag_lo|, |diag_hi|) + band_pad``, rounded up to a multiple
      of ``band_quantum`` (so near-identical anchors share a lane bucket
      and a compiled kernel variant), capped by the window extent.  The
      quantized anchor still covers every seed diagonal plus drift, so it
      only shrinks provably-dead region.

    An explicit ``band`` is used as-is (auto-widened to feasibility for
    global schemes).  Every pair runs the one (scheme, band)-specialized
    banded kernel: whole batches as a lane stack on any plan with banded
    support, stragglers (and ``lane_verify=False``) as one-lane calls on
    1-D rows — :meth:`path_stats` accounts pairs/cells per path.  Batches
    must be band-uniform for the lane path to be exact, which the search
    pipeline guarantees by keying its batcher on :meth:`band_of`; as a
    safety net the batch band is the per-request maximum (widening only).
    """

    #: Anchored bands round up to a multiple of this, bounding both bucket
    #: fragmentation and the number of compiled per-band kernel variants.
    BAND_QUANTUM = 32

    def __init__(
        self,
        plan,
        band: int | None = None,
        band_pad: int = 16,
        *,
        anchor: bool = True,
        lane_verify: bool = True,
        band_quantum: int | None = None,
    ):
        self.plan = plan
        self.band = band
        self.band_pad = band_pad
        self.anchor = anchor
        self.lane_verify = lane_verify
        self.band_quantum = band_quantum if band_quantum is not None else self.BAND_QUANTUM
        self._lock = threading.Lock()
        self._path_pairs = {"lanes": 0, "fallback": 0}
        self._path_cells = {"lanes": 0, "fallback": 0}

    def band_for(self, shape: tuple[int, int]) -> int:
        """Window-extent band for a DP shape (no anchor information)."""
        if self.band is not None:
            return self.band
        n, m = shape
        return abs(m - n) + self.band_pad

    def band_of(self, request) -> int:
        """Effective verify band for one admitted request.

        Doubles as the batcher's bucket-refinement key: requests batch
        together only when shape *and* effective band agree, keeping
        same-band lanes uniform for the specialized kernel.
        """
        extent = self.band_for((int(request.query.size), int(request.subject.size)))
        if self.band is not None or not self.anchor:
            return extent
        meta = request.meta or {}
        dlo, dhi = meta.get("diag_lo"), meta.get("diag_hi")
        if dlo is None or dhi is None or dlo > dhi:
            return extent
        anchored = max(abs(int(dlo)), abs(int(dhi))) + self.band_pad
        quantum = self.band_quantum
        anchored = -(-anchored // quantum) * quantum  # round up: only widens
        return min(extent, anchored)

    def _batch_band(self, batch: Batch) -> int:
        return max(self.band_of(r) for r in batch.requests)

    def _effective(self, shape: tuple[int, int], band: int) -> int:
        n, m = shape
        if self.plan.scheme.alignment_type is AlignmentType.SEMIGLOBAL:
            return band
        return max(band, abs(n - m))  # widen=True, as execute does

    def execute(self, batch: Batch) -> tuple[np.ndarray, dict]:
        band = self._batch_band(batch)
        plan = self.plan
        lanes = self.lane_verify and len(batch) > 1
        if lanes:
            qs, ss = batch.stacked()
            scores = np.asarray(
                plan.score_banded_block(qs, ss, band, widen=True), dtype=np.int64
            )
        else:
            scores = np.array(
                [
                    plan.score_banded(r.query, r.subject, band, widen=True)
                    for r in batch.requests
                ],
                dtype=np.int64,
            )
        path = "lanes" if lanes else "fallback"
        n, m = batch.shape
        cells = band_cells(n, m, self._effective(batch.shape, band)) * len(batch)
        with self._lock:
            self._path_pairs[path] += len(batch)
            self._path_cells[path] += cells
        return scores, {"cells_computed": cells, "cells_skipped_band": batch.cells - cells}

    def path_stats(self) -> dict:
        """Pairs/cells verified per path: ``lanes`` (a lane stack) vs
        ``fallback`` (one-lane calls), both the same banded kernel."""
        with self._lock:
            return {
                path: {"pairs": self._path_pairs[path], "cells": self._path_cells[path]}
                for path in ("lanes", "fallback")
            }


class SearchRun:
    """A driving handle over one streaming search.

    Iterate to receive :class:`Hit` admissions as the database scan and
    verification overlap; call :meth:`topk` for the final per-query
    results (drains whatever is left first).  ``stats`` is the live
    :class:`~repro.engine.stages.PipelineStats`.

    If :func:`search` created the engine itself, the run owns it: the
    worker pool is closed deterministically when the stream is exhausted
    (or via :meth:`close` / ``with search(...) as run``), not left to GC.
    """

    def __init__(self, pipeline, reducer: TopKReducer, queries: list, owned_engine=None):
        self.pipeline = pipeline
        self.reducer = reducer
        self.queries = queries
        self._owned_engine = owned_engine
        self._iter = pipeline.run()
        self._exhausted = False
        self._metrics_done = False

    def _finalize_obs(self):
        """Search-level counters, once per run, on stream exhaustion."""
        if self._metrics_done:
            return
        self._metrics_done = True
        from repro.obs import get_registry

        reg = get_registry()
        if not reg.enabled:
            return
        reg.counter("search_runs_total", "Completed search runs").inc()
        reg.counter(
            "search_hits_total", "Hits retained across final top-K lists"
        ).inc(sum(len(hits) for hits in self.reducer.results()))
        reg.counter(
            "search_queries_total", "Queries answered by search runs"
        ).inc(len(self.queries))

    @property
    def stats(self) -> PipelineStats:
        return self.pipeline.stats

    def close(self):
        """Release the run's private engine, if any (idempotent)."""
        eng, self._owned_engine = self._owned_engine, None
        if eng is not None:
            eng.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __iter__(self):
        return self

    def __next__(self) -> Hit:
        try:
            return next(self._iter)
        except StopIteration:
            self._exhausted = True
            self.close()
            self._finalize_obs()
            raise

    def topk(self) -> list[list[Hit]]:
        """Final per-query hits, best first (drains the stream if needed)."""
        if not self._exhausted:
            for _ in self._iter:
                pass
            self._exhausted = True
            self.close()
            self._finalize_obs()
        return self.reducer.results()

    def report(self) -> str:
        """Per-stage timing + rejection/cells table (perf.report format)."""
        from repro.perf.report import pipeline_stats_table

        return pipeline_stats_table(
            self.stats, title="Search pipeline", verify=self.pipeline.stage
        )


def _chunk_source(database, window: int, overlap: int):
    """Normalize a database argument into a Chunk iterator (every window)."""
    kind, value = classify_database(database)
    if kind == "chunks":
        return iter(value) if not hasattr(value, "__next__") else value
    if kind == "index":
        return value.chunks(window, overlap)
    if kind == "records":
        return chunk_records(value, window, overlap)
    return chunk_sequence(value, window, overlap)


def _seed_source(database, prefilter: SeedPrefilter, window: int, overlap: int):
    """The search source: an index lookup, or scanned pre-windowed chunks."""
    kind, value = classify_database(database)
    if kind == "chunks":
        return _chunk_source(value, window, overlap)
    reference = value if kind == "index" else ReferenceIndex(database)
    return prefilter.lookup(reference, window, overlap)


def search(
    queries,
    database,
    *,
    k: int = 10,
    scheme: AlignmentScheme | None = None,
    kmer: int = 11,
    min_seeds: int = 2,
    window: int | None = None,
    overlap: int | None = None,
    band: int | None = None,
    band_pad: int = 16,
    anchor: bool = True,
    min_score: int | None = None,
    verify: str = "banded",
    engine: ExecutionEngine | None = None,
    max_in_flight: int = 2048,
    lane_verify: bool = True,
    hit_window: bool = False,
) -> SearchRun:
    """Stream top-K placements of each query against a reference database.

    Parameters
    ----------
    queries:
        Sequences (str or encoded arrays); all must be ≥ ``kmer`` long.
    database:
        A :class:`~repro.search.seeds.ReferenceIndex`, an encoded array /
        str sequence, FastaRecord(s), or an iterator or list of
        :class:`~repro.workloads.chunks.Chunk` objects (already windowed).
        Records and sequences are seeded through a reference k-mer index:
        the query k-mers are looked up in it and only the windows that
        admit a query reach the verify stage.  A ``ReferenceIndex`` is
        reused (its k-mer table for ``kmer`` is built once, on first use);
        raw records and sequences get a transient one per call, so callers
        searching one reference many times should build the index once.
        Pre-windowed chunks are scanned window by window.
    k / min_score:
        Retention: at most ``k`` hits per query, optionally only those
        scoring ≥ ``min_score``.  With ``verify="full"``, ``min_score`` is
        also the lane kernel's floor: a pair stops being relaxed once its
        score provably cannot reach it (retained hits keep exact scores;
        ``PipelineStats.cells_skipped_bound`` counts the cells saved).
    kmer / min_seeds:
        Seed prefilter: candidates must share ≥ ``min_seeds`` distinct
        k-mers with the window.
    window / overlap:
        Reference windowing; defaults to ``2·max(len(query))`` windows
        overlapping by ``max(len(query)) + band_pad`` so no placement is
        lost at a boundary.  Ignored for pre-windowed chunk databases.
    band / band_pad / anchor:
        Verification band.  ``band=None`` (default) derives it per
        request: the window extent ``|m − n| + band_pad`` covers every
        full-query placement offset plus indel drift, even for
        pre-windowed chunks of any width; with ``anchor=True`` (default)
        the band is instead centered on the request's seed-diagonal
        envelope when it is narrower (quantized so same-band lanes share
        buckets).  An explicit ``band`` is used as-is and disables
        anchoring.
    verify:
        ``"banded"`` (default) or ``"full"`` (exact full-DP verification).
    engine:
        An :class:`ExecutionEngine` to run on (shares its thread pool and
        plan cache); a private one is created otherwise.
    max_in_flight:
        Backpressure budget: admitted-but-unverified candidates.
    lane_verify:
        Sweep whole same-(shape, band) buckets as one lane stack of the
        banded kernel (default); ``False`` verifies each pair on its own,
        as a one-lane call of the same kernel (the benchmark baseline).
    hit_window:
        Keep each retained hit's window bases in ``Hit.meta["window"]``
        (see :class:`~repro.search.topk.TopKReducer`); the read-mapping
        extension stage turns this on so traceback never has to replay
        the chunk stream.
    """
    scheme = scheme if scheme is not None else default_search_scheme()
    if scheme.alignment_type is AlignmentType.LOCAL:
        raise ValidationError("search verification supports global/semiglobal schemes")
    if verify not in ("banded", "full"):
        raise ValidationError(f"verify must be 'banded' or 'full', got {verify!r}")
    check_positive(k, "k")
    index = QueryIndex(queries, k=kmer)
    qmax = int(index.lengths.max())
    window, overlap = resolve_windowing(qmax, window, overlap, band_pad)
    owned_engine = None
    if engine is None:
        engine = owned_engine = ExecutionEngine(scheme, backend="rowscan")
    elif engine.scheme is not scheme and engine.scheme != scheme:
        raise ValidationError("engine scheme does not match the search scheme")
    plan = engine.plan_for("rowscan")
    if verify == "banded":
        stage = BandedVerifyStage(
            plan, band, band_pad=band_pad, anchor=anchor, lane_verify=lane_verify
        )
        # Key buckets on (shape, effective band): same-band lanes stay
        # uniform for the band-specialized kernel.
        batcher = ShapeBatcher(engine.executor.lanes, key_of=stage.band_of)
    else:
        # Exact full-DP verification; lanes that cannot reach min_score
        # stop early (their scores are dropped by the reducer anyway).
        stage = PlanExecutorStage(plan, floor=min_score)
        batcher = ShapeBatcher(engine.executor.lanes)
    reducer = TopKReducer(len(index), k=k, min_score=min_score, keep_window=hit_window)
    prefilter = SeedPrefilter(index, min_seeds=min_seeds)
    pipe = engine.pipeline(
        _seed_source(database, prefilter, window, overlap),
        prefilter=prefilter,
        batcher=batcher,
        stage=stage,
        reducer=reducer,
        max_in_flight=max_in_flight,
        # Observability: the generic pipeline stages are, for a search,
        # the seed prefilter and the (banded) verify executor.
        trace_name="search",
        stage_names={"prefilter": "seed", "execute": "verify"},
    )
    return SearchRun(pipe, reducer, index.queries, owned_engine=owned_engine)


def search_topk(queries, database, **kwargs) -> list[list[Hit]]:
    """Convenience: run :func:`search` to completion, return final top-K."""
    return search(queries, database, **kwargs).topk()


def search_one(query, database, **kwargs) -> list[Hit]:
    """Top-K placements of a *single* query: one query in, its hit list out.

    A thin wrapper over :func:`search`, and the lone answer a coalesced
    ``submit_search`` request of :mod:`repro.serve` must equal (the
    service runs whole buckets through :func:`search_topk`).  Accepts
    every :func:`search` keyword; pass a shared ``engine`` so repeated
    searches reuse one thread pool and plan cache.
    """
    return search_topk([query], database, **kwargs)[0]


def exhaustive_topk(
    queries,
    database,
    *,
    k: int = 10,
    scheme: AlignmentScheme | None = None,
    window: int | None = None,
    overlap: int | None = None,
    band_pad: int = 16,
    min_score: int | None = None,
    engine: ExecutionEngine | None = None,
    slab: int = 4096,
) -> list[list[Hit]]:
    """Full-DP oracle: score *every* (query, window) pair, same retention.

    No prefilter, no band — each window is scored against each query with
    the exact kernels via the engine's batch path (in bounded slabs), and
    hits are retained by the identical ``(score, record, start, chunk)``
    total order as the streaming pipeline and the sharded merge.  Quadratic in database size: the correctness
    referee and benchmark baseline, not a serving path.
    """
    scheme = scheme if scheme is not None else default_search_scheme()
    enc_q = [encode(q) for q in queries]
    qmax = max(q.size for q in enc_q)
    window, overlap = resolve_windowing(qmax, window, overlap, band_pad)
    owned_engine = None
    if engine is None:
        engine = owned_engine = ExecutionEngine(scheme, backend="rowscan")
    reducer = TopKReducer(len(enc_q), k=k, min_score=min_score)

    pending_q: list = []
    pending_meta: list = []

    def flush():
        nonlocal pending_q, pending_meta
        if not pending_q:
            return
        scores = engine.submit_batch(
            pending_q, [chunk.sequence for _, chunk in pending_meta]
        )
        for (qid, chunk), score in zip(pending_meta, scores):
            reducer.offer(qid, chunk, int(score))
        pending_q, pending_meta = [], []

    try:
        for chunk in _chunk_source(database, window, overlap):
            for qid, q in enumerate(enc_q):
                pending_q.append(q)
                pending_meta.append((qid, chunk))
            if len(pending_q) >= slab:
                flush()
        flush()
    finally:
        if owned_engine is not None:
            owned_engine.close()
    return reducer.results()
