"""End-to-end read mapping: reads in → exact placements/CIGARs out.

:func:`map_reads` is the scenario entry point (the paper's §V use case
ii turned into a product surface): a :class:`~repro.workloads.reads.ReadSet`,
FASTA records, or raw sequences stream through the existing search
pipeline (seed prefilter → banded verify → bounded top-K) on **both
strands**, the retained hits are extended to exact placements
(:mod:`repro.mapping.extend`), and overlapping-window duplicates
collapse under one deterministic total order
(:mod:`repro.mapping.dedup`).  Per-stage counts land in the
``perf.report`` format via :meth:`MappingResult.report`; stage times are
read once, as the ``map.extend`` and ``map.dedup`` spans and the search
pipeline's stage ledger.

:func:`exhaustive_map` is the correctness oracle: full-DP scoring of
*every* (oriented read, window) pair with the identical retention order,
followed by full-window traceback for every retained hit and the same
dedup — no prefilter, no band, no envelope slicing anywhere.  Every fast
path (single-process, pool-served, routed) is asserted bit-identical to
it in the tests and the mapping benchmark.

:func:`shard_map_placements` is the shared per-shard stage — search +
extend, *no* final dedup — whose output feeds
:func:`~repro.mapping.dedup.merge_mapped`; the single-process path runs
it once, the worker pool once per shard.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace

import numpy as np

from repro.mapping.dedup import DedupStats, merge_mapped
from repro.mapping.extend import ExtendStats, Placement, extend_hits
from repro.obs import get_tracer
from repro.search.pipeline import (
    SearchConfig,
    _chunk_source,
    exhaustive_topk,
    resolve_windowing,
)
from repro.util.checks import ValidationError, check_no_callables, check_positive
from repro.util.encoding import encode, reverse_complement
from repro.workloads.reads import ReadSet

__all__ = [
    "MappingConfig",
    "MappingResult",
    "exhaustive_map",
    "map_one",
    "map_reads",
    "resolve_config",
    "shard_map_placements",
    "true_origin_accuracy",
]


@dataclass(frozen=True)
class MappingConfig:
    """Picklable-by-construction parameterisation of one mapping run.

    ``search`` governs the hit-finding stage (its ``k`` is the per-
    oriented-query hit budget, its ``min_score``/windowing apply
    unchanged); the fields here govern what mapping adds on top.  Frozen
    and callable-free so a config crosses the worker-pool boundary
    intact, like :class:`~repro.search.pipeline.SearchConfig` does.

    The default search stage uses ``verify="full"`` — exact window
    scores, unlike plain search's banded default.  Mapping's oracle
    contract (bit-identity with :func:`exhaustive_map`) needs hit scores
    the oracle agrees with: a verify *band* clips the score of boundary-
    straddling shadow placements, which changes what survives
    ``min_score``.  The fast path's speedup comes from the seed
    prefilter rejecting unseeded windows, and from full verify using
    ``min_score`` as its floor: lanes whose score provably cannot reach
    it stop early, while every pair that can keeps its exact score — the
    ones the oracle retains.
    """

    search: SearchConfig = field(
        default_factory=lambda: SearchConfig(verify="full")
    )
    k: int = 5  # placements kept per read after dedup
    traceback: str = "banded"  # "banded" (envelope slice + certificate) | "full"
    extend_pad: int = 16  # slice margin around the seed envelope
    both_strands: bool = True

    def __post_init__(self):
        check_no_callables(self)
        check_positive(self.k, "k")
        if self.traceback not in ("banded", "full"):
            raise ValidationError(
                f"traceback must be 'banded' or 'full', got {self.traceback!r}"
            )
        if not isinstance(self.search, SearchConfig):
            raise ValidationError("MappingConfig.search must be a SearchConfig")

    def orientations(self) -> int:
        return 2 if self.both_strands else 1


_MAPPING_FIELDS = frozenset(
    f.name for f in dataclasses.fields(MappingConfig) if f.name != "search"
)


def resolve_config(config: MappingConfig | None = None, **kwargs) -> MappingConfig:
    """Build/refine a :class:`MappingConfig` from loose keyword arguments.

    Keywords split by name: mapping-level fields (``k``, ``traceback``,
    ``extend_pad``, ``both_strands``) land on the config itself, search
    fields (``kmer``, ``min_score``, ``band_pad``, ...) on its embedded
    :class:`SearchConfig` — so serving overrides stay flat.  Note ``k``
    names the *placement* budget here; the per-query hit budget is
    ``search.k`` (override via ``config=``).
    """
    cfg = config if config is not None else MappingConfig()
    map_kw = {k: kwargs.pop(k) for k in _MAPPING_FIELDS & kwargs.keys()}
    try:
        search_cfg = cfg.search.with_overrides(**kwargs)
    except ValidationError as exc:
        # Unknown names are reported as the mapping call's own.
        raise ValidationError(str(exc).replace("unknown search", "unknown mapping")) from None
    if map_kw or search_cfg is not cfg.search:
        cfg = replace(cfg, search=search_cfg, **map_kw)
    return cfg


def _encode_reads(reads) -> list[np.ndarray]:
    """Normalize the accepted read shapes into encoded arrays."""
    if isinstance(reads, ReadSet):
        return [np.ascontiguousarray(reads.reads[i]) for i in range(len(reads))]
    if isinstance(reads, np.ndarray) and reads.ndim == 2:
        return [np.ascontiguousarray(row) for row in reads]
    if hasattr(reads, "sequence"):  # single FastaRecord
        return [encode(reads.sequence)]
    if isinstance(reads, (list, tuple)):
        return [
            encode(r.sequence) if hasattr(r, "sequence") else encode(r) for r in reads
        ]
    return [encode(reads)]


def _oriented(enc_reads: list, cfg: MappingConfig) -> list:
    """Forward reads then (optionally) their reverse complements."""
    if not cfg.both_strands:
        return enc_reads
    return enc_reads + [reverse_complement(r) for r in enc_reads]


@dataclass
class MappingResult:
    """Placements per read plus per-stage counts.

    ``placements[r]`` is read ``r``'s final list, best first under the
    dedup total order; :meth:`best` is the primary placement.  ``report``
    renders the search/extend/dedup stage table in the ``perf.report``
    format.  Times are not kept here: traced runs carry them as spans.
    """

    placements: list[list[Placement]]
    num_reads: int
    config: MappingConfig
    extend: ExtendStats
    dedup: DedupStats
    search_stats: object = None  # PipelineStats (None for the oracle)
    oracle: bool = False

    def best(self, read_id: int) -> Placement | None:
        hits = self.placements[read_id]
        return hits[0] if hits else None

    @property
    def mapped_reads(self) -> int:
        return sum(1 for p in self.placements if p)

    @property
    def total_placements(self) -> int:
        return sum(len(p) for p in self.placements)

    def report(self) -> str:
        from repro.perf.report import mapping_stats_table

        return mapping_stats_table(self)


def _extend_all(
    enc_reads: list,
    hits_per_oriented: list,
    cfg: MappingConfig,
    scheme,
    *,
    windows: dict | None = None,
    mode: str | None = None,
) -> tuple[list, ExtendStats]:
    """Extend every retained hit of the call in one :func:`extend_hits`
    pass (lane rounds); per-read placement lists in hit order, pre-dedup.

    ``windows`` maps chunk_id → window bases for hits that do not carry
    their window in ``meta`` (the exhaustive oracle path); ``mode``
    overrides the config's traceback mode.
    """
    num_reads = len(enc_reads)
    oriented = _oriented(enc_reads, cfg)
    mode = mode if mode is not None else cfg.traceback
    stats = ExtendStats()
    items = [
        (
            oriented[qid],
            hit,
            windows.get(hit.chunk_id) if windows is not None else None,
            qid % num_reads,
            "-" if qid >= num_reads else "+",
        )
        for qid, hits in enumerate(hits_per_oriented)
        for hit in hits
    ]
    placed = extend_hits(items, scheme, mode=mode, extend_pad=cfg.extend_pad, stats=stats)
    per_read: list = [[] for _ in range(num_reads)]
    for p in placed:
        per_read[p.query_id].append(p)
    return per_read, stats


def _strip_windows(per_read: list) -> None:
    """Drop stashed window bases from hit meta (post-extension baggage)."""
    for placements in per_read:
        for p in placements:
            if p.hit is not None and p.hit.meta:
                p.hit.meta.pop("window", None)


def shard_map_placements(
    enc_reads: list,
    database,
    cfg: MappingConfig,
    search_cfg: SearchConfig | None = None,
    *,
    engine=None,
) -> tuple[list, object, ExtendStats]:
    """One shard's mapping stage: search + extend, **no** final dedup.

    Returns ``(per_read_placements, pipeline_stats, extend_stats)``
    where the placement lists carry one entry per locally retained hit —
    exactly what :func:`~repro.mapping.dedup.merge_mapped` consumes.
    ``search_cfg`` (already resolved, e.g. by the pool for windowing
    parity) defaults to the config's own search settings.
    """
    from repro.search.pipeline import search

    tracer = get_tracer()
    search_cfg = search_cfg if search_cfg is not None else cfg.search
    search_cfg = replace(search_cfg, hit_window=True)
    if not enc_reads:
        return [], None, ExtendStats()
    oriented = _oriented(enc_reads, cfg)
    run = search(oriented, database, engine=engine, **search_cfg.search_kwargs())
    hits = run.topk()
    scheme = search_cfg.resolved_scheme()
    with tracer.span("map.extend", hits=sum(len(h) for h in hits)):
        per_read, ext = _extend_all(enc_reads, hits, cfg, scheme)
    _strip_windows(per_read)
    return per_read, run.stats, ext


def map_reads(
    reads,
    database,
    *,
    config: MappingConfig | None = None,
    engine=None,
    **kwargs,
) -> MappingResult:
    """Map reads against a reference database (the scenario entry point).

    ``reads`` is a :class:`~repro.workloads.reads.ReadSet`, FASTA
    record(s), raw sequence(s), or a 2-D encoded array; ``database`` is
    anything :func:`repro.search.search` accepts.  ``kwargs`` refine the
    config via :func:`resolve_config` (``k=3`` keeps 3 placements per
    read; search fields like ``min_score`` pass through to the hit
    stage).  Output is bit-identical to :func:`exhaustive_map` whenever
    the search stage retains the oracle's hit set (asserted on the
    read-mapping workloads in tests and the benchmark).
    """
    cfg = resolve_config(config, **kwargs)
    enc_reads = _encode_reads(reads)
    tracer = get_tracer()
    with tracer.span("map_reads", reads=len(enc_reads)):
        per_read, run_stats, ext = shard_map_placements(
            enc_reads, database, cfg, engine=engine
        )
        dd = DedupStats()
        with tracer.span("map.dedup"):
            final = merge_mapped(
                [per_read],
                num_reads=len(enc_reads),
                num_oriented=len(enc_reads) * cfg.orientations(),
                hit_k=cfg.search.k,
                k=cfg.k,
                min_score=cfg.search.min_score,
                stats=dd,
            )
    return MappingResult(
        placements=final,
        num_reads=len(enc_reads),
        config=cfg,
        extend=ext,
        dedup=dd,
        search_stats=run_stats,
    )


def map_one(read, database, *, engine=None, config=None, **kwargs) -> list[Placement]:
    """Placements of a *single* read: the lone answer a coalesced
    ``submit_map`` request must equal (the service maps whole buckets
    through :func:`map_reads`)."""
    return map_reads(
        [read], database, config=config, engine=engine, **kwargs
    ).placements[0]


def exhaustive_map(
    reads,
    database,
    *,
    config: MappingConfig | None = None,
    engine=None,
    **kwargs,
) -> MappingResult:
    """Full-DP mapping oracle: every pair scored, every hit fully traced.

    No seed prefilter, no verification band, no envelope slicing: every
    (oriented read, window) pair is scored exactly
    (:func:`~repro.search.pipeline.exhaustive_topk`, identical retention
    order), every retained hit is re-aligned on its whole window, and
    the same dedup ranks the results.  Quadratic — the correctness
    referee and benchmark baseline, not a serving path.
    """
    cfg = resolve_config(config, **kwargs)
    enc_reads = _encode_reads(reads)
    oriented = _oriented(enc_reads, cfg)
    s = cfg.search
    scheme = s.resolved_scheme()
    if not oriented:
        return MappingResult(
            placements=[],
            num_reads=0,
            config=cfg,
            extend=ExtendStats(),
            dedup=DedupStats(),
            oracle=True,
        )
    qmax = max(q.size for q in oriented)
    window, overlap = resolve_windowing(qmax, s.window, s.overlap, s.band_pad)
    # Materialize the windows once: the oracle replays them for both the
    # scoring sweep and the per-hit traceback.
    chunks = list(_chunk_source(database, window, overlap))
    hits = exhaustive_topk(
        oriented,
        chunks,
        k=s.k,
        scheme=scheme,
        window=window,
        overlap=overlap,
        band_pad=s.band_pad,
        min_score=s.min_score,
        engine=engine,
    )
    windows = {c.id: c.sequence for c in chunks}
    per_read, ext = _extend_all(
        enc_reads, hits, cfg, scheme, windows=windows, mode="full"
    )
    dd = DedupStats()
    final = merge_mapped(
        [per_read],
        num_reads=len(enc_reads),
        num_oriented=len(oriented),
        hit_k=s.k,
        k=cfg.k,
        min_score=s.min_score,
        stats=dd,
    )
    return MappingResult(
        placements=final,
        num_reads=len(enc_reads),
        config=cfg,
        extend=ext,
        dedup=dd,
        search_stats=None,
        oracle=True,
    )


def true_origin_accuracy(
    result: MappingResult | list, origins, *, tolerance: int = 5
) -> float:
    """Fraction of reads whose *best* placement recovers its true origin.

    A read counts as correctly placed when its primary placement matches
    the ground-truth ``(record, position, strand)`` with ``ref_start``
    within ``tolerance`` bases of the true position (end errors under
    free-end-gap alignment can legally shift the first aligned base by a
    couple of positions).
    """
    placements = result.placements if isinstance(result, MappingResult) else result
    if len(placements) != len(origins):
        raise ValidationError(
            f"{len(placements)} placement lists vs {len(origins)} origins"
        )
    correct = 0
    for per_read, (record, position, strand) in zip(placements, origins):
        if not per_read:
            continue
        best = per_read[0]
        if (
            best.record == record
            and best.strand == strand
            and abs(best.ref_start - int(position)) <= tolerance
        ):
            correct += 1
    return correct / len(placements) if placements else 0.0
