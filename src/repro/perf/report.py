"""Benchmark reporting helpers and the code-sharing breakdown (§IV).

The paper reports that of its code base ~23 % is GPU-specific, ~14 %
SIMD-specific, <11 % scalar-CPU-specific and ~52 % shared.  This repo's
own breakdown is computed from its sources by :func:`code_sharing`, giving
the reproduction's answer to the same question.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "format_table",
    "code_sharing",
    "cache_stats_table",
    "mapping_stats_table",
    "pipeline_stats_table",
    "service_stats_table",
    "pool_stats_table",
    "trace_tree",
    "snapshot",
    "CodeSharing",
]


def format_table(headers, rows, title: str = "") -> str:
    """Fixed-width text table for benchmark output."""
    cols = len(headers)
    widths = [len(str(h)) for h in headers]
    srows = [[str(c) for c in r] for r in rows]
    for r in srows:
        for i in range(cols):
            widths[i] = max(widths[i], len(r[i]))
    sep = "  "
    out = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    out.append(sep.join(str(h).ljust(widths[i]) for i, h in enumerate(headers)))
    out.append(sep.join("-" * widths[i] for i in range(cols)))
    for r in srows:
        out.append(sep.join(r[i].ljust(widths[i]) for i in range(cols)))
    return "\n".join(out)


def cache_stats_table(plan_cache=None, engine=None) -> str:
    """Hit/miss statistics of the plan cache and the kernel cache under it.

    ``plan_cache`` defaults to the process-wide engine plan cache; pass an
    :class:`repro.engine.ExecutionEngine` as ``engine`` to append its work
    accounting (batches, lane blocks, scalar pops, backends used).
    """
    if plan_cache is None:
        from repro.engine.plans import global_plan_cache as plan_cache

    s = plan_cache.stats()

    def rate(hits, misses):
        total = hits + misses
        return f"{100 * hits / total:.1f}%" if total else "-"

    rows = [
        ("plan", s["plans"], s["plan_hits"], s["plan_misses"], rate(s["plan_hits"], s["plan_misses"])),
        ("kernel", s["kernels"], s["kernel_hits"], s["kernel_misses"], rate(s["kernel_hits"], s["kernel_misses"])),
    ]
    out = format_table(
        ("cache", "entries", "hits", "misses", "hit rate"), rows, title="Execution caches"
    )
    if engine is not None:
        st = engine.stats
        ps = st.pipeline
        work = format_table(
            ("batches", "pairs", "cells", "lane blocks", "scalar pops", "backends"),
            [
                (
                    ps.batches,
                    ps.pairs,
                    ps.cells_computed,
                    ps.lane_blocks,
                    ps.scalar_pops,
                    ", ".join(f"{k}x{v}" for k, v in sorted(st.backends_used.items())) or "-",
                )
            ],
            title="Engine work",
        )
        out = out + "\n\n" + work
    return out


def pipeline_stats_table(stats, title: str = "Streaming pipeline", verify=None) -> str:
    """Per-stage counts and ledger time plus work-avoidance accounting.

    ``stats`` is a :class:`repro.engine.stages.PipelineStats`.  The first
    table counts each stage (source, prefilter, batch, execute, reduce)
    and shows the ledger time of the timed ones (``-`` for the source and
    batcher, which are counted only); the second summarises what the
    pipeline *did not* have to compute: candidates rejected before DP,
    cells skipped by the prefilter, cells skipped by banding, and the
    effective GCUPS over relaxed cells.

    ``verify`` optionally passes the verify stage object; when it exposes
    ``path_stats()`` (e.g. :class:`repro.search.BandedVerifyStage`), a
    third table splits verified pairs and relaxed cells per execution
    path — lane kernel versus per-pair fallback sweep.
    """
    stage_rows = []
    for name, st in stats.stages.items():
        if st.calls == 0 and st.items == 0:
            continue
        timed = st.seconds > 0
        rate = f"{st.items / st.seconds:,.0f}" if timed and st.items else "-"
        ms = f"{st.seconds * 1e3:.1f}" if timed else "-"
        stage_rows.append((name, st.calls, st.items, ms, rate))
    out = format_table(
        ("stage", "calls", "items", "ms", "items/s"), stage_rows, title=title
    )
    total_cells = stats.cells_computed + stats.cells_skipped
    summary = format_table(
        ("metric", "value"),
        [
            ("source items (windows, lookups)", stats.items_in),
            ("candidate pairs", stats.candidates),
            ("admitted / rejected", f"{stats.admitted} / {stats.rejected}"),
            ("prefilter rejection rate", f"{100 * stats.rejection_rate:.1f}%"),
            ("batches (lane / scalar)", f"{stats.lane_blocks} / {stats.scalar_pops}"),
            ("pairs verified", stats.pairs),
            ("cells computed", stats.cells_computed),
            ("cells skipped (prefilter)", stats.cells_skipped_prefilter),
            ("cells skipped (band)", stats.cells_skipped_band),
            ("cells skipped (bound)", stats.cells_skipped_bound),
            (
                "work avoided",
                f"{100 * stats.cells_skipped / total_cells:.1f}%" if total_cells else "-",
            ),
            ("effective GCUPS", f"{stats.gcups:.4f}"),
            ("backpressure flushes", stats.flushes),
            ("max buffered requests", stats.max_buffered),
        ],
        title="Work accounting",
    )
    out = out + "\n\n" + summary
    path_stats = getattr(verify, "path_stats", None)
    if path_stats is not None:
        paths = path_stats()
        total_pairs = sum(p["pairs"] for p in paths.values())
        if total_pairs:
            # Both paths run the one banded kernel: a lane stack per
            # bucket, or one-lane calls for stragglers and lane-less plans.
            path_rows = [
                (
                    {"lanes": "lane stack", "fallback": "one lane"}.get(name, name),
                    p["pairs"],
                    p["cells"],
                    f"{100 * p['pairs'] / total_pairs:.1f}%",
                )
                for name, p in paths.items()
            ]
            out = out + "\n\n" + format_table(
                ("verify path", "pairs", "cells computed", "share"),
                path_rows,
                title="Verify paths",
            )
    return out


def mapping_stats_table(result, title: str = "Read mapping") -> str:
    """Per-stage accounting for one :func:`repro.mapping.map_reads` run.

    ``result`` is a :class:`repro.mapping.MappingResult`.  The headline
    table counts the mapping-specific stages — extension traceback path
    split (envelope slice vs full window) and dedup collapse — followed
    by the underlying search pipeline's own table when its stats were
    kept (the oracle has none).  Extension and dedup times are the
    ``map.extend`` / ``map.dedup`` spans of a traced run.
    """
    ext, dd = result.extend, result.dedup
    rows = [
        ("reads", result.num_reads),
        ("mapped reads", result.mapped_reads),
        ("placements", result.total_placements),
        ("hits extended", ext.hits),
        ("extension: banded accepts", ext.banded),
        (
            "extension: fallbacks (score / edge)",
            f"{ext.fallback_score} / {ext.fallback_edge}",
        ),
        ("extension: full-window", ext.full),
        ("traceback cells (banded / full)", f"{ext.cells_banded} / {ext.cells_full}"),
        ("dedup offered", dd.offered),
        ("dedup collapsed duplicates", dd.duplicates),
        ("path", "exhaustive oracle" if result.oracle else "seed+extend"),
    ]
    out = format_table(("metric", "value"), rows, title=title)
    if result.search_stats is not None:
        out += "\n\n" + pipeline_stats_table(
            result.search_stats, title="Hit search pipeline"
        )
    return out


def service_stats_table(service_or_stats, title: str = "Alignment service") -> str:
    """Serving-front accounting: admission, latency, batch occupancy.

    Accepts an :class:`repro.serve.AlignmentService` (adds the live queue
    depth) or a bare :class:`repro.serve.stats.ServiceStats`.  The first
    table summarises admission and latency percentiles; the second is the
    batch-occupancy histogram — how full the micro-batcher actually got
    the lanes, the serving layer's whole reason to exist.
    """
    stats = getattr(service_or_stats, "stats", service_or_stats)
    snap = stats.snapshot()
    depth = getattr(service_or_stats, "queue_depth", None)
    rejected = snap["rejected"]
    flush = snap["flush_causes"]
    rows = [
        ("submitted", snap["submitted"]),
        ("completed", snap["completed"]),
        ("failed", snap["failed"]),
        (
            "rejected",
            ", ".join(f"{k}={v}" for k, v in sorted(rejected.items())) or "0",
        ),
        ("queue depth (now / hwm)", f"{depth if depth is not None else '-'} / {snap['queue_depth_hwm']}"),
        ("batches dispatched", snap["batches"]),
        (
            "flush causes",
            ", ".join(f"{k}={v}" for k, v in sorted(flush.items())) or "-",
        ),
        ("mean batch occupancy", f"{snap['mean_occupancy']:.1f}"),
        ("latency p50 / p99 (ms)", f"{snap['latency_p50_ms']:.2f} / {snap['latency_p99_ms']:.2f}"),
        ("latency mean / max (ms)", f"{snap['latency_mean_ms']:.2f} / {snap['latency_max_ms']:.2f}"),
    ]
    out = format_table(("metric", "value"), rows, title=title)
    occ = stats.occupancy_histogram()
    if occ:
        out += "\n\n" + format_table(
            ("batch size", "batches"), occ, title="Batch occupancy"
        )
    return out


def pool_stats_table(pool_or_stats, title: str = "Shard worker pool") -> str:
    """Residency/reuse accounting for a persistent shard worker pool.

    ``pool_or_stats`` is a :class:`repro.shard.pool.ShardWorkerPool` or
    its :class:`repro.shard.stats.PoolStats`.  The headline numbers are
    the ones the pool exists for: how many rounds were served warm (no
    spawn, no payload transfer) and how small the one-time shared-memory
    publication is.  The last round's per-shard rows show how evenly chunk
    ownership spread the work.  Spawn and swap times are the
    ``pool.spawn`` / ``pool.swap`` spans.
    """
    stats = getattr(pool_or_stats, "stats", pool_or_stats)
    snap = stats.as_dict()
    last = snap["last_run"]
    rows = [
        ("shards", snap["num_shards"]),
        ("command rounds (warm / cold)",
         f"{snap['searches']} ({snap['warm_searches']} / {snap['cold_searches']})"),
        ("reference swaps", snap["swaps"]),
        ("worker spawns (respawns)", f"{snap['spawns']} ({snap['respawns']})"),
        ("payload transport", snap["transport"]),
        ("published payload (bytes)", snap["payload_bytes"]),
    ]
    out = format_table(("metric", "value"), rows, title=title)
    if last is not None:
        shard_rows = [list(row.values()) for row in last["workers"]]
        shard_rows.append(["total", *last["totals"].values()])
        warmth = "warm" if last["warm"] else "cold, spawned this round"
        out += "\n\n" + format_table(
            ("shard", *last["totals"]),
            shard_rows,
            title=f"Last round ({last['num_shards']} shards, {warmth})",
        )
    return out


def trace_tree(spans, title: str = "Trace") -> str:
    """Plain-text tree of one (or several) traces' span hierarchies.

    ``spans`` is an iterable of :class:`repro.obs.Span` (e.g. from
    :meth:`repro.obs.Tracer.spans`).  Each root is rendered with its
    descendants indented beneath it, siblings in start order; every row
    shows the span's process, duration, and the offset of its start from
    the root's start — a text-mode cousin of the Chrome ``trace_event``
    export for terminals and logs.
    """
    spans = list(spans)
    if not spans:
        return f"{title}\n{'=' * len(title)}\n(no spans)"
    by_id = {s.span_id: s for s in spans}
    children: dict = {}
    roots = []
    for s in spans:
        if s.parent_id is not None and s.parent_id in by_id:
            children.setdefault(s.parent_id, []).append(s)
        else:
            roots.append(s)
    for kids in children.values():
        kids.sort(key=lambda s: s.start_us)
    roots.sort(key=lambda s: s.start_us)

    lines = [title, "=" * len(title)]

    def render(span, depth, origin_us):
        indent = "  " * depth
        offset_ms = (span.start_us - origin_us) / 1e3
        lines.append(
            f"{indent}{span.name}  [{span.process}]  "
            f"+{offset_ms:.3f}ms  {span.dur_us / 1e3:.3f}ms"
        )
        for kid in children.get(span.span_id, ()):
            render(kid, depth + 1, origin_us)

    for root in roots:
        render(root, 0, root.start_us)
    return "\n".join(lines)


def snapshot(
    *,
    pipelines=None,
    services=None,
    pools=None,
    registry=None,
    tracer=None,
) -> dict:
    """One JSON document aggregating every layer's stats with the registry.

    Each keyword takes an iterable of the corresponding stats holders (or
    objects exposing ``.stats``): pipeline/stage tables, serving fronts
    and worker pools.  ``registry``
    defaults to the process-wide :func:`repro.obs.get_registry`;
    ``tracer`` (optional) contributes the finished-span count and the
    rendered trace tree.  The result is ``json.dumps``-ready — the single
    exportable telemetry document for bench files and debugging dumps.
    """
    from repro.obs import get_registry

    def stats_of(obj):
        stats = getattr(obj, "stats", obj)
        return stats.as_dict() if hasattr(stats, "as_dict") else stats.snapshot()

    doc: dict = {
        "pipelines": [stats_of(p) for p in (pipelines or ())],
        "services": [stats_of(s) for s in (services or ())],
        "pools": [stats_of(p) for p in (pools or ())],
    }
    doc["metrics"] = (registry or get_registry()).as_dict()
    if tracer is not None:
        spans = tracer.spans()
        doc["trace"] = {"spans": len(spans), "tree": trace_tree(spans)}
    return doc


#: Subsystem classification: which top-level repro subpackages are
#: specific to which execution target (mirroring the paper's breakdown;
#: benchmarking/I/O/workload code is excluded like the paper excludes its
#: supporting code).
_CLASSIFICATION = {
    "gpu": "gpu",
    "fpga": "fpga",
    "cpu": "cpu",
    "core": "shared",
    "stage": "shared",
    "sched": "shared",
    "engine": "shared",
    "search": "shared",
    "serve": "shared",
    "shard": "shared",
    "baselines": None,  # comparators, not part of the library proper
    "workloads": None,  # supporting code (the paper excludes it too)
    "perf": None,
    "util": "shared",
}


@dataclass
class CodeSharing:
    lines: dict

    @property
    def total(self) -> int:
        return sum(self.lines.values())

    def fraction(self, key: str) -> float:
        return self.lines.get(key, 0) / self.total if self.total else 0.0

    def rows(self) -> list:
        return [
            (k, self.lines[k], f"{100 * self.fraction(k):.1f}%")
            for k in sorted(self.lines, key=self.lines.get, reverse=True)
        ]


def code_sharing(package_root=None) -> CodeSharing:
    """Count non-blank, non-comment source lines per execution target."""
    if package_root is None:
        import repro

        package_root = Path(repro.__file__).parent
    package_root = Path(package_root)
    lines: dict = {}
    for sub, target in _CLASSIFICATION.items():
        if target is None:
            continue
        subdir = package_root / sub
        if not subdir.is_dir():
            continue
        count = 0
        for py in subdir.rglob("*.py"):
            for ln in py.read_text().splitlines():
                stripped = ln.strip()
                if stripped and not stripped.startswith("#"):
                    count += 1
        lines[target] = lines.get(target, 0) + count
    return CodeSharing(lines=lines)
