"""Lane-batched banded verify vs. the per-pair window-extent sweep.

The verify stage is where the search pipeline spends its time once the
seed prefilter has done its job.  This bench isolates that stage and
compares the two verify configurations on the same workload:

* **A — legacy**: ``anchor=False, lane_verify=False`` — every admitted
  (query, window) pair runs on its own, as a one-lane call of the
  compiled banded kernel on 1-D rows, with the window-extent band
  ``|m - n| + band_pad``.
* **B — lane kernel**: the default — bands are centred on the seed
  diagonals reported by the prefilter, pairs are bucketed by
  (shape, band), and each full bucket executes as one lane stack of the
  same compiled ``stage/`` kernel; stragglers run one lane each.

Both modes run the one banded kernel, so the speedup is what lane
batching and seed-anchored bands buy over per-pair calls.  The JSON keeps
its ``window_extent_scalar`` key for mode A so results stay comparable
across runs.

Queries are substitution-only so lengths stay uniform: indel-varied
lengths fragment the (shape, band) buckets into the straggler path,
which is exactly what the per-path accounting below makes visible.

The acceptance bar is a ≥3× speedup on the verify stage's execute time
with the top-K bit-identical to both the per-pair path (A) and the
full-DP ``exhaustive_topk`` oracle.  ``band_pad=32`` keeps every
above-threshold shoulder placement inside the extent band so banded and
full DP agree on everything the reducer retains.

``-k smoke`` selects the tiny CI variant (identity only, no speed bar).
"""

import time

from repro.perf import format_table
from repro.search import exhaustive_topk, search
from repro.util.rng import make_rng
from repro.workloads import MutationModel, mutate, random_genome

BAND_PAD = 32


def _workload(ref_len, count, qlen, seed=97, divergence=0.03):
    rng = make_rng(seed)
    ref = random_genome(ref_len, seed=rng)
    positions = rng.integers(0, ref.size - qlen, count)
    model = MutationModel(substitution=divergence, insertion=0.0, deletion=0.0)
    queries = [mutate(ref[p : p + qlen], model, seed=rng) for p in positions]
    return ref, queries, positions


def _flat(topk):
    return [[(h.record, h.start, h.score) for h in hits] for hits in topk]


def _run(queries, ref, window, min_score, **kw):
    t0 = time.perf_counter()
    run = search(
        queries, ref, k=3, window=window, band_pad=BAND_PAD, min_score=min_score, **kw
    )
    topk = _flat(run.topk())
    return run, topk, time.perf_counter() - t0


def _run_comparison(report, name, ref_len, count, qlen, min_speedup):
    ref, queries, positions = _workload(ref_len, count, qlen)
    window, min_score = 2 * qlen, int(2 * qlen * 0.8)

    # One throwaway pass per mode compiles and caches its per-(scheme,
    # band) kernels, so both timed runs measure steady-state execution.
    _run(queries, ref, window, min_score)
    _run(queries, ref, window, min_score, anchor=False, lane_verify=False)
    run_b, topk_b, wall_b = _run(queries, ref, window, min_score)
    run_a, topk_a, wall_a = _run(
        queries, ref, window, min_score, anchor=False, lane_verify=False
    )

    # Bit-identical retained hits: lane kernel + anchored bands vs the
    # scalar window-extent sweep vs the full-DP oracle.
    oracle = _flat(
        exhaustive_topk(
            queries, ref, k=3, window=window, band_pad=BAND_PAD, min_score=min_score
        )
    )
    assert topk_b == topk_a, "lane/anchored top-K diverged from the per-pair banded path"
    assert topk_b == oracle, "banded top-K diverged from the full-DP oracle"
    for qid, p in enumerate(positions):
        assert topk_b[qid], f"query {qid} lost its planted hit"
        record, start, _ = topk_b[qid][0]
        assert start <= p < start + window, qid

    exec_a = run_a.stats.stages["execute"].seconds
    exec_b = run_b.stats.stages["execute"].seconds
    speedup = exec_a / exec_b
    paths_a = run_a.pipeline.stage.path_stats()
    paths_b = run_b.pipeline.stage.path_stats()
    cells_a = run_a.stats.cells_computed
    cells_b = run_b.stats.cells_computed

    table = format_table(
        ("verify path", "exec s", "pairs", "cells computed", "speedup"),
        [
            (
                "A: per-pair one-lane calls, window-extent bands",
                f"{exec_a:7.3f}",
                paths_a["fallback"]["pairs"],
                cells_a,
                "1.0x",
            ),
            (
                "B: lane kernel, seed-anchored bands",
                f"{exec_b:7.3f}",
                paths_b["lanes"]["pairs"] + paths_b["fallback"]["pairs"],
                cells_b,
                f"{speedup:.1f}x",
            ),
        ],
        title=(
            f"Banded verify: {count} queries ({qlen} bp) vs {ref_len:,} bp reference"
        ),
    )
    report(
        name,
        table + "\n\n" + run_b.report(),
        data={
            "ref_len": ref_len,
            "queries": count,
            "query_len": qlen,
            "band_pad": BAND_PAD,
            "verify_exec_s": {"window_extent_scalar": exec_a, "anchored_lanes": exec_b},
            "wall_s": {"window_extent_scalar": wall_a, "anchored_lanes": wall_b},
            "speedup": speedup,
            "paths": {"window_extent_scalar": paths_a, "anchored_lanes": paths_b},
            "cells_computed": {"window_extent_scalar": cells_a, "anchored_lanes": cells_b},
            "cells_skipped": {
                "band_vs_full": run_b.stats.cells_skipped_band,
                "anchor_vs_extent": cells_a - cells_b,
            },
            "bar_enforced": bool(min_speedup),
            "min_speedup": min_speedup,
        },
    )
    if min_speedup:
        assert speedup >= min_speedup, (
            f"lane kernel only {speedup:.1f}x over per-pair one-lane calls "
            f"(need {min_speedup}x)"
        )


def test_banded_lane_kernel(report):
    """Acceptance: ≥3× on the verify stage, top-K bit-identical."""
    _run_comparison(
        report, "banded", ref_len=200_000, count=128, qlen=200, min_speedup=3.0
    )


def test_banded_smoke(report):
    """Tiny CI variant: bit-identical top-K, speed recorded but not gated."""
    _run_comparison(
        report, "banded_smoke", ref_len=30_000, count=16, qlen=100, min_speedup=0
    )
