"""Sharded search: warm worker pool vs. cold one-shot pools vs. single.

Two acceptance bars (PR 7), enforced where the parallelism is physically
available (``os.cpu_count() >= num_shards``); the equality assertions are
machine-independent and always on:

* **warm pool vs. single process** — with workers resident and the
  reference published to shared memory, 4-shard search over repeated
  query sets must run ≥ 2× faster than the single-process pipeline;
* **warm pool vs. spawn-per-search** — the same repeated query sets must
  run ≥ 5× faster than a cold one-shot pool per query set (which pays
  process spawn, reference publication and teardown every time).

Every mode's merged top-K must be **bit-identical** to the
single-process result on every repeat; the smoke variants additionally
pin it to the full-DP ``exhaustive_topk`` oracle (tractable at smoke
scale only — the oracle is quadratic).

On smaller hosts the bench still runs, asserts equality, and records
``bar_enforced: false`` in ``BENCH_shard.json`` so the perf trajectory
stays comparable across machines.

``-k "smoke and not pool"`` selects the tiny three-mode CI variant
(single, one-shot, warm pool); ``-k pool_smoke`` the tiny warm-pool and
swap CI variant.
"""

import os
import time

from repro.perf import format_table
from repro.search import search_topk
from repro.search.pipeline import exhaustive_topk
from repro.shard import ShardWorkerPool, ShardPlan
from repro.search import SearchConfig
from repro.util.rng import make_rng
from repro.workloads import MutationModel, mutate, random_genome

#: Query sets served per mode: the reuse bar is about amortizing one-time
#: costs, so every timed mode serves the same set this many times.
REPEATS = 3


def _planted_instance(ref_len, count, qlen, seed, divergence=0.05):
    rng = make_rng(seed)
    ref = random_genome(ref_len, seed=rng)
    positions = rng.integers(0, ref.size - qlen, count)
    model = MutationModel(
        substitution=divergence, insertion=0.001, deletion=0.001, indel_mean=2.0
    )
    queries = [mutate(ref[p : p + qlen], model, seed=rng) for p in positions]
    return ref, queries


def _hit_keys(per_query):
    return [
        [(h.record, h.start, h.end, h.score, h.chunk_id) for h in hits]
        for hits in per_query
    ]


def _oracle_keys(per_query):
    # The prefilterless oracle never counts seeds; everything else must match.
    return [
        [(h.record, h.start, h.end, h.score, h.chunk_id) for h in hits]
        for hits in per_query
    ]


def _run_comparison(
    report,
    name,
    *,
    ref_len,
    count,
    qlen,
    num_shards,
    min_warm_speedup,
    min_reuse_speedup,
    oracle=False,
    **search_kwargs,
):
    ref, queries = _planted_instance(ref_len, count, qlen, seed=71)
    kwargs = dict(k=10, min_seeds=1)
    kwargs.update(search_kwargs)

    # Mode 1: single process, repeated.
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        single = search_topk(queries, ref, **kwargs)
    single_total = time.perf_counter() - t0
    single_s = single_total / REPEATS

    # Mode 2: spawn-per-search — a cold one-shot pool per repeat (spawn,
    # publish and teardown paid every time).
    spawn_runs = []
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        with ShardWorkerPool(
            ref, num_shards=num_shards, timeout=900, **kwargs
        ) as one_shot:
            spawn_runs.append(one_shot.search_topk(queries))
    spawn_total = time.perf_counter() - t0
    spawn_stats = one_shot.stats.snapshot()["last_run"]

    # Mode 3: persistent pool — spawn + publish once, then warm repeats.
    plan = ShardPlan(num_shards=num_shards, search=SearchConfig(**kwargs))
    pool_runs = []
    with ShardWorkerPool(ref, plan=plan, timeout=900) as pool:
        t0 = time.perf_counter()
        pool_runs.append(pool.search_topk(queries))  # cold: pays the spawn
        cold_s = time.perf_counter() - t0
        warm_times = []
        for _ in range(REPEATS - 1):
            t0 = time.perf_counter()
            pool_runs.append(pool.search_topk(queries))
            warm_times.append(time.perf_counter() - t0)
        pool_total = cold_s + sum(warm_times)
        pool_stats = pool.stats.snapshot()
        pool_report = pool.report()

    expect = _hit_keys(single)
    for got in spawn_runs + pool_runs:
        assert _hit_keys(got) == expect, (
            "sharded top-K diverges from the single-process result"
        )
    oracle_checked = False
    if oracle:
        qmax = max(len(q) for q in queries)
        full = exhaustive_topk(
            queries,
            ref,
            k=kwargs["k"],
            min_score=kwargs.get("min_score"),
            window=2 * qmax,
            overlap=qmax + 16,
        )
        assert _oracle_keys(single) == _oracle_keys(full), (
            "single-process top-K diverges from the exhaustive oracle"
        )
        oracle_checked = True

    cores = os.cpu_count() or 1
    bar_enforced = min_warm_speedup is not None and cores >= num_shards
    warm_mean_s = (
        sum(warm_times) / len(warm_times) if warm_times else cold_s
    )
    warm_speedup = single_s / warm_mean_s
    reuse_speedup = spawn_total / pool_total

    table = format_table(
        ("mode", "total s", "per set s", "queries/s", "vs single"),
        [
            (
                f"single process × {REPEATS}",
                f"{single_total:7.3f}",
                f"{single_s:7.3f}",
                f"{count / single_s:,.1f}",
                "1.0x",
            ),
            (
                f"one-shot pool × {REPEATS}",
                f"{spawn_total:7.3f}",
                f"{spawn_total / REPEATS:7.3f}",
                f"{count * REPEATS / spawn_total:,.1f}",
                f"{single_total / spawn_total:.2f}x",
            ),
            (
                f"pool cold + {REPEATS - 1} warm",
                f"{pool_total:7.3f}",
                f"{warm_mean_s:7.3f} (warm)",
                f"{count / warm_mean_s:,.1f} (warm)",
                f"{single_total / pool_total:.2f}x",
            ),
        ],
        title=(
            f"Sharded search: {count} queries vs {ref_len / 1e6:.1f} Mbp "
            f"({num_shards} workers, {cores} cores, {REPEATS} repeats)"
        ),
    )
    report(
        name,
        table + "\n\n" + pool_report,
        data={
            "ref_len": ref_len,
            "queries": count,
            "query_len": qlen,
            "num_shards": num_shards,
            "cores": cores,
            "repeats": REPEATS,
            "single_s": single_s,
            "single_total_s": single_total,
            "spawn_total_s": spawn_total,
            "pool_total_s": pool_total,
            "pool_cold_s": cold_s,
            "pool_warm_mean_s": warm_mean_s,
            "warm_speedup_vs_single": warm_speedup,
            "reuse_speedup_vs_spawn": reuse_speedup,
            "bit_identical": True,
            "oracle_checked": oracle_checked,
            "bar_enforced": bar_enforced,
            "spawn_stats": spawn_stats,
            "pool_stats": pool_stats,
        },
    )
    if bar_enforced:
        assert warm_speedup >= min_warm_speedup, (
            f"warm pool only {warm_speedup:.1f}x over single-process "
            f"(need {min_warm_speedup}x at {num_shards} workers on {cores} cores)"
        )
        assert reuse_speedup >= min_reuse_speedup, (
            f"pool reuse only {reuse_speedup:.1f}x over spawn-per-search "
            f"(need {min_reuse_speedup}x over {REPEATS} repeated query sets)"
        )


def test_shard_speedup(report):
    """Acceptance: warm ≥2× single and ≥5× spawn-per-search (≥4 cores)."""
    _run_comparison(
        report,
        "shard",
        ref_len=1_200_000,
        count=128,
        qlen=120,
        num_shards=4,
        min_warm_speedup=2.0,
        min_reuse_speedup=5.0,
    )


def test_shard_smoke(report):
    """Tiny CI variant: spawn-safe end-to-end equality + oracle, no bars."""
    _run_comparison(
        report,
        "shard_smoke",
        ref_len=40_000,
        count=8,
        qlen=100,
        num_shards=2,
        min_warm_speedup=None,
        min_reuse_speedup=None,
        oracle=True,
        min_score=140,
        verify="full",
    )


def test_pool_smoke(report):
    """Tiny CI variant of the pool path: warm reuse + swap, oracle-pinned."""
    ref, queries = _planted_instance(30_000, 6, 100, seed=72)
    kwargs = dict(k=5, min_seeds=1, min_score=140, verify="full")
    plan = ShardPlan(num_shards=2, search=SearchConfig(**kwargs))
    single = search_topk(queries, ref, **kwargs)
    qmax = max(len(q) for q in queries)
    full = exhaustive_topk(
        queries, ref, k=5, min_score=140, window=2 * qmax, overlap=qmax + 16
    )
    assert _oracle_keys(single) == _oracle_keys(full)

    ref2, queries2 = _planted_instance(20_000, 4, 100, seed=73)
    single2 = search_topk(queries2, ref2, **kwargs)

    with ShardWorkerPool(ref, plan=plan, timeout=900) as pool:
        cold = pool.search_topk(queries)
        warm = pool.search_topk(queries)
        pool.swap_reference(ref2)
        swapped = pool.search_topk(queries2)
        stats = pool.stats.snapshot()
        text = pool.report()

    assert _hit_keys(cold) == _hit_keys(warm) == _hit_keys(single)
    assert _hit_keys(swapped) == _hit_keys(single2)
    assert stats["warm_searches"] == 2 and stats["cold_searches"] == 1
    assert stats["swaps"] == 1 and stats["respawns"] == 0
    report(
        "pool_smoke",
        text,
        data={
            "num_shards": 2,
            "cores": os.cpu_count() or 1,
            "bit_identical": True,
            "oracle_checked": True,
            "pool_stats": stats,
        },
    )
