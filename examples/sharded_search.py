"""Sharded parallel search: the same scan, fanned across worker processes.

Generates a synthetic reference with planted mutated reads, runs the
streaming search pipeline once in-process, then sharded across N worker
processes (each owning every Nth reference window) with
:class:`ShardWorkerPool` — first as a cold one-shot run (a pool used for
one search, so it pays spawn + publish), then repeatedly against a held
pool whose workers stay resident and read the reference from a
shared-memory segment, so warm repeats skip both spawn and payload
transfer.  Every variant's merged top-K is verified
bit-identical — the property that makes sharding a pure throughput knob.
Prints the pool residency and per-shard work/timing tables.

    python examples/sharded_search.py
    python examples/sharded_search.py --ref-length 30000 --queries 8 --shards 2
"""

import argparse
import os
import time

from repro.search import search_topk
from repro.shard import ShardWorkerPool
from repro.util.rng import make_rng
from repro.workloads import MutationModel, mutate, random_genome


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ref-length", type=int, default=400_000, help="reference bp")
    ap.add_argument("--queries", type=int, default=48, help="number of queries")
    ap.add_argument("--read-length", type=int, default=120, help="query bp")
    ap.add_argument("--shards", type=int, default=4, help="worker processes")
    ap.add_argument("--top", type=int, default=5, help="hits kept per query")
    ap.add_argument("--seed", type=int, default=4321)
    args = ap.parse_args()

    rng = make_rng(args.seed)
    print(f"reference: {args.ref_length:,} bp synthetic genome")
    ref = random_genome(args.ref_length, seed=rng)
    positions = rng.integers(0, ref.size - args.read_length, args.queries)
    model = MutationModel(
        substitution=0.03, insertion=0.002, deletion=0.002, indel_mean=2.0
    )
    queries = [mutate(ref[p : p + args.read_length], model, seed=rng) for p in positions]
    print(f"queries:   {args.queries} reads of {args.read_length} bp")
    print(f"host:      {os.cpu_count()} cores, {args.shards} shard workers\n")

    t0 = time.perf_counter()
    single = search_topk(queries, ref, k=args.top)
    single_s = time.perf_counter() - t0
    print(f"single process:      {single_s:6.2f}s")

    t0 = time.perf_counter()
    with ShardWorkerPool(ref, num_shards=args.shards, k=args.top,
                         timeout=900) as one_shot:
        merged = one_shot.search_topk(queries)
    one_shot_s = time.perf_counter() - t0
    print(f"one-shot pool:       {one_shot_s:6.2f}s  "
          f"({single_s / one_shot_s:.2f}x, cold: spawn + publish + teardown)")

    with ShardWorkerPool(ref, num_shards=args.shards, k=args.top,
                         timeout=900) as pool:
        t0 = time.perf_counter()
        cold = pool.search_topk(queries)
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = pool.search_topk(queries)
        warm_s = time.perf_counter() - t0
        print(f"pool, cold:          {cold_s:6.2f}s  "
              f"({single_s / cold_s:.2f}x, pays spawn + publish)")
        print(f"pool, warm:          {warm_s:6.2f}s  "
              f"({single_s / warm_s:.2f}x, resident workers)\n")
        pool_report = pool.report()

    def keys(per_query):
        return [
            [(h.record, h.start, h.end, h.score, h.chunk_id) for h in hits]
            for hits in per_query
        ]

    assert keys(merged) == keys(single), "sharded merge diverged!"
    assert keys(cold) == keys(warm) == keys(single), "pool results diverged!"
    print("every variant's merged top-K is bit-identical to the "
          "single-process result\n")
    print(pool_report)


if __name__ == "__main__":
    main()
